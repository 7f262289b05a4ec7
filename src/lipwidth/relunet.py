"""Constant-width feed-forward ReLU nets as parameter-to-function maps.

The parameter vector concatenates the affine layers in order (layer 0
first), each layer as row-major matrix entries followed by its bias.  On
the unit sup-norm parameter ball the map into C([0,1]^d) is Lipschitz with
the source paper's recursion constant

    C_0 = d + 1,    C_j = W * C_{j-1} + (d + 2) * W**j + 1,

and C_n < (2d+4) * n * W**n.  Its exact Lipschitz constant is

    G* = sum_{j=0}^{n} W**(n-j) * (S_{j-1} + 1) <= C_n,

with H_0 = d + 1, H_j = W * H_{j-1} + 1 (a bound on each output of hidden
layer j), S_j = W * H_j (on their l1 norm) and S_{-1} = d (on the input's):
the l1 norm of the gradient in the parameters is at most G* almost
everywhere, and the pair (1, 1 - t 1) at the all-ones corner, with the input
1, attains G* - O(t).  Both constants are exact integers.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import spaces
from .spaces import PreconditionError

# Default sup-norm grid resolution per axis, by input dimension.
DEFAULT_GRID = {1: 256, 2: 16, 3: 8}

# Parameter pairs per falsification chunk; chunk i draws from the i-th child
# of ``np.random.SeedSequence(seed)``.
VERIFY_CHUNK = 512
# The corner pair's step: (1, 1 - CORNER_STEP * 1), both exact in binary.
CORNER_STEP = 2.0 ** -20


@dataclass(frozen=True)
class ReLUNetConfig:
    d: int          # input dimension
    width: int      # constant hidden width W >= 2
    depth: int      # number of hidden activations n >= 1
    grid: Optional[int] = None  # points per axis for the C(Omega) sup

    def __post_init__(self):
        if self.d < 1 or self.depth < 1:
            raise PreconditionError("d and depth must be >= 1")
        if self.width < 2:
            raise PreconditionError("width must be >= 2")

    @property
    def grid_points(self) -> int:
        return self.grid if self.grid is not None else DEFAULT_GRID.get(self.d, 4)


def param_count(d: int, width: int, depth: int) -> int:
    """W(d+1) + (n-1) W(W+1) + (W+1): all matrix entries plus biases."""
    if d < 1 or width < 1 or depth < 1:
        raise PreconditionError("d, width, depth must be >= 1")
    return width * (d + 1) + (depth - 1) * width * (width + 1) + (width + 1)


def layer_slices(cfg: ReLUNetConfig) -> list:
    """(matrix_slice, bias_slice, rows, cols) per affine layer, in order."""
    W, d, n = cfg.width, cfg.d, cfg.depth
    shapes = [(W, d)] + [(W, W)] * (n - 1) + [(1, W)]
    out = []
    pos = 0
    for rows, cols in shapes:
        a = slice(pos, pos + rows * cols)
        pos += rows * cols
        b = slice(pos, pos + rows)
        pos += rows
        out.append((a, b, rows, cols))
    return out


def layer_output_bound(d: int, width: int, j: int) -> int:
    """(d+2) * W**j, valid for the post-activation output of layer j."""
    return (d + 2) * width ** j


@dataclass(frozen=True)
class LipBoundTrace:
    output_bounds: tuple      # (d+2) W^j per layer j = 0..n-1, exact ints
    constants: tuple          # C_0..C_n, exact ints
    final: int                # C_n
    coarse: int               # (2d+4) * n * W^n
    exact: int                # G*, the exact Lipschitz constant


def lip_bound(cfg: ReLUNetConfig) -> LipBoundTrace:
    """Exact recursion constants and G* (Python integers never overflow)."""
    d, W, n = cfg.d, cfg.width, cfg.depth
    consts = [d + 1]
    for j in range(1, n + 1):
        consts.append(W * consts[-1] + (d + 2) * W ** j + 1)
    coarse = (2 * d + 4) * n * W ** n
    exact, s, h = 0, d, d + 1  # S_{j-1} and H_j, from j = 0
    for j in range(n + 1):
        exact += W ** (n - j) * (s + 1)
        s, h = W * h, W * h + 1
    if not exact <= consts[-1] < coarse:
        raise AssertionError("constants out of order: G* <= C_n < coarse fails")
    return LipBoundTrace(
        output_bounds=tuple(layer_output_bound(d, W, j) for j in range(n)),
        constants=tuple(consts),
        final=consts[-1],
        coarse=coarse,
        exact=exact,
    )


def input_grid(cfg: ReLUNetConfig) -> np.ndarray:
    """Tensor sampling grid of [0,1]^d, (G^d, d)."""
    g = cfg.grid_points
    axis = np.linspace(0.0, 1.0, g)
    mesh = np.meshgrid(*([axis] * cfg.d), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _workspace(cfg: ReLUNetConfig, rows: int, X: np.ndarray) -> tuple:
    """The two (rows, W, P) layer buffers, the (rows, 1, P) output rows and the
    transposed grid of forward passes over at most ``rows`` parameter rows on
    X's P points.  At d = 1 the grid gets a zero row: numpy's matmul keeps an
    inner dimension of 1 off BLAS."""
    grid = np.zeros((max(2, cfg.d), X.shape[0]))
    grid[:cfg.d] = X.T
    layer = (rows, cfg.width, X.shape[0])
    return np.empty(layer), np.empty(layer), np.empty((rows, 1, X.shape[0])), grid


def _batched_forward(cfg: ReLUNetConfig, ys: np.ndarray, X: np.ndarray, ws=None):
    """Outputs (T, P) for T parameter vectors over P grid points, and the
    largest activation after each hidden layer.

    The rows go through the net as one block: layer 0 is one GEMM over the
    shared grid, later layers alternate between the two layer buffers, and
    the last layer writes into the output rows.  The caller bounds T so that
    the (T, W, P) activations stay in cache (``_falsify_chunks``).  ``ws``,
    from ``_workspace`` for at least T rows on X, holds the buffers, the
    outputs and the grid; without it they are allocated for this call."""
    T = ys.shape[0]
    first, second, out, grid = ws if ws is not None else _workspace(cfg, T, X)
    h, buf, out = first[:T], second[:T], out[:T]  # out: a 1 x P matrix per row
    layer_max = []  # h >= 0 after each ReLU
    slices = layer_slices(cfg)
    a, b, rows, cols = slices[0]
    # at d = 1 a zero column meets the grid's zero row; the sums keep their
    # bytes, signed zeros included
    K, P = grid.shape
    weights = np.zeros((T, rows, K))
    weights[:, :, :cols] = ys[:, a].reshape(T, rows, cols)
    np.matmul(weights.reshape(T * rows, K), grid, out=h.reshape(T * rows, P))
    for j, (a, b, rows, cols) in enumerate(slices[:-1]):
        if j:
            np.matmul(ys[:, a].reshape(T, rows, cols), h, out=buf)
            h, buf = buf, h
        h += ys[:, b][:, :, None]
        np.maximum(h, 0.0, out=h)
        layer_max.append(float(h.max(initial=0.0)))
    a, b, rows, cols = slices[-1]
    np.matmul(ys[:, a].reshape(T, rows, cols), h, out=out)
    out[:, 0] += ys[:, b]
    return out[:, 0, :], layer_max


def worker_count() -> int:
    """Threads the falsifier may use: the CPUs in this process's affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _falsify_chunks(cfg: ReLUNetConfig, seeds: list, trials: int, X: np.ndarray,
                    chunks: range) -> tuple:
    """Largest ratio and per-layer maxima over the chunks ``chunks``.

    Chunk i holds pairs i * VERIFY_CHUNK onwards and draws them from
    ``seeds[i]``, ya then yb.  Its pairs go through ``_batched_forward`` in
    blocks of ``spaces.BLOCK_ELEMS // (W P) // 2`` pairs, so a layer buffer
    holds at most ``BLOCK_ELEMS`` entries or one pair's.  A block is its
    ya rows followed by the same pairs' yb rows, reduced to their sup
    |Phi(ya) - Phi(yb)| while it is in cache.  One workspace serves every
    block, and no result depends on the blocking."""
    npar, P = param_count(cfg.d, cfg.width, cfg.depth), X.shape[0]
    pairs = max(1, spaces.BLOCK_ELEMS // (cfg.width * P) // 2)
    ws = _workspace(cfg, 2 * pairs, X)
    ys = np.empty((2 * pairs, npar))
    best = 0.0
    layer_seen = [0.0] * cfg.depth
    for widx in chunks:
        take = min(VERIFY_CHUNK, trials - widx * VERIFY_CHUNK)
        rng = np.random.default_rng(seeds[widx])
        ya = rng.uniform(-1.0, 1.0, size=(take, npar))
        yb = rng.uniform(-1.0, 1.0, size=(take, npar))
        sep = np.abs(ya - yb).max(axis=1)
        diff = np.empty(take)  # sup over the grid of |Phi(ya) - Phi(yb)|
        for p0 in range(0, take, pairs):
            B = min(pairs, take - p0)
            ys[:B] = ya[p0:p0 + B]
            ys[B:2 * B] = yb[p0:p0 + B]
            out, layer_max = _batched_forward(cfg, ys[:2 * B], X, ws)
            layer_seen = [max(s, m) for s, m in zip(layer_seen, layer_max)]
            delta = np.subtract(out[:B], out[B:], out=out[:B])
            np.abs(delta, out=delta).max(axis=1, out=diff[p0:p0 + B])
        ok = sep > 0
        if np.any(ok):
            best = max(best, float((diff[ok] / sep[ok]).max()))
    return best, layer_seen


def corner_ratio(cfg: ReLUNetConfig, X: np.ndarray) -> tuple:
    """The ratio of the corner pair (1, 1 - CORNER_STEP * 1) over the grid
    X, and its per-layer maxima.  Every preactivation is positive there, so
    the ratio is G* - O(CORNER_STEP); the step is exact in binary, so the
    pair is exactly CORNER_STEP apart."""
    ys = np.ones((2, param_count(cfg.d, cfg.width, cfg.depth)))
    ys[1] -= CORNER_STEP
    out, layer_max = _batched_forward(cfg, ys, X)
    return float(np.abs(out[0] - out[1]).max()) / CORNER_STEP, layer_max


@dataclass(frozen=True)
class VerifyResult:
    config: ReLUNetConfig
    trials: int
    max_ratio: float
    bound: int               # C_n
    exact: int               # G*
    coarse: int
    passed: bool
    layer_bound_ok: bool
    layer_max_observed: tuple = field(default=(), compare=False)


def _run_workers(work, workers: int) -> list:
    """[work(0), ..., work(workers - 1)]: the first on the calling thread, each
    other on a thread of its own.  Every thread is joined before this returns
    or raises, and the first error raised in a worker is raised here."""
    results = [None] * workers
    errors = []

    def guarded(w):
        try:
            results[w] = work(w)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    try:
        results[0] = work(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return results


def verify_lipschitz(cfg: ReLUNetConfig, seed: int, trials: int) -> VerifyResult:
    """Falsification test of the exact constant G* on parameter pairs: the
    corner pair (``corner_ratio``) and ``trials`` sampled ones.

    Per pair: sup over the input grid of |Phi(y) - Phi(y')| divided by
    ||y - y'||_inf.  The grid under-approximates the true sup, which only
    makes the test direction (ratio <= G*) conservative.  ``max_ratio`` is
    the largest ratio an actual pair attains.

    Sampled pairs come in chunks of ``VERIFY_CHUNK``, chunk i drawn from the
    i-th child of ``np.random.SeedSequence(seed)``.  The chunks are dealt
    round-robin to ``worker_count()`` threads (never more threads than
    chunks; one worker starts none), and the ratio and the layer maxima are
    maxima over the workers, so every result is bit for bit the same for
    any number of workers.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    trace = lip_bound(cfg)
    X = input_grid(cfg)
    chunks = -(-trials // VERIFY_CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(chunks)
    workers = min(worker_count(), chunks)
    parts = _run_workers(
        lambda w: _falsify_chunks(cfg, seeds, trials, X, range(w, chunks, workers)), workers)
    parts.append(corner_ratio(cfg, X))
    best = max(ratio for ratio, _ in parts)
    layer_seen = tuple(max(col) for col in zip(*(seen for _, seen in parts)))
    layer_ok = not any(seen > cap + 1e-9 for seen, cap in zip(layer_seen, trace.output_bounds))
    return VerifyResult(
        config=cfg,
        trials=trials,
        max_ratio=best,
        bound=trace.final,
        exact=trace.exact,
        coarse=trace.coarse,
        passed=best <= trace.exact and layer_ok,
        layer_bound_ok=layer_ok,
        layer_max_observed=layer_seen,
    )


def recheck_lipschitz(cert: dict, fset=None) -> bool:
    """C_n, G* and the coarse bound, derived again, match; the falsified
    ratio is at most G*, and G* at most C_n."""
    trace = lip_bound(ReLUNetConfig(d=cert["d"], width=cert["width"], depth=cert["depth"]))
    return (trace.final == cert["C_n"] and trace.exact == cert["G_star"]
            and trace.coarse == cert["coarse_bound"]
            and cert["max_ratio"] <= trace.exact <= trace.final)
