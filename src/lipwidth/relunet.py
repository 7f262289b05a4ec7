"""Constant-width feed-forward ReLU nets as parameter-to-function maps.

The parameter vector concatenates the affine layers in order (layer 0
first), each layer as row-major matrix entries followed by its bias.  On
the unit sup-norm parameter ball the map into C([0,1]^d) is Lipschitz with
the exact recursion constant

    C_0 = d + 1,    C_j = W * C_{j-1} + (d + 2) * W**j + 1,

computed in exact integer arithmetic, and C_n < (2d+4) * n * W**n.
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

# Parameter pairs per falsification chunk; chunk i draws from seed ^ i.
VERIFY_CHUNK = 512

# A 4 KiB page and half of it, in float64 entries.
_PAGE, _HALF_PAGE = 512, 256


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


def lip_bound(cfg: ReLUNetConfig) -> LipBoundTrace:
    """Exact recursion constants (Python integers never overflow)."""
    d, W, n = cfg.d, cfg.width, cfg.depth
    consts = [d + 1]
    for j in range(1, n + 1):
        consts.append(W * consts[-1] + (d + 2) * W ** j + 1)
    coarse = (2 * d + 4) * n * W ** n
    if consts[-1] >= coarse:
        raise AssertionError("recursion constant not below the coarse bound")
    return LipBoundTrace(
        output_bounds=tuple(layer_output_bound(d, W, j) for j in range(n)),
        constants=tuple(consts),
        final=consts[-1],
        coarse=coarse,
    )


def input_grid(cfg: ReLUNetConfig) -> np.ndarray:
    """Tensor sampling grid of [0,1]^d, (G^d, d)."""
    g = cfg.grid_points
    axis = np.linspace(0.0, 1.0, g)
    mesh = np.meshgrid(*([axis] * cfg.d), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _layer_buffers(n: int):
    """Two n-entry float buffers from one workspace, the second starting half a
    page (2 KiB) past the first modulo 4 KiB.  A layer reads one buffer and
    writes the other; were they a whole number of pages apart, loads and stores
    at equal offsets would stall on false dependencies (4K aliasing).  Half a
    page is the farthest from that in either direction, so the buffers may swap
    roles each layer."""
    gap = (_HALF_PAGE - n) % _PAGE
    ws = np.empty(2 * n + gap)
    return ws[:n], ws[n + gap:]


def _workspace(cfg: ReLUNetConfig, rows: int, P: int) -> tuple:
    """The layer buffers and output rows of a forward pass over at most
    ``rows`` parameter rows on P grid points, for reuse across calls."""
    block = max(1, min(rows, spaces.BLOCK_ELEMS // (cfg.width * P)))
    first, second = _layer_buffers(block * cfg.width * P)
    return first, second, np.empty((rows, 1, P))


def _batched_forward(cfg: ReLUNetConfig, ys: np.ndarray, X: np.ndarray, ws=None):
    """Outputs (T, P) for T parameter vectors over P grid points, and the
    largest activation after each hidden layer.

    Rows go through the net in blocks of ``spaces.BLOCK_ELEMS // (W P)``, so
    a block's (rows, W, P) activations stay in cache whatever T is.  In each
    block, layer 0 is one GEMM over the shared grid, later layers alternate
    between two reused buffers, and the last layer writes into the block's
    output rows.  No row's arithmetic depends on the blocking.  ``ws``, from
    ``_workspace`` for at least T rows, holds the buffers and the outputs;
    without it they are allocated for this call."""
    T, P, W = ys.shape[0], X.shape[0], cfg.width
    slices = layer_slices(cfg)
    block = max(1, min(T, spaces.BLOCK_ELEMS // (W * P)))
    first, second, out = ws if ws is not None else _workspace(cfg, T, P)
    out = out[:T]  # a 1 x P matrix per row: the last GEMM's out=
    layer_max = [0.0] * cfg.depth  # h >= 0 after each ReLU
    for t0 in range(0, T, block):
        y = ys[t0:t0 + block]
        B = y.shape[0]
        h = first[:B * W * P].reshape(B, W, P)
        buf = second[:B * W * P].reshape(B, W, P)
        a, b, rows, cols = slices[0]
        np.matmul(y[:, a].reshape(B * rows, cols), X.T, out=h.reshape(B * rows, P))
        for j, (a, b, rows, cols) in enumerate(slices[:-1]):
            if j:
                np.matmul(y[:, a].reshape(B, rows, cols), h, out=buf)
                h, buf = buf, h
            h += y[:, b][:, :, None]
            np.maximum(h, 0.0, out=h)
            layer_max[j] = max(layer_max[j], float(h.max()))
        a, b, rows, cols = slices[-1]
        np.matmul(y[:, a].reshape(B, rows, cols), h, out=out[t0:t0 + B])
        out[t0:t0 + B, 0] += y[:, b]
    return out[:, 0, :], layer_max


def worker_count() -> int:
    """Threads the falsifier may use: the CPUs in this process's affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _falsify_chunks(cfg: ReLUNetConfig, seed: int, trials: int, X: np.ndarray,
                    chunks: range) -> tuple:
    """Largest ratio and per-layer maxima over the chunks ``chunks``.

    Chunk i holds pairs i * VERIFY_CHUNK onwards and draws them from
    ``seed ^ i``, ya then yb.  Its pairs go through ``_batched_forward`` a
    block at a time, the block's ya rows followed by the same pairs' yb rows,
    and each block is reduced to its pairs' sup |Phi(ya) - Phi(yb)| while it
    is in cache.  One workspace serves every block."""
    npar, P = param_count(cfg.d, cfg.width, cfg.depth), X.shape[0]
    pairs = max(1, spaces.BLOCK_ELEMS // (cfg.width * P) // 2)
    ws = _workspace(cfg, 2 * pairs, P)
    ys = np.empty((2 * pairs, npar))
    best = 0.0
    layer_seen = [0.0] * cfg.depth
    for widx in chunks:
        take = min(VERIFY_CHUNK, trials - widx * VERIFY_CHUNK)
        rng = np.random.default_rng((int(seed) ^ widx) & 0xFFFFFFFFFFFFFFFF)
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


@dataclass(frozen=True)
class VerifyResult:
    config: ReLUNetConfig
    trials: int
    max_ratio: float
    bound: int               # C_n
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
    """Falsification test of the recursion constant on sampled parameter pairs.

    Per pair: sup over the input grid of |Phi(y) - Phi(y')| divided by
    ||y - y'||_inf.  The grid under-approximates the true sup, which only
    makes the test direction (ratio <= bound) conservative.

    Pairs come in chunks of ``VERIFY_CHUNK``, chunk i drawn from seed ^ i.
    The chunks are dealt round-robin to ``worker_count()`` threads (never
    more threads than chunks; one worker starts none), and the ratio and the
    layer maxima are maxima over the workers, so every result is bit for bit
    the same for any number of workers.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    trace = lip_bound(cfg)
    X = input_grid(cfg)
    chunks = -(-trials // VERIFY_CHUNK)
    workers = min(worker_count(), chunks)
    parts = _run_workers(
        lambda w: _falsify_chunks(cfg, seed, trials, X, range(w, chunks, workers)), workers)
    best = max(ratio for ratio, _ in parts)
    layer_seen = tuple(max(col) for col in zip(*(seen for _, seen in parts)))
    layer_ok = not any(seen > cap + 1e-9 for seen, cap in zip(layer_seen, trace.output_bounds))
    return VerifyResult(
        config=cfg,
        trials=trials,
        max_ratio=best,
        bound=trace.final,
        coarse=trace.coarse,
        passed=best <= trace.final and layer_ok,
        layer_bound_ok=layer_ok,
        layer_max_observed=layer_seen,
    )


def recheck_lipschitz(cert: dict, fset=None) -> bool:
    """C_n and the coarse bound, derived again, match; the falsified ratio is below C_n."""
    trace = lip_bound(ReLUNetConfig(d=cert["d"], width=cert["width"], depth=cert["depth"]))
    return (trace.final == cert["C_n"] and trace.coarse == cert["coarse_bound"]
            and cert["max_ratio"] <= trace.final)
