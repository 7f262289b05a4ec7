"""Constant-width feed-forward ReLU nets as parameter-to-function maps.

The parameter vector concatenates the affine layers in order (layer 0
first), each layer as row-major matrix entries followed by its bias.  On
the unit sup-norm parameter ball the map into C([0,1]^d) is Lipschitz with
the exact recursion constant

    C_0 = d + 1,    C_j = W * C_{j-1} + (d + 2) * W**j + 1,

computed in exact integer arithmetic, and C_n < (2d+4) * n * W**n.
"""

from __future__ import annotations

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


def split_params(cfg: ReLUNetConfig, y: np.ndarray) -> list:
    """[(A_0, b_0), ..., (A_n, b_n)] from the flat parameter vector."""
    y = np.asarray(y, dtype=float)
    want = param_count(cfg.d, cfg.width, cfg.depth)
    if y.shape != (want,):
        raise PreconditionError(f"expected {want} parameters, got {y.shape}")
    layers = []
    for a, b, rows, cols in layer_slices(cfg):
        layers.append((y[a].reshape(rows, cols), y[b]))
    return layers


def layer_output_bound(d: int, width: int, j: int) -> int:
    """(d+2) * W**j, valid for the post-activation output of layer j."""
    return (d + 2) * width ** j


def forward(cfg: ReLUNetConfig, y: np.ndarray, x, check_bounds: bool = True) -> float:
    """Evaluate the net at one input point; asserts the layer output bounds."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (cfg.d,):
        raise PreconditionError(f"input must have dimension {cfg.d}")
    if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
        raise PreconditionError("input outside [0,1]^d")
    if float(np.abs(np.asarray(y)).max()) > 1.0 + 1e-12:
        raise PreconditionError("parameter vector outside the unit sup ball")
    layers = split_params(cfg, y)
    h = x
    for j, (A, b) in enumerate(layers[:-1]):
        h = np.maximum(A @ h + b, 0.0)
        if check_bounds:
            cap = layer_output_bound(cfg.d, cfg.width, j)
            if float(np.abs(h).max()) > cap + 1e-9:
                raise AssertionError(f"layer {j} output exceeded (d+2) W^{j} = {cap}")
    A, b = layers[-1]
    return float((A @ h + b)[0])


@dataclass(frozen=True)
class LipBoundTrace:
    output_bounds: tuple      # (d+2) W^j per layer j = 0..n-1, exact ints
    constants: tuple          # C_0..C_n, exact ints
    final: int                # C_n
    coarse: int               # (2d+4) * n * W^n
    coarse_coeff: int         # 2d+4


def lip_bound(cfg: ReLUNetConfig) -> LipBoundTrace:
    """Exact recursion constants (Python integers never overflow)."""
    d, W, n = cfg.d, cfg.width, cfg.depth
    consts = [d + 1]
    for j in range(1, n + 1):
        consts.append(W * consts[-1] + (d + 2) * W ** j + 1)
    coeff = 2 * d + 4
    coarse = coeff * n * W ** n
    if consts[-1] >= coarse:
        raise AssertionError("recursion constant not below the coarse bound")
    return LipBoundTrace(
        output_bounds=tuple(layer_output_bound(d, W, j) for j in range(n)),
        constants=tuple(consts),
        final=consts[-1],
        coarse=coarse,
        coarse_coeff=coeff,
    )


def closed_form_constant(cfg: ReLUNetConfig, j: int) -> int:
    """Unrolled form W^j (d+1) + j (d+2) W^j + sum_{k<j} W^k of the recursion."""
    d, W = cfg.d, cfg.width
    return W ** j * (d + 1) + j * (d + 2) * W ** j + sum(W ** k for k in range(j))


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


def _batched_forward(cfg: ReLUNetConfig, ys: np.ndarray, X: np.ndarray):
    """Outputs (T, P) for T parameter vectors over P grid points, and the
    largest activation after each hidden layer.

    Rows go through the net in blocks of ``spaces.BLOCK_ELEMS // (W P)``, so
    a block's (rows, W, P) activations stay in cache whatever T is.  In each
    block, layer 0 is one GEMM over the shared grid, later layers alternate
    between two reused buffers, and the last layer writes into the block's
    output rows.  No row's arithmetic depends on the blocking."""
    T, P, W = ys.shape[0], X.shape[0], cfg.width
    slices = layer_slices(cfg)
    block = max(1, min(T, spaces.BLOCK_ELEMS // (W * P)))
    first, second = _layer_buffers(block * W * P)
    out = np.empty((T, 1, P))  # a 1 x P matrix per row: the last GEMM's out=
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


def verify_lipschitz(cfg: ReLUNetConfig, seed: int, trials: int) -> VerifyResult:
    """Falsification test of the recursion constant on sampled parameter pairs.

    Per pair: sup over the input grid of |Phi(y) - Phi(y')| divided by
    ||y - y'||_inf.  The grid under-approximates the true sup, which only
    makes the test direction (ratio <= bound) conservative.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    trace = lip_bound(cfg)
    X = input_grid(cfg)
    npar = param_count(cfg.d, cfg.width, cfg.depth)
    best = 0.0
    layer_seen = [0.0] * cfg.depth
    layer_ok = True
    done = 0
    widx = 0
    while done < trials:
        take = min(VERIFY_CHUNK, trials - done)
        rng = np.random.default_rng((int(seed) ^ widx) & 0xFFFFFFFFFFFFFFFF)
        ya = rng.uniform(-1.0, 1.0, size=(take, npar))
        yb = rng.uniform(-1.0, 1.0, size=(take, npar))
        sep = np.abs(ya - yb).max(axis=1)
        out, layer_max = _batched_forward(cfg, np.concatenate((ya, yb)), X)
        for j, seen in enumerate(layer_max):
            layer_seen[j] = max(layer_seen[j], seen)
            if seen > trace.output_bounds[j] + 1e-9:
                layer_ok = False
        diff = out[:take]  # |Phi(ya) - Phi(yb)|, in place over the ya rows
        diff -= out[take:]
        diff = np.abs(diff, out=diff).max(axis=1)
        del out  # one chunk's outputs alive at a time
        ok = sep > 0
        if np.any(ok):
            best = max(best, float((diff[ok] / sep[ok]).max()))
        done += take
        widx += 1
    return VerifyResult(
        config=cfg,
        trials=trials,
        max_ratio=best,
        bound=trace.final,
        coarse=trace.coarse,
        passed=best <= trace.final and layer_ok,
        layer_bound_ok=layer_ok,
        layer_max_observed=tuple(layer_seen),
    )


def recheck_lipschitz(cert: dict, fset=None) -> bool:
    """C_n and the coarse bound, derived again, match; the falsified ratio is below C_n."""
    trace = lip_bound(ReLUNetConfig(d=cert["d"], width=cert["width"], depth=cert["depth"]))
    return (trace.final == cert["C_n"] and trace.coarse == cert["coarse_bound"]
            and cert["max_ratio"] <= trace.final)
