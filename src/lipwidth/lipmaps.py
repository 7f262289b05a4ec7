"""Constructive Lipschitz maps with declared, verifiable constants.

Variants: constant maps, bump sums over disjoint balls (including the
regular-grid cube family and the dyadic-cube sequence family), piecewise
linear paths, affine ball maps into a linear subspace, and ReLU nets
(delegated to :mod:`lipwidth.relunet`).  They share one base,
:class:`LipschitzMap`: a domain space whose unit ball is sampled and whose
norm measures separations, and a target space that measures image distances.

The dyadic cubes of the sequence family are placed in Z-order (Morton order)
in closed form; see :func:`allocate_dyadic_cubes`.

Every map declares a closed-form Lipschitz constant; ``empirical_lipschitz``
samples difference quotients and raises if one ever exceeds the declaration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .spaces import NormedSpace, PreconditionError, REL_TOL, block_rows

DISJOINT_CHECK_LIMIT = 2048  # pairwise disjointness audit cap (O(m^2))
BALL_SLACK = 1e-9            # admission slack for "candidate inside the ball"
PAIR_CHUNK = 1024            # pairs drawn per seeded chunk in empirical_lipschitz


class BoundViolation(AssertionError):
    """An empirical ratio exceeded a declared Lipschitz constant."""


def _rejection_sample(rng, count, dim, norm_fn) -> np.ndarray:
    """Rejection from the cube; fine for the low dimensions it is used in."""
    out = np.empty((count, dim))
    got = 0
    while got < count:
        cand = rng.uniform(-1.0, 1.0, size=(4 * (count - got) + 8, dim))
        keep = cand[np.asarray(norm_fn(cand)) <= 1.0]
        take = min(len(keep), count - got)
        out[got : got + take] = keep[:take]
        got += take
    return out


class LipschitzMap:
    """A map on the unit ball of ``domain_space`` into ``target_space``.

    Subclasses provide ``evaluate_batch``, ``declared_lipschitz`` and
    ``to_json``.  By default separations are measured in ``domain_space``,
    samples are drawn from its unit ball (the cube for linf, rejection from
    the cube otherwise) and images are compared in ``target_space``.
    """

    def __init__(self, domain_space: NormedSpace, target_space: NormedSpace):
        self.domain_space = domain_space
        self.target_space = target_space
        self.domain_dim = domain_space.dim

    def evaluate(self, y: np.ndarray):
        return self.evaluate_batch(np.asarray(y, dtype=float)[None, :])[0]

    def evaluate_batch(self, ys: np.ndarray):
        raise NotImplementedError

    def declared_lipschitz(self) -> float:
        raise NotImplementedError

    def domain_norm_batch(self, ys: np.ndarray) -> np.ndarray:
        return np.asarray(self.domain_space.norm(np.asarray(ys, dtype=float)))

    def sample_domain(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.domain_space.kind == "linf":
            return rng.uniform(-1.0, 1.0, size=(count, self.domain_dim))
        return _rejection_sample(rng, count, self.domain_dim, self.domain_space.norm)

    def target_dist_batch(self, u, v) -> np.ndarray:
        return np.asarray(self.target_space.norm(np.asarray(u) - np.asarray(v)))

    def to_json(self) -> dict:
        raise NotImplementedError


class ConstantMap(LipschitzMap):
    """Maps the whole ball to one target point; 0-Lipschitz."""

    def __init__(self, value, target_space: NormedSpace, domain_dim: int = 1,
                 domain_kind: str = "linf"):
        super().__init__(NormedSpace(domain_dim, domain_kind), target_space)
        self.value = np.asarray(value, dtype=float)

    def evaluate_batch(self, ys):
        return np.broadcast_to(self.value, (len(ys),) + self.value.shape).copy()

    def declared_lipschitz(self) -> float:
        return 0.0

    def to_json(self):
        return {"variant": "constant", "value": self.value.tolist(),
                "target_space": self.target_space.to_json(),
                "domain_dim": self.domain_dim, "domain_kind": self.domain_space.kind}


class BumpSum(LipschitzMap):
    """Sum of cone bumps supported on pairwise disjoint open balls.

    Each bump j contributes ``(1 - |y_j - y|/rho_j)_+ * payload_j`` where
    ``payload_j = sigma_j * f_j`` is stored as one target vector so that the
    map reproduces its targets bit-exactly at the centers.  The declared
    constant is ``max_j ||payload_j|| / rho_j``.

    ``grid_k`` marks the regular-cube family (centers on the 2**k grid of
    [-1,1]^n, all radii 2**-k) and enables O(n) point location; disjointness
    is audited for other maps of at most ``DISJOINT_CHECK_LIMIT`` bumps.
    """

    def __init__(self, domain_space: NormedSpace, centers, radii, payloads,
                 target_space: NormedSpace, grid_k: Optional[int] = None):
        super().__init__(domain_space, target_space)
        self.centers = np.asarray(centers, dtype=float)
        self.radii = np.asarray(radii, dtype=float)
        self.payloads = np.asarray(payloads, dtype=float)
        self.grid_k = grid_k
        if self.centers.shape[0] != self.radii.shape[0] or \
           self.centers.shape[0] != self.payloads.shape[0]:
            raise ValueError("centers/radii/payloads length mismatch")
        if np.any(self.radii <= 0):
            raise PreconditionError("bump radii must be positive")
        if grid_k is None and len(self.radii) <= DISJOINT_CHECK_LIMIT:
            self._audit_disjoint()

    def _audit_disjoint(self):
        m = len(self.radii)
        for i in range(m):
            d = np.asarray(self.domain_space.norm(self.centers - self.centers[i]))
            need = (self.radii + self.radii[i]) * (1.0 - 1e-12)
            bad = np.nonzero(d < need)[0]
            bad = bad[bad != i]
            if bad.size:
                j = int(bad[0])
                raise PreconditionError(
                    f"bumps {i} and {j} overlap: |y_i-y_j|={d[j]} < {self.radii[i]}+{self.radii[j]}"
                )

    @property
    def amplitudes(self) -> np.ndarray:
        return np.asarray(self.target_space.norm(self.payloads))

    def declared_lipschitz(self) -> float:
        if len(self.radii) == 0:
            return 0.0
        return float((self.amplitudes / self.radii).max())

    def _weights(self, y) -> np.ndarray:
        d = np.asarray(self.domain_space.norm(self.centers - np.asarray(y, dtype=float)))
        return np.maximum(0.0, 1.0 - d / self.radii)

    def grid_cell(self, ys: np.ndarray) -> np.ndarray:
        """Flat cube index per point for the regular-grid family."""
        k = self.grid_k
        side = 2.0 ** (1 - k)
        idx = np.floor((np.asarray(ys) + 1.0) / side).astype(int)
        np.clip(idx, 0, (1 << k) - 1, out=idx)
        flat = np.zeros(idx.shape[0], dtype=np.int64)
        for a in range(idx.shape[1]):
            flat = (flat << k) | idx[:, a]
        return flat

    def evaluate_batch(self, ys):
        ys = np.asarray(ys, dtype=float)
        if self.grid_k is not None:
            flat = self.grid_cell(ys)
            c = self.centers[flat]
            d = np.asarray(self.domain_space.norm(ys - c))
            w = np.maximum(0.0, 1.0 - d / self.radii[flat])
            return w[:, None] * self.payloads[flat]
        out = np.zeros((ys.shape[0], self.payloads.shape[1]))
        for i, y in enumerate(ys):
            out[i] = self._weights(y) @ self.payloads
        return out

    def to_json(self):
        return {"variant": "bump-sum", "domain_space": self.domain_space.to_json(),
                "target_space": self.target_space.to_json(),
                "centers": self.centers.tolist(), "radii": self.radii.tolist(),
                "payloads": self.payloads.tolist(), "grid_k": self.grid_k}


class PiecewiseLinearPath(LipschitzMap):
    """Continuous piecewise linear map [-1,1] -> X through given values."""

    def __init__(self, knots, values, target_space: NormedSpace):
        super().__init__(NormedSpace(1, "linf"), target_space)
        self.knots = np.asarray(knots, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if len(self.knots) < 2:
            raise PreconditionError("need at least two knots")
        if np.any(np.diff(self.knots) <= 0):
            raise PreconditionError("knots must be strictly increasing")

    def declared_lipschitz(self) -> float:
        seg = np.asarray(self.target_space.norm(np.diff(self.values, axis=0)))
        return float((seg / np.diff(self.knots)).max())

    def evaluate_batch(self, ys):
        t = np.asarray(ys, dtype=float)[:, 0]
        j = np.clip(np.searchsorted(self.knots, t) - 1, 0, len(self.knots) - 2)
        t0, t1 = self.knots[j], self.knots[j + 1]
        s = ((t - t0) / (t1 - t0))[:, None]
        return (1.0 - s) * self.values[j] + s * self.values[j + 1]

    def to_json(self):
        return {"variant": "path", "knots": self.knots.tolist(),
                "values": self.values.tolist(),
                "target_space": self.target_space.to_json()}


class AffineBallMap(LipschitzMap):
    """y -> g0 + gamma * (y @ basis) on the unit ball of a target subspace.

    Domain points are coefficient vectors; the domain norm is the ambient
    norm of the embedded vector, so the map is gamma-Lipschitz exactly.
    No :class:`NormedSpace` kind expresses that pulled-back norm, so this
    map has no ``domain_space`` and overrides the norm and the sampler.
    """

    def __init__(self, g0, gamma: float, basis, target_space: NormedSpace):
        self.g0 = np.asarray(g0, dtype=float)
        self.gamma = float(gamma)
        self.basis = np.asarray(basis, dtype=float)  # (n_sub, ambient_dim)
        self.domain_space = None
        self.target_space = target_space
        self.domain_dim = self.basis.shape[0]
        if self.gamma < 0:
            raise PreconditionError("gamma must be nonnegative")

    def embed(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float) @ self.basis

    def evaluate_batch(self, ys):
        return self.g0 + self.gamma * self.embed(ys)

    def declared_lipschitz(self) -> float:
        return self.gamma

    def domain_norm_batch(self, ys):
        return np.asarray(self.target_space.norm(self.embed(ys)))

    def sample_domain(self, rng, count):
        n = self.domain_dim
        if self.target_space.kind == "l2":
            # orthonormal rows assumed: coefficient ball = Euclidean ball
            g = rng.normal(size=(count, n))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            r = rng.uniform(size=(count, 1)) ** (1.0 / n)
            return g * r
        # general: sample a simplex of coefficient magnitudes, rescale to fit
        raw = rng.uniform(-1.0, 1.0, size=(count, n))
        norms = self.domain_norm_batch(raw)
        norms = np.where(norms == 0, 1.0, norms)
        scale = rng.uniform(size=count) ** (1.0 / n)
        return raw * (scale / norms)[:, None]

    def to_json(self):
        return {"variant": "affine-ball", "g0": self.g0.tolist(),
                "gamma": self.gamma, "basis": self.basis.tolist(),
                "target_space": self.target_space.to_json()}


class ReluParamMap(LipschitzMap):
    """Parameter-to-function view of a constant-width ReLU net.

    Domain: the sup-norm unit ball of parameter vectors.  Images live in
    C([0,1]^d) represented by values on the config's tensor grid, compared
    in the sup norm; the declared constant is the exact recursion bound.
    """

    def __init__(self, config):
        from . import relunet

        self._rn = relunet
        self.config = config
        self._grid = relunet.input_grid(config)
        self._trace = relunet.lip_bound(config)
        super().__init__(
            NormedSpace(relunet.param_count(config.d, config.width, config.depth), "linf"),
            NormedSpace(self._grid.shape[0], "linf"))

    def evaluate_batch(self, ys):
        return self._rn._batched_forward(self.config, np.asarray(ys, dtype=float),
                                         self._grid)

    def declared_lipschitz(self) -> float:
        return float(self._trace.final)

    def to_json(self):
        return {"variant": "relu", "d": self.config.d, "width": self.config.width,
                "depth": self.config.depth, "grid": self.config.grid}


def empirical_lipschitz(map_: LipschitzMap, seed: int, pairs: int) -> float:
    """Max sampled difference quotient; must stay below the declared constant.

    Pairs are drawn in chunks of ``PAIR_CHUNK`` with per-chunk seeds
    ``seed ^ chunk``, so the result does not depend on how chunks are
    scheduled.  Raises :class:`BoundViolation` if any ratio exceeds
    declared * (1 + 1e-9).
    """
    if pairs < 1:
        raise PreconditionError("pairs must be >= 1")
    declared = map_.declared_lipschitz()
    best = 0.0
    done = 0
    widx = 0
    while done < pairs:
        take = min(PAIR_CHUNK, pairs - done)
        rng = np.random.default_rng((int(seed) ^ widx) & 0xFFFFFFFFFFFFFFFF)
        ys = map_.sample_domain(rng, 2 * take)
        a, b = ys[:take], ys[take:]
        sep = map_.domain_norm_batch(a - b)
        img = map_.target_dist_batch(map_.evaluate_batch(a), map_.evaluate_batch(b))
        ok = sep > 0
        if np.any(ok):
            best = max(best, float((img[ok] / sep[ok]).max()))
        done += take
        widx += 1
    if best > declared * (1.0 + REL_TOL) + 1e-300:
        raise BoundViolation(
            f"empirical ratio {best} exceeds declared constant {declared}"
        )
    return best


def build_path_map(points, target_space: NormedSpace) -> PiecewiseLinearPath:
    """Path through an ordered covering; knots equally spaced on [-1, 1]."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        raise PreconditionError("need at least two covering points")
    n = pts.shape[0]
    knots = -1.0 + 2.0 * np.arange(n) / (n - 1)
    return PiecewiseLinearPath(knots, pts, target_space)


def grid_centers(k: int, n: int) -> np.ndarray:
    """Centers of the 2**(k n) cubes of side 2**(1-k) tiling [-1, 1]^n.

    Row-major order over per-axis indices; axis 0 varies slowest.  Matches
    :meth:`BumpSum.grid_cell`.
    """
    axis = -1.0 + (np.arange(1 << k) + 0.5) * 2.0 ** (1 - k)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def build_entropy_map(targets, k: int, n: int, target_space: NormedSpace) -> BumpSum:
    """Cube-grid bump sum sending the j-th cube center to the j-th target.

    Requires exactly 2**(k n) targets; the declared constant is
    2**k * max_j ||target_j||.
    """
    if k < 1 or n < 1:
        raise PreconditionError("k and n must be positive")
    if k * n > 24:
        raise PreconditionError(f"size guard: k*n = {k * n} > 24")
    targets = np.asarray(targets, dtype=float)
    want = 1 << (k * n)
    if targets.shape[0] != want:
        raise PreconditionError(f"need exactly {want} targets, got {targets.shape[0]}")
    centers = grid_centers(k, n)
    radii = np.full(want, 2.0 ** (-k))
    return BumpSum(NormedSpace(n, "linf"), centers, radii, targets,
                   target_space, grid_k=k)


# ---------------------------------------------------------------------------
# Dyadic cube allocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubeAllocation:
    """Disjoint dyadic cubes inside [-1, 1]^dim.

    Cube j sits at integer cell ``cells[j]`` of the level ``levels[j]`` grid:
    side 2**-level, lower corner -1 + cell * side.  All coordinates are
    dyadic rationals, hence exact in binary floating point.
    """

    dim: int
    levels: np.ndarray
    cells: np.ndarray

    @property
    def count(self) -> int:
        return len(self.levels)

    def sides(self) -> np.ndarray:
        return 2.0 ** (-self.levels.astype(float))

    def centers(self) -> np.ndarray:
        side = self.sides()[:, None]
        return -1.0 + (self.cells + 0.5) * side

    def lower_corners(self) -> np.ndarray:
        side = self.sides()[:, None]
        return -1.0 + self.cells * side


def _spread_tables(dim: int) -> tuple:
    """Per code byte k, the 256 bit-spreads of that byte's Morton bits.

    Code bit p is bit p // dim of axis dim - 1 - p % dim (axis 0 is the high
    bit of each digit).  Entry v of table k holds every set bit of byte value
    v moved to that axis's ``64 // dim``-bit lane, so OR-ing one entry per
    byte leaves each axis's cell in its own lane.  Bits past the 62 // dim
    digits an int64 code can hold get no entry, so every entry stays below
    2**63.
    """
    lane = 64 // dim
    weight = np.array([1 << ((dim - 1 - p % dim) * lane + p // dim)
                       if p < dim * (62 // dim) else 0 for p in range(64)], dtype=np.int64)
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    return tuple(bits @ w for w in weight.reshape(8, 8))


def _deinterleave(codes: np.ndarray, dim: int, digits: int, out: np.ndarray) -> None:
    """Write the per-axis coordinates of int64 Morton codes of ``digits``
    dim-bit digits (``digits <= 62 // dim``) into ``out``, shape
    ``(len(codes), dim)``.  Axis 0 is the high bit of each digit.

    One table lookup per code byte gathers every axis into its lane of one
    accumulator; one shift and mask per axis then fills its column.
    """
    lane = 64 // dim
    acc = np.zeros_like(codes)
    byte = np.empty_like(codes)
    spread = np.empty_like(codes)
    tables = _spread_tables(dim)
    for k in range(-(-dim * digits // 8)):
        np.right_shift(codes, 8 * k, out=byte)
        byte &= 0xFF
        np.take(tables[k], byte, out=spread, mode="clip")  # unbuffered; bytes are in range
        acc |= spread
    for a in range(dim):
        np.right_shift(acc, a * lane, out=byte)
        byte &= (1 << digits) - 1
        out[:, a] = byte


def _zorder_cells(dim: int, digits: int, start: int, out: np.ndarray) -> None:
    """Write the cells of the Morton codes ``start, ..., start + len(out) - 1``
    into ``out``, in chunks of at most ``BLOCK_ELEMS`` entries.

    The low digits (at most 62 bits) are de-interleaved in int64.  Wider
    codes take their few high digits from Python ints, one per distinct
    carry out of the low part.
    """
    low = min(digits, 62 // dim)
    mask = (1 << (dim * low)) - 1
    step = block_rows(dim)
    for lo in range(0, len(out), step):
        cells = out[lo : lo + step]
        codes = np.arange((start & mask) + lo, (start & mask) + lo + len(cells),
                          dtype=np.int64)
        if digits > low:
            carry = codes >> (dim * low)
            codes &= mask
        _deinterleave(codes, dim, low, cells)
        if digits > low:
            for c in np.unique(carry).tolist():
                high = (start >> (dim * low)) + c
                cells[carry == c] |= [sum(((high >> (b * dim + dim - 1 - a)) & 1) << (b + low)
                                          for b in range(digits - low)) for a in range(dim)]


def allocate_dyadic_cubes(dim: int, levels: Sequence[int]) -> CubeAllocation:
    """Disjoint dyadic cubes with sides 2**-level, placed in Z-order.

    Levels must be nondecreasing nonnegative integers whose total volume
    fits in [-1, 1]^dim.  Cube j takes the next block of the Z-order
    (Morton) curve through the level-l_j cells: it starts at offset
    sum_{i<j} 2**(dim*(l_j - l_i)), and its cell is that offset's bits
    de-interleaved.  Sides never grow, so every block is aligned, and the
    running offset fits under 2**(dim*(l_max+1)) exactly when the volumes do.
    Beyond the returned arrays the build holds O(``BLOCK_ELEMS``) scratch.
    """
    levels = np.asarray(levels)
    if levels.dtype.kind not in "iu" and not np.all(
            np.isfinite(levels) & (levels == np.floor(levels))):
        raise PreconditionError("levels must be integers")
    levels = levels.astype(np.int64, copy=False)
    if np.any(levels < 0):
        raise PreconditionError("levels must be nonnegative")
    if np.any(np.diff(levels) < 0):
        raise PreconditionError("levels must be ascending (sides nonincreasing)")
    distinct, counts = np.unique(levels, return_counts=True)
    starts, offset, prev = [], 0, 0
    for l, c in zip(distinct.tolist(), counts.tolist()):
        offset <<= dim * (l - prev)
        starts.append(offset)
        offset += c
        prev = l
    cap = 1 << (dim * (prev + 1))
    if offset > cap:
        frac = math.exp(math.log(offset) - math.log(cap))
        raise PreconditionError(
            f"volume condition violated: sum 2^(-dim*level) exceeds 2^dim "
            f"(ratio {frac})"
        )
    cells = np.empty((len(levels), dim), dtype=np.int64)
    pos = 0
    for l, c, start in zip(distinct.tolist(), counts.tolist(), starts):
        _zorder_cells(dim, l + 1, start, cells[pos : pos + c])
        pos += c
    return CubeAllocation(dim=dim, levels=levels, cells=cells)


def audit_cube_allocation(alloc: CubeAllocation) -> bool:
    """Independent disjointness/containment audit.

    Always checks the exact integer-cell structure (no duplicate cells and
    no allocated cube nested in another); for allocations of at most
    ``DISJOINT_CHECK_LIMIT`` cubes it also runs the O(N^2) open-interval
    overlap test in float arithmetic, which is exact here because every
    coordinate is a dyadic rational.
    """
    seen = set()
    keys = list(zip(alloc.levels.tolist(), map(tuple, alloc.cells.tolist())))
    for l, cell in keys:
        if any(c < 0 or c >= (1 << (l + 1)) for c in cell):
            return False
        if (l, cell) in seen:
            return False
        seen.add((l, cell))
    for l, cell in keys:
        for lv in range(l - 1, -1, -1):
            anc = tuple(c >> (l - lv) for c in cell)
            if (lv, anc) in seen:
                return False
    if alloc.count <= DISJOINT_CHECK_LIMIT:
        lo = alloc.lower_corners()
        hi = lo + alloc.sides()[:, None]
        for i in range(alloc.count):
            over = (np.maximum(lo, lo[i]) < np.minimum(hi, hi[i])).all(axis=1)
            over[i] = False
            if over.any():
                return False
    return True


class SequenceBumpSum(LipschitzMap):
    """Bump sum on allocated dyadic cubes mapping into the sequence space.

    Bump j has amplitude sigma_j along the j-th coordinate direction; the
    image of any point has at most one nonzero coordinate, so evaluation
    returns sparse (index, value) pairs and sup-norm distances come from a
    closed form.
    """

    def __init__(self, alloc: CubeAllocation, sigmas):
        # the target is the sequence space; images are compared by sparse_dist
        super().__init__(NormedSpace(alloc.dim, "linf"), None)
        self.alloc = alloc
        self.sigmas = np.asarray(sigmas, dtype=float)
        if len(self.sigmas) != alloc.count:
            raise ValueError("one amplitude per cube required")
        self._radii = 0.5 * alloc.sides()

    @cached_property
    def _centers(self) -> np.ndarray:
        """Cube centres, made on the first evaluation."""
        return self.alloc.centers()

    @cached_property
    def _lut(self) -> dict[int, dict[tuple, int]]:
        """Per level, cell -> cube index; built on the first ``locate``."""
        lut: dict[int, dict[tuple, int]] = {}
        for j, (l, cell) in enumerate(zip(self.alloc.levels.tolist(),
                                          map(tuple, self.alloc.cells.tolist()))):
            lut.setdefault(l, {})[cell] = j
        return dict(sorted(lut.items()))

    def declared_lipschitz(self) -> float:
        return float((self.sigmas / self._radii).max())

    def locate(self, y: np.ndarray) -> Optional[int]:
        y = np.asarray(y, dtype=float)
        for l, cells in self._lut.items():
            side = 2.0 ** (-l)
            j = cells.get(tuple(int(c) for c in np.floor((y + 1.0) / side)))
            if j is not None:
                return j
        return None

    def evaluate_batch(self, ys):
        """Sparse images: (coordinate index, value), or None for zero."""
        out = []
        for y in np.asarray(ys, dtype=float):
            j = self.locate(y)
            w = 0.0 if j is None else 1.0 - np.abs(self._centers[j] - y).max() / self._radii[j]
            out.append((j, self.sigmas[j] * w) if w > 0.0 else None)
        return out

    @staticmethod
    def sparse_dist(u, v) -> float:
        """Sup distance between two one-hot sequence vectors."""
        if u is None and v is None:
            return 0.0
        if u is None:
            return abs(v[1])
        if v is None:
            return abs(u[1])
        if u[0] == v[0]:
            return abs(u[1] - v[1])
        return max(abs(u[1]), abs(v[1]))

    def target_dist_batch(self, us, vs):
        return np.asarray([self.sparse_dist(u, v) for u, v in zip(us, vs)])

    def to_json(self):
        return {"variant": "sequence-bump-sum", "dim": self.alloc.dim,
                "levels": self.alloc.levels.tolist(),
                "cells": self.alloc.cells.tolist(),
                "sigmas": self.sigmas.tolist()}


def bump_levels(sigmas, gamma: float) -> np.ndarray:
    """Levels l_j with 2**(-l_j - 1) < 2 sigma_j / gamma <= 2**(-l_j)."""
    sig = np.asarray(sigmas, dtype=float)
    if np.any(sig <= 0):
        raise PreconditionError("amplitudes must be positive")
    x = 2.0 * sig / gamma
    if np.any(x > 1.0 + 1e-15):
        raise PreconditionError("sigma_1 <= gamma/2 required")
    # x = mant * 2**exp with mant in [0.5, 1): x is 2**(exp-1) exactly when
    # mant == 0.5, and lies strictly inside (2**(exp-1), 2**exp) otherwise
    mant, exp = np.frexp(np.minimum(x, 1.0))
    return np.maximum(-exp.astype(np.int64) + (mant == 0.5), 0)


def build_sequence_bump_map(sigmas_prefix, gamma: float, dim: int,
                            total_terms: int, volume_certified: bool = False
                            ) -> SequenceBumpSum:
    """Dyadic-cube bump sum approximating a coordinate-sequence set.

    ``sigmas_prefix`` are the materialised amplitudes (first min(N, cap)
    terms); ``total_terms`` is the full N backing the volume condition.
    When the prefix is the whole sequence the condition is checked right
    here; otherwise the caller must certify it and pass
    ``volume_certified=True``.
    """
    sig = np.asarray(sigmas_prefix, dtype=float)
    if sig.size == 0:
        raise PreconditionError("empty amplitude prefix")
    if np.any(np.diff(sig) > 0):
        raise PreconditionError("amplitudes must be nonincreasing")
    if sig[0] > gamma / 2.0 + 1e-15:
        raise PreconditionError(f"sigma_1 = {sig[0]} exceeds gamma/2 = {gamma / 2.0}")
    if len(sig) == total_terms:
        lhs = float(np.sum(sig ** dim))
        rhs = (gamma / 2.0) ** dim
        if lhs > rhs * (1.0 + 1e-12):
            raise PreconditionError(
                f"volume condition failed: sum sigma^n = {lhs} > (gamma/2)^n = {rhs}"
            )
    elif not volume_certified:
        raise PreconditionError(
            "partial prefix requires a caller-certified volume condition"
        )
    levels = bump_levels(sig, gamma)
    alloc = allocate_dyadic_cubes(dim, levels)
    bmap = SequenceBumpSum(alloc, sig)
    if bmap.declared_lipschitz() > gamma * (1.0 + REL_TOL):
        raise BoundViolation("declared constant exceeds requested gamma")
    return bmap


def map_from_json(doc: dict, ):
    """Inverse of the per-variant ``to_json`` serialisations."""
    variant = doc["variant"]
    if variant == "constant":
        return ConstantMap(np.asarray(doc["value"]), NormedSpace.from_json(doc["target_space"]),
                           domain_dim=doc["domain_dim"], domain_kind=doc["domain_kind"])
    if variant == "bump-sum":
        return BumpSum(NormedSpace.from_json(doc["domain_space"]), doc["centers"],
                       doc["radii"], doc["payloads"],
                       NormedSpace.from_json(doc["target_space"]), grid_k=doc.get("grid_k"))
    if variant == "path":
        return PiecewiseLinearPath(doc["knots"], doc["values"],
                                   NormedSpace.from_json(doc["target_space"]))
    if variant == "affine-ball":
        return AffineBallMap(doc["g0"], doc["gamma"], doc["basis"],
                             NormedSpace.from_json(doc["target_space"]))
    if variant == "sequence-bump-sum":
        alloc = CubeAllocation(dim=doc["dim"],
                               levels=np.asarray(doc["levels"], dtype=np.int64),
                               cells=np.asarray(doc["cells"], dtype=np.int64))
        return SequenceBumpSum(alloc, doc["sigmas"])
    if variant == "relu":
        from .relunet import ReLUNetConfig

        return ReluParamMap(ReLUNetConfig(d=doc["d"], width=doc["width"],
                                          depth=doc["depth"], grid=doc.get("grid")))
    raise ValueError(f"unknown map variant {variant!r}")
