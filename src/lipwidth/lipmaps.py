"""Constructive Lipschitz maps with declared, verifiable constants.

Variants: constant maps, bump sums over disjoint balls (including the
regular-grid cube family and the dyadic-cube sequence family), piecewise
linear paths, affine ball maps into a linear subspace, and ReLU nets
(delegated to :mod:`lipwidth.relunet`).

Every map declares a closed-form Lipschitz constant; ``empirical_lipschitz``
samples difference quotients and raises if one ever exceeds the declaration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .spaces import NormedSpace, PreconditionError, REL_TOL

DISJOINT_CHECK_LIMIT = 2048  # pairwise disjointness audit cap (O(m^2))
BALL_SLACK = 1e-9            # admission slack for "candidate inside the ball"


class BoundViolation(AssertionError):
    """An empirical ratio exceeded a declared Lipschitz constant."""


def _unit_cube_sample(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(count, dim))


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
    """Common interface: evaluate on the domain unit ball, declare a constant."""

    domain_dim: int

    def evaluate(self, y: np.ndarray):
        raise NotImplementedError

    def evaluate_batch(self, ys: np.ndarray):
        return np.stack([np.asarray(self.evaluate(y)) for y in ys])

    def declared_lipschitz(self) -> float:
        raise NotImplementedError

    def domain_norm(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def domain_norm_batch(self, ys: np.ndarray) -> np.ndarray:
        return np.asarray([self.domain_norm(y) for y in ys])

    def sample_domain(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def target_dist_batch(self, u, v) -> np.ndarray:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class ConstantMap(LipschitzMap):
    """Maps the whole ball to one target point; 0-Lipschitz."""

    def __init__(self, value, target_space: NormedSpace, domain_dim: int = 1,
                 domain_kind: str = "linf"):
        self.value = np.asarray(value, dtype=float)
        self.target_space = target_space
        self.domain_dim = domain_dim
        self.domain_kind = domain_kind
        self._domain = NormedSpace(domain_dim, domain_kind)

    def evaluate(self, y):
        return self.value

    def evaluate_batch(self, ys):
        return np.broadcast_to(self.value, (len(ys),) + self.value.shape).copy()

    def declared_lipschitz(self) -> float:
        return 0.0

    def domain_norm(self, y):
        return float(self._domain.norm(y))

    def sample_domain(self, rng, count):
        if self.domain_kind == "linf":
            return _unit_cube_sample(rng, count, self.domain_dim)
        return _rejection_sample(rng, count, self.domain_dim, self._domain.norm)

    def target_dist_batch(self, u, v):
        return np.asarray(self.target_space.norm(np.asarray(u) - np.asarray(v)))

    def to_json(self):
        return {"variant": "constant", "value": self.value.tolist(),
                "target_space": self.target_space.to_json(),
                "domain_dim": self.domain_dim, "domain_kind": self.domain_kind}


class BumpSum(LipschitzMap):
    """Sum of cone bumps supported on pairwise disjoint open balls.

    Each bump j contributes ``(1 - |y_j - y|/rho_j)_+ * payload_j`` where
    ``payload_j = sigma_j * f_j`` is stored as one target vector so that the
    map reproduces its targets bit-exactly at the centers.  The declared
    constant is ``max_j ||payload_j|| / rho_j``.

    ``grid_k`` marks the regular-cube family (centers on the 2**k grid of
    [-1,1]^n, all radii 2**-k) and enables O(n) point location.
    """

    def __init__(self, domain_space: NormedSpace, centers, radii, payloads,
                 target_space: NormedSpace, grid_k: Optional[int] = None,
                 check_disjoint: Optional[bool] = None):
        self.domain_space = domain_space
        self.centers = np.asarray(centers, dtype=float)
        self.radii = np.asarray(radii, dtype=float)
        self.payloads = np.asarray(payloads, dtype=float)
        self.target_space = target_space
        self.grid_k = grid_k
        self.domain_dim = domain_space.dim
        if self.centers.shape[0] != self.radii.shape[0] or \
           self.centers.shape[0] != self.payloads.shape[0]:
            raise ValueError("centers/radii/payloads length mismatch")
        if np.any(self.radii <= 0):
            raise PreconditionError("bump radii must be positive")
        if check_disjoint is None:
            check_disjoint = grid_k is None and len(self.radii) <= DISJOINT_CHECK_LIMIT
        if check_disjoint:
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

    def evaluate(self, y):
        return self.evaluate_batch(np.asarray(y, dtype=float)[None, :])[0]

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

    def domain_norm(self, y):
        return float(self.domain_space.norm(y))

    def domain_norm_batch(self, ys):
        return np.asarray(self.domain_space.norm(np.asarray(ys, dtype=float)))

    def sample_domain(self, rng, count):
        if self.domain_space.kind == "linf":
            return _unit_cube_sample(rng, count, self.domain_dim)
        return _rejection_sample(rng, count, self.domain_dim, self.domain_space.norm)

    def target_dist_batch(self, u, v):
        return np.asarray(self.target_space.norm(np.asarray(u) - np.asarray(v)))

    def to_json(self):
        return {"variant": "bump-sum", "domain_space": self.domain_space.to_json(),
                "target_space": self.target_space.to_json(),
                "centers": self.centers.tolist(), "radii": self.radii.tolist(),
                "payloads": self.payloads.tolist(), "grid_k": self.grid_k}


class PiecewiseLinearPath(LipschitzMap):
    """Continuous piecewise linear map [-1,1] -> X through given values."""

    def __init__(self, knots, values, target_space: NormedSpace):
        self.knots = np.asarray(knots, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.target_space = target_space
        self.domain_dim = 1
        if len(self.knots) < 2:
            raise PreconditionError("need at least two knots")
        if np.any(np.diff(self.knots) <= 0):
            raise PreconditionError("knots must be strictly increasing")

    def declared_lipschitz(self) -> float:
        seg = np.asarray(self.target_space.norm(np.diff(self.values, axis=0)))
        return float((seg / np.diff(self.knots)).max())

    def evaluate(self, y):
        t = float(np.asarray(y).reshape(-1)[0])
        j = int(np.clip(np.searchsorted(self.knots, t) - 1, 0, len(self.knots) - 2))
        t0, t1 = self.knots[j], self.knots[j + 1]
        s = (t - t0) / (t1 - t0)
        return (1.0 - s) * self.values[j] + s * self.values[j + 1]

    def domain_norm(self, y):
        return float(np.abs(np.asarray(y)).max())

    def sample_domain(self, rng, count):
        return rng.uniform(-1.0, 1.0, size=(count, 1))

    def target_dist_batch(self, u, v):
        return np.asarray(self.target_space.norm(np.asarray(u) - np.asarray(v)))

    def to_json(self):
        return {"variant": "path", "knots": self.knots.tolist(),
                "values": self.values.tolist(),
                "target_space": self.target_space.to_json()}


class AffineBallMap(LipschitzMap):
    """y -> g0 + gamma * (y @ basis) on the unit ball of a target subspace.

    Domain points are coefficient vectors; the domain norm is the ambient
    norm of the embedded vector, so the map is gamma-Lipschitz exactly.
    """

    def __init__(self, g0, gamma: float, basis, target_space: NormedSpace,
                 sampler: str = "auto"):
        self.g0 = np.asarray(g0, dtype=float)
        self.gamma = float(gamma)
        self.basis = np.asarray(basis, dtype=float)  # (n_sub, ambient_dim)
        self.target_space = target_space
        self.domain_dim = self.basis.shape[0]
        self.sampler = sampler
        if self.gamma < 0:
            raise PreconditionError("gamma must be nonnegative")

    def embed(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float) @ self.basis

    def evaluate(self, y):
        return self.g0 + self.gamma * self.embed(y)

    def evaluate_batch(self, ys):
        return self.g0 + self.gamma * (np.asarray(ys, dtype=float) @ self.basis)

    def declared_lipschitz(self) -> float:
        return self.gamma

    def domain_norm(self, y):
        return float(self.target_space.norm(self.embed(y)))

    def domain_norm_batch(self, ys):
        return np.asarray(self.target_space.norm(np.asarray(ys) @ self.basis))

    def sample_domain(self, rng, count):
        n = self.domain_dim
        if self.sampler == "auto":
            kind = self.target_space.kind
        else:
            kind = self.sampler
        if kind == "l2":
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

    def target_dist_batch(self, u, v):
        return np.asarray(self.target_space.norm(np.asarray(u) - np.asarray(v)))

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
        self.domain_dim = relunet.param_count(config.d, config.width, config.depth)
        self._grid = relunet.input_grid(config)
        self._trace = relunet.lip_bound(config)

    def evaluate(self, y):
        return self.evaluate_batch(np.asarray(y, dtype=float)[None, :])[0]

    def evaluate_batch(self, ys):
        return self._rn._batched_forward(self.config, np.asarray(ys, dtype=float),
                                         self._grid)

    def declared_lipschitz(self) -> float:
        return float(self._trace.final)

    def domain_norm(self, y):
        return float(np.abs(np.asarray(y)).max())

    def domain_norm_batch(self, ys):
        return np.abs(np.asarray(ys, dtype=float)).max(axis=1)

    def sample_domain(self, rng, count):
        return _unit_cube_sample(rng, count, self.domain_dim)

    def target_dist_batch(self, u, v):
        return np.abs(np.asarray(u) - np.asarray(v)).max(axis=1)

    def to_json(self):
        return {"variant": "relu", "d": self.config.d, "width": self.config.width,
                "depth": self.config.depth, "grid": self.config.grid}


def declared_lipschitz(map_: LipschitzMap) -> float:
    return map_.declared_lipschitz()


def empirical_lipschitz(map_: LipschitzMap, seed: int, pairs: int,
                        chunk: int = 1024) -> float:
    """Max sampled difference quotient; must stay below the declared constant.

    Pairs are drawn in fixed chunks with per-chunk seeds ``seed ^ chunk``,
    so the result does not depend on how chunks are scheduled.  Raises
    :class:`BoundViolation` if any ratio exceeds declared * (1 + 1e-9).
    """
    if pairs < 1:
        raise PreconditionError("pairs must be >= 1")
    declared = map_.declared_lipschitz()
    best = 0.0
    done = 0
    widx = 0
    while done < pairs:
        take = min(chunk, pairs - done)
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
                   target_space, grid_k=k, check_disjoint=False)


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


def _volume_ok(dim: int, levels) -> tuple[bool, float]:
    """Exact check of sum(2**(-dim*l)) <= 2**dim via per-level counts."""
    counts: dict[int, int] = {}
    for l in levels:
        counts[int(l)] = counts.get(int(l), 0) + 1
    lmax = max(counts) if counts else 0
    # integer arithmetic over the common denominator 2**(dim*lmax)
    num = sum(c << (dim * (lmax - l)) for l, c in counts.items())
    cap = 1 << (dim * (lmax + 1))
    frac = math.exp(math.log(num) - math.log(cap)) if num > 0 else 0.0
    return num <= cap, frac


def allocate_dyadic_cubes(dim: int, levels: Sequence[int]) -> CubeAllocation:
    """Greedy best-fit dyadic allocation of cubes with sides 2**-level.

    Levels must be nondecreasing nonnegative integers whose total volume
    fits in [-1, 1]^dim; under that volume condition dyadic splitting never
    fragments, so the allocation always succeeds.
    """
    levels = [int(l) for l in levels]
    if any(l < 0 for l in levels):
        raise PreconditionError("levels must be nonnegative")
    if any(b < a for a, b in zip(levels, levels[1:])):
        raise PreconditionError("levels must be ascending (sides nonincreasing)")
    ok, frac = _volume_ok(dim, levels)
    if not ok:
        raise PreconditionError(
            f"volume condition violated: sum 2^(-dim*level) exceeds 2^dim "
            f"(ratio {frac})"
        )
    # free[l] holds unallocated cells of level l; level -1 is [-1,1]^dim itself
    free: dict[int, list[tuple]] = {-1: [tuple([0] * dim)]}
    out_cells = np.empty((len(levels), dim), dtype=np.int64)
    deltas = list(itertools.product((0, 1), repeat=dim))
    for j, l in enumerate(levels):
        src = None
        for lv in range(l, -2, -1):
            if free.get(lv):
                src = lv
                break
        if src is None:
            raise PreconditionError("allocation failed despite volume condition")
        cell = free[src].pop()
        for lv in range(src, l):
            children = [tuple(2 * c + d for c, d in zip(cell, delta)) for delta in deltas]
            cell = children[0]
            free.setdefault(lv + 1, []).extend(reversed(children[1:]))
        out_cells[j] = cell
    return CubeAllocation(dim=dim, levels=np.asarray(levels, dtype=np.int64), cells=out_cells)


def audit_cube_allocation(alloc: CubeAllocation, pairwise_limit: int = 2048) -> bool:
    """Independent disjointness/containment audit.

    Always checks the exact integer-cell structure (no duplicate cells and
    no allocated cube nested in another); for small allocations it also
    runs the O(N^2) open-interval overlap test in float arithmetic, which
    is exact here because every coordinate is a dyadic rational.
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
    if alloc.count <= pairwise_limit:
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
        self.alloc = alloc
        self.sigmas = np.asarray(sigmas, dtype=float)
        if len(self.sigmas) != alloc.count:
            raise ValueError("one amplitude per cube required")
        self.domain_dim = alloc.dim
        self.domain_space = NormedSpace(alloc.dim, "linf")
        self._centers = alloc.centers()
        self._radii = 0.5 * alloc.sides()
        self._levels = sorted(set(alloc.levels.tolist()))
        self._lut: dict[int, dict[tuple, int]] = {l: {} for l in self._levels}
        for j, (l, cell) in enumerate(zip(alloc.levels.tolist(), map(tuple, alloc.cells.tolist()))):
            self._lut[l][cell] = j

    def declared_lipschitz(self) -> float:
        return float((self.sigmas / self._radii).max())

    def locate(self, y: np.ndarray) -> Optional[int]:
        y = np.asarray(y, dtype=float)
        for l in self._levels:
            side = 2.0 ** (-l)
            cell = tuple(int(c) for c in np.floor((y + 1.0) / side))
            j = self._lut[l].get(cell)
            if j is not None:
                return j
        return None

    def evaluate(self, y):
        """Sparse image: (coordinate index, value) or None for zero."""
        j = self.locate(y)
        if j is None:
            return None
        d = float(np.abs(self._centers[j] - np.asarray(y, dtype=float)).max())
        w = max(0.0, 1.0 - d / self._radii[j])
        if w == 0.0:
            return None
        return (j, self.sigmas[j] * w)

    def evaluate_batch(self, ys):
        return [self.evaluate(y) for y in np.asarray(ys, dtype=float)]

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

    def domain_norm(self, y):
        return float(np.abs(np.asarray(y)).max())

    def domain_norm_batch(self, ys):
        return np.abs(np.asarray(ys, dtype=float)).max(axis=1)

    def sample_domain(self, rng, count):
        return _unit_cube_sample(rng, count, self.domain_dim)

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
    x = np.minimum(x, 1.0)
    lev = np.ceil(-np.log2(x) - 1e-12).astype(int)
    lev = np.maximum(lev, 0)
    # fix any float off-by-one so the defining inequalities hold exactly
    for _ in range(2):
        too_big = 2.0 ** (-lev.astype(float)) < x - 1e-300
        lev[too_big] -= 1
        too_small = 2.0 ** (-(lev + 1).astype(float)) >= x
        lev[too_small] += 1
    return np.maximum(lev, 0)


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
    alloc = allocate_dyadic_cubes(dim, levels.tolist())
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
