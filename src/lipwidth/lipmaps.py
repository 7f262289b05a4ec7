"""Constructive Lipschitz maps with declared, verifiable constants.

Three families carry the upper bounds: bump sums on the cubes of a regular
grid (:class:`BumpSum`, entropy covers to width bounds), affine maps on the
unit ball of a linear subspace (:class:`AffineBallMap`, Kolmogorov bounds to
Lipschitz-width bounds) and bump sums on dyadic cubes
(:class:`SequenceBumpSum`, sequence sets).  All but the sequence family
share one base, :class:`LipschitzMap`: a domain whose norm measures
separations (the sup-norm cube, except for the affine maps), and a target
space that measures image distances.

The dyadic cubes of the sequence family are placed in Z-order (Morton order)
and certified disjoint by their exact volume sum; see
:func:`allocate_dyadic_cubes`.

Every map declares a closed-form Lipschitz constant, which follows from how
the map is built; the sampled falsifier that checks the declarations lives
with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from .spaces import NormedSpace, PreconditionError, REL_TOL, row_spans

BALL_SLACK = 1e-9  # admission slack for "candidate inside the ball"


class BoundViolation(AssertionError):
    """A Lipschitz constant, declared or sampled, exceeded its bound."""


class LipschitzMap:
    """A map on the sup-norm unit ball [-1, 1]^domain_dim into ``target_space``.

    Subclasses provide ``evaluate_batch`` and ``declared_lipschitz``.
    Separations are measured in the sup norm, and images are compared in
    ``target_space``.
    """

    def __init__(self, domain_dim: int, target_space: NormedSpace):
        self.domain_space = NormedSpace(domain_dim, "linf")
        self.target_space = target_space
        self.domain_dim = domain_dim

    def evaluate_batch(self, ys: np.ndarray):
        raise NotImplementedError

    def declared_lipschitz(self) -> float:
        raise NotImplementedError

    def domain_norm_batch(self, ys: np.ndarray) -> np.ndarray:
        return np.asarray(self.domain_space.norm(np.asarray(ys, dtype=float)))


class BumpSum(LipschitzMap):
    """Cone bumps on the 2**(k n) cubes of side 2**(1-k) tiling [-1, 1]^n.

    Cube j (row-major, see :func:`grid_centers`) has center ``centers[j]``
    and sup-norm radius ``radius = 2**-k``; its bump is
    ``(1 - |y - centers[j]|_inf / radius)_+ * payloads[j]``.  Each payload is
    one target vector, so the map reproduces it bit-exactly at the cube's
    center.  The declared constant is ``max_j ||payload_j|| / radius``.
    """

    def __init__(self, k: int, n: int, payloads, target_space: NormedSpace):
        if k < 1 or n < 1:
            raise PreconditionError("k and n must be positive")
        if k * n > 24:
            raise PreconditionError(f"size guard: k*n = {k * n} > 24")
        super().__init__(n, target_space)
        self.k = k
        self.payloads = np.asarray(payloads, dtype=float)
        want = 1 << (k * n)
        if self.payloads.shape[0] != want:
            raise PreconditionError(f"need exactly {want} targets, got {self.payloads.shape[0]}")
        self.centers = grid_centers(k, n)
        self.radius = 2.0 ** (-k)

    def declared_lipschitz(self) -> float:
        amplitudes = np.asarray(self.target_space.norm(self.payloads))
        return float((amplitudes / self.radius).max())

    def grid_cell(self, ys: np.ndarray) -> np.ndarray:
        """Flat cube index per point: one floor per axis."""
        k = self.k
        side = 2.0 ** (1 - k)
        idx = np.floor((np.asarray(ys) + 1.0) / side).astype(int)
        np.clip(idx, 0, (1 << k) - 1, out=idx)
        flat = np.zeros(idx.shape[0], dtype=np.int64)
        for a in range(idx.shape[1]):
            flat = (flat << k) | idx[:, a]
        return flat

    def evaluate_batch(self, ys):
        ys = np.asarray(ys, dtype=float)
        flat = self.grid_cell(ys)
        d = np.asarray(self.domain_space.norm(ys - self.centers[flat]))
        w = np.maximum(0.0, 1.0 - d / self.radius)
        return w[:, None] * self.payloads[flat]


class AffineBallMap(LipschitzMap):
    """y -> g0 + gamma * (y @ basis) on the unit ball of a target subspace.

    Domain points are coefficient vectors; the domain norm is the ambient
    norm of the embedded vector, so the map is gamma-Lipschitz exactly.
    No :class:`NormedSpace` kind expresses that pulled-back norm, so this
    map has no ``domain_space`` and overrides the norm.
    At ``gamma = 0`` it is the constant map onto ``g0``.
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
    return BumpSum(k, n, targets, target_space)


# ---------------------------------------------------------------------------
# Dyadic cube allocation
# ---------------------------------------------------------------------------


class CubeAllocation:
    """Disjoint dyadic cubes inside [-1, 1]^dim, kept as their runs of equal level.

    Run k holds ``counts[k]`` cubes of side 2**-levels[k], levels strictly
    ascending, in the Z-order places that :func:`allocate_dyadic_cubes` gives
    them; ``count`` and a bump map's declared constant need only the runs.
    """

    def __init__(self, dim: int, levels: np.ndarray, counts: np.ndarray):
        self.dim = dim
        self.levels = levels
        self.counts = counts

    @property
    def count(self) -> int:
        return int(self.counts.sum())


def _zorder_runs(dim: int, levels: np.ndarray, counts: np.ndarray) -> tuple:
    """One (level, count, Morton offset of its first cube) per run; then the
    offset past the last cube, and its level."""
    runs, offset, prev = [], 0, 0
    for l, c in zip(levels.tolist(), counts.tolist()):
        offset <<= dim * (l - prev)
        runs.append((l, c, offset))
        offset, prev = offset + c, l
    return runs, offset, prev


def _any_step(values: np.ndarray, op) -> bool:
    """Whether op(v_i, v_{i+1}) holds for some neighbours, a block at a time."""
    return any(np.any(op(values[lo:hi], values[lo + 1 : hi + 1]))
               for lo, hi in row_spans(len(values) - 1, 8))


def _integers(values, name: str) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype.kind not in "iu" and not np.all(
            np.isfinite(values) & (values == np.floor(values))):
        raise PreconditionError(f"{name} must be integers")
    return values.astype(np.int64, copy=False)


def allocate_dyadic_cubes(dim: int, levels: Sequence[int],
                          counts: Sequence[int]) -> CubeAllocation:
    """Disjoint dyadic cubes with sides 2**-level, placed in Z-order.

    The cubes come as runs: ``counts[k]`` cubes at ``levels[k]``, levels
    strictly ascending nonnegative integers, counts positive, whose total
    volume fits in [-1, 1]^dim.  Cube j takes the next block of the Z-order
    (Morton) curve through the level-l_j cells: it starts at offset
    sum_{i<j} 2**(dim*(l_j - l_i)).  The lemma: aligned dyadic cubes with
    nonincreasing sides, placed in Z-order, are disjoint and inside
    [-1, 1]^dim when the Morton offset fits ``cap``.  Sides never grow, so
    every block is aligned, hence one dyadic cube, and the blocks follow one
    another; at the finest level the offset past the last cube over
    ``cap = 2**(dim*(l_max+1))`` is sum_j 2**(-dim*l_j) / 2**dim exactly, so
    it fits exactly when the volumes do (the Kraft inequality).  That is
    checked here in integers, one run at a time, and only the runs are kept:
    no cube's cell is ever made.
    """
    levels, counts = _integers(levels, "levels"), _integers(counts, "counts")
    if levels.shape != counts.shape or levels.ndim != 1:
        raise PreconditionError("one count per level required")
    if levels.min(initial=0) < 0:
        raise PreconditionError("levels must be nonnegative")
    if np.any(levels[1:] <= levels[:-1]):
        raise PreconditionError("levels must be strictly ascending (sides decreasing)")
    if counts.min(initial=1) < 1:
        raise PreconditionError("counts must be positive")
    offset, top = _zorder_runs(dim, levels, counts)[1:]
    cap = 1 << (dim * (top + 1))
    if offset > cap:
        frac = math.exp(math.log(offset) - math.log(cap))
        raise PreconditionError(
            f"volume condition violated: sum 2^(-dim*level) exceeds 2^dim "
            f"(ratio {frac})"
        )
    return CubeAllocation(dim=dim, levels=levels, counts=counts)


class SequenceBumpSum:
    """Bump sum on allocated dyadic cubes mapping into the sequence space.

    Bump j is sigma_j (1 - |y - c_j|_inf / r_j)_+ e_j, the cone on cube j
    (centre c_j, half side r_j) along the j-th coordinate direction.  The
    cubes are disjoint and inside [-1, 1]^dim by the lemma of
    :func:`allocate_dyadic_cubes` (aligned dyadic cubes with nonincreasing
    sides, placed in Z-order, are disjoint and inside [-1, 1]^dim when the
    Morton offset fits ``cap``), so the map sends c_j to sigma_j e_j and its
    declared constant is max_j sigma_j / r_j.  The amplitudes are
    nonincreasing (:func:`bump_levels` checks it), so that maximum is taken
    at the first bump of some run.  Certificates and rechecks read the runs,
    the amplitudes and that constant; they never place a cube or evaluate
    the map.
    """

    def __init__(self, alloc: CubeAllocation, sigmas):
        self.alloc = alloc
        self.sigmas = np.asarray(sigmas, dtype=float)
        if len(self.sigmas) != alloc.count:
            raise ValueError("one amplitude per cube required")

    def declared_lipschitz(self) -> float:
        """max_j sigma_j / r_j = sigma_j 2**(l_j + 1), exactly: within a run the
        amplitudes do not increase, so each run's largest is its first."""
        firsts = np.cumsum(self.alloc.counts) - self.alloc.counts
        return float(np.ldexp(self.sigmas[firsts], self.alloc.levels + 1).max())


def bump_levels(sigmas, gamma: float) -> tuple:
    """Runs ``(levels, counts)`` of the levels l_j with
    2**(-l_j - 1) < 2 sigma_j / gamma <= 2**(-l_j), for positive nonincreasing
    amplitudes.  2 sigma_j / gamma does not increase in j (rounding is
    monotone), and its level is at least l exactly when it is at most
    2**-l, so each run ends where a binary search over the amplitudes first
    finds that scalar at most 2**-(l + 1).  No array of the amplitudes'
    length is made."""
    sig = np.asarray(sigmas, dtype=float)
    if not np.min(sig, initial=np.inf) > 0:  # no mask; a NaN fails too
        raise PreconditionError("amplitudes must be positive")
    if _any_step(sig, np.less):
        raise PreconditionError("amplitudes must be nonincreasing")
    if sig.size and 2.0 * sig[0] / gamma > 1.0 + 1e-15:
        raise PreconditionError("sigma_1 <= gamma/2 required")
    if sig.size and not 2.0 * sig[-1] / gamma > 0.0:
        raise PreconditionError("2 sigma_j / gamma underflows to 0")
    levels, ends = [], [0]
    while ends[-1] < sig.size:
        # x = mant * 2**exp with mant in [0.5, 1): x is 2**(exp-1) exactly when
        # mant == 0.5, and lies strictly inside (2**(exp-1), 2**exp) otherwise
        mant, exp = math.frexp(min(2.0 * sig[ends[-1]] / gamma, 1.0))
        levels.append((mant == 0.5) - exp)
        below = 2.0 ** -(levels[-1] + 1)
        ends.append(bisect.bisect_left(sig, True, ends[-1] + 1, sig.size,
                                       key=lambda s: 2.0 * s / gamma <= below))
    return np.array(levels, dtype=np.int64), np.diff(ends).astype(np.int64)


def build_sequence_bump_map(sigmas, gamma: float, dim: int) -> SequenceBumpSum:
    """Dyadic-cube bump sum approximating a coordinate-sequence set.

    ``sigmas`` are the materialised amplitudes, a prefix of the sequence;
    :func:`bump_levels` checks that they are positive and nonincreasing.
    The volume condition of the whole sequence is the caller's to certify
    (``case_studies.volume_condition``); the prefix's cubes must fit, or
    :func:`allocate_dyadic_cubes` raises.
    """
    sig = np.asarray(sigmas, dtype=float)
    if sig.size == 0:
        raise PreconditionError("empty amplitude prefix")
    if sig[0] > gamma / 2.0 + 1e-15:
        raise PreconditionError(f"sigma_1 = {sig[0]} exceeds gamma/2 = {gamma / 2.0}")
    bmap = SequenceBumpSum(allocate_dyadic_cubes(dim, *bump_levels(sig, gamma)), sig)
    if bmap.declared_lipschitz() > gamma * (1.0 + REL_TOL):
        raise BoundViolation("declared constant exceeds requested gamma")
    return bmap
