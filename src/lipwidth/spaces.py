"""Normed spaces, finite point clouds, and elementary size measures.

A :class:`NormedSpace` fixes the ambient norm; a :class:`FiniteSet` is the
computational stand-in for a compact set.  Distances are served as blocks of
consecutive rows (``dist_rows``) of at most ``BLOCK_ELEMS`` (2^16) entries, a
row being a one-row block, so that closed-form (oracle) sets can avoid
materialising either the coordinates or the full distance matrix, and scans
run over L2-sized blocks instead of one row at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# Absolute tolerance for "is this norm zero" tests.
TOL_ZERO = 1e-12
# Relative tolerance used whenever two certified bounds are compared.
REL_TOL = 1e-9
# Largest set for which a dense pairwise distance matrix is cached.
DENSE_LIMIT = 4096
# Elements (rows x points) per block of distance rows: 512 KiB of float64,
# so a block stays in a core's L2 cache.  Scans and the ReLU forward pass
# read it through this module at call time.
BLOCK_ELEMS = 1 << 16

NORM_KINDS = ("l1", "l2", "linf", "wlinf", "l1step")
# Norms that sum over coordinates; the others take the maximum.
SUM_NORMS = ("l1", "l2", "l1step")


class DimensionMismatch(ValueError):
    """A point does not conform to the space it is used in."""


class PreconditionError(ValueError):
    """A documented precondition of an operation failed."""


@dataclass(frozen=True)
class NormedSpace:
    """Finite-dimensional normed space with a tagged norm descriptor.

    kind:
        "l1", "l2", "linf"  -- the usual p-norms,
        "wlinf"             -- max_i weights[i] * |x_i| with positive weights,
        "l1step"            -- step functions on [0, 2]; a point holds the
                               value on each cell of ``cell_edges`` and the
                               norm is the exact interval sum of |v| * dx.
    """

    dim: int
    kind: str
    weights: Optional[tuple] = None
    cell_edges: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "wlinf":
            if self.weights is None or len(self.weights) != self.dim:
                raise ValueError("wlinf needs one positive weight per coordinate")
            if any(w <= 0 for w in self.weights):
                raise ValueError("wlinf weights must be positive")
        if self.kind == "l1step":
            edges = self.cell_edges
            if edges is None or len(edges) != self.dim + 1:
                raise ValueError("l1step needs dim+1 cell edges")
            if abs(edges[0]) > TOL_ZERO or abs(edges[-1] - 2.0) > TOL_ZERO:
                raise ValueError("l1step cell edges must span [0, 2]")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValueError("l1step cell edges must be strictly increasing")

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"point of dimension {x.shape[-1]} in space of dimension {self.dim}"
            )
        return x

    def norm(self, x) -> float | np.ndarray:
        """Norm of one point or of a batch of points (leading axes kept)."""
        x = self._check(x)
        if self.kind == "l1":
            out = np.abs(x).sum(axis=-1)
        elif self.kind == "l2":
            out = np.sqrt((x * x).sum(axis=-1))
        elif self.kind == "linf":
            out = np.abs(x).max(axis=-1)
        elif self.kind == "wlinf":
            out = (np.abs(x) * np.asarray(self.weights)).max(axis=-1)
        else:  # l1step
            dx = np.diff(np.asarray(self.cell_edges))
            out = (np.abs(x) * dx).sum(axis=-1)
        return float(out) if out.ndim == 0 else out

    @classmethod
    def from_json(cls, doc: dict) -> "NormedSpace":
        norm = doc["norm"]
        return cls(
            dim=int(doc["dim"]),
            kind=norm["kind"],
            weights=tuple(norm["weights"]) if "weights" in norm else None,
            cell_edges=tuple(norm["cell_edges"]) if "cell_edges" in norm else None,
        )


def lp_space(dim: int, p) -> NormedSpace:
    kind = {1: "l1", 2: "l2", "inf": "linf", np.inf: "linf"}[p]
    return NormedSpace(dim=dim, kind=kind)


def step_space(cell_edges: Sequence[float]) -> NormedSpace:
    edges = tuple(float(t) for t in cell_edges)
    return NormedSpace(dim=len(edges) - 1, kind="l1step", cell_edges=edges)


def block_rows(size: int) -> int:
    """Rows per block of distance rows of a set of ``size`` points."""
    return max(1, BLOCK_ELEMS // size)


def row_blocks(fset: FiniteSet):
    """(first row, block of distance rows) over the whole set, in order."""
    step = block_rows(fset.size)
    for lo in range(0, fset.size, step):
        yield lo, fset.dist_rows(lo, min(lo + step, fset.size))


class FiniteSet:
    """Base class: a finite metric sample with block-wise distance access.

    Subclasses must provide ``size``, ``space``, and the block kernel
    ``dist_rows`` (a row is a one-row block), and may override ``diameter``.
    The entropy search runs on :class:`PointSet` only; other sets define
    ``entropy_witnesses(n)``: entropy numbers in closed form, with witnesses.
    """

    size: int
    space: NormedSpace

    def dist_rows(self, lo: int, hi: int) -> np.ndarray:
        """Distance rows lo..hi-1 as one (hi - lo, size) array."""
        raise NotImplementedError

    def dist_row(self, i: int) -> np.ndarray:
        return self.dist_rows(i, i + 1)[0]

    def diameter(self) -> float:
        return max(float(block.max()) for _, block in row_blocks(self))


class PointSet(FiniteSet):
    """Explicit point cloud in a normed space.

    A closed-form distance matrix may be injected by constructors that know
    one (it must agree with the space norm; tests audit this).
    """

    def __init__(self, space: NormedSpace, points, dist_matrix=None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array")
        if pts.shape[0] == 0:
            raise ValueError("empty point set")
        if pts.shape[1] != space.dim:
            raise DimensionMismatch(
                f"points of dimension {pts.shape[1]} in space of dimension {space.dim}"
            )
        self.space = space
        self.points = pts
        self.size = pts.shape[0]
        self._matrix = None
        self._distinct = self._apart = None
        if dist_matrix is not None:
            m = np.asarray(dist_matrix, dtype=float)
            if m.shape != (self.size, self.size):
                raise ValueError("dist_matrix shape mismatch")
            self._matrix = m

    def _rows(self, lo: int, hi: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Distance rows lo..hi-1, filled into a (hi - lo, size) block one
        coordinate at a time.

        numpy adds fewer than 8 terms in order, so the coordinate-wise
        accumulation equals ``space.norm`` bit for bit for the max norms at
        any dimension and for the sum norms below dimension 8.  Sum norms in
        dimension 8 and up take the norm's own sum over the last axis instead,
        over as many rows at a time as keep the (rows, size, dim) differences
        in one reused buffer within the budget (one row at least).
        """
        space, pts = self.space, self.points
        if out is None:
            out = np.empty((hi - lo, self.size))
        scale = space.weights if space.kind == "wlinf" else None
        if space.kind == "l1step":
            scale = np.diff(np.asarray(space.cell_edges))

        def magnitude(term, s):
            """|x|, or x^2 for l2, times the coordinate scale s: in place."""
            if space.kind == "l2":
                np.multiply(term, term, out=term)
            else:
                np.abs(term, out=term)
            if s is not None:
                term *= s

        if space.kind in SUM_NORMS and space.dim >= 8:
            step = max(1, BLOCK_ELEMS // (self.size * space.dim))
            diff = np.empty((min(step, hi - lo), self.size, space.dim))
            for i in range(lo, hi, step):
                j = min(i + step, hi)
                d = diff[: j - i]
                np.subtract(pts[i:j, None, :], pts[None, :, :], out=d)
                magnitude(d, scale)
                d.sum(axis=-1, out=out[i - lo : j - lo])
        else:
            combine = np.add if space.kind in SUM_NORMS else np.maximum
            tmp = np.empty_like(out) if space.dim > 1 else None
            for k in range(space.dim):
                term = tmp if k else out
                np.subtract.outer(pts[lo:hi, k], pts[:, k], out=term)
                magnitude(term, None if scale is None else scale[k])
                if k:
                    combine(out, term, out=out)
        if space.kind == "l2":
            np.sqrt(out, out=out)
        return out

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if self.size > DENSE_LIMIT:
                raise PreconditionError(
                    f"dense distance matrix refused for {self.size} points"
                )
            out = np.empty((self.size, self.size))
            step = block_rows(self.size)
            for lo in range(0, self.size, step):
                self._rows(lo, min(lo + step, self.size), out[lo : lo + step])
            self._matrix = out
        return self._matrix

    def dist_rows(self, lo: int, hi: int) -> np.ndarray:
        if self._matrix is None and self.size <= DENSE_LIMIT:
            self.matrix()
        if self._matrix is not None:
            return self._matrix[lo:hi]
        return self._rows(lo, hi)

    def dist_to(self, x) -> np.ndarray:
        """Distances from an arbitrary ambient point to every set point."""
        return np.asarray(self.space.norm(self.points - np.asarray(x, dtype=float)))

    def distinct_distances(self) -> np.ndarray:
        """Sorted distinct positive distances, the radii entropy searches bisect,
        kept for every n: the strict lower triangle sorted and compacted in place."""
        if self._distinct is not None:
            return self._distinct
        self.matrix()  # refused above DENSE_LIMIT
        vals = np.empty(self.size * (self.size - 1) // 2)
        for lo, block in row_blocks(self):
            for i, row in enumerate(block, start=lo):
                vals[i * (i - 1) // 2 : i * (i + 1) // 2] = row[:i]
        vals.sort()
        self._apart = not (vals.size and vals[0] == 0.0)  # zeros sort first
        kept, prev = 0, 0.0  # distances are >= 0: zeros go with the repeats
        step = max(1, BLOCK_ELEMS // 8)  # BLOCK_ELEMS bytes, so a block's copy stays small
        for lo in range(0, vals.size, step):
            blk = vals[lo : lo + step]
            new = blk[np.concatenate(([blk[0] > prev], blk[1:] > blk[:-1]))]
            prev = blk[-1]
            vals[kept : kept + new.size] = new  # kept <= lo: never past the read
            kept += new.size
        self._distinct = vals[:kept]
        return self._distinct

    def points_apart(self) -> bool:
        """No two points at distance 0.0 (from the distances, not the coordinates),
        so the entropy search decides its bottom radius in closed form."""
        self.distinct_distances()
        return self._apart

    def translated(self, center) -> "PointSet":
        return PointSet(self.space, self.points - np.asarray(center, dtype=float))

    @classmethod
    def from_json(cls, doc: dict) -> "PointSet":
        return cls(NormedSpace.from_json(doc["space"]), np.asarray(doc["points"], dtype=float))


def diameter(fset: FiniteSet) -> float:
    """Exact max pairwise distance (full scan)."""
    if fset.size < 1:
        raise PreconditionError("empty set")
    return fset.diameter()


@dataclass(frozen=True)
class RadiusBound:
    """Two-sided Chebyshev-radius bracket with the certifying center.

    ``upper`` comes from the best candidate center (any center gives a valid
    upper bound); ``lower`` is diameter/2, valid in every normed space.
    """

    upper: float
    lower: float
    center_index: Optional[int]
    center_point: Optional[np.ndarray] = field(default=None, compare=False)


def radius_upper(fset: FiniteSet) -> RadiusBound:
    """Candidate-center radius bracket.

    Candidates are every set point plus, when coordinates are available,
    the coordinate-wise mean.  The returned upper bound dominates rad(K),
    which is all the width constructions need.
    """
    if fset.size < 1:
        raise PreconditionError("empty set")
    fars = np.concatenate([block.max(axis=1) for _, block in row_blocks(fset)])
    best_idx = int(np.argmin(fars))  # the first minimum, as a strict < scan keeps
    best = float(fars[best_idx])
    center_pt = None
    center_idx: Optional[int] = best_idx
    if isinstance(fset, PointSet):
        mean = fset.points.mean(axis=0)
        far = float(fset.dist_to(mean).max())
        if far < best:
            best = far
            center_idx = None
            center_pt = mean
        else:
            center_pt = fset.points[best_idx]
    lower = float(fars.max()) / 2.0  # the diameter: the largest row maximum
    return RadiusBound(upper=best, lower=lower, center_index=center_idx, center_point=center_pt)
