"""Normed spaces, finite point clouds, and elementary size measures.

A :class:`NormedSpace` fixes the ambient norm; a :class:`FiniteSet` is the
computational stand-in for a compact set.  Distances are served as blocks of
consecutive rows (``dist_rows``) of at most ``BLOCK_ELEMS`` (2^16) entries, a
row being a one-row block, so that closed-form (oracle) sets can avoid
materialising either the coordinates or the full distance matrix, and scans
run over L2-sized blocks instead of one row at a time.  Scans ask whether
distances lie within a radius through ``FiniteSet.within``, which answers
exactly whatever a set caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# Absolute tolerance for "is this norm zero" tests.
TOL_ZERO = 1e-12
# Relative tolerance used whenever two certified bounds are compared.
REL_TOL = 1e-9
# Largest point cloud whose pairwise distances are cached.  A cloud handed an
# exact matrix, or whose matrix fits in one block, caches float64; any other
# caches each distance rounded to float32, m^2*4 B (64 MiB at 4096 points).
# Rounding is monotone, so an entry below or above fl32(eps) decides its
# comparison with eps; entries equal to it are decided by the sorted radii when
# those put every distance that rounds to fl32(eps) on one side of eps, else
# by recomputing each in float64 (``PointSet.within``).
DENSE_LIMIT = 4096
# Elements (rows x points) per block of distance rows: 512 KiB of float64
# (256 KiB of a float32 cache), so a block stays in a core's L2 cache.  Scans,
# certificates, sequence sums and the ReLU forward pass read it at call time.
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


def _float32(x: float) -> np.float32:
    """x rounded to float32 as the cache rounds distances: past float32's
    range to inf, without the cast's overflow warning."""
    with np.errstate(over="ignore"):
        return np.float32(x)


def block_rows(size: int) -> int:
    """Rows per block of rows ``size`` entries wide, as a set's distance rows are."""
    return max(1, BLOCK_ELEMS // size)


def row_spans(size: int, width: Optional[int] = None):
    """(first row, end row) of each block of ``size`` rows, ``width`` (or ``size``) wide."""
    step = block_rows(size if width is None else width)
    for lo in range(0, size, step):
        yield lo, min(lo + step, size)


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

    def dist_at(self, rows) -> np.ndarray:
        """The distance rows named by a slice of consecutive rows or by an
        ascending int array, which is read as the block from its first row to
        its last."""
        if isinstance(rows, slice):
            return self.dist_rows(rows.start, rows.stop)
        lo = int(rows[0])
        return self.dist_rows(lo, int(rows[-1]) + 1)[rows - lo]

    def within(self, rows, eps: float) -> np.ndarray:
        """Boolean block of the rows that ``dist_at`` names: entry (k, j) says
        whether d(row k, j) <= eps.  Every scan that compares distances with a
        radius asks here; d < x is d <= the float below x."""
        return self.dist_at(rows) <= eps

    def row_maxima(self) -> np.ndarray:
        """Each point's largest distance to the set."""
        return np.concatenate([self.dist_rows(lo, hi).max(axis=1)
                               for lo, hi in row_spans(self.size)])

    def diameter(self) -> float:
        return float(self.row_maxima().max())


class PointSet(FiniteSet):
    """Explicit point cloud in a normed space.

    A closed-form distance matrix may be injected by constructors that know
    one (it must agree with the space norm; tests audit this).  A cloud of at
    most DENSE_LIMIT points caches its distances (``matrix``) and answers
    ``within`` from the cache; ``dist_rows`` always returns exact float64 rows.
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
        self._cache = self._row_max = self._distinct = None
        # the cache's dtype: float64 when the set is handed its matrix or the
        # whole matrix fits in one block, else every distance rounded to float32
        exact = dist_matrix is not None or self.size * self.size <= BLOCK_ELEMS
        self._dtype = np.float64 if exact else np.float32
        self._ties = (None, None, None)  # the last eps and _ties_at's answer
        if dist_matrix is not None:
            m = np.asarray(dist_matrix, dtype=float)
            if m.shape != (self.size, self.size):
                raise ValueError("dist_matrix shape mismatch")
            self._cache = m

    def _rows(self, rows, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Distance rows of the points ``rows`` (a slice or an int array),
        filled into a (rows, size) block one coordinate at a time.

        numpy adds fewer than 8 terms in order, so the coordinate-wise
        accumulation equals ``space.norm`` bit for bit for the max norms at
        any dimension and for the sum norms below dimension 8.  Sum norms in
        dimension 8 and up take the norm's own sum over the last axis instead,
        over as many rows at a time as keep the (rows, size, dim) differences
        in one reused buffer within the budget (one row at least).
        """
        space, pts, sel = self.space, self.points, self.points[rows]
        n = len(sel)
        if out is None:
            out = np.empty((n, self.size))
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
            diff = np.empty((min(step, n), self.size, space.dim))
            for i in range(0, n, step):
                d = diff[: min(step, n - i)]
                np.subtract(sel[i : i + step, None, :], pts[None, :, :], out=d)
                magnitude(d, scale)
                d.sum(axis=-1, out=out[i : i + step])
        else:
            combine = np.add if space.kind in SUM_NORMS else np.maximum
            tmp = np.empty_like(out) if space.dim > 1 else None
            for k in range(space.dim):
                term = tmp if k else out
                np.subtract.outer(sel[:, k], pts[:, k], out=term)
                magnitude(term, None if scale is None else scale[k])
                if k:
                    combine(out, term, out=out)
        if space.kind == "l2":
            np.sqrt(out, out=out)
        return out

    def matrix(self) -> np.ndarray:
        """The distance cache, of dtype ``_dtype``, filled on first use and
        refused above DENSE_LIMIT."""
        if self._cache is None:
            self._fill(radii=False)
        return self._cache

    def _fill(self, radii: bool) -> Optional[np.ndarray]:
        """One blocked pass over the exact distances: it fills an empty cache
        and records each row's maximum, and with ``radii`` it returns the
        strict lower triangle, row after row.  A float64 cache is read; a
        float32 one is recomputed by the kernel, since its entries are not
        the distances."""
        m = self.size
        if m > DENSE_LIMIT:
            raise PreconditionError(f"dense distance matrix refused for {m} points")
        cache, fresh = self._cache, self._cache is None
        if fresh:
            cache = np.empty((m, m), self._dtype)
        buf = None if self._dtype == np.float64 else np.empty((min(block_rows(m), m), m))
        row_max = np.empty(m)
        vals = np.empty(m * (m - 1) // 2) if radii else None
        for lo, hi in row_spans(m):
            if buf is None:
                block = cache[lo:hi]
                if fresh:
                    self._rows(slice(lo, hi), block)
            else:
                block = self._rows(slice(lo, hi), buf[: hi - lo])
                if fresh:
                    with np.errstate(over="ignore"):  # past float32's range: inf
                        cache[lo:hi] = block
            block.max(axis=1, out=row_max[lo:hi])
            if radii:  # row i's first i entries, at i(i-1)/2
                for i, row in enumerate(block, start=lo):
                    vals[i * (i - 1) // 2 : i * (i + 1) // 2] = row[:i]
        self._cache, self._row_max = cache, row_max
        return vals

    def dist_rows(self, lo: int, hi: int) -> np.ndarray:
        return self.dist_at(slice(lo, hi))

    def dist_at(self, rows) -> np.ndarray:
        """As ``FiniteSet.dist_at``, but the kernel computes only the named rows."""
        if self._dtype == np.float64:
            return self.matrix()[rows]
        return self._rows(rows)

    def within(self, rows, eps: float) -> np.ndarray:
        """As ``FiniteSet.within``, from the cache.  A float32 cache decides
        every entry f != fl32(eps): rounding is monotone, so f < fl32(eps)
        means d < eps and f > fl32(eps) means d > eps.  An entry f ==
        fl32(eps) (inf when eps is past float32's range) is a distance that
        rounds as eps does.  When the sorted radii put every such distance on
        one side of eps, one comparison decides them too; otherwise each one
        is recomputed in float64, by the space's norm (which the kernel
        equals bit for bit), and compared exactly, a bounded batch of pairs
        at a time."""
        if self._dtype == np.float64 or self.size > DENSE_LIMIT:
            return super().within(rows, eps)
        block = self.matrix()[rows]
        e, side = self._ties_at(eps)
        if side is not None:
            return block <= e if side else block < e
        out = block <= e
        k, j = np.divmod(np.flatnonzero(block == e), self.size)
        i = rows.start + k if isinstance(rows, slice) else rows[k]
        step = max(1, BLOCK_ELEMS // self.space.dim)
        for lo in range(0, k.size, step):
            at = slice(lo, lo + step)
            out[k[at], j[at]] = self.space.norm(self.points[i[at]] - self.points[j[at]]) <= eps
        return out

    def _ties_at(self, eps: float) -> tuple:
        """(e, side) at the radius eps: e = fl32(eps), and side True when
        every distance that rounds to e lies within eps, False when none
        does, from the sorted radii; None when both kinds exist or the radii
        are not known (None is always correct: ``within`` then recomputes
        the ties).  The distances that round to e form an interval of the
        radii, so both kinds exist only if it holds the largest distance
        within eps and the least beyond it.  Kept for the last eps: the
        entropy search's scans ask at one radius many times."""
        if self._ties[0] == eps:
            return self._ties[1:]
        e, side, dist = _float32(eps), None, self._distinct
        if dist is not None:
            zero_in = 0.0 <= eps  # d(i, i) = 0 is a distance too
            k = int(np.searchsorted(dist, eps, side="right"))
            inside = dist[k - 1] if k else (0.0 if zero_in else None)
            beyond = (dist[k] if k < dist.size else None) if zero_in else 0.0
            tie_in = inside is not None and _float32(inside) == e
            side = None if tie_in and beyond is not None and _float32(beyond) == e else tie_in
        self._ties = (eps, e, side)
        return e, side

    def row_maxima(self) -> np.ndarray:
        if self.size > DENSE_LIMIT:
            return super().row_maxima()
        if self._row_max is None:
            self._fill(radii=False)
        return self._row_max

    def dist_to(self, x) -> np.ndarray:
        """Distances from an arbitrary ambient point to every set point, by blocks."""
        return np.concatenate([self.space.norm(self.points[lo:hi] - x)
                               for lo, hi in row_spans(self.size, self.space.dim)])

    def distinct_distances(self) -> np.ndarray:
        """Sorted distinct positive distances, the radii entropy searches bisect,
        kept for every n: the strict lower triangle, collected by the pass that
        fills the cache (or by one more pass over exact rows once a float32
        cache exists), sorted and compacted in place."""
        if self._distinct is not None:
            return self._distinct
        vals = self._fill(radii=True)  # refused above DENSE_LIMIT
        vals.sort()
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
    fars = fset.row_maxima()
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
