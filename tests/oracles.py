"""Closed forms and dense views that only the tests compare the package with."""

import itertools
from bisect import bisect_left

import numpy as np

from lipwidth.lipmaps import LipschitzMap
from lipwidth.spaces import PreconditionError

PAIR_CHUNK = 1024  # pairs drawn per seeded chunk in empirical_lipschitz


def sequence_dense_points(ss) -> np.ndarray:
    """The points of a ``SequenceSet`` as dense rows: sigma_j e_j, then the origin."""
    m = len(ss.sigmas)
    pts = np.zeros((m + 1, m))
    pts[np.arange(m), np.arange(m)] = ss.sigmas
    return pts


def dense_twin(fset, own_matrix=False):
    """A ``PointSet`` with the distances of a closed-form set, so that the
    generic entropy search runs on its shape.  The twin keeps the name of the
    set it stands for (``twin_of``), and test ids name that shape.  A sequence
    twin computes its matrix from its points, unless ``own_matrix`` hands it
    the set's own (a truncation of 1024 takes seconds in l-infinity)."""
    from lipwidth import PointSet, lp_space

    name = type(fset).__name__
    if name == "SequenceSet":
        twin = PointSet(lp_space(len(fset.sigmas), "inf"), sequence_dense_points(fset),
                        dist_matrix=fset.dist_rows(0, fset.size) if own_matrix else None)
    elif name == "UniformBasisSet":
        twin = PointSet(lp_space(fset.size, 2), np.eye(fset.size))
    else:  # a TransportSet: its own points and closed-form matrix
        twin = PointSet(fset.space, fset.points, dist_matrix=fset.matrix())
    twin.twin_of = name
    return twin


def unique_positive(ps) -> np.ndarray:
    """The sorted distinct positive distances of a point cloud, by np.unique."""
    vals = np.unique(ps.dist_rows(0, ps.size)[np.tri(ps.size, k=-1, dtype=bool)])
    return vals[vals > 0.0]


def entropy_search(ps, n):
    """The bisection of ``inner_entropy`` on a cloud of at most DENSE_LIMIT
    points with a positive distance and more than 2**n points, over radii
    concatenated as [0, *unique_positive(ps)], r_0 probed at r_1 / 2 like
    any radius: (lower, upper, upper centers, lower witness)."""
    from lipwidth.covering import (N_EXACT, _cover_masks, covering_lower_bound,
                                   exact_min_cover, greedy_packing)

    budget = 1 << n
    radii = np.concatenate(([0.0], unique_positive(ps)))
    exact = ps.size <= N_EXACT

    def probe(i):
        return radii[i] if i else 0.5 * radii[1]

    covers, found = {}, {}

    def fits(i):
        if exact:
            found = exact_min_cover(_cover_masks(ps, probe(i)), ps.size, limit=budget)
            covers[i] = None if found is None else list(found[1])
        else:
            pack = greedy_packing(ps, probe(i), stop_above=budget)
            covers[i] = list(pack.indices) if pack.maximal else None
        return covers[i] is not None

    def clears(i):
        found[i] = covering_lower_bound(ps, probe(i), stop_above=budget)
        return len(found[i]) <= budget

    top = radii.size - 1
    up = bisect_left(range(top), True, key=fits)
    if up == top:
        fits(top)
    low = up if exact else bisect_left(range(up), True, key=clears)
    lower = {"kind": "exact-cover"} if exact else {"kind": "ball-disjoint-points",
                                                   "points": found.get(low - 1)}
    return float(radii[low]), float(radii[up]), covers[up], lower if low else {}


def float64_reference(ps):
    """``ps`` with every comparison read from a float64 matrix of its exact
    distances: a cloud handed its matrix keeps it, so this is the reference
    that a float32 cache with exact ties must agree with."""
    from lipwidth import PointSet

    return PointSet(ps.space, ps.points, dist_matrix=ps.dist_rows(0, ps.size))


def space_of(kind, dim):
    """A ``NormedSpace`` of each norm kind: fixed weights for wlinf, fixed
    random cells for l1step."""
    from lipwidth import NormedSpace, step_space

    if kind == "wlinf":
        return NormedSpace(dim, kind, weights=tuple(0.5 + 0.25 * k for k in range(dim)))
    if kind == "l1step":
        cuts = np.sort(np.random.default_rng(dim).uniform(0.0, 2.0, dim - 1))
        return step_space(np.concatenate(([0.0], cuts, [2.0])))
    return NormedSpace(dim, kind)


def diagonal_member(y: np.ndarray) -> bool:
    """``y`` lies in the weighted-l1 ball sum_j |y_j| sqrt(log2(j+1)) <= 1."""
    w = np.sqrt(np.log2(np.arange(1, len(y) + 1) + 1.0))
    return float(np.abs(y) @ w) <= 1.0 + 1e-12


def exact_relu_constant(cfg) -> int:
    """G* of ``relunet.lip_bound`` from its definition: the sum over layers
    j = 0..n of W^(n-j) (S_{j-1} + 1), with S_{-1} = d, H_0 = d + 1,
    H_j = W H_{j-1} + 1 and S_j = W H_j."""
    d, W, n = cfg.d, cfg.width, cfg.depth
    H = [d + 1]
    for _ in range(n - 1):
        H.append(W * H[-1] + 1)
    S = [d] + [W * h for h in H]  # S[j] is S_{j-1}
    return sum(W ** (n - j) * (S[j] + 1) for j in range(n + 1))


def closed_form_constant(cfg, j: int) -> int:
    """Unrolled form W^j (d+1) + j (d+2) W^j + sum_{k<j} W^k of the
    ``relunet.lip_bound`` recursion."""
    d, W = cfg.d, cfg.width
    return W ** j * (d + 1) + j * (d + 2) * W ** j + sum(W ** k for k in range(j))


def level_runs(levels) -> tuple:
    """(levels, counts) of the runs of equal consecutive entries of a per-cube
    level list, in its order, so an unsorted list keeps its descents."""
    levels = np.asarray(levels)
    starts = np.flatnonzero(np.diff(levels, prepend=np.nan))
    return levels[starts], np.diff(starts, append=levels.size)


def cube_levels(alloc) -> np.ndarray:
    """One level per cube of an allocation, its runs expanded."""
    return np.repeat(alloc.levels, alloc.counts)


def zorder_cells(alloc) -> np.ndarray:
    """The cells of an allocation's cubes, from Python ints: the i-th cube of a
    level's run has Morton code start + i there (``lipmaps._zorder_runs``), and
    its cell is the code's bits de-interleaved, axis 0 the high bit of each
    digit.  The cube lies at -1 + cell * 2**-level."""
    from lipwidth.lipmaps import _zorder_runs

    dim, cells = alloc.dim, []
    for l, count, start in _zorder_runs(dim, alloc.levels, alloc.counts)[0]:
        cells += [[sum(((code >> (b * dim + dim - 1 - a)) & 1) << b for b in range(l + 1))
                   for a in range(dim)] for code in range(start, start + count)]
    return np.array(cells, dtype=np.int64).reshape(-1, dim)


def greedy_cells(dim, levels) -> np.ndarray:
    """Reference allocator: a best-fit free list of dyadic cells.

    Level -1 is [-1, 1]^dim itself.  Each cube takes a free cell of the
    finest level no finer than its own and splits it down, keeping the
    first child and freeing the others.
    """
    free = {-1: [tuple([0] * dim)]}
    cells = np.empty((len(levels), dim), dtype=np.int64)
    deltas = list(itertools.product((0, 1), repeat=dim))
    for j, l in enumerate(levels):
        src = next(lv for lv in range(l, -2, -1) if free.get(lv))
        cell = free[src].pop()
        for lv in range(src, l):
            children = [tuple(2 * c + d for c, d in zip(cell, delta)) for delta in deltas]
            cell = children[0]
            free.setdefault(lv + 1, []).extend(reversed(children[1:]))
        cells[j] = cell
    return cells


def audit_cells_python(levels, cells) -> bool:
    """Exact audit of dyadic cubes, one (level, cell) tuple per cube in a set:
    every cell lies in its level's grid, none repeats, and none lies in a
    coarser cube (its ancestor at that cube's level is that cube's cell)."""
    seen = set()
    keys = list(zip(np.asarray(levels).tolist(), map(tuple, np.asarray(cells).tolist())))
    for l, cell in keys:
        if any(c < 0 or c >= 1 << (l + 1) for c in cell) or (l, cell) in seen:
            return False
        seen.add((l, cell))
    return not any((lv, tuple(c >> (l - lv) for c in cell)) in seen
                   for l, cell in keys for lv in range(l))


def sequence_images(bmap, ys) -> np.ndarray:
    """Dense images of a ``SequenceBumpSum``, one row per point: entry j is
    sigma_j (1 - |y - c_j|_inf / r_j)_+, c_j and r_j the centre and half side
    of cube j from its level and ``zorder_cells``; every cone is summed, none
    looked up."""
    side = 2.0 ** -cube_levels(bmap.alloc).astype(float)
    centers = -1.0 + (zorder_cells(bmap.alloc) + 0.5) * side[:, None]
    gap = np.abs(ys[:, None, :] - centers).max(axis=2)
    return bmap.sigmas * np.maximum(0.0, 1.0 - gap / (side / 2))


def sample_domain(map_, rng, count) -> np.ndarray:
    """``count`` points of a map's domain unit ball: uniform in the sup-norm
    cube, except for an ``AffineBallMap``: the Euclidean ball for an l2 target
    (orthonormal rows assumed), else cube samples shrunk into its ball."""
    from lipwidth import AffineBallMap, SequenceBumpSum

    if not isinstance(map_, AffineBallMap):
        dim = map_.alloc.dim if isinstance(map_, SequenceBumpSum) else map_.domain_dim
        return rng.uniform(-1.0, 1.0, size=(count, dim))
    n = map_.domain_dim
    if map_.target_space.kind == "l2":
        g = rng.normal(size=(count, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return g * rng.uniform(size=(count, 1)) ** (1.0 / n)
    raw = rng.uniform(-1.0, 1.0, size=(count, n))
    norms = map_.domain_norm_batch(raw)
    norms = np.where(norms == 0, 1.0, norms)
    return raw * (rng.uniform(size=count) ** (1.0 / n) / norms)[:, None]


def empirical_lipschitz(map_, seed: int, pairs: int) -> float:
    """The largest sampled difference quotient of a map; ``BoundViolation`` if
    it exceeds the declared constant by more than ``REL_TOL``.  Pairs come from
    ``sample_domain`` in chunks of ``PAIR_CHUNK``, chunk i seeded by the i-th
    child of ``np.random.SeedSequence(seed)``; a ``SequenceBumpSum``'s images
    are ``sequence_images`` rows, in the sup norm."""
    from lipwidth import BoundViolation, SequenceBumpSum
    from lipwidth.spaces import REL_TOL

    best = 0.0
    starts = range(0, pairs, PAIR_CHUNK)
    for seq, done in zip(np.random.SeedSequence(seed).spawn(len(starts)), starts):
        rng = np.random.default_rng(seq)
        a, b = np.split(sample_domain(map_, rng, 2 * min(PAIR_CHUNK, pairs - done)), 2)
        if isinstance(map_, SequenceBumpSum):
            sep = np.abs(a - b).max(axis=1)
            img = np.abs(sequence_images(map_, a) - sequence_images(map_, b)).max(axis=1)
        else:
            sep = map_.domain_norm_batch(a - b)
            img = map_.target_space.norm(map_.evaluate_batch(a) - map_.evaluate_batch(b))
        ok = sep > 0
        best = max(best, float((img[ok] / sep[ok]).max(initial=0.0)))
    declared = map_.declared_lipschitz()
    if best > declared * (1.0 + REL_TOL) + 1e-300:
        raise BoundViolation(f"empirical ratio {best} exceeds declared constant {declared}")
    return best


# ---------------------------------------------------------------------------
# Full-array forms of the steps that the package makes a block at a time
# ---------------------------------------------------------------------------


def fixed_width_reference(pset, map_, candidates) -> tuple:
    """(value, worst point) of ``fixed_width_upper`` with every domain norm,
    image and residual made at once; ``PreconditionError`` names the first
    candidate outside the domain ball."""
    from lipwidth.lipmaps import BALL_SLACK

    norms = np.asarray(map_.domain_norm_batch(candidates))
    too_far = np.flatnonzero(norms > 1.0 + BALL_SLACK)
    if too_far.size:
        raise PreconditionError(f"candidate {int(too_far[0])} outside the domain "
                                f"ball (norm {float(norms[too_far[0]])})")
    residuals = np.asarray(pset.space.norm(pset.points - map_.evaluate_batch(candidates)))
    return float(residuals.max()), int(np.argmax(residuals))


def dist_to_reference(pset, x) -> np.ndarray:
    """Distances from x to every point of a ``PointSet``, all at once."""
    return np.asarray(pset.space.norm(pset.points - np.asarray(x, dtype=float)))


def transport_g0_reference(tset, approx) -> int:
    """Of the middle, first and last sample, the first whose approximant has
    the least reach over all the approximants, each reach one full-array
    norm."""
    return min((tset.size // 2, 0, tset.size - 1),
               key=lambda i: float(np.asarray(tset.space.norm(approx - approx[i])).max()))


def comparison_map_reference(pset, dn_value, basis, approximants, g0=None) -> tuple:
    """The affine map and domain candidates of a Kolmogorov comparison
    (gamma > 0) recovered from the approximants alone: one least-squares
    solve over all of them and a full-array radius bound."""
    from lipwidth import AffineBallMap

    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    fars = pset.dist_rows(0, pset.size).max(axis=1)
    upper, center = float(fars.min()), pset.points[int(np.argmin(fars))]
    mean = pset.points.mean(axis=0)
    far = float(dist_to_reference(pset, mean).max())
    if far < upper:
        upper, center = far, mean
    gamma = dn_value + upper
    if g0 is None:
        q, r = np.linalg.qr(basis.T)
        q = q.T[np.abs(np.diag(r)) > 1e-12]  # orthonormal rows spanning the basis
        g0, basis = (center @ q.T) @ q, q
    coeffs, *_ = np.linalg.lstsq(basis.T, (approximants - g0).T, rcond=None)
    return AffineBallMap(g0, gamma, basis, pset.space), coeffs.T / gamma


def sigma_reference(spec, count: int) -> np.ndarray:
    """sigma_1, ..., sigma_count of a sequence spec, all at once."""
    j = np.arange(1, count + 1, dtype=float)
    return 1.0 / np.log2(j + 1.0) if spec.generator == "log" else j ** (-spec.c)


def bump_levels_reference(sigmas, gamma: float) -> np.ndarray:
    """``bump_levels`` over the whole amplitude array at once."""
    sig = np.asarray(sigmas, dtype=float)
    if np.any(sig <= 0):
        raise PreconditionError("amplitudes must be positive")
    x = 2.0 * sig / gamma
    if np.any(x > 1.0 + 1e-15):
        raise PreconditionError("sigma_1 <= gamma/2 required")
    mant, exp = np.frexp(np.minimum(x, 1.0))
    return np.maximum(-exp.astype(np.int64) + (mant == 0.5), 0)


# ---------------------------------------------------------------------------
# Pointwise and reference forms that the package no longer carries
# ---------------------------------------------------------------------------


def evaluate(map_, y) -> np.ndarray:
    """A ``LipschitzMap``'s image of one domain point, as a one-row batch."""
    return map_.evaluate_batch(np.asarray(y, dtype=float)[None, :])[0]


class PiecewiseLinearPath(LipschitzMap):
    """Continuous piecewise linear map [-1,1] -> X through given values."""

    def __init__(self, knots, values, target_space):
        super().__init__(1, target_space)
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


def build_path_map(points, target_space) -> PiecewiseLinearPath:
    """Path through an ordered covering; knots equally spaced on [-1, 1]."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        raise PreconditionError("need at least two covering points")
    n = pts.shape[0]
    knots = -1.0 + 2.0 * np.arange(n) / (n - 1)
    return PiecewiseLinearPath(knots, pts, target_space)


def split_params(cfg, y) -> list:
    """[(A_0, b_0), ..., (A_n, b_n)] from a ReLU net's flat parameter vector."""
    from lipwidth.relunet import layer_slices, param_count

    y = np.asarray(y, dtype=float)
    want = param_count(cfg.d, cfg.width, cfg.depth)
    if y.shape != (want,):
        raise PreconditionError(f"expected {want} parameters, got {y.shape}")
    return [(y[a].reshape(rows, cols), y[b]) for a, b, rows, cols in layer_slices(cfg)]


def forward(cfg, y, x, check_bounds: bool = True) -> float:
    """A ReLU net at one input point, one layer at a time, independent of
    ``relunet._batched_forward``; asserts the layer output bounds."""
    from lipwidth.relunet import layer_output_bound

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


def reference_min_cover(masks, m, limit=None):
    """``covering.exact_min_cover`` as it was before its decision mode: the
    greedy cover, then a branch and bound that always searches for a minimum
    cover, its lower bound taking the uncovered elements in index order.
    (size, sorted centers), or None when ``limit`` is set and every cover
    needs more than ``limit`` sets."""
    full = (1 << m) - 1
    coverers = [[] for _ in range(m)]
    for c, mask in enumerate(masks):
        w = mask
        while w:
            e = (w & -w).bit_length() - 1
            coverers[e].append(c)
            w &= w - 1
    if any(not cov for cov in coverers):
        raise PreconditionError("a point is covered by no ball (eps too small?)")
    comask = [0] * m
    for e in range(m):
        for c in coverers[e]:
            comask[e] |= masks[c]
    branch_order = sorted(range(m), key=lambda e: (len(coverers[e]), e))

    def witness_lower_bound(uncovered):
        count = 0
        while uncovered:
            e = (uncovered & -uncovered).bit_length() - 1
            count += 1
            uncovered &= ~comask[e]
        return count

    chosen, rest = [], full
    while rest:
        best_c, best_gain = -1, -1
        for c in range(m):
            gain = (masks[c] & rest).bit_count()
            if gain > best_gain:
                best_c, best_gain = c, gain
        chosen.append(best_c)
        rest &= ~masks[best_c]
    best = [len(chosen), tuple(sorted(chosen))]
    cap = len(chosen) if limit is None else min(len(chosen), limit + 1)

    def dfs(uncovered, picked):
        nonlocal cap
        if uncovered == 0:
            if len(picked) < cap:
                best[:] = [len(picked), tuple(sorted(picked))]
                cap = len(picked)
            return
        if len(picked) + witness_lower_bound(uncovered) >= cap:
            return
        branch_e = next(e for e in branch_order if uncovered >> e & 1)
        for c in sorted(coverers[branch_e], key=lambda c: (-(masks[c] & uncovered).bit_count(), c)):
            picked.append(c)
            dfs(uncovered & ~masks[c], picked)
            picked.pop()

    dfs(full, [])
    if limit is not None and best[0] > limit:
        return None
    return tuple(best)


def list_greedy_cover(masks, m, most):
    """``covering._greedy_cover`` as it was with a gains list, ``max`` and
    ``index``, verbatim: the greedy cover of {0..m-1}, most fresh points,
    lowest index on ties; None once it needs more than ``most`` sets."""
    chosen = []
    rest = (1 << m) - 1
    while rest:
        if len(chosen) == most:
            return None
        gains = [(mask & rest).bit_count() for mask in masks]
        best = max(gains)
        if not best:
            raise PreconditionError("a point is covered by no ball (eps too small?)")
        chosen.append(gains.index(best))  # the first maximum
        rest &= ~masks[chosen[-1]]
    return chosen


def int64_greedy_cover(fset, eps) -> tuple:
    """The centers of the greedy inner eps-cover, each ball's count of
    uncovered points kept as int64 bool sums over whole blocks: the most
    fresh points, lowest index on ties."""
    m = fset.size
    gains = fset.within(slice(0, m), eps).sum(axis=1)
    covered = np.zeros(m, dtype=bool)
    centers = []
    while not covered.all():
        c = int(np.argmax(gains))
        centers.append(c)
        fresh = np.flatnonzero(fset.within(slice(c, c + 1), eps)[0] & ~covered)
        covered[fresh] = True
        gains -= fset.within(fresh, eps).sum(axis=0)
    return tuple(centers)
