"""Packing, covering, and inner-entropy computation with certified brackets.

The certified chain used throughout is

    P_eps  >=  N_eps  >=  P_{2 eps}

for the maximal packing number P and the minimal inner covering number N.
On small sets (<= N_EXACT points) the covering number is computed exactly
by branch and bound.  An entropy probe asks only whether 2**n balls cover,
so it runs the search as a decision: the greedy cover answers when it fits,
and otherwise the first cover found within 2**n, or a refutation, ends the
search.  Every reported bound is witnessed, and the witness alone re-checks it:

  * upper bounds on N_eps by an explicit cover (a maximal packing is a
    cover of the same radius, so greedy maximality is already a witness);
  * lower bounds on N_eps by a list of points no single inner ball of
    radius eps can contain two of (a packing at 2*eps is the classical
    special case obtained through the triangle inequality); an exact bound
    on at most N_EXACT points is re-checked by enumerating the covers its
    size allows (``no_cover_below``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Optional

import numpy as np

from .spaces import DENSE_LIMIT, FiniteSet, PreconditionError, block_rows, row_spans

# Exact set-cover threshold: above this, brackets fall back to witnesses.
N_EXACT = 20
# Strictness slack for the packing inequality "distance > eps".
PACK_SLACK = 1e-12
# Indices per window of the packing scan: one vector test finds the window's
# candidates, and only those are visited in Python.
_PACK_WINDOW = 256


@dataclass(frozen=True)
class PackingResult:
    eps: float
    indices: tuple
    size: int
    maximal: bool  # False when the scan stopped early at a requested size


@dataclass(frozen=True)
class CoveringResult:
    eps: float
    center_indices: tuple
    exact: bool

    @property
    def size(self) -> int:
        return len(self.center_indices)


@dataclass(frozen=True)
class EntropyEstimate:
    n: int
    lower: float
    upper: float
    exact: bool
    upper_witness: dict = field(default_factory=dict, compare=False)
    lower_witness: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        return {"quantity": "inner_entropy", "n": self.n, "lower": self.lower,
                "upper": self.upper, "exact": self.exact,
                "witness": {"upper": self.upper_witness, "lower": self.lower_witness}}


def greedy_packing(fset: FiniteSet, eps: float, stop_above: Optional[int] = None) -> PackingResult:
    """Sequential packing scan in point order; lowest index wins ties.

    A point is admitted iff its distance to every admitted point exceeds
    eps (with a 1e-12 relative slack to avoid float equality ambiguity), so
    at eps = 0 the packing holds one point per distinct location.
    Without ``stop_above`` the result is maximal, so its size is at most
    P_eps and, the packing being an eps-cover, at least N_eps.  An admitted
    point whose row is not yet read reads it together with the rest of its
    block, in one ``within`` call.
    """
    if eps < 0:
        raise PreconditionError("eps must be nonnegative")
    thr = eps * (1.0 + PACK_SLACK)
    m, step = fset.size, block_rows(fset.size)
    far = np.ones(m, dtype=bool)  # farther than thr from every admitted point
    chosen: list[int] = []
    start = end = 0  # ``beyond`` holds rows start..end-1
    for lo in range(0, m, _PACK_WINDOW):
        # admissions only clear far, so a point that is no candidate at the
        # window's start is never admitted; a candidate is tested again
        for i in (lo + far[lo:lo + _PACK_WINDOW].nonzero()[0]).tolist():
            if not far[i]:
                continue
            chosen.append(i)
            if stop_above is not None and len(chosen) > stop_above:
                return PackingResult(eps, tuple(chosen), len(chosen), maximal=False)
            if i >= end:  # i's row and the rest of its block
                start, end = i, min(i // step * step + step, m)
                beyond = ~fset.within(slice(start, end), thr)
            far &= beyond[i - start]
    return PackingResult(eps, tuple(chosen), len(chosen), maximal=True)


def packing_is_maximal(fset: FiniteSet, pack: PackingResult) -> bool:
    """Independent maximality audit: no point admissible beyond the packing,
    that is, the packed points cover the set at its radius (their rows only)."""
    try:
        coverage_assignment(fset, pack.indices, pack.eps)
    except PreconditionError:
        return False
    return True


def _rows_of(fset: FiniteSet, idx: np.ndarray):
    """(positions into ``idx``, the rows of those points) per block of
    ``block_rows`` consecutive rows that holds one of them, in row order: a
    slice when they are the block's whole run, else their ascending indices.
    Distances are symmetric, so row p also gives d(c, p) for every point c."""
    if idx.size == 0:
        return
    order = np.argsort(idx, kind="stable")
    step = block_rows(fset.size)
    for pos in np.split(order, np.flatnonzero(np.diff(idx[order] // step)) + 1):
        lo, hi = int(idx[pos[0]]), int(idx[pos[-1]]) + 1
        run = hi - lo == len(pos) and bool((np.diff(idx[pos]) == 1).all())
        yield pos, slice(lo, hi) if run else idx[pos]


def _indices(fset: FiniteSet, idx) -> np.ndarray:
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu" or np.any(idx < 0) or np.any(idx >= fset.size):
        raise PreconditionError(f"witnesses must be point indices in [0, {fset.size})")
    return idx.reshape(-1)


def coverage_assignment(fset: FiniteSet, centers, eps: float) -> np.ndarray:
    """Nearest-center assignment, the first center in ``centers`` on ties; raises
    if some point is farther than eps, or if a center is not an integer index
    into the set.  It reads the centers' rows only."""
    centers = _indices(fset, centers)
    best = np.full(fset.size, np.inf)
    assign = np.zeros(fset.size, dtype=int)
    for pos, rows in _rows_of(fset, centers):
        block = fset.dist_at(rows)
        first = np.argsort(pos, kind="stable")
        pos, block = pos[first], block[first]
        near = block.argmin(axis=0)
        d, j = block[near, np.arange(fset.size)], pos[near]
        better = (d < best) | ((d == best) & (j < assign))
        best[better] = d[better]
        assign[better] = j[better]
    far = np.flatnonzero(best > eps * (1.0 + PACK_SLACK))
    if far.size:
        raise PreconditionError(f"point {int(far[0])} not covered at eps={eps}")
    return assign


def ball_disjoint(fset: FiniteSet, points, eps: float) -> bool:
    """No inner ball of radius below eps holds two of the points: every ball
    the points' rows put them in is put there once.  It reads the points'
    rows only; a point named twice lies twice in its own ball, so it fails.
    A distance is below eps * (1 - PACK_SLACK) iff it is at most the float
    below that."""
    thr = np.nextafter(eps * (1.0 - PACK_SLACK), -np.inf)
    held = np.zeros(fset.size, dtype=bool)  # centers whose ball holds a point
    hits = 0
    for _, rows in _rows_of(fset, _indices(fset, points)):
        inside = fset.within(rows, thr)
        hits += int(np.count_nonzero(inside))
        held |= np.logical_or.reduce(inside, axis=0)
    return hits == int(np.count_nonzero(held))


def farthest_first(fset: FiniteSet, k: int) -> tuple:
    """Gonzalez's farthest-first traversal: (centers, insertion radii), at most k.

    It starts at point 0, and each next center is a point farthest from the
    centers before it, the lowest index on ties; its insertion radius is that
    distance (inf for point 0).  The radii never increase, so the first j
    centers cover the set at radius ``radii[j]`` and centers 0..j are pairwise
    at least that far apart.  The traversal stops early once every point is
    at distance 0 from a center.  It reads one distance row per center and
    holds O(m) memory, never the matrix.
    """
    if k < 1:
        raise PreconditionError("k must be positive")
    near = np.full(fset.size, np.inf)  # distance to the nearest center so far
    centers, radii = [], []
    nxt = 0
    while len(centers) < k and near[nxt] > 0:
        centers.append(nxt)
        radii.append(float(near[nxt]))
        np.minimum(near, fset.dist_row(nxt), out=near)
        nxt = int(np.argmax(near))  # the first maximum: lowest index on ties
    return np.array(centers), np.array(radii)


# ---------------------------------------------------------------------------
# Exact minimal inner covering (branch and bound over bitmask coverage sets)
# ---------------------------------------------------------------------------


def _cover_masks(fset: FiniteSet, eps: float) -> list[int]:
    """Bit p of mask c is set iff point p lies in the ball B(c, eps)."""
    inside = fset.within(slice(0, fset.size), eps)
    return (inside @ (1 << np.arange(fset.size, dtype=np.int64))).tolist()


def _witness_lower_bound(uncovered: int, comask: list[int], order: list[int]) -> int:
    """Greedy count of uncovered elements pairwise not co-coverable, taken in
    ``order``: each one taken drops every element that shares a set with it,
    so any order gives a valid bound."""
    count = 0
    for e in order:
        if not uncovered:
            break
        if uncovered >> e & 1:
            count += 1
            uncovered &= ~comask[e]
    return count


def _greedy_cover(masks: list[int], m: int, most: int) -> Optional[list[int]]:
    """The greedy cover of {0..m-1}: most fresh points, lowest index on ties;
    None once it needs more than ``most`` sets."""
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


def exact_min_cover(masks: list[int], m: int, limit: Optional[int] = None):
    """Minimum set cover of {0..m-1} by the given coverage masks, or, with a
    ``limit``, a decision: is there a cover by at most ``limit`` sets?

    Returns (size, centers), centers sorted.  With ``limit`` the answer is
    None when every cover needs more than ``limit`` sets, and otherwise the
    first cover found: the greedy cover when it fits, else the first one the
    search reaches, which need not be minimum.  Without ``limit`` it is the
    minimum cover that the deterministic branch and bound reaches first,
    starting from the greedy cover: the branching element is the uncovered
    point with fewest covering centers, candidate centers are ordered by
    fresh coverage (ties by index).
    """
    chosen = _greedy_cover(masks, m, m if limit is None else limit)
    if chosen is not None:
        best_size, best_sol = len(chosen), tuple(sorted(chosen))
        if limit is not None:
            return best_size, best_sol
    full = (1 << m) - 1
    coverers: list[list[int]] = [[] for _ in range(m)]
    comask = [0] * m  # the elements that share a set with each element
    for c, mask in enumerate(masks):
        w = mask
        while w:
            low = w & -w
            e = low.bit_length() - 1
            coverers[e].append(c)
            comask[e] |= mask
            w ^= low
    if any(not cov for cov in coverers):
        raise PreconditionError("a point is covered by no ball (eps too small?)")
    # every coverer of an uncovered element covers it, so an element's degree
    # among the useful centers is its full coverer count
    branch_order = sorted(range(m), key=lambda e: len(coverers[e]))  # stable: ties by index
    cap = best_size if limit is None else limit + 1

    def dfs(uncovered: int, picked: list[int]) -> bool:
        """True once a cover within ``limit`` is found; without a limit the
        search runs on, keeping each cover below ``cap`` that it reaches."""
        nonlocal best_size, best_sol, cap
        if uncovered == 0:
            if len(picked) >= cap:  # a sibling lowered the cap
                return False
            best_size = cap = len(picked)
            best_sol = tuple(sorted(picked))
            return limit is not None
        if len(picked) + _witness_lower_bound(uncovered, comask, branch_order) >= cap:
            return False
        branch_e = next(e for e in branch_order if uncovered >> e & 1)
        # coverers ascend, and the sort is stable: ties by index
        for c in sorted(coverers[branch_e], key=lambda c: -(masks[c] & uncovered).bit_count()):
            picked.append(c)
            if dfs(uncovered & ~masks[c], picked):
                return True
            picked.pop()
        return False

    if not dfs(full, []) and limit is not None:
        return None
    return best_size, best_sol


def minimal_inner_covering(fset: FiniteSet, eps: float) -> CoveringResult:
    """Minimal inner eps-cover: exact for <= N_EXACT points, else greedy.

    The greedy fallback is a valid cover (hence a certified upper bound on
    the covering number) but carries ``exact=False``.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    m = fset.size
    if m <= N_EXACT:
        masks = _cover_masks(fset, eps)
        size, centers = exact_min_cover(masks, m)
        return CoveringResult(eps, centers, exact=True)
    # uncovered points in each ball; distances are symmetric, so a freshly
    # covered point p leaves exactly the balls its own row puts it in
    gains = np.concatenate([fset.within(slice(lo, hi), eps).sum(axis=1)
                            for lo, hi in row_spans(m)])
    covered = np.zeros(m, dtype=bool)
    centers = []
    while not covered.all():
        best_c = int(np.argmax(gains))  # the first maximum: lowest index on ties
        if gains[best_c] <= 0:
            raise PreconditionError("greedy cover stalled")  # cannot happen: c covers itself
        centers.append(best_c)
        fresh = np.flatnonzero(fset.within(slice(best_c, best_c + 1), eps)[0] & ~covered)
        covered[fresh] = True
        for _, rows in _rows_of(fset, fresh):
            gains -= fset.within(rows, eps).sum(axis=0)
    return CoveringResult(eps, tuple(centers), exact=False)


def covering_lower_bound(fset: FiniteSet, eps: float, stop_above: Optional[int] = None
                         ) -> list[int]:
    """The indices of points no single ball B(c, eps) with c in the set
    contains two of, collected greedily: any eps-cover needs one ball per
    point, so their number is a certified lower bound on the inner covering
    number N_eps, and the list is its witness (``ball_disjoint``).  Subsumes
    the packing-at-2*eps bound.  With ``stop_above`` the scan stops at the
    first point past that many.

    Points are admitted in index order, and each row is read at most once,
    in blocks of ``block_rows`` consecutive rows.  A point already in
    ``near`` lies in its own ball (d(i, i) = 0), so it is rejected without
    reading its row: each block reads only its rows outside ``near``.  A
    witness admitted inside a block rejects the block's later rows whose
    balls meet its own, read from the block's boolean rows at its ball's columns.
    """
    m = fset.size
    near = np.zeros(m, dtype=bool)  # centers c with a collected witness in B(c, eps)
    step = block_rows(m)
    points: list[int] = []
    lo = 0
    while lo < m:
        lo += int(near[lo:].argmin())  # the first row outside near
        if near[lo]:
            break
        hi = min(lo + step, m)
        rows = lo + np.flatnonzero(~near[lo:hi])
        within = fset.within(slice(lo, hi) if rows.size == hi - lo else rows, eps)
        free = ~(within & near).any(axis=1)
        for k in np.flatnonzero(free):
            if not free[k]:
                continue
            points.append(int(rows[k]))
            if stop_above is not None and len(points) > stop_above:
                return points
            ball = np.flatnonzero(within[k])  # the columns of its own ball
            near[ball] = True
            free[k + 1:] &= ~within[k + 1:, ball].any(axis=1)
        lo = hi
    return points


# ---------------------------------------------------------------------------
# Inner entropy numbers by bisection over the candidate radii
# ---------------------------------------------------------------------------


def inner_entropy(fset: FiniteSet, n: int) -> EntropyEstimate:
    """Certified bracket [lower, upper] for the inner entropy number.

    A set that defines ``entropy_witnesses(n)`` answers in closed form: e_n, at
    most 2**n centers that cover it at e_n, and 2**n + 1 points no inner ball
    of radius below e_n holds two of, so lower == upper == e_n.  On a point
    cloud, covers and covering-number lower bounds depend on eps only through
    which pairwise distances are <= eps, so the search bisects over the index
    of the radii r_0 = 0 < r_1 < ..., where r_i is
    ``fset.distinct_distances()[i-1]`` (one array, read in place by every n).
    ``upper`` is the first radius with a cover of at most 2**n inner balls;
    that cover is its witness.  ``lower`` is r_j where ``covering_lower_bound``
    found 2**n + 1 points at r_{j-1}, its witness (``ball-disjoint-points``):
    no distance lies in (r_{j-1}, r_j), so no inner ball of radius below r_j
    holds two of them.  Sets of at most N_EXACT points decide both with the
    exact cover, and lower == upper; the exact cover number never increases
    with the radius, so the first radius is unique, its upper witness is the
    first cover of at most 2**n balls that ``exact_min_cover`` finds (the
    greedy one when it fits), not necessarily a minimum one, and its lower
    witness (``exact-cover``) names no points: ``no_cover_below`` re-checks
    it.  A lower end of 0 has the empty witness.  A point cloud of more than
    DENSE_LIMIT points, or with no positive distance, gets the farthest-first
    bracket of ``_traversal_bracket`` instead, from 2**n + 1 distance rows and
    without the matrix.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    m = fset.size
    budget = 1 << n
    if budget >= m:
        # every point can be its own center
        return EntropyEstimate(n, 0.0, 0.0, exact=True,
                               upper_witness={"kind": "identity", "size": m})
    if hasattr(fset, "entropy_witnesses"):
        return closed_form_entropy(fset, n)
    if m > DENSE_LIMIT or fset.distinct_distances().size == 0:
        return _traversal_bracket(fset, n)
    dist = fset.distinct_distances()
    exact = m <= N_EXACT

    def radius(i: int) -> float:
        return float(dist[i - 1]) if i else 0.0

    covers: dict = {}

    def fits(i: int) -> bool:
        """Some cover at r_i has at most 2**n balls; it is kept in ``covers``."""
        if exact:
            found = exact_min_cover(_cover_masks(fset, radius(i)), m, limit=budget)
            covers[i] = None if found is None else found[1]
        else:
            pack = greedy_packing(fset, radius(i), stop_above=budget)
            covers[i] = pack.indices if pack.maximal else None
        return covers[i] is not None

    top = dist.size  # one ball covers the set at its diameter
    # bisect_left never calls its key at ``top``; a positive index i means
    # the key was false at i - 1
    up = bisect_left(range(top), True, key=fits)
    if up == top:
        fits(top)
    if exact:
        low = up  # fits(up - 1) was false
        lower = {"kind": "exact-cover"}
    else:
        found: dict = {}

        def clears(i: int) -> bool:
            """At most 2**n points bound N at r_i below (kept in ``found``)."""
            found[i] = covering_lower_bound(fset, radius(i), stop_above=budget)
            return len(found[i]) <= budget

        # at r_up a cover of at most 2**n balls exists, so the bound clears there
        low = bisect_left(range(up), True, key=clears)
        lower = {"kind": "ball-disjoint-points", "points": found.get(low - 1)}
    kind = "exact-cover" if exact else "maximal-packing-cover"
    return EntropyEstimate(
        n, radius(low), radius(up), exact=exact,
        upper_witness={"kind": kind, "eps": radius(up), "size": len(covers[up]),
                       "centers": [int(c) for c in covers[up]]},
        lower_witness=lower if low else {},
    )


def closed_form_entropy(fset: FiniteSet, n: int) -> EntropyEstimate:
    """[e_n, e_n] with both witnesses, from ``fset.entropy_witnesses(n)``."""
    e, centers, points = fset.entropy_witnesses(n)
    return EntropyEstimate(n, e, e, exact=True, upper_witness={
        "kind": "closed-form-cover", "centers": centers.tolist()}, lower_witness={
        "kind": "ball-disjoint-points", "points": points.tolist()})


def _traversal_bracket(fset: FiniteSet, n: int) -> EntropyEstimate:
    """[R/2, R] from the farthest-first traversal, R the insertion radius of
    its point 2**n + 1: the first 2**n centers cover the set at R, and with
    that point they are 2**n + 1 points pairwise at least R apart, so no inner
    ball of radius below R/2 holds two of them.  With fewer distinct points
    than that, the centers cover the set at 0 and the bracket is [0, 0]."""
    budget = 1 << n
    centers, radii = farthest_first(fset, budget + 1)
    r = float(radii[budget]) if len(centers) > budget else 0.0
    first = centers[:budget].tolist()
    cover = {"kind": "farthest-first-cover", "eps": r, "size": len(first), "centers": first}
    if not r:
        return EntropyEstimate(n, 0.0, 0.0, exact=True, upper_witness=cover)
    return EntropyEstimate(n, r / 2, r, exact=False, upper_witness=cover, lower_witness={
        "kind": "ball-disjoint-points", "points": centers.tolist()})


def no_cover_below(fset: FiniteSet, eps: float, budget: int) -> bool:
    """No ``budget`` inner balls of radius below eps cover a set of at most
    N_EXACT points, by plain enumeration: no min(budget, k) of the k distinct
    coverage masks at the float below eps OR to the whole set (a smaller
    cover, padded with other masks, would be among them).  A larger set is
    refused (False) without enumerating."""
    if fset.size > N_EXACT:
        return False
    masks = set(_cover_masks(fset, float(np.nextafter(eps, -np.inf))))
    full = (1 << fset.size) - 1
    return not any(reduce(or_, sets) == full
                   for sets in combinations(masks, min(budget, len(masks))))


def separated(fset: FiniteSet, points, eps: float) -> bool:
    """The points are pairwise more than eps apart: each one's row, read a
    block at a time, holds no point of the list within eps but itself, so a
    point named twice fails."""
    idx = _indices(fset, points)
    return idx.size == sum(int(np.count_nonzero(fset.within(rows, eps)[:, idx]))
                           for _, rows in _rows_of(fset, idx))


def recheck_packing(cert: dict, fset: FiniteSet) -> bool:
    """The indices are pairwise more than eps apart (``separated``) and, if so
    claimed, maximal."""
    pack = PackingResult(cert["eps"], tuple(cert["indices"]), cert["size"], cert["maximal"])
    return (separated(fset, pack.indices, pack.eps) and len(pack.indices) == pack.size
            and (not pack.maximal or packing_is_maximal(fset, pack)))


# ---------------------------------------------------------------------------
# Sandwich audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SandwichAudit:
    eps: float
    pack_eps: int
    cover_lower: int
    cover_upper: int
    cover_exact: bool
    pack_2eps: int
    checks: tuple
    passed: bool
    packing: PackingResult = field(compare=False)  # the maximal packing at eps


def sandwich_audit(fset: FiniteSet, eps: float) -> SandwichAudit:
    """Evaluate the packing/covering chain at eps and report each inequality.

    With exact covers the audited chain is exactly
    P_eps >= N_eps >= P_{2 eps}; otherwise each side is checked against its
    certified surrogate (cover bracket [lower, upper]).  Packings separate
    points by more than eps * (1 + PACK_SLACK), so covers are counted at
    that radius too; at eps itself a distance just above eps would break
    the first inequality.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    pack1 = greedy_packing(fset, eps)
    pack2 = greedy_packing(fset, 2.0 * eps)
    radius = eps * (1.0 + PACK_SLACK)
    cov = minimal_inner_covering(fset, radius)
    if cov.exact:
        n_lo = n_hi = cov.size
    else:
        n_hi = min(cov.size, pack1.size)  # both are valid covers
        n_lo = len(covering_lower_bound(fset, radius))
    checks = (
        ("packing(eps) >= cover_lower(eps)", pack1.size, n_lo, pack1.size >= n_lo),
        ("cover_upper(eps) >= packing(2eps)", n_hi, pack2.size, n_hi >= pack2.size),
        ("cover bracket consistent", n_hi, n_lo, n_hi >= n_lo),
    )
    return SandwichAudit(
        eps=eps,
        pack_eps=pack1.size,
        cover_lower=n_lo,
        cover_upper=n_hi,
        cover_exact=cov.exact,
        pack_2eps=pack2.size,
        checks=checks,
        passed=all(c[-1] for c in checks),
        packing=pack1,
    )
