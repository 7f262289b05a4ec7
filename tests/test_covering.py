import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipwidth import (
    NormedSpace,
    PointSet,
    greedy_packing,
    inner_entropy,
    lp_space,
    minimal_inner_covering,
    sandwich_audit,
)
from lipwidth import covering
from lipwidth.covering import (
    N_EXACT,
    ball_disjoint,
    coverage_assignment,
    covering_lower_bound,
    exact_min_cover,
    farthest_first,
    packing_is_maximal,
    _cover_masks,
)
from lipwidth.case_studies import (
    SequenceSetSpec,
    TransportSet,
    UniformBasisSet,
    recheck_entropy,
    sequence_set,
    transport_entropy,
    transport_set,
)
from lipwidth.spaces import DENSE_LIMIT, FiniteSet, PreconditionError
from oracles import (build_path_map, dense_twin, entropy_search, evaluate,
                     reference_min_cover)


def basis_cloud():
    return PointSet(lp_space(5, 2), np.eye(5))


def test_packing_basis_cloud_eps1():
    pack = greedy_packing(basis_cloud(), 1.0)
    assert pack.size == 5  # all pairwise distances sqrt(2) > 1


def test_packing_above_diameter_is_single():
    ps = basis_cloud()
    pack = greedy_packing(ps, ps.diameter())
    assert pack.size == 1
    pack = greedy_packing(ps, 10.0)
    assert pack.size == 1


def test_packing_maximality_random_cloud():
    rng = np.random.default_rng(11)
    ps = PointSet(lp_space(2, "inf"), rng.uniform(-1, 1, size=(30, 2)))
    pack = greedy_packing(ps, 0.3)
    # oracle: exhaustive admissibility scan over every left-out point
    assert packing_is_maximal(ps, pack)
    for i in range(ps.size):
        if i in pack.indices:
            continue
        dmin = min(ps.dist_row(i)[j] for j in pack.indices)
        assert dmin <= 0.3 * (1 + 1e-12)


def test_packing_deterministic_lowest_index():
    pts = [[0.0, 0.0], [0.05, 0.0], [1.0, 0.0], [1.05, 0.0]]
    ps = PointSet(lp_space(2, 2), pts)
    pack = greedy_packing(ps, 0.5)
    assert pack.indices == (0, 2)


def test_cover_basis_cloud_large_eps():
    cov = minimal_inner_covering(basis_cloud(), 1.5)
    assert cov.exact and cov.size == 1  # sqrt(2) <= 1.5: any point covers all


def test_cover_singleton():
    ps = PointSet(lp_space(2, 2), [[0.5, 0.5]])
    cov = minimal_inner_covering(ps, 0.1)
    assert cov.size == 1 and cov.exact


def test_cover_sequence_truncation_budget():
    # centers {sigma_j e_j}_{j <= 2^n} cover everything at radius sigma_{2^n}
    n = 3
    spec = SequenceSetSpec(generator="log", truncation=2 ** n + 7)
    ss = sequence_set(spec)
    eps = float(ss.sigmas[2 ** n - 1])
    centers = np.arange(2 ** n)
    for i in range(ss.size):
        assert ss.dist_row(i)[centers].min() <= eps + 1e-15
    cov = minimal_inner_covering(ss, eps)
    assert cov.size <= 2 ** n


def brute_force_min_cover(ps, eps):
    """Oracle: exhaustive subset enumeration in ascending cardinality."""
    m = ps.size
    mat = ps.matrix()
    for size in range(1, m + 1):
        for centers in itertools.combinations(range(m), size):
            if np.all(mat[list(centers)].min(axis=0) <= eps):
                return size
    return m


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_exact_cover_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 11))
    ps = PointSet(lp_space(2, 1), rng.uniform(-1, 1, size=(m, 2)))
    for frac in (0.15, 0.4, 0.8):
        eps = frac * ps.diameter()
        cov = minimal_inner_covering(ps, eps)
        assert cov.exact
        assert cov.size == brute_force_min_cover(ps, eps)
        # the returned centers really cover
        mat = ps.matrix()
        assert np.all(mat[list(cov.center_indices)].min(axis=0) <= eps * (1 + 1e-12))


def test_exact_cover_limit_probe():
    ps = PointSet(lp_space(1, 2), [[0.0], [1.0], [2.0]])
    masks = _cover_masks(ps, 0.5)
    assert exact_min_cover(masks, 3, limit=2) is None
    size, centers = exact_min_cover(masks, 3)
    assert size == 3


def random_mask_lists(seed, count, most):
    """``count`` coverage mask lists of {0..m-1}, m <= ``most``, one mask per
    center: even ones from clouds (symmetric, within a random eps), odd ones
    arbitrary asymmetric sets of density 0.1-0.5, every element given some
    coverer."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m = int(rng.integers(1, most + 1))
        if k % 2 == 0:
            dim = int(rng.integers(1, 4))
            ps = PointSet(NormedSpace(dim, ("l1", "l2", "linf")[k % 3]),
                          rng.uniform(-1, 1, size=(m, dim)))
            yield _cover_masks(ps, float(rng.uniform(0.05, 0.8)) * ps.diameter()), m
            continue
        bits = rng.random((m, m)) < rng.uniform(0.1, 0.5)
        for e in np.flatnonzero(~bits.any(axis=0)):
            bits[rng.integers(m), e] = True
        yield [sum(1 << e for e in np.flatnonzero(row).tolist()) for row in bits], m


def brute_force_mask_cover(masks, m):
    """Oracle: the fewest masks whose union is {0..m-1}, by every subset in
    ascending size."""
    full = (1 << m) - 1
    return next(size for size in range(1, len(masks) + 1)
                if any(functools.reduce(lambda a, b: a | b, combo) == full
                       for combo in itertools.combinations(masks, size)))


@pytest.mark.parametrize("seed", range(4))
def test_exact_cover_with_a_limit_decides_against_brute_force(seed):
    for masks, m in random_mask_lists(seed, 15, 12):
        least = brute_force_mask_cover(masks, m)
        for limit in range(1, m + 1):
            got = exact_min_cover(masks, m, limit)
            if least > limit:
                assert got is None, (masks, limit)
                continue
            size, centers = got
            assert size == len(set(centers)) == len(centers) <= limit
            assert list(centers) == sorted(centers) and set(centers) <= set(range(m))
            assert functools.reduce(lambda a, c: a | masks[c], centers, 0) == (1 << m) - 1


@pytest.mark.parametrize("seed", range(4))
def test_exact_cover_without_a_limit_is_the_reference_minimum(seed):
    # the bound taken in branch order only prunes: the same minimum cover,
    # and with a limit the same decision, as the index-order branch and bound
    for masks, m in random_mask_lists(100 + seed, 50, 16):
        assert exact_min_cover(masks, m) == reference_min_cover(masks, m), masks
        for limit in range(1, m + 1):
            assert ((exact_min_cover(masks, m, limit) is None)
                    == (reference_min_cover(masks, m, limit) is None)), (masks, limit)


@pytest.mark.parametrize("limit", [None, 1, 2, 3])
def test_exact_cover_refuses_a_point_no_mask_covers(limit):
    # with limit 1 the greedy cover stops before it meets point 2
    with pytest.raises(PreconditionError, match="covered by no ball"):
        exact_min_cover([0b011, 0b011, 0b001], 3, limit)


@functools.lru_cache(maxsize=3)  # the budgets 2, 4 and 8 of one cloud
def center_subsets(m, k):
    """Every k-subset of range(m), one per row, by ``itertools.combinations``
    (read-only: the cache hands the same array to every caller)."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), k))
    subsets = np.fromiter(flat, dtype=np.intp).reshape(-1, k)
    subsets.flags.writeable = False
    return subsets


def some_centers_cover(mat, r, k):
    """Oracle: some k centers (k < m) cover the cloud at radius r: every
    subset's union of ball bitmasks is tried."""
    m = mat.shape[0]
    balls = (mat <= r) @ (1 << np.arange(m, dtype=np.int64))
    return bool((np.bitwise_or.reduce(balls[center_subsets(m, k)], axis=1) == (1 << m) - 1).any())


def check_exact_bracket(ps, n):
    """The bracket of ``inner_entropy`` on a cloud of at most N_EXACT points
    is [e_n, e_n]: its witness is at most 2**n centers that cover the cloud
    at upper, a pairwise distance, and no 2**n centers cover it at the
    largest distance below upper."""
    mat, k = ps.matrix(), 2 ** n
    est = inner_entropy(ps, n)
    centers = est.upper_witness["centers"]
    assert est.exact and est.lower == est.upper and est.upper in mat
    assert len(centers) <= k and mat[centers].min(axis=0).max() <= est.upper
    below = float(mat[mat < est.upper].max())
    assert not some_centers_cover(mat, below, k)
    assert est.lower_witness == {"kind": "exact-cover", "eps": below, "count": k + 1}
    return est


def test_exact_brackets_at_small_cloud_sizes():
    rng = np.random.default_rng(2026)
    for norm in ("l1", "l2", "linf"):
        for dim in (1, 2, 3, 4):
            m = int(rng.integers(12, N_EXACT + 1))
            ps = PointSet(NormedSpace(dim, norm), rng.uniform(-1, 1, size=(m, dim)))
            for n in (1, 2, 3):
                check_exact_bracket(ps, n)


def test_exact_bracket_whose_witness_is_the_first_cover_within_the_budget():
    # an 11-vertex graph at distance 1 along its edges and 2 elsewhere, a
    # metric its rows embed in l-infinity exactly; at radius 1 the balls are
    # closed neighbourhoods: 3 of them cover, the greedy cover takes 5
    edges = [(0, 1), (0, 2), (0, 9), (1, 3), (1, 7), (2, 5), (2, 8), (3, 9),
             (4, 5), (4, 6), (4, 10), (5, 7), (5, 10), (6, 7), (6, 10), (7, 10)]
    mat = np.full((11, 11), 2.0)
    np.fill_diagonal(mat, 0.0)
    for i, j in edges:
        mat[i, j] = mat[j, i] = 1.0
    ps = PointSet(lp_space(11, "inf"), mat)
    assert np.array_equal(ps.matrix(), mat)
    masks = _cover_masks(ps, 1.0)
    assert some_centers_cover(mat, 1.0, 3) and not some_centers_cover(mat, 1.0, 2)
    assert len(covering._greedy_cover(masks, 11, 11)) == 5
    est = check_exact_bracket(ps, 2)
    # so N(r_up) = 3 < 2**2, and the probe at r_up stops at the first cover
    # of at most 4 centers that the search reaches, not at a minimum one
    assert est.upper == 1.0 and len(est.upper_witness["centers"]) == 4
    # without a limit the search runs past that cover to a minimum one
    assert exact_min_cover(masks, 11) == reference_min_cover(masks, 11)
    assert minimal_inner_covering(ps, 1.0).size == 3


def test_covering_lower_bound_sound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(3, 15))
        ps = PointSet(lp_space(2, "inf"), rng.uniform(-1, 1, size=(m, 2)))
        eps = 0.35 * ps.diameter()
        lb = covering_lower_bound(ps, eps)
        exact = minimal_inner_covering(ps, eps).size
        assert lb <= exact


def brute_force_entropy(ps, n):
    """Oracle: least covering radius over every set of min(2^n, m) centers."""
    mat = ps.matrix()
    k = min(2 ** n, ps.size)
    return min(float(mat[list(c)].min(axis=0).max())
               for c in itertools.combinations(range(ps.size), k))


@pytest.mark.parametrize("seed", range(12))
def test_inner_entropy_exact_on_small_sets(seed):
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(2, 9))
    dim = int(rng.integers(1, 4))
    pts = rng.uniform(-1, 1, size=(m, dim))
    if seed % 2:
        pts = pts[rng.integers(0, m, size=m)]  # duplicate points
    ps = PointSet(NormedSpace(dim, ("l1", "l2", "linf")[seed % 3]), pts)
    radii = {0.0, *ps.matrix().ravel().tolist()}
    for n in range(4):
        est = inner_entropy(ps, n)
        assert est.exact
        assert est.lower == est.upper == brute_force_entropy(ps, n)
        assert est.upper in radii


def test_inner_entropy_lower_search_stays_below_upper(monkeypatch):
    from lipwidth import covering

    seen = []
    original = covering.covering_lower_bound

    def counted(fset, eps, stop_above=None):
        seen.append(eps)
        return original(fset, eps, stop_above=stop_above)

    monkeypatch.setattr(covering, "covering_lower_bound", counted)
    rng = np.random.default_rng(4)
    ps = PointSet(lp_space(2, 2), rng.uniform(-1, 1, size=(60, 2)))
    for n in range(5):
        seen.clear()
        est = inner_entropy(ps, n)
        assert seen and max(seen) < est.upper
        assert 0.0 < est.lower <= est.upper


def test_inner_entropy_zero_on_duplicates_beyond_exact_size():
    rng = np.random.default_rng(6)
    distinct = rng.uniform(-1, 1, size=(3, 2))
    ps = PointSet(lp_space(2, 2), np.repeat(distinct, 8, axis=0))  # 24 points
    est = inner_entropy(ps, 2)
    assert not est.exact
    assert est.lower == est.upper == 0.0
    w = est.upper_witness
    assert w["kind"] == "maximal-packing-cover" and w["eps"] == 0.0
    assert sorted(w["centers"]) == [0, 8, 16]


def test_inner_entropy_sequence_exact_value():
    for n in (1, 2, 3):
        spec = SequenceSetSpec(generator="log", truncation=2 ** (n + 2))
        ss = sequence_set(spec)
        ref = 1.0 / math.log2(2 ** n + 1)
        est = inner_entropy(ss, n)
        assert est.lower <= ref * (1 + 1e-9)
        assert est.upper >= ref * (1 - 1e-9)
        assert est.upper - est.lower <= 1e-6 * ref


def test_inner_entropy_zero_when_budget_covers():
    ps = PointSet(lp_space(2, 2), np.random.default_rng(0).uniform(size=(7, 2)))
    est = inner_entropy(ps, 3)  # 2^3 = 8 >= 7
    assert est.upper == 0.0 and est.lower == 0.0


def test_inner_entropy_transport_bracket():
    ts = transport_set(1024)
    est = inner_entropy(ts, 3)
    assert est.lower == est.upper == transport_entropy(1024, 3) == 0.125  # 2^n balls


def test_inner_entropy_monotone_in_n():
    rng = np.random.default_rng(9)
    ps = PointSet(lp_space(3, 2), rng.normal(size=(18, 3)))
    uppers = [inner_entropy(ps, n).upper for n in range(5)]
    for a, b in zip(uppers, uppers[1:]):
        assert b <= a + 1e-9


def bottom_sets():
    """Sets of 2**n + 1 points, whose search at n reaches r_0."""
    rng = np.random.default_rng(12)
    out = [dense_twin(UniformBasisSet(2 ** n + 1)) for n in (1, 2, 4, 5, 7)]
    for n, norm in ((5, "l2"), (6, "linf"), (5, "l1")):
        out.append(PointSet(NormedSpace(2, norm), rng.uniform(-1, 1, size=(2 ** n + 1, 2))))
    return out


def set_id(fset):
    return f"{getattr(fset, 'twin_of', type(fset).__name__)}-{fset.size}"


@pytest.mark.parametrize("fset", bottom_sets(), ids=set_id)
def test_bottom_set_bracket_starts_at_the_least_distance(fset):
    # no cover of 2**n balls exists below r_1, and the nearest pair shares a ball at r_1
    n = math.floor(math.log2(fset.size - 1))
    got = inner_entropy(fset, n)
    assert got.lower == float(fset.distinct_distances()[0]) and got.lower_witness == {
        "kind": "exact-cover" if fset.size <= N_EXACT else "ball-disjoint-witnesses",
        "eps": 0.0, "count": 2 ** n + 1}


def bracket_cases():
    rng = np.random.default_rng(31)
    sets = bottom_sets()
    for m in (2, 3, 9, 17, 20, 21, 40):  # both sides of the exact size
        norm = ("l1", "l2", "linf")[m % 3]
        sets.append(PointSet(NormedSpace(2, norm), rng.uniform(-1, 1, size=(m, 2))))
    distinct = rng.uniform(-1, 1, size=(5, 2))
    for reps in (3, 5, 8):  # 15, 25 and 40 points, every one repeated
        sets.append(PointSet(lp_space(2, 2), np.repeat(distinct, reps, axis=0)))
    pts = rng.uniform(-1, 1, size=(30, 3))
    pts[[7, 19, 29]] = pts[2]
    sets.append(PointSet(lp_space(3, 1), pts))
    for truncation in (9, 16, 33, 64):
        sets.append(sequence_set(SequenceSetSpec(generator="log", truncation=truncation)))
    sets += [UniformBasisSet(1), UniformBasisSet(2), UniformBasisSet(40), transport_set(64)]
    # the search runs on point clouds only: the closed-form sets by their twins
    return [s if type(s) is PointSet else dense_twin(s) for s in sets]


@pytest.mark.parametrize("fset", bracket_cases(), ids=set_id)
def test_inner_entropy_equals_the_search_that_probes_r0(fset):
    # both sides of the exact size, points apart and repeated: every bracket
    # and witness is the test-side bisection's, which probes r_0 at r_1 / 2
    for n in range(math.ceil(math.log2(fset.size)) + 1):
        est = inner_entropy(fset, n)
        if 2 ** n >= fset.size:
            assert est.upper_witness == {"kind": "identity", "size": fset.size}
            continue
        got = (est.lower, est.upper, est.upper_witness["centers"],
               est.lower_witness["eps"], est.lower_witness["count"])
        assert got == entropy_search(fset, n), n


@pytest.mark.parametrize("m, n", [(17, 4), (33, 5)])
def test_points_whose_distance_underflows_coincide(m, n):
    # (1e-170)^2 underflows, so the l2 distance of two different points is 0.0
    pts = np.random.default_rng(m).uniform(-1, 1, size=(m, 2))
    pts[0], pts[1] = (0.0, 0.0), (1e-170, 0.0)
    ps = PointSet(lp_space(2, 2), pts)
    assert ps.dist_row(0)[1] == 0.0 and not np.array_equal(ps.points[0], ps.points[1])
    est = inner_entropy(ps, n)
    assert est.lower == est.upper == 0.0  # 2**n balls hold the m - 1 locations
    assert (est.lower, est.upper, est.upper_witness["centers"], est.lower_witness["eps"],
            est.lower_witness["count"]) == entropy_search(ps, n)


@pytest.mark.parametrize("repeat", [False, True], ids=["apart", "repeated"])
def test_a_subnormal_least_distance_is_searched_from_zero(repeat):
    # r_1 = 5e-324 halves to 0.0, so r_0 is asked at 0 itself, where a packing
    # holds one point per distinct location and 33 locations need 33 balls
    pts = [0.0, 5e-324, *range(1, 32)] + [7.0] * repeat
    ps = PointSet(lp_space(1, 1), np.array(pts, dtype=float)[:, None])
    est = inner_entropy(ps, 5)
    assert est.lower == est.upper == 5e-324 and len(est.upper_witness["centers"]) == 32
    assert est.lower_witness == {"kind": "ball-disjoint-witnesses", "eps": 0.0, "count": 33}


def closed_form_sets():
    """The three closed-form shapes, at sizes the dense search handles."""
    for truncation in range(2, 131):
        for gen, c in (("log", 1.0), ("power", 0.5), ("power", 2.0)):
            yield sequence_set(SequenceSetSpec(gen, truncation, c))
    for m in range(2, 41):
        yield UniformBasisSet(m)
    for grid in [*range(2, 70), 128, 256, 512]:
        yield transport_set(grid)


def test_closed_form_entropy_is_witnessed_and_matches_the_search_on_a_dense_twin():
    checked = 0
    for fset in closed_form_sets():
        twin = dense_twin(fset)
        # the transport matrix 2|a - b| rounds each parameter a = i/grid, so its
        # distances sit within 1e-15 of 2t/grid; the other twins are exact
        tol = 1e-15 if isinstance(fset, TransportSet) else 0.0
        for n in range(math.ceil(math.log2(fset.size))):  # every n with 2**n < m
            est, search = inner_entropy(fset, n), inner_entropy(twin, n)
            assert est.exact and est.lower == est.upper, (set_id(fset), n)
            # both witnesses hold on the set's own distances
            centers, points = est.upper_witness["centers"], est.lower_witness["points"]
            assert len(centers) <= 2 ** n < len(points) == 2 ** n + 1
            coverage_assignment(fset, centers, est.upper)
            assert ball_disjoint(fset, points, est.lower), (set_id(fset), n)
            assert search.lower - tol <= est.lower <= search.upper + tol, (set_id(fset), n)
            if search.exact:
                assert abs(est.lower - search.lower) <= tol, (set_id(fset), n)
            checked += 1
    assert checked == 2942  # every n with 2**n < m on every set above


@pytest.mark.parametrize("fset", [sequence_set(SequenceSetSpec("log", 64)),
                                  sequence_set(SequenceSetSpec("power", 33, 0.5)),
                                  UniformBasisSet(40), transport_set(64)], ids=set_id)
def test_closed_form_sets_never_reach_the_search(monkeypatch, fset):
    from lipwidth import covering

    def refuse(*args, **kwargs):
        raise AssertionError("the generic search ran")

    for name in ("greedy_packing", "covering_lower_bound", "exact_min_cover"):
        monkeypatch.setattr(covering, name, refuse)
    for n in range(math.ceil(math.log2(fset.size)) + 2):
        est = inner_entropy(fset, n)
        assert est.lower == est.upper


def finite_set_classes(cls=FiniteSet):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("lipwidth."):
            yield sub
            yield from finite_set_classes(sub)


def test_every_set_reaches_the_search_as_a_point_cloud_or_has_a_closed_form():
    classes = list(finite_set_classes())
    assert {c.__name__ for c in classes} >= {"PointSet", "SequenceSet", "UniformBasisSet",
                                             "TransportSet"}
    for cls in classes:
        assert issubclass(cls, PointSet) or hasattr(cls, "entropy_witnesses"), cls
    assert [c for c in (FiniteSet, *classes) if "distinct_distances" in vars(c)] == [PointSet]


# ---------------------------------------------------------------------------
# farthest-first traversal (Gonzalez) and the bracket it gives above DENSE_LIMIT
# ---------------------------------------------------------------------------


def oracle_farthest_first(fset, k):
    """The traversal as a double loop over the distances: the first farthest
    point (lowest index) joins, until k centers or all points lie on one."""
    d = [fset.dist_row(i).tolist() for i in range(fset.size)]
    centers, radii = [0], [math.inf]
    while len(centers) < k:
        best, arg = -1.0, None
        for p in range(fset.size):
            gap = min(d[p][c] for c in centers)
            if gap > best:
                best, arg = gap, p
        if best == 0.0:
            break
        centers.append(arg)
        radii.append(best)
    return centers, radii


def tied_clouds():
    rng = np.random.default_rng(5)
    grid = [[x, y] for x in range(4) for y in range(4)]  # l1 and linf distances tie
    return [PointSet(lp_space(2, 1), grid), PointSet(lp_space(2, "inf"), grid[::-1]),
            PointSet(lp_space(3, 2), rng.uniform(-1, 1, size=(40, 3))),
            PointSet(lp_space(1, 1), rng.integers(0, 3, size=(25, 1))),  # repeats
            UniformBasisSet(9), sequence_set(SequenceSetSpec("log", 30))]


@pytest.mark.parametrize("fset", tied_clouds(), ids=set_id)
def test_farthest_first_matches_the_double_loop(fset):
    for k in (1, 2, 5, fset.size, fset.size + 3):
        centers, radii = farthest_first(fset, k)
        want_centers, want_radii = oracle_farthest_first(fset, k)
        assert centers.tolist() == want_centers, k
        assert radii.tolist() == want_radii, k


@pytest.mark.parametrize("fset", tied_clouds(), ids=set_id)
def test_farthest_first_radii_never_increase_and_longer_runs_extend_shorter(fset):
    centers, radii = farthest_first(fset, fset.size)
    assert np.all(np.diff(radii) <= 0)
    for k in range(1, len(centers) + 1):
        head, head_radii = farthest_first(fset, k)
        assert head.tolist() == centers[:k].tolist()
        assert head_radii.tolist() == radii[:k].tolist()
    # the first j centers cover at radii[j], and the first j + 1 are that far apart
    for j in range(1, len(centers)):
        coverage_assignment(fset, centers[:j], radii[j])
        assert ball_disjoint(fset, centers[: j + 1], radii[j] / 2)


def big_cloud(m, distinct=None, seed=3):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(m if distinct is None else distinct, 2))
    if distinct is not None:
        pts = pts[rng.integers(0, distinct, size=m)]
    return PointSet(lp_space(2, 2), pts)


def test_coincident_points_give_an_exact_zero_bracket_from_fewer_centers():
    fset = big_cloud(DENSE_LIMIT + 3, distinct=5)
    centers, radii = farthest_first(fset, 9)
    assert len(centers) == 5 and len(set(centers.tolist())) == 5
    est = inner_entropy(fset, 3)
    assert (est.lower, est.upper, est.exact) == (0.0, 0.0, True)
    assert est.upper_witness == {"kind": "farthest-first-cover", "eps": 0.0, "size": 5,
                                 "centers": centers.tolist()}
    assert recheck_entropy(est.to_json(), fset)
    assert fset._cache is None


def test_above_dense_limit_the_bracket_is_half_the_traversal_radius(monkeypatch):
    fset = big_cloud(DENSE_LIMIT + 1)
    rows = []
    real = fset.dist_rows
    monkeypatch.setattr(fset, "dist_rows", lambda lo, hi: rows.append(hi - lo) or real(lo, hi))
    for n in (0, 2, 5):
        rows.clear()
        est = inner_entropy(fset, n)
        assert rows == [1] * (2 ** n + 1)  # one row per center, never a block
        centers, radii = farthest_first(fset, 2 ** n + 1)
        assert (est.lower, est.upper, est.exact) == (radii[-1] / 2, radii[-1], False)
        assert est.upper_witness["centers"] == centers[:-1].tolist()
        assert est.lower_witness == {"kind": "ball-disjoint-points", "eps": est.lower,
                                     "points": centers.tolist()}
        assert recheck_entropy(est.to_json(), fset)
    assert fset._cache is None


def test_at_the_dense_limit_the_search_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(covering, "farthest_first", lambda *a: calls.append(a))
    fset = big_cloud(DENSE_LIMIT)
    est = inner_entropy(fset, 2)
    assert calls == [] and est.upper_witness["kind"] == "maximal-packing-cover"


def test_lipschitz_image_entropy_contraction():
    # gamma-Lipschitz images contract inner entropy numbers by at most gamma
    rng = np.random.default_rng(21)
    target = lp_space(3, 2)
    values = rng.normal(size=(6, 3))
    path = build_path_map(values, target)
    gamma = path.declared_lipschitz()
    s0_pts = np.sort(rng.uniform(-1, 1, size=(12, 1)), axis=0)
    s0 = PointSet(lp_space(1, "inf"), s0_pts)
    s1 = PointSet(target, np.stack([evaluate(path, y) for y in s0_pts]))
    for k in (0, 1, 2):
        e0 = inner_entropy(s0, k)
        e1 = inner_entropy(s1, k)
        assert e1.upper <= gamma * e0.upper * (1 + 1e-9) + 1e-9


def test_sandwich_basis_cloud():
    audit = sandwich_audit(basis_cloud(), 1.0)
    assert audit.pack_eps == 5
    assert audit.cover_upper == 5 and audit.cover_lower == 5 and audit.cover_exact
    assert audit.pack_2eps == 1
    assert audit.passed


def test_sandwich_singleton():
    ps = PointSet(lp_space(1, 1), [[0.0]])
    audit = sandwich_audit(ps, 0.5)
    assert audit.pack_eps == audit.cover_upper == audit.pack_2eps == 1
    assert audit.passed


def test_sandwich_just_below_a_distance():
    # the packing admits only beyond eps * (1 + 1e-12), which covers distance 1
    ps = PointSet(lp_space(1, 2), [[0.0], [1.0]])
    audit = sandwich_audit(ps, 1.0 - 1e-16)
    assert audit.pack_eps == audit.cover_upper == 1
    assert audit.passed


def test_sandwich_random_l1_cloud():
    rng = np.random.default_rng(17)
    ps = PointSet(lp_space(2, 1), rng.uniform(-1, 1, size=(40, 2)))
    audit = sandwich_audit(ps, 0.25)
    assert audit.passed


@given(st.integers(0, 10 ** 6), st.floats(0.05, 1.0))
@settings(max_examples=60, deadline=None)
def test_sandwich_chain_property(seed, frac):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 16))
    dim = int(rng.integers(1, 4))
    kind = ("l1", "l2", "linf")[seed % 3]
    ps = PointSet(NormedSpace(dim, kind), rng.uniform(-1, 1, size=(m, dim)))
    diam = ps.diameter()
    if diam == 0:
        return
    assert sandwich_audit(ps, frac * diam).passed


def test_eps_must_be_positive():
    # a packing at eps = 0 keeps one point per distinct location; below 0 it is refused
    pack = greedy_packing(PointSet(lp_space(1, 2), [[0.0], [1.0], [0.0], [2.0], [1.0]]), 0.0)
    assert pack.indices == (0, 1, 3) and pack.maximal
    assert greedy_packing(basis_cloud(), 0.0).size == 5
    with pytest.raises(PreconditionError):
        greedy_packing(basis_cloud(), -1.0)
    with pytest.raises(PreconditionError):
        minimal_inner_covering(basis_cloud(), -1.0)
