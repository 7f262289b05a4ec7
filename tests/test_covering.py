import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipwidth import (
    NormedSpace,
    PointSet,
    build_path_map,
    greedy_packing,
    inner_entropy,
    lp_space,
    minimal_inner_covering,
    sandwich_audit,
)
from lipwidth.covering import (
    N_EXACT,
    covering_lower_bound,
    exact_min_cover,
    packing_is_maximal,
    _cover_masks,
)
from lipwidth.case_studies import (
    SequenceSetSpec,
    UniformBasisSet,
    sequence_set,
    transport_entropy,
    transport_set,
)
from lipwidth.spaces import PreconditionError


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
    ref = 0.25  # 2^{-n+1}: the radius of 2^{n-1} balls, which the greedy upper end reaches
    assert est.lower <= ref * (1 + 1e-9) <= est.upper * (1 + 2e-9)
    assert est.lower <= transport_entropy(1024, 3) == 0.125 <= est.upper  # 2^n balls


def test_inner_entropy_monotone_in_n():
    rng = np.random.default_rng(9)
    ps = PointSet(lp_space(3, 2), rng.normal(size=(18, 3)))
    uppers = [inner_entropy(ps, n).upper for n in range(5)]
    for a, b in zip(uppers, uppers[1:]):
        assert b <= a + 1e-9


def record_calls_below(monkeypatch, r1):
    """Wrap the three predicates; each call appends whether it probed below r_1.

    The exact cover sees only masks: on a set whose points are apart, every
    mask holds a single point exactly below r_1.
    """
    from lipwidth import covering

    calls = []
    packing, lower_bound, exact = (covering.greedy_packing, covering.covering_lower_bound,
                                   covering.exact_min_cover)

    def packing_spy(fset, eps, stop_above=None):
        calls.append(eps < r1)
        return packing(fset, eps, stop_above)

    def lower_bound_spy(fset, eps, stop_above=None):
        calls.append(eps < r1)
        return lower_bound(fset, eps, stop_above)

    def exact_spy(masks, m, limit=None):
        calls.append(all(mask & (mask - 1) == 0 for mask in masks))
        return exact(masks, m, limit)

    monkeypatch.setattr(covering, "greedy_packing", packing_spy)
    monkeypatch.setattr(covering, "covering_lower_bound", lower_bound_spy)
    monkeypatch.setattr(covering, "exact_min_cover", exact_spy)
    return calls


def without_bottom_rule(monkeypatch, fset, n):
    """``inner_entropy`` with the set declared as one whose points may coincide."""
    with monkeypatch.context() as mp:
        mp.setattr(fset, "points_apart", lambda: None)
        return inner_entropy(fset, n)


def assert_same_estimate(got, want):
    assert got == want
    assert got.upper_witness == want.upper_witness
    assert got.lower_witness == want.lower_witness


def bottom_sets():
    """Sets of 2**n + 1 points, whose search at n reaches r_0."""
    rng = np.random.default_rng(12)
    out = [UniformBasisSet(2 ** n + 1) for n in (1, 2, 4, 5, 7)]
    for n, norm in ((5, "l2"), (6, "linf"), (5, "l1")):
        out.append(PointSet(NormedSpace(2, norm), rng.uniform(-1, 1, size=(2 ** n + 1, 2))))
    return out


def set_id(fset):
    return f"{type(fset).__name__}-{fset.size}"


@pytest.mark.parametrize("fset", bottom_sets(), ids=set_id)
def test_inner_entropy_probes_no_radius_below_the_least_distance(monkeypatch, fset):
    n = math.floor(math.log2(fset.size - 1))
    assert fset.points_apart() is True
    r1 = float(fset.distinct_distances()[0])
    calls = record_calls_below(monkeypatch, r1)
    want = without_bottom_rule(monkeypatch, fset, n)
    assert any(calls)  # without the rule the search does probe below r_1
    calls.clear()
    got = inner_entropy(fset, n)
    assert calls and not any(calls)
    assert_same_estimate(got, want)
    assert got.lower == r1 and got.lower_witness == {
        "kind": "exact-cover" if fset.size <= N_EXACT else "ball-disjoint-witnesses",
        "eps": 0.0, "count": 2 ** n + 1}


def shortcut_cases():
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
    sets += [UniformBasisSet(1), UniformBasisSet(2), UniformBasisSet(40),
             transport_set(64)]
    return sets


@pytest.mark.parametrize("fset", shortcut_cases(), ids=set_id)
def test_inner_entropy_equals_the_search_that_probes_r0(monkeypatch, fset):
    for n in range(math.ceil(math.log2(fset.size)) + 1):
        assert_same_estimate(inner_entropy(fset, n), without_bottom_rule(monkeypatch, fset, n))


def test_points_apart_unless_two_points_repeat():
    for fset in shortcut_cases():
        repeats = isinstance(fset, PointSet) and len(np.unique(fset.points, axis=0)) < fset.size
        assert fset.points_apart() is (not repeats), set_id(fset)


@pytest.mark.parametrize("m, n", [(17, 4), (33, 5)])
def test_points_whose_distance_underflows_coincide(monkeypatch, m, n):
    # (1e-170)^2 underflows, so the l2 distance of two different points is 0.0
    pts = np.random.default_rng(m).uniform(-1, 1, size=(m, 2))
    pts[0], pts[1] = (0.0, 0.0), (1e-170, 0.0)
    ps = PointSet(lp_space(2, 2), pts)
    assert ps.dist_row(0)[1] == 0.0 and not np.array_equal(ps.points[0], ps.points[1])
    assert ps.points_apart() is False
    est = inner_entropy(ps, n)
    assert est.lower == est.upper == 0.0  # 2**n balls hold the m - 1 locations
    assert_same_estimate(est, without_bottom_rule(monkeypatch, ps, n))


def test_lipschitz_image_entropy_contraction():
    # gamma-Lipschitz images contract inner entropy numbers by at most gamma
    rng = np.random.default_rng(21)
    target = lp_space(3, 2)
    values = rng.normal(size=(6, 3))
    path = build_path_map(values, target)
    gamma = path.declared_lipschitz()
    s0_pts = np.sort(rng.uniform(-1, 1, size=(12, 1)), axis=0)
    s0 = PointSet(lp_space(1, "inf"), s0_pts)
    s1 = PointSet(target, np.stack([path.evaluate(y) for y in s0_pts]))
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
    with pytest.raises(PreconditionError):
        greedy_packing(basis_cloud(), 0.0)
    with pytest.raises(PreconditionError):
        minimal_inner_covering(basis_cloud(), -1.0)
