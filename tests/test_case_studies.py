import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipwidth import PointSet, inner_entropy, lp_space
from lipwidth.case_studies import (
    SequenceSetSpec,
    basis_cloud,
    cross_polytope_width,
    diagonal_reference_upper,
    diagonal_set,
    exact_sum,
    log_sequence_certificates,
    log_sequence_entropy_lower,
    octahedron_set,
    orthonormal_basis_report,
    power_collapse_index,
    sequence_set,
    sequence_packing_count_log2,
    sequence_width_upper,
    sigma_at,
    sigma_values,
    transport_comparison,
    transport_entropy,
    transport_kolmogorov_upper,
    transport_reference,
    transport_set,
    volume_condition,
)
from lipwidth.spaces import PreconditionError
from oracles import diagonal_member, sequence_dense_points


# --- sequence sets -----------------------------------------------------------


def test_sequence_distance_formula():
    spec = SequenceSetSpec(generator="log", truncation=6)
    ss = sequence_set(spec)
    sig = ss.sigmas
    for i in range(6):
        for j in range(i + 1, 6):
            assert ss.dist_row(i)[j] == sig[i]  # = sigma_{min(i,j)+1}
        assert ss.dist_row(i)[6] == sig[i]  # distance to the origin point


def test_sequence_distances_match_dense_linf():
    spec = SequenceSetSpec(generator="power", truncation=9, c=0.7)
    ss = sequence_set(spec)
    dense = PointSet(lp_space(9, "inf"), sequence_dense_points(ss))
    for i in range(ss.size):
        assert np.allclose(ss.dist_row(i), dense.dist_row(i))


def test_sequence_entropy_bracket_contains_sigma():
    for gen, c in (("log", 1.0), ("power", 0.5)):
        for n in (2, 3):
            spec = SequenceSetSpec(generator=gen, truncation=2 ** (n + 2), c=c)
            est = inner_entropy(sequence_set(spec), n)
            ref = sigma_at(spec, 2 ** n)
            assert est.lower <= ref * (1 + 1e-9)
            assert est.upper >= ref * (1 - 1e-9)
            assert est.upper - est.lower <= 1e-9 * ss_scale(spec)


def ss_scale(spec):
    return sigma_at(spec, 1)


def test_sequence_rejects_nondecreasing():
    # j ** -1e-300 rounds to 1.0 for every j: the sigmas do not decrease
    with pytest.raises(PreconditionError, match="strictly decreasing"):
        sequence_set(SequenceSetSpec(generator="power", truncation=3, c=1e-300))


def test_packing_count_log2_matches_direct_count():
    spec = SequenceSetSpec(generator="log", truncation=2 ** 12)
    sig = sigma_values(spec, 2 ** 12)
    for t in (0.9, 0.5, 0.21, 0.1):
        direct = int((sig > t).sum()) + 1
        assert sequence_packing_count_log2(spec, t) == pytest.approx(
            math.log2(direct), abs=1e-12
        )


# --- volume condition --------------------------------------------------------


def test_volume_condition_exact_small_n():
    spec = SequenceSetSpec(generator="log", truncation=2)
    cond = volume_condition(spec, 3.0, 6, 7 ** 6)
    assert cond.method == "exact-sum"
    assert cond.holds
    # independent oracle: plain Python summation
    direct = sum((1.0 / math.log2(j + 1)) ** 6 for j in range(1, 7 ** 6 + 1))
    assert cond.lhs_upper == pytest.approx(direct, rel=1e-12)


def test_volume_condition_block_bound():
    spec = SequenceSetSpec(generator="log", truncation=2)
    for n in (7, 8, 10):
        cond = volume_condition(spec, 3.0, n, (n + 1) ** n)
        assert cond.method == "dyadic-block"
        assert cond.holds
        assert cond.lhs_upper < 6.0 + 2.0 * math.e


def test_volume_condition_block_dominates_exact():
    # the block majorant must never undercut the exact sum it replaces
    spec = SequenceSetSpec(generator="log", truncation=2)
    n, total = 8, 10 ** 5
    exact = float(np.sum(sigma_values(spec, total) ** n))
    block = volume_condition(spec, 3.0, n, 10 ** 6 + 1)  # forces block method
    assert block.lhs_upper >= exact


def test_volume_condition_power_tail():
    spec = SequenceSetSpec(generator="power", truncation=2, c=1.0)
    cond = volume_condition(spec, 4.0, 2, 10 ** 9)
    assert cond.method == "integral-tail"
    assert cond.holds
    exact = float(np.sum(np.arange(1.0, 10 ** 6 + 1) ** -2.0))
    assert cond.lhs_upper >= exact  # majorant of the full series


def test_volume_condition_gate_sigma1():
    # sigma_1 = 1 > gamma/2 = 0.75
    spec = SequenceSetSpec(generator="log", truncation=2)
    with pytest.raises(PreconditionError, match="sigma_1"):
        volume_condition(spec, 1.5, 2, 2)


# --- log-decay sharpness ------------------------------------------------------


def test_log_sequence_certificates_n6():
    (upper, lower, ent), audits = log_sequence_certificates(6, 3.0, max_bumps=10 ** 4)
    assert upper["value"] == pytest.approx(1.0 / (6 * math.log2(7)), rel=1e-14)
    assert ent["reference"] == pytest.approx(1.0 / math.log2(65), rel=1e-14)
    lo, hi = ent["lower"], ent["upper"]
    assert lo <= ent["reference"] * (1 + 1e-9) and hi >= ent["reference"] * (1 - 1e-9)
    assert 0.0 < lower["value"] <= upper["value"]
    # the width over the 1/n entropy rate
    assert upper["value"] / (1.0 / 6) == pytest.approx(1.0 / math.log2(7), rel=1e-12)
    assert all(a["passed"] for a in audits)


def test_log_sequence_needs_n_at_least_5():
    with pytest.raises(PreconditionError):
        log_sequence_certificates(4, 3.0)


def test_log_entropy_lower_envelope_stable():
    assert log_sequence_entropy_lower(3) == pytest.approx(0.5 / math.log2(9))
    assert log_sequence_entropy_lower(10 ** 6) == pytest.approx(0.5 / 10 ** 6)


# --- power-decay collapse -----------------------------------------------------


def test_power_collapse_index_c1_gamma4():
    n1 = power_collapse_index(1.0, 4.0)
    assert n1 <= 3
    # direct inequality scan: 1 + 1/(n-1) <= 2^n holds from n = 2 on
    assert n1 == 2
    for n in range(n1, 12):
        assert 1.0 + 1.0 / (n - 1.0) <= 2.0 ** n


def test_power_collapse_index_boundary():
    n1 = power_collapse_index(0.1, 2.5)
    n0 = 10
    lhs = lambda n: n0 + n0 / (0.1 * n - 1.0)
    rhs = lambda n: 1.25 ** n
    assert lhs(n1) <= rhs(n1)
    assert lhs(n1 - 1) > rhs(n1 - 1)


def test_power_width_upper_decays():
    n1 = power_collapse_index(1.0, 4.0)
    for total, cap in ((10 ** 3, 1e-3), (10 ** 6, 1e-6)):
        cert = sequence_width_upper("power", 4.0, n1, total, c=1.0, max_bumps=10 ** 3)
        assert cert.value <= cap * (1 + 1e-12)
    # the volume condition also passes by exact summation at both totals
    spec = SequenceSetSpec(generator="power", truncation=2, c=1.0)
    for total in (10 ** 3, 10 ** 6):
        assert volume_condition(spec, 4.0, n1, total).holds


# --- orthonormal basis cloud ---------------------------------------------------


def test_basis_report_threshold_m14():
    rep = orthonormal_basis_report(14, 2.0 * math.sqrt(2.0), 2, entropy_ks=[1, 7])
    assert rep["threshold_lhs"] == pytest.approx(1.0 / 24.0)
    assert rep["threshold_rhs"] == pytest.approx(1.0 / 32.0)
    assert rep["regime_certified"]
    assert sorted(rep["entropy_brackets"]) == ["1", "7"]
    for lo, hi in rep["entropy_brackets"].values():
        assert lo <= math.sqrt(2.0) * (1 + 1e-9) and hi >= math.sqrt(2.0) * (1 - 1e-9)


def test_basis_report_vacuous_regime():
    rep = orthonormal_basis_report(3, 1e6, 1, entropy_ks=[1])
    assert not rep["regime_certified"]


def test_basis_cloud_distances():
    cloud = basis_cloud(3)
    assert cloud.size == 9
    assert cloud.diameter() == pytest.approx(math.sqrt(2.0))
    assert cloud.dist_row(0)[5] == pytest.approx(math.sqrt(2.0))


# --- transport manifold ---------------------------------------------------------


def test_transport_distances_match_step_norm():
    ts = transport_set(64)
    # oracle: exact step-function L1 norm of the coordinate difference
    for i, j in ((0, 10), (5, 40), (30, 31)):
        direct = float(ts.space.norm(ts.points[i] - ts.points[j]))
        assert ts.dist_row(i)[j] == pytest.approx(direct, abs=1e-12)
        assert ts.dist_row(i)[j] == pytest.approx(2 * abs(ts.params[i] - ts.params[j]), abs=1e-12)


def test_transport_entropy_brackets():
    ts = transport_set(1024)
    for n in (1, 2, 5):
        est = inner_entropy(ts, n)
        ref = transport_entropy(1024, n)
        assert est.lower <= ref * (1 + 1e-9)
        assert est.upper >= ref * (1 - 1e-9)


def test_transport_kolmogorov_formula_vs_vectors():
    ts = transport_set(128)
    for n in (4, 16):
        cert, coeffs = transport_kolmogorov_upper(ts, n)
        basis = ts.cell_basis(n)
        resid_vec = np.asarray(ts.space.norm(ts.points - coeffs @ basis))
        assert cert.value == pytest.approx(float(resid_vec.max()), abs=1e-12)
        assert cert.value <= 4.0 / n + 1e-12
        assert cert.value >= 1.0 / (n + 1.0)


def test_transport_comparison_below_kolmogorov():
    ts = transport_set(256)
    for n in (4, 16):
        dn, _ = transport_kolmogorov_upper(ts, n)
        comp = transport_comparison(ts, n)
        assert comp.value <= dn.value + 1e-9


def test_transport_reference_consistency():
    # the entropy reference is the exact cover radius of the grid + 1 samples
    for grid in range(2, 19):
        ts = transport_set(grid)
        for n in range(6):
            est = inner_entropy(ts, n)
            assert est.exact and est.lower == est.upper
            assert transport_entropy(grid, n) == pytest.approx(est.upper, abs=1e-15), (grid, n)
    refs = transport_reference()
    assert refs["kolmogorov_lower"](1) == 0.5
    assert refs["kolmogorov_upper"](1) == 4.0
    assert refs["kolmogorov_lower"](1) <= refs["kolmogorov_upper"](1)


# --- diagonal set and cross-polytope ---------------------------------------------


def test_diagonal_membership_and_reference():
    dset = diagonal_set(16)
    assert dset.size == 32
    for p in dset.points[:4]:
        assert diagonal_member(p)
    assert diagonal_reference_upper(4) == pytest.approx(1.0 / math.sqrt(math.log2(6)))


def test_diagonal_set_needs_two_coordinates():
    with pytest.raises(PreconditionError, match="at least 2"):
        diagonal_set(1)


def test_cross_polytope_values():
    assert cross_polytope_width(1) == pytest.approx(
        (1.0 / math.sqrt(2.0)) * math.log2(3) ** -0.5, rel=1e-15
    )
    vals = [cross_polytope_width(n) for n in range(1, 101)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_octahedron_set_geometry():
    oset = octahedron_set(4)
    assert oset.size == 16
    scale = 1.0 / math.sqrt(math.log2(9))
    assert np.allclose(np.linalg.norm(oset.points, axis=1), scale)


def test_exact_volume_sum_streams_its_terms():
    # fsum of the 10^6 terms as one list is the oracle; volume_condition makes
    # and sums them a block at a time
    spec = SequenceSetSpec("power", 2, 1.0)
    want = math.fsum((sigma_values(spec, 10 ** 6) ** 2).tolist())
    tracemalloc.start()
    try:
        cond = volume_condition(spec, 4.0, 2, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cond.method == "exact-sum" and cond.lhs_upper == want
    assert peak < 24e6, peak


# --- exact sum ---------------------------------------------------------------


def assert_sum_is_fsum(blocks):
    """exact_sum of the blocks has the bits of fsum of their terms in order."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    want = math.fsum(np.concatenate([np.zeros(0), *blocks]).tolist())
    assert exact_sum(blocks).hex() == want.hex()


def random_blocks(rng, terms):
    cuts = np.sort(rng.integers(0, len(terms) + 1, size=int(rng.integers(0, 5))))
    return np.split(terms, cuts)


@pytest.mark.parametrize("seed", range(40))
def test_exact_sum_is_fsum_on_random_sorted_and_shuffled_terms(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 500))
    terms = rng.random(k) * 10.0 ** rng.integers(-40, 40, size=k)
    for order in (terms, np.sort(terms)[::-1], rng.permutation(terms)):
        assert_sum_is_fsum(random_blocks(rng, order))


def test_exact_sum_of_zeros_subnormals_and_single_terms():
    rng = np.random.default_rng(7)
    tiny = np.float64(5e-324)
    smallest_normal = np.float64(2.0 ** -1022)
    subnormals = rng.integers(1, 1 << 52, size=1000).view(np.float64)
    assert_sum_is_fsum([np.zeros(50)])
    assert_sum_is_fsum([[tiny]])
    assert_sum_is_fsum([[tiny] * 7, subnormals, [0.0, smallest_normal]])
    assert_sum_is_fsum([np.sort(np.concatenate([subnormals, [smallest_normal] * 3]))])
    for x in (1.0, 0.1, tiny, smallest_normal - tiny, np.finfo(float).max):
        assert_sum_is_fsum([[x]])
    # ties round to even once, at the end: 1 + 2^-53 and 1 + 2^-53 + 2^-106
    assert exact_sum([[1.0, 2.0 ** -53]]) == 1.0
    assert exact_sum([[1.0, 2.0 ** -53], [2.0 ** -106]]) == 1.0 + 2.0 ** -52


def test_exact_sum_of_empty_blocks():
    assert exact_sum([]) == 0.0
    assert exact_sum([np.zeros(0), []]) == 0.0
    assert_sum_is_fsum([[], [0.5, 0.25], np.zeros(0), [3.0], []])


@pytest.mark.parametrize("seed", range(10))
def test_exact_sum_is_fsum_over_the_whole_exponent_range(seed):
    # every exponent field from subnormal to 2040 (sums stay finite)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2041 << 52, size=30)
    bits[:2] = [0, (2041 << 52) - 1]
    assert_sum_is_fsum(random_blocks(rng, bits.view(np.float64)))


@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                max_size=60), st.integers(1, 61))
@settings(max_examples=200, deadline=None)
def test_exact_sum_is_fsum_or_both_overflow(terms, step):
    terms = np.abs(np.array(terms, dtype=float))  # +0.0 for a drawn -0.0
    blocks = [terms[i : i + step] for i in range(0, len(terms), step)]
    try:
        want = math.fsum(terms.tolist())
    except OverflowError:
        with pytest.raises(OverflowError):
            exact_sum(blocks)
        return
    assert exact_sum(blocks).hex() == want.hex()


def test_exact_sum_of_the_power_terms_at_odd_block_sizes():
    terms = sigma_values(SequenceSetSpec("power", 2, 1.0), 10 ** 6) ** 2
    want = math.fsum(terms.tolist())
    for step in (997, 8191, 123457, 10 ** 6):
        blocks = (terms[i : i + step] for i in range(0, len(terms), step))
        assert exact_sum(blocks) == want


def test_exact_sum_of_a_block_longer_than_a_slice():
    # one run of equal fields across the slice edge, then runs of every size
    rng = np.random.default_rng(3)
    size = (1 << 20) + 3
    assert_sum_is_fsum([1.0 + rng.random(size)])
    assert_sum_is_fsum([np.sort(rng.random(size) * 2.0 ** rng.integers(-60, 60, size=size))])


@pytest.mark.parametrize("bad", [-1.0, -5e-324, math.inf, math.nan])
def test_exact_sum_refuses_negative_and_non_finite_terms(bad):
    with pytest.raises(PreconditionError, match="nonnegative finite"):
        exact_sum([[1.0, 2.0], [0.5, bad, 0.25]])
