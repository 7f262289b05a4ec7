import math
from fractions import Fraction

import numpy as np
import pytest

from lipwidth import PointSet, case_studies, inner_entropy, lp_space
from lipwidth.case_studies import (
    SequenceSetSpec,
    basis_cloud,
    cross_polytope_width,
    diagonal_reference_upper,
    diagonal_set,
    log_sequence_certificates,
    log_sequence_entropy_lower,
    octahedron_set,
    orthonormal_basis_report,
    power_collapse_index,
    recheck_transport_cells,
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
from lipwidth.spaces import PreconditionError, radius_upper
from oracles import dense_twin, diagonal_member, sequence_dense_points, transport_g0_reference


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
            est = inner_entropy(dense_twin(sequence_set(spec)), n)  # the search
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
    # the closed form at N = 7^6 bounds the terms' fsum (about 1.11) and still fits
    spec = SequenceSetSpec(generator="log", truncation=2)
    cond = volume_condition(spec, 3.0, 6, 7 ** 6)
    assert cond.method == "dyadic-block" and cond.holds
    exact = math.fsum((sigma_values(spec, 7 ** 6) ** 6).tolist())
    assert exact < cond.lhs_upper == pytest.approx(3.0980, abs=1e-4)
    assert cond.lhs_upper <= 1.5 ** 6


@pytest.mark.parametrize("generator,c,n", [("log", 1.0, 2), ("log", 1.0, 6), ("log", 1.0, 9),
                                           ("power", 1.0, 2), ("power", 0.25, 5),
                                           ("power", 0.7, 3), ("power", 2.0, 1)])
def test_volume_condition_majorant_dominates_fsum(generator, c, n):
    # every prefix up to 10^5 terms, at each power of two and the next term
    spec = SequenceSetSpec(generator=generator, truncation=2, c=c)
    for total in sorted({t for k in range(17) for t in (2 ** k, 2 ** k + 1)} | {10 ** 5}):
        exact = math.fsum((sigma_values(spec, total) ** n).tolist())
        assert volume_condition(spec, 1e3, n, total).lhs_upper >= exact, total


def test_volume_condition_reaches_the_log_study():
    # the log study refuses n < 5 and gamma < 3; at gamma = 3 it certifies n = 5..64
    spec = SequenceSetSpec(generator="log", truncation=2)
    for n in range(5, 65):
        assert volume_condition(spec, 3.0, n, (n + 1) ** n).holds, n


@pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.7, 1.0, 2.0, 3.0])
def test_volume_condition_reaches_the_power_study(c):
    spec = SequenceSetSpec(generator="power", truncation=2, c=c)
    for gamma in (2.1, 2.5, 3.0, 4.0, 8.0):
        n1 = power_collapse_index(c, gamma)
        for total in (10 ** 3, 10 ** 6, 10 ** 9):
            assert volume_condition(spec, gamma, n1, total).holds, (gamma, total)


def test_volume_condition_refuses_what_only_the_exact_sum_fits():
    # log decay at n = 2, N = 4: the terms sum to about 1.83 <= 2.25 = (3/2)^2,
    # but the dyadic-block majorant 1 + 2 + 4/4 = 4 does not fit
    spec = SequenceSetSpec(generator="log", truncation=2)
    assert math.fsum((sigma_values(spec, 4) ** 2).tolist()) <= 1.5 ** 2
    cond = volume_condition(spec, 3.0, 2, 4)
    assert cond.lhs_upper == 4.0 and not cond.holds
    with pytest.raises(PreconditionError, match="volume condition failed"):
        sequence_width_upper("log", 3.0, 2, 4)


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
    block = volume_condition(spec, 3.0, n, 10 ** 6 + 1)
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
    # the volume condition's closed form also fits at both totals
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
    twin = dense_twin(transport_set(1024))  # the search, not the closed form
    for n in (1, 2, 5):
        est = inner_entropy(twin, n)
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


@pytest.mark.parametrize("grid,n", [(3, 1), (7, 2), (7, 3), (64, 5), (100, 16), (1000, 7)])
def test_transport_cells_recheck_passes_real_certificates(grid, n):
    # the recheck sums cell overlaps, another route than the producer's cell
    # indices.  The real certificate passes on grids that do not align with
    # the cells, and so does the exact L1 distance to the span (in fractions:
    # the best constant on each cell is 0 or 1); 1e-6 less fails.
    ts = transport_set(grid)
    cert = transport_kolmogorov_upper(ts, n)[0].to_json()
    assert recheck_transport_cells(cert, ts)
    width = Fraction(2, n)
    exact = max(sum(min(o, width - o) for o in (
        max(Fraction(0), min(a + 1, (j + 1) * width) - max(a, j * width)) for j in range(n)))
        for a in (Fraction(i, grid) for i in range(grid + 1)))
    assert exact <= cert["value"] * (1 + 1e-12)
    assert recheck_transport_cells(dict(cert, value=float(exact)), ts)
    assert not recheck_transport_cells(dict(cert, value=float(exact) * (1 - 1e-6)), ts)


def test_transport_comparison_below_kolmogorov():
    ts = transport_set(256)
    for n in (4, 16):
        dn, _ = transport_kolmogorov_upper(ts, n)
        comp = transport_comparison(ts, n)
        assert comp.value <= dn.value + 1e-9


@pytest.mark.parametrize("grid,n", [(512, 4), (512, 16), (256, 16)])
def test_transport_comparison_value_is_the_kolmogorov_value(grid, n):
    # from the exact 0/1 cell coefficients the map returns each approximant,
    # so the comparison loses nothing to rounding (grid 256, n 16 is the
    # study's audit input)
    ts = transport_set(grid)
    dn, _ = transport_kolmogorov_upper(ts, n)
    comp = transport_comparison(ts, n)
    assert comp.value == comp.witness["kolmogorov_value"] == dn.value
    assert comp.gamma == dn.value + radius_upper(ts).upper == 1.0 + 2.0 / n


def test_transport_g0_by_cell_counts_matches_the_norm_oracle(monkeypatch):
    # every n <= 64 dividing 2 * grid, on small grids and four large ones
    chosen = []
    monkeypatch.setattr(case_studies, "kolmogorov_comparison",
                        lambda tset, dn, basis, coeffs, g0_coeffs: chosen.append(g0_coeffs))
    pairs = 0
    for grid in [*range(2, 71), 128, 256, 512, 1024]:
        ts = transport_set(grid)
        for n in (n for n in range(1, 65) if (2 * grid) % n == 0):
            transport_comparison(ts, n)
            _, coeffs = transport_kolmogorov_upper(ts, n)
            g = transport_g0_reference(ts, coeffs @ ts.cell_basis(n))
            assert np.array_equal(chosen[-1], coeffs[g]), (grid, n)
            pairs += 1
    assert pairs == 475


def test_transport_reference_consistency():
    # the entropy reference is the exact cover radius of the grid + 1 samples,
    # found by the exact search on the grid's dense twin
    for grid in range(2, 19):
        twin = dense_twin(transport_set(grid))
        for n in range(6):
            est = inner_entropy(twin, n)
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
