import math

import numpy as np
import pytest

from lipwidth import (
    AffineBallMap,
    NormedSpace,
    PointSet,
    WidthCertificate,
    build_entropy_map,
    carl_transfer_check,
    fixed_width_upper,
    inner_entropy,
    kolmogorov_comparison,
    kolmogorov_upper,
    lp_space,
    radius_upper,
    width_lower_certified,
    width_upper_from_entropy,
)
from lipwidth.case_studies import (
    SequenceSetSpec,
    UniformBasisSet,
    diagonal_reference_upper,
    diagonal_set,
    sequence_set,
    cross_polytope_width,
    octahedron_set,
)
from lipwidth.spaces import DENSE_LIMIT, PreconditionError
from lipwidth import widths
from lipwidth.widths import best_coordinate_subspace, default_eps_grid
from oracles import sequence_dense_points


@pytest.mark.parametrize("gamma", [0.01, 0.05, 0.2, 1.0])
def test_width_lower_stays_below_the_constant_map(gamma):
    # the constant map onto the radius center is 0-Lipschitz, hence
    # gamma-Lipschitz, so its error bounds d_n^gamma above; radii eps > gamma
    # must still count more than the one ball that covers its image
    ps = PointSet(lp_space(2, 2), np.random.default_rng(3).uniform(-1, 1, size=(18, 2)))
    center = radius_upper(ps).center_point
    for n in (1, 2):
        const = fixed_width_upper(ps, AffineBallMap(center, 0.0, np.eye(2)[:n], ps.space),
                                  np.zeros((ps.size, n)))
        assert const.gamma == 0.0
        assert width_lower_certified(ps, n, gamma).value <= const.value


@pytest.mark.parametrize("value", [math.nan, math.inf, -1e-12])
def test_width_certificate_refuses_non_finite_or_negative_values(value):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        WidthCertificate("kolmogorov_width", 1, None, value, "upper")


def test_fixed_width_zero_on_own_covering():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(16, 2))
    ps = PointSet(lp_space(2, 2), pts)
    emap = build_entropy_map(pts, 2, 2, ps.space)
    cert = fixed_width_upper(ps, emap, emap.centers)
    assert cert.value == 0.0


def test_fixed_width_constant_map_radius_band():
    rng = np.random.default_rng(2)
    ps = PointSet(lp_space(3, 2), rng.normal(size=(20, 3)))
    rb = radius_upper(ps)
    center = rb.center_point
    const = AffineBallMap(center, 0.0, np.eye(3)[:2], ps.space)  # the constant map onto center
    cert = fixed_width_upper(ps, const, np.zeros((20, 2)))
    assert rb.lower - 1e-12 <= cert.value <= rb.upper + 1e-12


def test_fixed_width_candidate_outside_ball():
    ps = PointSet(lp_space(2, 2), [[0.0, 0.0]])
    m = AffineBallMap(np.zeros(2), 0.0, np.eye(2), ps.space)
    with pytest.raises(PreconditionError):
        fixed_width_upper(ps, m, [[2.0, 0.0]])


def test_width_upper_from_entropy_singleton():
    # one point, and five copies of it: more than 2**(k n) for (1, 1)
    for m in (1, 5):
        ps = PointSet(lp_space(2, 2), [[0.4, -0.3]] * m)
        for k, n in ((1, 1), (2, 3)):
            cert = width_upper_from_entropy(ps, k, n)
            assert cert.value == 0.0


def test_width_upper_from_entropy_pipeline():
    rng = np.random.default_rng(3)
    ps = PointSet(lp_space(2, 2), rng.uniform(-1, 1, size=(40, 2)))
    cert = width_upper_from_entropy(ps, 1, 3)
    ent = inner_entropy(ps, 3)
    assert cert.value == ent.upper
    assert cert.witness["realized_error"] <= ent.upper * (1 + 1e-9)
    assert cert.gamma == pytest.approx(2.0 * radius_upper(ps).upper)
    assert cert.witness["declared_constant"] <= cert.gamma * (1 + 1e-9)


def test_width_upper_above_dense_limit_maps_onto_the_traversal_cover():
    ps = PointSet(lp_space(2, 2),
                  np.random.default_rng(4).uniform(-1, 1, size=(DENSE_LIMIT + 1, 2)))
    cert = width_upper_from_entropy(ps, k=1, n=2)
    ent = inner_entropy(ps, 2)
    assert ent.upper_witness["kind"] == "farthest-first-cover"
    assert cert.value == ent.upper
    assert cert.witness["realized_error"] <= cert.value
    assert ps._cache is None


def test_width_upper_monotone_in_n_and_k():
    rng = np.random.default_rng(8)
    ps = PointSet(lp_space(2, "inf"), rng.uniform(-1, 1, size=(50, 2)))
    vals_n = [width_upper_from_entropy(ps, 1, n).value for n in (1, 2, 3, 4)]
    for a, b in zip(vals_n, vals_n[1:]):
        assert b <= a + 1e-9
    # larger k means larger gamma and an entropy index that only grows
    v1 = width_upper_from_entropy(ps, 1, 2)
    v2 = width_upper_from_entropy(ps, 2, 2)
    assert v2.gamma >= v1.gamma
    assert v2.value <= v1.value + 1e-9


def test_width_lower_vacuous_for_huge_gamma():
    ps = PointSet(lp_space(2, 2), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cert = width_lower_certified(ps, 1, 1e6)
    assert cert.value == 0.0


def test_width_lower_sound_below_upper():
    # lower certificates never cross upper certificates at matching (n, gamma)
    rng = np.random.default_rng(5)
    for t in range(100):
        dim = int(rng.integers(1, 4))
        m = int(rng.integers(5, 40))
        kind = ("l1", "l2", "linf")[t % 3]
        ps = PointSet(NormedSpace(dim, kind), rng.uniform(-1, 1, size=(m, dim)))
        up = width_upper_from_entropy(ps, 1, 2)
        lo = width_lower_certified(ps, 2, up.gamma)
        assert lo.value <= up.value + 1e-9


def test_width_lower_closed_form_counts_log_sequence():
    # the set's generator counts of the untruncated set clear the
    # (3 gamma/eps)^n threshold
    sset = sequence_set(SequenceSetSpec(generator="log", truncation=2 ** 14))
    cert = width_lower_certified(sset, 4, 3.0)
    assert cert.witness["count_source"] == "closed-form"
    assert cert.value > 0.0
    # soundness: the closed-form count at the chosen eps clears the threshold
    w = cert.witness
    assert w["count_log2"] > w["threshold_log2"]
    # materialised packings of a dense copy of a truncation, which has no
    # closed form, never can
    dense = PointSet(NormedSpace(63, "linf"), sequence_dense_points(
        sequence_set(SequenceSetSpec(generator="log", truncation=63))))
    cert_mat = width_lower_certified(dense, 4, 3.0)
    assert cert_mat.witness["count_source"] == "none-qualified"
    assert cert_mat.value == 0.0


def test_width_lower_basis_cloud_positive():
    cloud = UniformBasisSet(2 ** 14 + 1)
    gamma = 2.0 * math.sqrt(2.0)
    cert = width_lower_certified(cloud, 2, gamma)
    # the qualifying radii stop just below sqrt(2)/4 (packing collapses there)
    assert 0.3 <= cert.value < math.sqrt(2.0) / 4.0 + 1e-9


def test_default_eps_grid_span():
    grid = default_eps_grid(2.0)
    assert len(grid) == 64
    assert grid[0] == pytest.approx(2.0 / 2 ** 16)
    assert grid[-1] == pytest.approx(2.0)


def test_kolmogorov_diagonal_reference():
    dset = diagonal_set(40)
    for n in (2, 5, 9):
        cert, basis, coeffs = kolmogorov_upper(dset, range(n))
        assert cert.value == pytest.approx(diagonal_reference_upper(n), rel=1e-12)
        comp = kolmogorov_comparison(dset, cert, basis, coeffs)
        assert comp.value <= cert.value + 1e-9
        assert comp.gamma == pytest.approx(cert.value + radius_upper(dset).upper)


def test_kolmogorov_zero_inside_subspace():
    pts = np.zeros((4, 5))
    pts[:, 0] = [0.1, -0.5, 0.9, 0.3]
    pts[:, 1] = [1.0, 0.0, -0.2, 0.4]
    ps = PointSet(lp_space(5, 2), pts)
    cert, basis, coeffs = kolmogorov_upper(ps, [0, 1])
    assert cert.value <= 1e-12
    comp = kolmogorov_comparison(ps, cert, basis, coeffs)
    assert comp.value <= 1e-9


def test_coordinate_residuals_are_distances_to_the_projection():
    # the residual against an orthonormal basis of the axes from QR, and the
    # duplicate or negative axes kolmogorov_upper folds into distinct ones
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 6))
    for axes in ([], [2], [4, 0, 5], [1, 1, -1]):
        q, r = np.linalg.qr(np.eye(6)[axes].T.reshape(6, -1))
        q = q.T[np.abs(np.diag(r)) > 1e-12]
        want = np.linalg.norm(pts - (pts @ q.T) @ q, axis=1)
        assert np.allclose(widths.coordinate_residuals(pts, axes), want, rtol=0, atol=1e-12)
    cert, basis, coeffs = kolmogorov_upper(PointSet(lp_space(6, 2), pts), [1, 1, -1])
    assert cert.n == 2 and cert.witness["axes"] == [1, 1, -1]
    assert np.array_equal(basis, np.eye(6)[[1, 5]]) and np.array_equal(coeffs, pts[:, [1, 5]])
    assert cert.value == widths.coordinate_residuals(pts, [1, 5]).max()


def test_kolmogorov_requires_l2():
    ps = PointSet(lp_space(3, 1), np.eye(3))
    with pytest.raises(PreconditionError):
        kolmogorov_upper(ps, [0])


def test_octahedron_coordinate_subspace_above_closed_form():
    for n in (1, 2, 4):
        oset = octahedron_set(n)
        cert, axes = best_coordinate_subspace(oset, n)
        assert cert.value >= cross_polytope_width(n) * (1 - 1e-12)
        # with n of 2n axes kept, the residual is exactly the scale
        assert cert.value == pytest.approx(1.0 / math.sqrt(math.log2(2 * n + 1)), rel=1e-12)


from lipwidth.case_studies import log_sequence_entropy_lower as log_entropy_lower


def test_carl_transfer_consistent_bound_passes():
    rep = carl_transfer_check(6, 3.0, 1.0 / (6 * math.log2(7)), log_entropy_lower)
    assert not rep.contradiction
    assert rep.margin > 0


def test_carl_transfer_flags_fabricated_bound():
    rep = carl_transfer_check(6, 3.0, 1e-9, log_entropy_lower)
    assert rep.contradiction


def test_carl_transfer_clamps_the_index_at_zero():
    # a claim above 3 gamma bounds the count by 1: the envelope is read at
    # index 0 (sigma_1 / 2 = 1/2), never below it
    assert log_entropy_lower(0) == 0.5
    rep = carl_transfer_check(1, 0.01, 1.0, log_entropy_lower)
    assert rep.entropy_index == 0 and not rep.contradiction
    assert (rep.implied_entropy_upper, rep.entropy_lower_at_index) == (2.0, 0.5)
    with pytest.raises(PreconditionError):
        log_entropy_lower(-1)


def test_carl_transfer_geometric_gamma_schedule():
    # width bound at gamma_n = C' n^delta lambda^n lands the entropy index
    # near c*n^2, and the log-sequence envelope stays consistent
    n, W, d = 32, 2, 1
    gamma_n = (2 * d + 4) * n * W ** n
    delta_claim = 1.0 / n ** 2
    rep = carl_transfer_check(n, float(gamma_n), delta_claim, log_entropy_lower)
    assert not rep.contradiction
    assert n ** 2 <= rep.entropy_index <= 3 * n ** 2
