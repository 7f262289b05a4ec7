from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipwidth import (
    AffineBallMap,
    BoundViolation,
    PiecewiseLinearPath,
    SequenceBumpSum,
    allocate_dyadic_cubes,
    build_entropy_map,
    build_path_map,
    build_sequence_bump_map,
    lp_space,
)
from lipwidth.lipmaps import bump_levels, grid_centers
from lipwidth.spaces import PreconditionError
from oracles import (audit_cells_python, bump_levels_reference, cube_levels,
                     empirical_lipschitz, greedy_cells, level_runs, sample_domain,
                     sequence_images, zorder_cells)

L2 = lp_space(3, 2)


def two_bump_map():
    # the 16 cubes of side 1/2 tiling [-1, 1]^2 (k = 2): cube 5, centred at
    # (-0.25, -0.25), and cube 15, centred at (0.75, 0.75), carry payloads;
    # the other 14 carry zero
    payloads = np.zeros((16, 3))
    payloads[5] = [1.0, 0.0, 0.0]
    payloads[15] = [0.0, 2.0, 0.0]
    return build_entropy_map(payloads, 2, 2, L2)


def constant_map(value, domain_dim):
    """The constant map onto ``value``: an affine ball map at gamma = 0."""
    value = np.asarray(value, dtype=float)
    return AffineBallMap(value, 0.0, np.eye(len(value))[:domain_dim], lp_space(len(value), 2))


def test_bump_value_at_center_is_exact_payload():
    m = two_bump_map()
    out = m.evaluate(np.array([-0.25, -0.25]))
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0]))  # bit exact


def test_bump_zero_outside_all_balls():
    m = two_bump_map()
    assert np.all(m.evaluate(np.array([0.0, 0.9])) == 0.0)  # inside a zero cube
    assert np.all(m.evaluate(np.array([-0.5, -0.25])) == 0.0)  # on cube 5's boundary


def test_declared_constants():
    assert constant_map(np.zeros(3), 2).declared_lipschitz() == 0.0
    m = build_entropy_map([[1.0], [2.0]], 1, 1, lp_space(1, 2))
    assert m.declared_lipschitz() == 4.0  # max(1/0.5, 2/0.5)
    assert two_bump_map().declared_lipschitz() == 8.0  # 2/0.25


def test_path_midpoint_interpolation():
    f1, f2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0])
    path = PiecewiseLinearPath([-1.0, 1.0], [f1, f2], L2)
    assert np.allclose(path.evaluate(np.array([0.0])), 0.5 * (f1 + f2))


def test_path_declared_constant_two_points():
    f1, f2 = np.zeros(3), np.array([3.0, 0.0, 0.0])
    path = build_path_map([f1, f2], L2)
    assert path.declared_lipschitz() == pytest.approx(1.5)  # d/2 with d = 3


def test_path_declared_constant_three_collinear():
    pts = [np.array([float(i), 0.0, 0.0]) for i in range(3)]
    path = build_path_map(pts, L2)
    # knots at -1, 0, 1: slope 1 per segment
    assert path.declared_lipschitz() == pytest.approx(1.0)
    assert path.declared_lipschitz() <= 2.0 * (3 - 1) / 2.0 + 1e-12  # diam (N-1)/2


def test_path_covers_within_delta():
    rng = np.random.default_rng(4)
    cloud = rng.normal(size=(30, 3))
    ps_pts = cloud
    # pick 5 covering points and measure the covering radius delta
    centers = ps_pts[[0, 6, 12, 18, 24]]
    delta = max(min(np.linalg.norm(p - c) for c in centers) for p in ps_pts)
    path = build_path_map(centers, L2)
    worst = 0.0
    for p in ps_pts:
        best = min(np.linalg.norm(p - path.evaluate(np.array([t]))) for t in path.knots)
        worst = max(worst, best)
    assert worst <= delta + 1e-12


def test_empirical_below_declared_constant_map():
    m = constant_map([1.0, 2.0, 3.0], 2)
    assert empirical_lipschitz(m, seed=1, pairs=500) == 0.0


def test_empirical_single_bump_approaches_one():
    # one bump of height 1/2 on [-1, 0], none on [0, 1]: slope 1
    m = build_entropy_map([[0.5], [0.0]], 1, 1, lp_space(1, 2))
    assert m.declared_lipschitz() == 1.0
    emp = empirical_lipschitz(m, seed=123, pairs=10 ** 4)
    assert 0.9 <= emp <= 1.0 + 1e-9


def test_empirical_deterministic_in_seed():
    m = two_bump_map()
    a = empirical_lipschitz(m, seed=9, pairs=3000)
    b = empirical_lipschitz(m, seed=9, pairs=3000)
    assert a == b


def test_bump_four_case_stratification():
    # same cube / both in zero cubes / loaded cube to zero cube / two loaded cubes
    m = two_bump_map()
    lam = m.declared_lipschitz()
    rng = np.random.default_rng(77)
    pts = rng.uniform(-1, 1, size=(4000, 2))
    cube = m.grid_cell(pts)
    in0, in1 = cube == 5, cube == 15
    zero = ~in0 & ~in1
    cases = {
        "same-cube": (in0, in0),
        "zero-cube": (zero, zero),
        "cube-to-zero": (in0, zero),
        "cube-to-cube": (in0, in1),
    }
    for name, (sel_a, sel_b) in cases.items():
        a = pts[sel_a][:50]
        b = pts[sel_b][:50]
        take = min(len(a), len(b))
        assert take > 0, name
        img_a = m.evaluate_batch(a[:take])
        img_b = m.evaluate_batch(b[:take])
        num = np.linalg.norm(img_a - img_b, axis=1)
        den = np.abs(a[:take] - b[:take]).max(axis=1)
        ok = den > 0
        assert np.all(num[ok] <= lam * den[ok] * (1 + 1e-9)), name


def test_entropy_map_grid_k1_n1():
    targets = np.array([[2.0], [4.0]])
    m = build_entropy_map(targets, 1, 1, lp_space(1, 2))
    assert np.allclose(m.centers, [[-0.5], [0.5]])
    assert m.radius == 0.5
    assert np.array_equal(m.evaluate(np.array([-0.5])), targets[0])
    assert np.array_equal(m.evaluate(np.array([0.5])), targets[1])


def test_entropy_map_grid_k1_n2():
    targets = np.arange(8.0).reshape(4, 2)
    m = build_entropy_map(targets, 1, 2, lp_space(2, 2))
    got = {tuple(c) for c in m.centers}
    want = {(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)}
    assert got == want
    for c, t in zip(m.centers, targets):
        assert np.array_equal(m.evaluate(c), t)


def test_entropy_map_reproduces_own_points_exactly():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(16, 2))
    m = build_entropy_map(pts, 2, 2, lp_space(2, 2))
    worst = 0.0
    for j, p in enumerate(pts):
        out = m.evaluate(m.centers[j])
        worst = max(worst, float(np.abs(out - p).max()))
    assert worst == 0.0


def test_entropy_map_wrong_count_and_guard():
    with pytest.raises(PreconditionError):
        build_entropy_map(np.zeros((3, 1)), 1, 1, lp_space(1, 2))
    with pytest.raises(PreconditionError):
        build_entropy_map(np.zeros((2, 1)), 25, 1, lp_space(1, 2))


def test_grid_cell_matches_center_order():
    m = build_entropy_map(np.arange(16.0).reshape(16, 1), 2, 2, lp_space(1, 2))
    flats = m.grid_cell(m.centers)
    assert np.array_equal(flats, np.arange(16))
    assert np.array_equal(grid_centers(2, 2), m.centers)


def check_kraft(dim, levels) -> bool:
    """Whether ``allocate_dyadic_cubes`` accepts the per-cube levels as their
    runs, asserting that it does exactly when their Kraft sum, sum 2**(-dim*l)
    in exact fractions, is at most 2**dim, and that an accepted list's Z-order
    cells pass the exact audit and are the greedy allocator's."""
    fits = sum(Fraction(1, 1 << (dim * l)) for l in levels) <= 2 ** dim
    try:
        alloc = allocate_dyadic_cubes(dim, *level_runs(levels))
    except PreconditionError as err:
        assert not fits and "volume" in str(err)
        return False
    assert fits and alloc.count == len(levels)
    cells = zorder_cells(alloc)
    assert audit_cells_python(levels, cells)
    assert np.array_equal(cells, greedy_cells(dim, levels))
    return True


def test_allocate_line_tiling():
    assert check_kraft(1, [1, 1, 1, 1])
    corners = -1.0 + 0.5 * zorder_cells(allocate_dyadic_cubes(1, [1], [4]))
    assert corners[:, 0].tolist() == [-1.0, -0.5, 0.0, 0.5]


def test_allocate_mixed_levels_disjoint():
    assert allocate_dyadic_cubes(2, [0, 1], [1, 4]).count == 5
    assert check_kraft(2, [0, 1, 1, 1, 1])


def test_allocate_volume_violation_message():
    with pytest.raises(PreconditionError) as err:
        allocate_dyadic_cubes(1, [0], [5])  # five unit cubes exceed length 2
    assert "volume" in str(err.value)


def test_allocate_levels_must_ascend():
    for levels, counts in (([2, 1], [1, 1]), ([1, 1], [1, 1])):
        with pytest.raises(PreconditionError, match="ascending"):
            allocate_dyadic_cubes(1, levels, counts)
    for counts in ([1, 0], [2, -1]):
        with pytest.raises(PreconditionError, match="counts must be positive"):
            allocate_dyadic_cubes(1, [1, 2], counts)
    with pytest.raises(PreconditionError, match="integers"):
        allocate_dyadic_cubes(1, [1, 2], [1.5, 1])
    with pytest.raises(PreconditionError, match="one count per level"):
        allocate_dyadic_cubes(1, [1, 2], [1])


def test_allocate_runs_too_long_to_place():
    # 2**62 level-30 cubes fill [-1, 1]^2 exactly, one more does not fit; no
    # cube is made
    assert allocate_dyadic_cubes(2, [30], [1 << 62]).count == 1 << 62
    with pytest.raises(PreconditionError, match="volume"):
        allocate_dyadic_cubes(2, [30], [(1 << 62) + 1])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_allocate_random_levels_audit(seed):
    # random ascending levels in dims 1-3, accepted or refused by their Kraft
    # sum; an accepted list packed full with its smallest cube is accepted,
    # and one more such cube is refused
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    levels = np.sort(rng.integers(0, 4, size=int(rng.integers(1, 12)))).tolist()
    if check_kraft(dim, levels):
        top = levels[-1]
        room = (2 ** dim - sum(Fraction(1, 1 << (dim * l)) for l in levels)) * (1 << (dim * top))
        packed = levels + [top] * int(room)
        assert check_kraft(dim, packed) and not check_kraft(dim, packed + [top])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_allocate_fully_packed(dim):
    # 2^dim - 1 cubes at levels 0 and 1, then 2^dim at level 2, fill
    # [-1, 1]^dim exactly
    per = 2 ** dim
    levels = [0] * (per - 1) + [1] * (per - 1) + [2] * per
    assert check_kraft(dim, levels)
    assert not check_kraft(dim, levels + [2])


def test_allocate_codes_wider_than_63_bits():
    # log-decay levels reach level 4 in dim 13: Morton codes of 13 * 5 = 65 bits
    j = np.arange(1, 2001, dtype=float)
    levels = np.repeat(*bump_levels(1.0 / np.log2(j + 1.0), 3.0)).tolist()
    assert 13 * (max(levels) + 1) > 63
    assert check_kraft(13, levels)
    # 2^13 unit cubes fill [-1, 1]^13; one level-4 cube more takes offset 2^65 + 1
    assert not check_kraft(13, [0] * (1 << 13) + [4])


def test_allocate_refuses_non_integer_levels():
    with pytest.raises(PreconditionError, match="integers"):
        allocate_dyadic_cubes(1, [1.7, 1.2], [1, 1])
    with pytest.raises(PreconditionError, match="integers"):
        allocate_dyadic_cubes(2, np.array([0.0, np.nan]), [1, 1])
    # integral floats are levels and counts
    assert np.array_equal(zorder_cells(allocate_dyadic_cubes(1, [1.0], [2.0])), [[0], [1]])


BAD_ALLOCATIONS = {  # (levels, cells) in dim 2
    "duplicate-cell": ([1, 2, 2], [[0, 1], [6, 6], [6, 6]]),
    # level-2 cell (1, 1) lies in the level-0 cube (0, 0), [-1, 0]^2
    "nested-cube": ([0, 1, 2], [[0, 0], [2, 3], [1, 1]]),
    "outside-grid": ([1, 2], [[0, 0], [8, 0]]),  # the level-2 grid is 0..7
    "negative-cell": ([1, 1], [[0, 0], [-1, 2]]),
}


@pytest.mark.parametrize("case", list(BAD_ALLOCATIONS))
def test_audit_rejects_bad_allocation(case):
    # the exact audit the Kraft lemma is checked with refuses each fault
    assert not audit_cells_python(*BAD_ALLOCATIONS[case])


def test_bump_levels_bracket():
    # exact powers of two, their float neighbours on either side, and x = 1,
    # in nonincreasing order
    pows = 2.0 ** -np.arange(1, 80, dtype=float)
    edges = np.concatenate([pows, np.nextafter(pows, 0.0), np.nextafter(pows, 1.0),
                            [1.0, np.nextafter(1.0, 0.0)]])
    sig = np.sort(np.concatenate([[0.5, 0.25, 0.2, 0.125], edges]))[::-1]
    lev = np.repeat(*bump_levels(sig, 2.0))
    x = 2.0 * sig / 2.0
    for l, xi in zip(lev, x):
        assert 2.0 ** (-l - 1) < xi <= 2.0 ** (-l)


def assert_runs_are_the_per_bump_rule(sig, gamma):
    """``bump_levels``' runs are those of the per-bump rule, and the declared
    constant from the runs' first bumps is the dense max_j sigma_j / r_j."""
    want = bump_levels_reference(sig, gamma)
    levels, counts = bump_levels(sig, gamma)
    assert [levels.tolist(), counts.tolist()] == [a.tolist() for a in
                                                   np.unique(want, return_counts=True)]
    bmap = SequenceBumpSum(allocate_dyadic_cubes(64, levels, counts), sig)
    radii = 0.5 * 2.0 ** -want.astype(float)
    assert bmap.declared_lipschitz() == float((sig / radii).max())


def edge_amplitudes(gamma, ls):
    """Amplitudes whose x = 2 sigma / gamma is 2**-l exactly, one float either
    side of it, 1, and just above 1/2."""
    pows = gamma / 2.0 * 2.0 ** -np.asarray(ls, dtype=float)
    return np.concatenate([pows, np.nextafter(pows, 0.0),
                           np.minimum(np.nextafter(pows, np.inf), gamma / 2.0),
                           [gamma / 2.0, np.nextafter(gamma / 4.0, np.inf)]])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_run_search_matches_the_per_bump_rule(seed):
    # random nonincreasing amplitudes: smooth decay, ties, and the edges
    rng = np.random.default_rng(seed)
    gamma = float(rng.choice([2.0, 2.5, 3.0, 4.0, 7.3]))
    pool = np.concatenate([
        gamma / 2.0 * rng.uniform(0.0, 1.0, 200) ** rng.uniform(1.0, 40.0),
        edge_amplitudes(gamma, rng.integers(0, 60, 8)),
    ])
    pool = pool[pool > 0]
    sig = np.sort(rng.choice(pool, int(rng.integers(1, 400))))[::-1]  # with ties
    assert_runs_are_the_per_bump_rule(sig, gamma)


@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_run_search_edge_arrays(gamma):
    edges = edge_amplitudes(gamma, range(0, 70))
    for sig in (np.sort(edges)[::-1], edges[:1], np.full(7, edges[5]), [gamma / 2.0] * 3,
                [np.nextafter(gamma / 4.0, np.inf)]):
        assert_runs_are_the_per_bump_rule(np.asarray(sig), gamma)
    assert [a.tolist() for a in bump_levels([0.25], 2.0)] == [[2], [1]]
    # 2 sigma / gamma rounding to 0 has no level the search could find
    with pytest.raises(PreconditionError, match="underflows"):
        bump_levels([0.5, 5e-324], 10.0)


def cube_centers(alloc):
    return -1.0 + (zorder_cells(alloc) + 0.5) * 2.0 ** -cube_levels(alloc)[:, None].astype(float)


def test_sequence_bump_map_geometric():
    sig = np.array([0.5, 0.25, 0.125])
    m = build_sequence_bump_map(sig, 2.0, 1)
    assert m.declared_lipschitz() == 2.0
    # hits sigma_j e_j at each cube center
    assert np.array_equal(sequence_images(m, cube_centers(m.alloc)), np.diag(sig))
    assert empirical_lipschitz(m, seed=5, pairs=4000) <= 2.0 + 1e-9


@pytest.mark.parametrize("kind", ["sequence", "bump"])
def test_falsifier_catches_a_declared_constant_scaled_by_0_9(kind):
    # 1-d maps whose slope equals their declared constant on a whole cube
    m = (build_sequence_bump_map(np.array([0.5, 0.25, 0.125]), 2.0, 1) if kind == "sequence"
         else build_entropy_map([[0.5], [0.0]], 1, 1, lp_space(1, 2)))
    declared = m.declared_lipschitz()
    assert empirical_lipschitz(m, seed=5, pairs=4000) == pytest.approx(declared, rel=1e-9)
    m.declared_lipschitz = lambda: 0.9 * declared
    with pytest.raises(BoundViolation):
        empirical_lipschitz(m, seed=5, pairs=4000)


def test_sequence_bump_map_violating_volume():
    with pytest.raises(PreconditionError, match="volume"):
        build_sequence_bump_map(np.array([1.0, 1.0 - 1e-9, 1.0 - 2e-9]), 2.0, 1)


def test_log_decay_levels_allocate_in_dim_6():
    # log-decay amplitudes at gamma = 3: volume condition first, then the
    # greedy dyadic allocation must succeed and stay disjoint
    j = np.arange(1, 1001, dtype=float)
    sig = 1.0 / np.log2(j + 1.0)
    assert float(np.sum(sig ** 6)) <= (3.0 / 2.0) ** 6
    alloc = allocate_dyadic_cubes(6, *bump_levels(sig, 3.0))
    assert alloc.count == 1000
    assert audit_cells_python(cube_levels(alloc), zorder_cells(alloc))


def test_affine_ball_map_exact_gamma():
    basis = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 2)))[0].T
    m = AffineBallMap(np.zeros(3), 2.5, basis, L2)
    assert m.declared_lipschitz() == 2.5
    emp = empirical_lipschitz(m, seed=3, pairs=2000)
    assert emp == pytest.approx(2.5, rel=1e-9)


def test_empirical_raises_on_false_declaration():
    class Lying(AffineBallMap):
        def evaluate_batch(self, ys):
            return np.asarray(ys, dtype=float) @ np.ones((self.domain_dim, 3))

        def declared_lipschitz(self):
            return 1e-6

    m = Lying(np.zeros(3), 0.0, np.eye(3)[:2], L2)
    with pytest.raises(BoundViolation):
        empirical_lipschitz(m, seed=0, pairs=200)


def _variants():
    basis = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 2)))[0].T
    return {
        "bump-sum": two_bump_map(),
        "path": build_path_map([np.zeros(3), np.ones(3), -np.ones(3)], L2),
        "affine-ball": AffineBallMap(np.ones(3), 1.5, basis, lp_space(3, 1)),
    }


@pytest.mark.parametrize("variant", list(_variants()))
def test_map_base_contract(variant):
    m = _variants()[variant]
    ys = sample_domain(m, np.random.default_rng(11), 64)
    assert ys.shape == (64, m.domain_dim)
    assert np.all(m.domain_norm_batch(ys) <= 1.0 + 1e-12)
    for y in ys[:16]:
        assert np.array_equal(m.evaluate(y), m.evaluate_batch(y[None])[0])
    dist = m.target_space.norm(m.evaluate_batch(ys) - np.stack([m.evaluate(y) for y in ys]))
    assert np.all(dist <= 1e-12)
