import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipwidth import (
    DimensionMismatch,
    NormedSpace,
    PointSet,
    diameter,
    lp_space,
    radius_upper,
    step_space,
)
from lipwidth import spaces
from lipwidth.covering import inner_entropy
from lipwidth.spaces import BLOCK_ELEMS, DENSE_LIMIT, NORM_KINDS
from oracles import entropy_search, space_of, unique_positive


def unit_step_vector(space, a):
    """chi_a (indicator of [a, a+1]) on the space's cell grid."""
    edges = np.asarray(space.cell_edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return ((mids >= a) & (mids < a + 1.0)).astype(float)


def test_l2_basis_distance_is_sqrt2():
    sp = lp_space(4, 2)
    e1 = np.array([1.0, 0, 0, 0])
    e2 = np.array([0, 1.0, 0, 0])
    assert sp.norm(e1 - e2) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_distance_identity_is_zero():
    for kind in ("l1", "l2", "linf"):
        sp = NormedSpace(3, kind)
        x = np.array([0.3, -1.2, 4.0])
        assert sp.norm(x - x) == 0.0


def test_step_distance_closed_form():
    sp = step_space(np.linspace(0.0, 2.0, 201))
    for a, b in [(0.0, 0.25), (0.1, 0.9), (0.5, 0.5)]:
        # a, b land on the grid so the indicators are exact
        a = round(a * 100) / 100
        b = round(b * 100) / 100
        d = sp.norm(unit_step_vector(sp, a) - unit_step_vector(sp, b))
        assert d == pytest.approx(2.0 * abs(a - b), abs=1e-12)


def test_step_distance_matches_quadrature():
    # independent oracle: Riemann sum of |chi_a - chi_b| on a 10^4-point grid
    sp = step_space(np.linspace(0.0, 2.0, 2001))
    a, b = 0.2, 0.7315
    a = round(a * 1000) / 1000
    b = round(b * 1000) / 1000
    xs = np.linspace(0.0, 2.0, 10 ** 4, endpoint=False) + 1e-4 / 2
    chi = lambda c: ((xs >= c) & (xs < c + 1.0)).astype(float)
    quadrature = float(np.abs(chi(a) - chi(b)).sum() * (2.0 / 10 ** 4))
    d = sp.norm(unit_step_vector(sp, a) - unit_step_vector(sp, b))
    assert abs(d - quadrature) <= 1e-6


def test_weighted_linf_norm():
    sp = NormedSpace(3, "wlinf", weights=(1.0, 2.0, 0.5))
    assert sp.norm(np.array([1.0, 1.0, 1.0])) == 2.0
    assert sp.norm(np.array([3.0, 0.1, 0.1])) == 3.0


def test_dimension_mismatch_raises():
    sp = lp_space(3, 1)
    with pytest.raises(DimensionMismatch):
        sp.norm(np.ones(4))
    with pytest.raises(DimensionMismatch):
        PointSet(sp, np.ones((2, 4)))


def test_diameter_basis_cloud():
    ps = PointSet(lp_space(5, 2), np.eye(5))
    assert diameter(ps) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_diameter_singleton_zero():
    ps = PointSet(lp_space(2, "inf"), [[0.4, -0.2]])
    assert diameter(ps) == 0.0


def test_diameter_matches_exhaustive_rescan():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-2, 2, size=(20, 3))
    ps = PointSet(lp_space(3, "inf"), pts)
    # oracle: plain double loop, no shared code path
    best = 0.0
    for i in range(20):
        for j in range(20):
            best = max(best, max(abs(pts[i][k] - pts[j][k]) for k in range(3)))
    assert diameter(ps) == pytest.approx(best, rel=1e-14)


def test_radius_symmetric_pair():
    ps = PointSet(lp_space(1, "inf"), [[-1.0], [1.0]])
    rb = radius_upper(ps)
    assert rb.upper == pytest.approx(1.0, abs=1e-12)  # mean candidate is 0
    assert rb.lower == pytest.approx(1.0, abs=1e-12)


def test_radius_basis_cloud_candidates():
    ps = PointSet(lp_space(5, 2), np.eye(5))
    rb = radius_upper(ps)
    # oracle: evaluate both candidate families explicitly
    point_candidate = math.sqrt(2.0)
    mean = np.full(5, 0.2)
    mean_candidate = max(float(np.linalg.norm(np.eye(5)[i] - mean)) for i in range(5))
    assert rb.upper == pytest.approx(min(point_candidate, mean_candidate), rel=1e-12)
    assert rb.upper <= math.sqrt(2.0)
    assert rb.lower == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)


def test_radius_singleton():
    ps = PointSet(lp_space(3, 1), [[1.0, 2.0, 3.0]])
    rb = radius_upper(ps)
    assert rb.upper == 0.0 and rb.lower == 0.0


@pytest.mark.parametrize("kind", ["l1", "l2", "linf"])
def test_radius_bracket_on_random_sets(kind):
    rng = np.random.default_rng(7)
    for _ in range(25):
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(1, 30))
        ps = PointSet(NormedSpace(dim, kind), rng.normal(size=(m, dim)))
        rb = radius_upper(ps)
        d = diameter(ps)
        assert d / 2 - 1e-12 <= rb.upper <= d + 1e-12
        assert rb.lower <= rb.upper + 1e-12


@pytest.mark.parametrize("kind", ["l1", "l2", "linf", "wlinf"])
def test_metric_axioms_exhaustive_triples(kind):
    rng = np.random.default_rng(3)
    dim = 3
    weights = (0.5, 1.0, 2.0) if kind == "wlinf" else None
    sp = NormedSpace(dim, kind, weights=weights)
    pts = rng.uniform(-1, 1, size=(12, dim))
    ps = PointSet(sp, pts)
    m = ps.matrix()
    for i in range(12):
        assert m[i, i] == 0.0
        for j in range(12):
            assert m[i, j] == pytest.approx(m[j, i], rel=1e-14)
            assert m[i, j] >= 0.0
            for k in range(12):
                assert m[i, k] <= m[i, j] + m[j, k] + 1e-12


@given(
    st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    st.floats(-5, 5),
)
@settings(max_examples=200, deadline=None)
def test_absolute_homogeneity(coords, c):
    x = np.asarray(coords)
    for kind in ("l1", "l2", "linf"):
        sp = NormedSpace(4, kind)
        assert sp.norm(c * x) == pytest.approx(abs(c) * sp.norm(x), rel=1e-9, abs=1e-12)


def test_norm_zero_iff_zero_vector():
    for kind in ("l1", "l2", "linf"):
        sp = NormedSpace(3, kind)
        assert sp.norm(np.zeros(3)) == 0.0
        assert sp.norm(np.array([0.0, 1e-9, 0.0])) > 1e-12


def test_pointset_json_roundtrip():
    # a target document through JSON text, as the CLI reads it
    sp = NormedSpace(2, "wlinf", weights=(1.0, 3.0))
    pts = [[0.1, 0.2], [0.3, -0.4]]
    text = json.dumps({"space": {"dim": 2, "norm": {"kind": "wlinf", "weights": [1.0, 3.0]}},
                       "points": pts})
    back = PointSet.from_json(json.loads(text))
    assert back.space == sp
    assert np.array_equal(back.points, pts)


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        PointSet(lp_space(2, 2), np.empty((0, 2)))
    with pytest.raises(ValueError):
        step_space([0.0, 1.0])  # does not span [0, 2]


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_blocked_matrix_matches_one_broadcast(kind, monkeypatch):
    # the matrix is built one coordinate at a time, which equals the broadcast
    # norm bit for bit; at 2**16 elements a block holds 257 rows of 255
    # points, 255 rows of 257 and 109 rows of 600, so blocks end mid-set; a
    # duplicate adds a zero off the diagonal
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", 1 << 16)
    rng = np.random.default_rng(5)
    for dim in range(1, 11):
        space = space_of(kind, dim)
        for size in (1, 255, 257, 600):
            pts = rng.uniform(-1, 1, size=(size, dim))
            pts[size // 2] = pts[0]
            ps = PointSet(space, pts)
            full = np.asarray(space.norm(pts[:, None, :] - pts[None, :, :]))
            assert np.array_equal(ps.dist_rows(0, size), full), (dim, size)
            # and the norm of a batch of pairs, which decides float32 ties
            i, j = np.divmod(np.arange(size * size), size)
            assert np.array_equal(space.norm(pts[i] - pts[j]), full.ravel()), (dim, size)
            # past one block the cache holds the distances rounded to float32
            cache = ps.matrix()
            assert cache.dtype == (np.float64 if size <= 256 else np.float32), (dim, size)
            assert np.array_equal(cache, full.astype(cache.dtype)), (dim, size)
            vals = np.unique(full[np.tri(size, k=-1, dtype=bool)])
            assert np.array_equal(ps.distinct_distances(), vals[vals > 0.0]), (dim, size)


@pytest.mark.parametrize("dim", [1, 3, 9])
def test_rows_above_dense_limit_match_norm(dim):
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-1, 1, size=(DENSE_LIMIT + 4, dim))
    for kind in NORM_KINDS:
        ps = PointSet(space_of(kind, dim), pts)
        for i in (0, 1, 2000, ps.size - 1):
            assert np.array_equal(ps.dist_row(i), ps.space.norm(pts - pts[i])), (kind, i)
        block = ps.dist_rows(10, 13)
        assert np.array_equal(block, np.stack([ps.dist_row(i) for i in range(10, 13)]))
        assert ps._cache is None


def test_dist_rows_slice_a_float64_cache_and_compute_past_it():
    # one block holds 40 x 40 distances: the cache is exact and dist_rows
    # slices it; 300 points cache float32, and dist_rows computes float64
    rng = np.random.default_rng(0)
    small = PointSet(NormedSpace(2, "l2"), rng.uniform(size=(40, 2)))
    block = small.dist_rows(5, 9)
    assert np.shares_memory(block, small.matrix()) and small.matrix().dtype == np.float64
    big = PointSet(NormedSpace(2, "l2"), rng.uniform(size=(300, 2)))
    block = big.dist_rows(5, 9)
    assert block.dtype == np.float64 and not np.shares_memory(block, big.matrix())
    assert np.array_equal(block, np.stack([big.space.norm(big.points - big.points[i])
                                           for i in range(5, 9)]))
    assert np.array_equal(big.matrix()[5:9], block.astype(np.float32))


@pytest.mark.parametrize("block_elems", [8, 64, 1000])
def test_distinct_distances_equal_unique_across_block_edges(block_elems, monkeypatch):
    # the in-place radii equal np.unique of the triangle without zeros, bit for
    # bit, with blocks of 1, 8 and 125 values: runs of equal grid distances
    # and of zeros from repeated points cross the block edges
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(block_elems)
    sets = []
    for kind in ("l1", "linf"):
        for size in (30, 101, 257):
            sets.append(PointSet(NormedSpace(2, kind), rng.integers(0, 5, (size, 2))))
    pts = rng.uniform(-1, 1, size=(257, 3))
    pts[128] = pts[0]
    sets.append(PointSet(NormedSpace(3, "l2"), pts))
    sets.append(PointSet(lp_space(2, 2), np.repeat(rng.uniform(-1, 1, (3, 2)), 8, axis=0)))
    for ps in sets:
        ref = unique_positive(ps)
        assert ps.distinct_distances().tobytes() == ref.tobytes(), (ps.space.kind, ps.size)
    grid = sets[2]  # 257 points in l1 take 9 distances
    runs = np.unique(grid.dist_rows(0, grid.size)[np.tri(grid.size, k=-1, dtype=bool)],
                     return_counts=True)[1]
    assert runs.min() > max(1, block_elems // 8)


def test_distinct_distances_of_equal_points_are_empty(monkeypatch):
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", 64)
    ps = PointSet(lp_space(2, 1), np.ones((40, 2)))
    assert ps.distinct_distances().size == 0
    est = inner_entropy(ps, 2)  # one traversal center covers the set at 0
    assert (est.lower, est.upper, est.exact) == (0.0, 0.0, True)
    assert est.upper_witness == {"kind": "farthest-first-cover", "eps": 0.0, "size": 1,
                                 "centers": [0]}


def test_inner_entropy_matches_concatenated_radii_oracle():
    rng = np.random.default_rng(21)
    for trial in range(8):
        size = int(rng.integers(21, 601))
        kind = ("l1", "l2", "linf")[trial % 3]
        pts = rng.uniform(-1, 1, size=(size, 2))
        if trial % 2:
            pts = np.round(pts * 4)  # a grid with many equal distances
        ps = PointSet(NormedSpace(2, kind), pts)
        for n in range(6):
            if 1 << n >= size:
                continue
            est = inner_entropy(ps, n)
            got = (est.lower, est.upper, est.upper_witness["centers"], est.lower_witness)
            assert got == entropy_search(ps, n), (trial, size, kind, n)
            assert est.upper_witness["eps"] == est.upper


def test_radii_and_entropy_search_hold_one_triangle():
    # past the matrix, the radii and both searches of every n hold one sorted
    # triangle plus a dedupe block and the lower-bound scan's boolean blocks
    m = 2048
    ps = PointSet(lp_space(3, 2), np.random.default_rng(11).uniform(-1, 1, size=(m, 3)))
    ps.matrix()
    tracemalloc.start()
    try:
        ps.distinct_distances()
        for n in (3, 6):
            inner_entropy(ps, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    triangle = m * (m - 1) // 2 * 8
    assert peak < 1.25 * triangle + 2 * BLOCK_ELEMS, peak / triangle
