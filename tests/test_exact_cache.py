"""A float32 distance cache decides every comparison as float64 distances do.

Clouds of more than 256 points cache their distances rounded to float32; an
entry equal to the rounded radius is decided by the sorted radii or by its
distance recomputed in float64.  Each scan and the entropy search must then give
what they give on the same cloud handed its float64 matrix
(``oracles.float64_reference``), witnesses included, at radii that are
distances and at their float64 neighbours.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipwidth import NormedSpace, PointSet, spaces
from lipwidth.covering import (
    PACK_SLACK,
    PackingResult,
    ball_disjoint,
    covering_lower_bound,
    greedy_packing,
    inner_entropy,
    minimal_inner_covering,
    packing_is_maximal,
    sandwich_audit,
)
from lipwidth.spaces import NORM_KINDS
from oracles import float64_reference, space_of


def assert_agrees(ps, n, pairs):
    """Entropy brackets and the scans at the distances of ``pairs`` and their
    float64 neighbours agree on ``ps`` and on its float64 reference.  The
    scans run once with the sorted radii known (after the entropy search)
    and once on a fresh copy of the cloud, without them."""
    ref = float64_reference(ps)
    assert ps.size > 256 and ps.matrix().dtype == np.float32
    assert ref.matrix().dtype == np.float64
    assert ps.distinct_distances().tobytes() == ref.distinct_distances().tobytes()
    assert np.array_equal(ps.row_maxima(), ref.row_maxima())
    assert inner_entropy(ps, n).to_json() == inner_entropy(ref, n).to_json()
    exact = ps.dist_rows(0, ps.size)
    radii = set()
    for i, j in pairs:
        d = exact[i, j]
        radii |= {d, np.nextafter(d, -np.inf), np.nextafter(d, np.inf)}
    for fset in (ps, PointSet(ps.space, ps.points)):
        for eps in sorted(float(r) for r in radii if r > 0):
            for stop in (1 << n, None):  # the full packing last
                pack = greedy_packing(fset, eps, stop)
                assert pack == greedy_packing(ref, eps, stop), (eps, stop)
                assert covering_lower_bound(fset, eps, stop) == covering_lower_bound(ref, eps, stop)
            short = PackingResult(eps, pack.indices[:-1], pack.size - 1, True)
            for p in (pack, short) if pack.size > 1 else (pack,):
                assert packing_is_maximal(fset, p) == packing_is_maximal(ref, p), eps
            assert ball_disjoint(fset, pack.indices, eps) == ball_disjoint(ref, pack.indices, eps)
            assert minimal_inner_covering(fset, eps) == minimal_inner_covering(ref, eps), eps
        eps = float(exact[pairs[0]]) or 1.0
        audit, want = sandwich_audit(fset, eps), sandwich_audit(ref, eps)
        assert (audit, audit.packing) == (want, want.packing)


@pytest.mark.parametrize("m, radii_known", [(3, False), (300, True), (300, False)])
def test_ball_disjoint_puts_a_pair_at_the_slack_radius_in_no_ball(m, radii_known):
    # no ball below eps (1 - PACK_SLACK) holds a pair exactly that far apart, and
    # one holds a pair a float nearer: on a float64 cache (3 points) and on a
    # float32 one, where both distances round to the radius's float32 and no
    # other does, so the sorted radii decide the pair, or else its recomputation
    eps = 1.0
    edge = eps * (1.0 - PACK_SLACK)
    for gap, apart in ((edge, True), (np.nextafter(edge, -np.inf), False)):
        pts = np.concatenate(([0.0, gap], 10.0 + 2.0 * np.arange(m - 2)))[:, None]
        ps = PointSet(NormedSpace(1, "l1"), pts)
        assert ps.dist_row(0)[1] == gap
        assert ps.matrix().dtype == (np.float32 if m > 256 else np.float64)
        if radii_known:
            ps.distinct_distances()
        assert ball_disjoint(ps, [0, 1], eps) is apart, (m, radii_known, gap)


@st.composite
def clouds(draw):
    """257 to 600 points in any norm.  l1 and l-infinity clouds may sit on an
    integer grid, where many distances tie exactly and points repeat; other
    clouds may hold copies of their points moved by about 1e-13, so that
    distinct distances round to one float32 on both sides of a radius."""
    kind = draw(st.sampled_from(NORM_KINDS))
    m = draw(st.integers(257, 600))
    dim = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.uniform(-1, 1, size=(m, dim))
    if kind in ("l1", "linf") and draw(st.booleans()):
        pts = rng.integers(0, 7, size=(m, dim)).astype(float)
    elif draw(st.booleans()):
        moved = rng.integers(0, m // 2, size=m - m // 2)
        pts[m // 2:] = pts[moved] + rng.uniform(-1e-13, 1e-13, size=(moved.size, dim))
    pairs = [tuple(int(k) for k in rng.integers(0, m, 2)) for _ in range(3)]
    return PointSet(space_of(kind, dim), pts), pairs


@given(clouds(), st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_float32_cache_agrees_with_float64_reference(cloud, n):
    ps, pairs = cloud
    assert_agrees(ps, n, pairs)


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_distances_past_float32_range_tie_and_agree(kind):
    # distances near 1e300 (l2: 1e150, whose squares stay finite) cast to
    # inf: an inf entry ties with eps past float32's range and is recomputed,
    # and without the cast's warning, which pytest turns into an error
    scale = 1e150 if kind == "l2" else 1e300
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(300, 3)) * scale
    pts[:40] = rng.uniform(-1, 1, size=(40, 3))  # some distances stay in range
    ps = PointSet(space_of(kind, 3), pts)
    assert np.isinf(ps.matrix()).any()
    assert_agrees(ps, 3, [(0, 1), (0, 100), (150, 200)])


def test_entropy_search_holds_float32_matrix_and_one_triangle():
    # the cache holds 4 B a distance and the sorted radii 8 B a pair; float64
    # rows (8 B a distance) would exceed the bound by m^2 * 4 B, 16 MiB
    m = 2048
    ps = PointSet(NormedSpace(3, "l1"), np.random.default_rng(3).uniform(-1, 1, size=(m, 3)))
    tracemalloc.start()
    try:
        inner_entropy(ps, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 4 * m * m + 8 * m * (m - 1) // 2 + 4 * 8 * spaces.BLOCK_ELEMS
    assert peak < bound, (peak, bound)
