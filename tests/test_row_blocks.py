"""Row-block distance kernels against the per-row loops they replaced.

Each oracle below is the one-row-at-a-time loop that a block scan
replaced.  The block scans must agree with it exactly: same admissions,
same centers, same maxima and the same error message.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lipwidth import NormedSpace, PointSet, minimal_inner_covering, radius_upper, spaces
from lipwidth.case_studies import SequenceSetSpec, TransportSet, UniformBasisSet, sequence_set
from lipwidth.covering import (
    N_EXACT,
    PACK_SLACK,
    PackingResult,
    _cover_masks,
    ball_disjoint,
    coverage_assignment,
    covering_lower_bound,
    greedy_packing,
    inner_entropy,
    packing_is_maximal,
)
from lipwidth.spaces import DENSE_LIMIT, PreconditionError
from oracles import sequence_dense_points

# ---------------------------------------------------------------------------
# per-row oracles
# ---------------------------------------------------------------------------


def oracle_lower_bound(fset, eps, stop_above=None):
    m = fset.size
    md = np.full(m, np.inf)
    points = []
    for q in range(m):
        row = fset.dist_row(q)
        if not bool(np.any((row <= eps) & (md <= eps))):
            points.append(q)
            if stop_above is not None and len(points) > stop_above:
                return points
            np.minimum(md, row, out=md)
    return points


def oracle_greedy_cover(fset, eps):
    m = fset.size
    covered = np.zeros(m, dtype=bool)
    centers = []
    while not covered.all():
        best_c, best_gain = -1, -1
        for c in range(m):
            gain = int((~covered & (fset.dist_row(c) <= eps)).sum())
            if gain > best_gain:
                best_c, best_gain = c, gain
        centers.append(best_c)
        covered |= fset.dist_row(best_c) <= eps
    return tuple(centers)


def oracle_packing(fset, eps, stop_above=None):
    thr = eps * (1.0 + PACK_SLACK)
    mind = np.full(fset.size, np.inf)
    chosen = []
    for i in range(fset.size):
        if mind[i] > thr:
            chosen.append(i)
            if stop_above is not None and len(chosen) > stop_above:
                return PackingResult(eps, tuple(chosen), len(chosen), maximal=False)
            np.minimum(mind, fset.dist_row(i), out=mind)
    return PackingResult(eps, tuple(chosen), len(chosen), maximal=True)


def oracle_is_maximal(fset, pack):
    thr = pack.eps * (1.0 + PACK_SLACK)
    idx = np.asarray(pack.indices)
    for i in range(fset.size):
        if i in pack.indices:
            continue
        if float(fset.dist_row(i)[idx].min()) > thr:
            return False
    return True


def oracle_assignment(fset, centers, eps):
    centers = np.asarray(centers)
    assign = np.empty(fset.size, dtype=int)
    for i in range(fset.size):
        d = fset.dist_row(i)[centers]
        j = int(np.argmin(d))
        if d[j] > eps * (1.0 + PACK_SLACK):
            raise PreconditionError(f"point {i} not covered at eps={eps}")
        assign[i] = j
    return assign


def oracle_ball_disjoint(fset, points, eps):
    """Ball by ball: the row of each center counts the points inside it."""
    thr = eps * (1.0 - PACK_SLACK)
    return all(int((fset.dist_row(c)[list(points)] < thr).sum()) <= 1
               for c in range(fset.size))


def oracle_radius(fset):
    best, best_idx = math.inf, 0
    for i in range(fset.size):
        far = float(fset.dist_row(i).max())
        if far < best:
            best, best_idx = far, i
    if isinstance(fset, PointSet):
        far = float(fset.dist_to(fset.points.mean(axis=0)).max())
        if far < best:
            return far, None
    return best, best_idx


def oracle_diameter(fset):
    return max(float(fset.dist_row(i).max()) for i in range(fset.size))


def oracle_masks(fset, eps):
    rows = np.array([fset.dist_row(c) for c in range(fset.size)])
    return ((rows <= eps) @ (1 << np.arange(fset.size, dtype=np.int64))).tolist()


# ---------------------------------------------------------------------------
# covering scans
# ---------------------------------------------------------------------------


def small_cloud():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(48, 2))
    pts[40] = pts[4]
    return PointSet(NormedSpace(2, "l2"), pts)


def test_scans_match_oracles_at_every_tenth_distance():
    ps = small_cloud()
    assert ps.size > N_EXACT  # the greedy cover, not the exact one
    for eps in ps.distinct_distances()[::10]:
        eps = float(eps)
        for stop in (None, 1, 8):
            assert covering_lower_bound(ps, eps, stop) == oracle_lower_bound(ps, eps, stop)
        assert minimal_inner_covering(ps, eps).center_indices == oracle_greedy_cover(ps, eps)


def assert_scans_match(fset, radii, bound_radii=()):
    """Block scans equal the oracles; ``bound_radii`` only check the lower bound."""
    assert fset.diameter() == oracle_diameter(fset)
    rb = radius_upper(fset)
    assert (rb.upper, rb.center_index) == oracle_radius(fset)
    for eps in list(radii) + list(bound_radii):
        for stop in (None, 1, 8):
            assert covering_lower_bound(fset, eps, stop) == oracle_lower_bound(fset, eps, stop)
    for eps in radii:
        cover = minimal_inner_covering(fset, eps)
        if not cover.exact:
            assert cover.center_indices == oracle_greedy_cover(fset, eps)
        assign = coverage_assignment(fset, cover.center_indices, eps)
        assert np.array_equal(assign, oracle_assignment(fset, cover.center_indices, eps))
        pack = greedy_packing(fset, eps)
        assert packing_is_maximal(fset, pack) and oracle_is_maximal(fset, pack)
        if pack.size > 1:
            short = PackingResult(eps, pack.indices[:-1], pack.size - 1, True)
            assert packing_is_maximal(fset, short) == oracle_is_maximal(fset, short)


@pytest.mark.parametrize("m", [255, 256, 257, 600])
@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_windowed_packing_matches_per_index_scan(norm, m):
    # windows of 256 indices end inside these sets; the radii run from one
    # admission (the diameter) to nearly every point admitted
    rng = np.random.default_rng(m)
    ps = PointSet(NormedSpace(3, norm), rng.uniform(-1, 1, size=(m, 3)))
    dist = ps.distinct_distances()
    radii = np.quantile(dist[dist > 0], [0.0, 0.001, 0.01, 0.1, 0.5, 1.0])
    sizes = set()
    for eps in radii.tolist():
        for stop in (None, 1, 8):
            pack = greedy_packing(ps, eps, stop)
            assert pack == oracle_packing(ps, eps, stop), (eps, stop)
            sizes.add(pack.size)
    assert 1 in sizes and max(sizes) > m // 2


def test_scans_on_uniform_basis_set():
    basis = UniformBasisSet(300)
    assert_scans_match(basis, [0.5, math.sqrt(2.0)])


def test_scans_on_sequence_set():
    seq = sequence_set(SequenceSetSpec(generator="log", truncation=300))
    assert_scans_match(seq, [float(seq.sigmas[k]) for k in (0, 7, 120, 299)])


def test_scans_above_dense_limit_build_no_matrix(monkeypatch):
    rng = np.random.default_rng(11)
    ps = PointSet(NormedSpace(1, "l2"), rng.uniform(-1, 1, size=(DENSE_LIMIT + 4, 1)))
    # 0.002 admits hundreds of witnesses, some of them in the middle of a block
    assert_scans_match(ps, [0.3], bound_radii=[0.002])
    assert ps._cache is None
    # with small row blocks the greedy cover holds O(m) memory: no m x m ball matrix
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", 1 << 12)
    tracemalloc.start()
    try:
        cover = minimal_inner_covering(ps, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cover.center_indices == oracle_greedy_cover(ps, 0.3)
    assert peak < ps.size ** 2 // 8, peak
    assert ps._cache is None


@pytest.mark.parametrize("block_elems", [64, 1 << 10])
def test_lower_bound_matches_oracle_in_small_blocks(monkeypatch, block_elems):
    # blocks of one row up to 21 rows, with witnesses admitted mid-block
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", block_elems)
    cloud = small_cloud()
    seq = sequence_set(SequenceSetSpec(generator="log", truncation=300))
    rng = np.random.default_rng(11)
    big = PointSet(NormedSpace(1, "l2"), rng.uniform(-1, 1, size=(DENSE_LIMIT + 4, 1)))
    grid = TransportSet(200)  # a ball of radius 2j/200 holds 2j + 1 grid points
    cases = [
        (cloud, [float(eps) for eps in cloud.distinct_distances()[::10]]),
        (UniformBasisSet(300), [0.0, 0.5, math.sqrt(2.0)]),  # below sqrt(2) every row is admitted
        (seq, [float(seq.sigmas[k]) for k in (0, 7, 120, 299)]),
        (big, [0.3, 0.002]),
        (grid, [0.0] + [float(grid.distinct_distances()[k]) for k in (0, 1, 4, 30)]),
    ]
    for fset, radii in cases:
        for eps in radii:
            for stop in (None, 1, 8):
                got = covering_lower_bound(fset, eps, stop)
                assert got == oracle_lower_bound(fset, eps, stop), (fset.size, eps, stop)
    assert big._cache is None


def rows_read(fset, eps):
    """Indices of the rows ``covering_lower_bound`` asks ``within`` about, in order."""
    asked = []
    real = fset.within
    fset.within = lambda rows, *a: asked.extend(np.arange(fset.size)[rows].tolist()) or real(rows, *a)
    try:
        count = len(covering_lower_bound(fset, eps))
    finally:
        del fset.within
    return count, asked


def test_lower_bound_reads_each_row_once_and_skips_near(monkeypatch):
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", 1 << 10)
    basis = UniformBasisSet(300)  # 3 rows a block
    count, rows = rows_read(basis, 0.5)
    assert count == 300 and rows == list(range(300))
    # one ball holds the whole cloud: no row is read past its witness's block
    cloud = small_cloud()
    count, rows = rows_read(cloud, cloud.diameter())
    assert cloud.scan_rows == 2 * spaces.block_rows(cloud.size)  # a float32 cache
    assert count == 1 and rows == list(range(cloud.scan_rows))
    for eps in cloud.distinct_distances()[::10]:
        count, rows = rows_read(cloud, float(eps))
        assert rows == sorted(set(rows)), eps  # no row twice


def packing_reads(fset, eps, stop_above=None):
    """``greedy_packing``'s result and the rows of each ``within`` call, in order."""
    calls = []
    real = fset.within
    fset.within = lambda rows, *a: calls.append(np.arange(fset.size)[rows].tolist()) or real(rows, *a)
    try:
        pack = greedy_packing(fset, eps, stop_above)
    finally:
        del fset.within
    return pack, calls


@pytest.mark.parametrize("block_elems", [1 << 10, 1 << 16])
def test_packing_reads_only_still_far_rows(monkeypatch, block_elems):
    # an admitted point reads its own row and the rows of its block that no
    # earlier admission has cleared, each row once and never past its block
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(7)
    cloud = PointSet(NormedSpace(2, "l2"), rng.uniform(-1, 1, size=(400, 2)))
    grid = PointSet(NormedSpace(2, "l1"), [[x, y] for x in range(20) for y in range(20)])
    for fset in (cloud, grid):
        step = fset.scan_rows
        dist = fset.distinct_distances()
        for eps in np.quantile(dist, [0.0, 0.01, 0.1, 0.5]).tolist():
            for stop in (None, 8):
                pack, calls = packing_reads(fset, eps, stop)
                assert pack == oracle_packing(fset, eps, stop), (eps, stop)
                thr = eps * (1.0 + PACK_SLACK)
                seen = []
                for rows in calls:
                    i = rows[0]
                    assert i in pack.indices
                    before = list(pack.indices[:pack.indices.index(i)])
                    end = min(i // step * step + step, fset.size)
                    far = [r for r in range(i, end)
                           if not before or float(fset.dist_row(r)[before].min()) > thr]
                    assert rows == far, (eps, i)
                    seen += rows
                assert seen == sorted(set(seen))  # no row twice


def test_float32_scans_match_at_float64_rows(monkeypatch):
    # a block's result does not depend on its size: the rule's rows (twice
    # float64's on a float32 cache) give what float64's rows give, on a
    # random cloud and on an integer grid whose distances tie at every radius
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", 1 << 12)
    rng = np.random.default_rng(5)
    cloud = PointSet(NormedSpace(3, "l2"), rng.uniform(-1, 1, size=(320, 3)))
    grid = PointSet(NormedSpace(3, "l1"), [[x, y, z] for x in range(7) for y in range(7)
                                           for z in range(7)])
    sets = (cloud, grid)

    def results():
        out = []
        for fset in sets:
            dist = fset.distinct_distances()
            out += [inner_entropy(fset, n).to_json() for n in (2, 4)]
            for eps in [0.0] + np.quantile(dist, [0.0, 0.02, 0.1, 0.3, 0.7]).tolist():
                for stop in (None, 1, 8):
                    out += [covering_lower_bound(fset, eps, stop), greedy_packing(fset, eps, stop)]
        return out

    for fset in sets:
        assert fset.matrix().dtype == np.float32
        assert fset.scan_rows == spaces.block_rows(fset.size, 4) > spaces.block_rows(fset.size)
    rule = results()
    monkeypatch.setattr(PointSet, "scan_rows", property(lambda self: spaces.block_rows(self.size)))
    assert results() == rule


@pytest.mark.parametrize("block_elems", [64, 1 << 10])
def test_witness_checks_read_only_witness_rows_and_match_the_loops(monkeypatch, block_elems):
    # coverage and ball checks read the witnesses' rows (distances are
    # symmetric), each block once; centers come unsorted, repeated and across
    # blocks, and ties go to the first center named, as in the per-point loop
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", block_elems)
    cloud = small_cloud()  # points 4 and 40 coincide
    grid = PointSet(NormedSpace(2, "l1"), [[x, y] for x in range(5) for y in range(5)])
    seq = sequence_set(SequenceSetSpec(generator="log", truncation=60))
    cases = [(cloud, [[4, 40], [40, 4, 17], [30, 2, 30, 47], list(range(0, 48, 5))]),
             (grid, [[12], [24, 0, 12, 4, 20], [0, 24], [7, 7, 17], [2, 2, 4]]),
             (UniformBasisSet(50), [[0], [49, 3], list(range(50))]),
             (seq, [[60], [0, 60, 5], list(range(61))]),
             (TransportSet(40), [[20], [0, 40, 13], list(range(0, 41, 3))])]
    for fset, witnesses in cases:
        # the assignment reads float64 rows; the ball check reads the blocks
        # of the array ``within`` reads, twice the rows on a float32 cache
        steps = {"at": spaces.block_rows(fset.size), "within": fset.scan_rows}
        for idx in witnesses:
            for eps in {float(d) for d in fset.dist_row(idx[0])[::7]} | {0.0, 1e9}:
                spans = {"at": [], "within": []}

                def span(kind, rows):
                    if isinstance(rows, slice):
                        spans[kind].append((rows.start, rows.stop))
                    else:
                        spans[kind].append((int(rows[0]), int(rows[-1]) + 1))

                # the assignment reads distances, the ball check asks within
                real_at, real_within = fset.dist_at, fset.within
                fset.dist_at = lambda rows: span("at", rows) or real_at(rows)
                try:
                    got = coverage_assignment(fset, idx, eps)
                except PreconditionError as exc:
                    got = str(exc)
                finally:
                    del fset.dist_at
                fset.within = lambda rows, *a, **k: span("within", rows) or real_within(rows, *a, **k)
                try:
                    disjoint = ball_disjoint(fset, idx, eps)
                finally:
                    del fset.within
                try:
                    want = oracle_assignment(fset, idx, eps)
                except PreconditionError as exc:
                    assert got == str(exc)
                else:
                    assert np.array_equal(got, want), (fset.size, idx, eps)
                assert disjoint == oracle_ball_disjoint(fset, idx, eps), (fset.size, idx, eps)
                for kind, step in steps.items():
                    blocks = sorted({i // step for i in idx})
                    for lo, hi in spans[kind]:  # inside one block that holds a witness
                        assert (hi - 1) // step == lo // step in blocks, (kind, lo, hi)
                        assert lo in idx and hi - 1 in idx
                    assert len(spans[kind]) == len(blocks), kind


def _basis_dense(basis):
    return math.sqrt(2.0) * (1.0 - np.eye(basis.size))


def _sequence_dense(ss):
    pts = sequence_dense_points(ss)
    space = NormedSpace(pts.shape[1], "linf")
    return np.stack([space.norm(pts - p) for p in pts])


@pytest.mark.parametrize("fset,dense", [
    (UniformBasisSet(300), _basis_dense),
    (sequence_set(SequenceSetSpec(generator="log", truncation=300)), _sequence_dense),
], ids=["basis", "log-sequence"])
def test_oracle_block_kernels_equal_dense_distances(fset, dense):
    # the closed-form blocks against the distances of the dense points
    m = fset.size  # the sequence set's last row is the origin
    want = dense(fset)
    for lo, hi in ((0, 1), (150, 151), (m - 1, m), (0, 40), (120, 161), (m - 7, m), (0, m)):
        assert fset.dist_rows(lo, hi).tobytes() == want[lo:hi].tobytes(), (lo, hi)
    for i in (0, 150, m - 1):
        assert fset.dist_row(i).tobytes() == want[i].tobytes(), i


def test_cover_masks_match_rows():
    ps = PointSet(NormedSpace(3, "l1"), np.random.default_rng(2).uniform(size=(N_EXACT, 3)))
    for eps in ps.distinct_distances()[::15]:
        assert _cover_masks(ps, float(eps)) == oracle_masks(ps, float(eps))


def test_assignment_names_first_uncovered_point():
    ps = small_cloud()
    eps = float(ps.distinct_distances()[30])
    centers = [0, 1]
    with pytest.raises(PreconditionError) as block_err:
        coverage_assignment(ps, centers, eps)
    with pytest.raises(PreconditionError) as row_err:
        oracle_assignment(ps, centers, eps)
    assert str(block_err.value) == str(row_err.value)
