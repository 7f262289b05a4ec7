"""Width certificates and sequence bump steps in bounded row blocks.

The steps that walk their points or terms a block at a time must equal the
full-array forms in ``oracles`` bit for bit when ``spaces.BLOCK_ELEMS`` is
small enough to split every call into at least three blocks, and at the
default block size they must hold scratch of the order of the data, not
several copies of it.
"""

import tracemalloc

import numpy as np
import pytest

from lipwidth import PointSet, spaces, widths
from lipwidth.case_studies import (SequenceSetSpec, diagonal_set, sigma_values,
                                   transport_comparison, transport_kolmogorov_upper,
                                   transport_set, volume_condition)
from lipwidth.lipmaps import (SequenceBumpSum, allocate_dyadic_cubes, build_entropy_map,
                              build_sequence_bump_map, bump_levels)
from lipwidth.spaces import NORM_KINDS, PreconditionError
from lipwidth.widths import fixed_width_upper, kolmogorov_comparison, kolmogorov_upper
from oracles import (bump_levels_reference, comparison_map_reference, dist_to_reference,
                     fixed_width_reference, level_runs, sigma_reference, space_of,
                     transport_g0_reference)


def small_blocks(monkeypatch, rows: int, width: int) -> None:
    """Blocks of ``rows`` rows ``width`` entries wide."""
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", rows * width)


def spans(size: int, width: int) -> int:
    return len(list(spaces.row_spans(size, width)))


def peak_of(call) -> int:
    """Peak bytes that ``call`` allocates, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# blocked results equal the full-array ones
# ---------------------------------------------------------------------------


def entropy_map_inputs(m=200, k=2, n=2):
    """A cloud, an entropy map sending grid cube centers to its points, and
    the cube center of each point, as ``width_upper_from_entropy`` builds."""
    rng = np.random.default_rng(5)
    ps = PointSet(spaces.NormedSpace(3, "l1"), rng.uniform(-1, 1, size=(m, 3)))
    targets = ps.points[rng.integers(0, m, size=1 << (k * n))]
    emap = build_entropy_map(targets, k, n, ps.space)
    return ps, emap, emap.centers[rng.integers(0, 1 << (k * n), size=m)]


def transport_inputs(grid=64, n=8):
    """The transport set, its n-cell Kolmogorov certificate, basis and cell
    coefficients, the index of its reference origin, and the comparison's
    map and candidates recovered from full arrays of approximants."""
    tset = transport_set(grid)
    dn, coeffs = transport_kolmogorov_upper(tset, n)
    basis = tset.cell_basis(n)
    approx = coeffs @ basis
    g = transport_g0_reference(tset, approx)
    return tset, dn, basis, coeffs, g, comparison_map_reference(tset, dn.value, basis,
                                                                approx, approx[g])


def test_fixed_width_in_blocks_equals_full_arrays(monkeypatch):
    ps, emap, cands = entropy_map_inputs()
    tset, _, _, _, _, (amap, tcands) = transport_inputs()
    want = [fixed_width_reference(ps, emap, cands), fixed_width_reference(tset, amap, tcands)]
    small_blocks(monkeypatch, 37, 3)
    assert spans(ps.size, 3) >= 3 and spans(tset.size, tset.space.dim) >= 3
    got = [fixed_width_upper(ps, emap, cands), fixed_width_upper(tset, amap, tcands)]
    assert [(c.value, c.witness["worst_point"]) for c in got] == want


def test_fixed_width_in_blocks_names_the_first_point_outside_the_ball(monkeypatch):
    ps, emap, cands = entropy_map_inputs()
    cands = cands.copy()
    cands[[150, 90, 199]] = [[1.5, 0.0], [0.0, -2.0], [3.0, 3.0]]  # blocks 5, 3 and 6
    with pytest.raises(PreconditionError) as want:
        fixed_width_reference(ps, emap, cands)
    small_blocks(monkeypatch, 37, 3)
    with pytest.raises(PreconditionError) as got:
        fixed_width_upper(ps, emap, cands)
    assert str(got.value) == str(want.value) and "candidate 90 " in str(got.value)


def test_kolmogorov_comparison_in_blocks_equals_full_arrays(monkeypatch):
    # the candidates formed from exact coefficients are within 1e-12 of the
    # least-squares reference's, no value exceeds the reference's by more
    # than 1e-12, and the blocked scan of them equals the full-array one
    tset, dn, basis, coeffs, g, (amap, ref) = transport_inputs()
    dset = diagonal_set(48)
    kn, q, dcoeffs = kolmogorov_upper(dset, range(8))
    dmap, dref = comparison_map_reference(dset, kn.value, np.eye(48)[:8], dcoeffs @ q)
    small_blocks(monkeypatch, 20, 48)  # 20 of the diagonal set's 96 rows, 7 transport rows
    assert spans(tset.size, tset.space.dim) >= 3 and spans(dset.size, 48) >= 3
    seen = []  # the map and candidates handed to fixed_width_upper

    def spy(pset, map_, candidates):
        seen.append((map_, np.asarray(candidates)))
        return fixed_width_upper(pset, map_, candidates)

    monkeypatch.setattr(widths, "fixed_width_upper", spy)
    got = [kolmogorov_comparison(tset, dn, basis, coeffs, coeffs[g]),
           kolmogorov_comparison(dset, kn, q, dcoeffs)]
    for pset, cert, (map_, cands), want, want_cands in zip(
            (tset, dset), got, seen, (amap, dmap), (ref, dref)):
        assert cert.gamma == map_.gamma == want.gamma
        assert np.array_equal(map_.g0, want.g0) and np.array_equal(map_.basis, want.basis)
        assert np.abs(cands - want_cands).max() <= 1e-12
        assert cert.value == fixed_width_reference(pset, map_, cands)[0]
        assert cert.value <= fixed_width_reference(pset, want, want_cands)[0] + 1e-12
    # the study's own g0, chosen by cell counts, is the reference's
    assert transport_comparison(tset, 8).to_json() == got[0].to_json()


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_dist_to_in_blocks_equals_full_arrays(monkeypatch, kind):
    rng = np.random.default_rng(7)
    ps = PointSet(space_of(kind, 5), rng.normal(size=(101, 5)))
    xs = [ps.points.mean(axis=0), rng.normal(size=5), ps.points[3]]
    want = [dist_to_reference(ps, x) for x in xs]
    small_blocks(monkeypatch, 30, 5)
    assert spans(ps.size, 5) == 4
    assert [ps.dist_to(x).tobytes() for x in xs] == [w.tobytes() for w in want]


def test_sequence_steps_in_blocks_equal_full_arrays(monkeypatch):
    sig = sigma_reference(SequenceSetSpec("log", 2), 5000)
    want_levels = bump_levels_reference(sig, 3.0)
    small_blocks(monkeypatch, 100, 8)  # 100 terms a block
    assert spans(sig.size, 8) >= 3
    # the runs of equal levels, searched for, and the declared constant
    # sigma_j / r_j from their first bumps
    levels, counts = bump_levels(sig, 3.0)
    distinct, want_counts = np.unique(want_levels, return_counts=True)
    assert levels.tobytes() == distinct.tobytes() and counts.tobytes() == want_counts.tobytes()
    bmap = SequenceBumpSum(allocate_dyadic_cubes(6, levels, counts), sig)
    radii = 0.5 * 2.0 ** -want_levels.astype(float)
    assert bmap.declared_lipschitz() == float((sig / radii).max())


def test_sequence_checks_in_blocks_fail_as_full_arrays(monkeypatch):
    sig = sigma_reference(SequenceSetSpec("log", 2), 1000)
    small_blocks(monkeypatch, 100, 8)
    # a nonpositive amplitude in a late block is named before an early one too large
    bad = sig.copy()
    bad[10], bad[950] = 2.0, 0.0
    for args in ((bad, 3.0), (sig * 10.0, 3.0)):
        with pytest.raises(PreconditionError) as want:
            bump_levels_reference(*args)
        with pytest.raises(PreconditionError, match=str(want.value)):
            bump_levels(*args)
    rising = sig.copy()
    rising[300] = rising[299] + 1e-3  # rises only from the last term of block 3 to block 4
    assert np.sum(np.diff(rising) > 0) == 1
    with pytest.raises(PreconditionError, match="nonincreasing"):
        build_sequence_bump_map(rising, 3.0, 6)
    levels = np.repeat(*bump_levels(sig, 3.0))
    levels[299] += 1  # the last cube of block 3 finer than the first of block 4
    assert np.flatnonzero(np.diff(levels) < 0).tolist() == [299]
    with pytest.raises(PreconditionError, match="ascending"):
        allocate_dyadic_cubes(6, *level_runs(levels))


# ---------------------------------------------------------------------------
# scratch bounds at the default block size
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid,share", [(512, 0.6), (1024, 0.2)])
def test_transport_comparison_scratch_within_a_share_of_the_points(grid, share):
    # the points are read a block at a time and the cell coefficients are
    # (size, n): no copy of the points, so the share falls as the grid grows
    tset = transport_set(grid)
    peak = peak_of(lambda: transport_comparison(tset, 16))
    assert peak <= share * tset.points.nbytes, peak / tset.points.nbytes


def test_transport_set_construction_within_1_6_times_the_points():
    # the points and the closed-form matrix (half their bytes), and no (N, N)
    # temporary beside the matrix
    tset = transport_set(512)
    peak = peak_of(lambda: transport_set(512))
    assert peak < 1.6 * tset.points.nbytes, peak / tset.points.nbytes


def test_volume_condition_scratch_within_a_megabyte():
    # the closed form at 10^6 power terms makes none of them
    spec = SequenceSetSpec("power", 2, 1.0)
    peak = peak_of(lambda: volume_condition(spec, 4.0, 2, 10 ** 6))
    assert peak <= 1 << 20, peak


def test_sequence_bump_map_scratch_within_half_the_amplitudes():
    # the checks run a block at a time and the levels are kept as their runs,
    # so even one int8 per bump (1/8 of the amplitudes' bytes) would not fit
    sig = sigma_values(SequenceSetSpec("log", 2), 4 * 10 ** 5)
    peak = peak_of(lambda: build_sequence_bump_map(sig, 3.0, 8))
    assert peak <= 0.05 * sig.nbytes, peak / sig.nbytes


def test_log_sequence_recheck_peak_under_5_mb():
    # the benchmark's log-sequence job, 4 * 10^5 bumps in dim 8, with
    # --verify-witness: the recheck places no cube and keeps only runs of
    # levels, so it holds about one copy of the 3.2 MB amplitudes
    from lipwidth.cli import run
    report = {}
    peak = peak_of(lambda: report.update(run({
        "command": "case-study", "verify_witness": True,
        "target": {"kind": "case-study", "name": "log-sequence"},
        "params": {"n": 8, "gamma": 3.0, "max_bumps": 4 * 10 ** 5}})))
    assert report["passed"] and peak < 5e6, peak
