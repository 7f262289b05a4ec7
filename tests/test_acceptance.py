"""Acceptance gate: one test per criterion, each printing a PASS line and
holding its stated tolerance and runtime budget."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lipwidth import (
    NormedSpace,
    PointSet,
    inner_entropy,
    kolmogorov_comparison,
    kolmogorov_upper,
    radius_upper,
    sandwich_audit,
    width_upper_from_entropy,
)
from lipwidth import case_studies as cs
from lipwidth import relunet as rn
from lipwidth.widths import best_coordinate_subspace
from oracles import dense_twin, empirical_lipschitz


def _report(num, name, elapsed, budget):
    print(f"[criterion {num:2d}] {name}: PASS ({elapsed:.1f}s / budget {budget}s)")
    assert elapsed <= budget, f"criterion {num} exceeded its runtime budget"


def _contains(lo, hi, ref, rel=1e-9):
    return lo <= ref * (1 + rel) and hi >= ref * (1 - rel)


def test_criterion_01_entropy_exactness():
    # the search runs on the set's dense twin: the set itself answers in closed form
    t0 = time.perf_counter()
    for n in range(1, 9):
        spec = cs.SequenceSetSpec(generator="log", truncation=2 ** (n + 2))
        est = inner_entropy(dense_twin(cs.sequence_set(spec), own_matrix=True), n)
        ref = cs.sigma_at(spec, 2 ** n)  # exact value 1/log2(2^n + 1)
        assert _contains(est.lower, est.upper, ref), (n, est)
        assert (est.upper - est.lower) <= 1e-6 * ref, (n, est)
    _report(1, "inner-entropy exactness on the log sequence set",
            time.perf_counter() - t0, 60)


def test_criterion_02_sandwich_inequalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    audits = 0
    for t in range(200):
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(2, 21))
        kind = ("l1", "l2", "linf")[t % 3]
        ps = PointSet(NormedSpace(dim, kind), rng.uniform(-1, 1, size=(m, dim)))
        diam = ps.diameter()
        for eps in np.linspace(diam / 20, diam, 20):
            audit = sandwich_audit(ps, float(eps))
            assert audit.cover_exact  # <= 20 points: exact covers only
            audits += 1
            if not audit.passed:
                violations += 1
    assert audits == 4000 and violations == 0
    _report(2, "packing/covering sandwich on 200 random sets x 20 radii",
            time.perf_counter() - t0, 30)


def test_criterion_03_entropy_map_pipeline():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    kn_pairs = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1),
                (2, 3), (3, 2), (1, 6), (6, 1), (2, 4), (4, 2), (3, 3), (2, 5),
                (5, 2), (1, 12), (12, 1), (2, 6), (6, 2), (3, 4), (4, 3), (1, 5),
                (5, 1)]
    for t in range(50):
        k, n = kn_pairs[t % len(kn_pairs)]
        dim = int(rng.integers(1, 4))
        m = int(rng.integers(20, 120))
        kind = ("l2", "linf", "l1")[t % 3]
        ps = PointSet(NormedSpace(dim, kind), rng.uniform(-1, 1, size=(m, dim)))
        cert, emap, _ = width_upper_from_entropy(ps, k, n, return_map=True)
        ent = inner_entropy(ps, k * n)
        assert cert.witness["realized_error"] <= ent.upper + 1e-9
        declared = emap.declared_lipschitz()
        gamma = 2.0 ** k * radius_upper(ps).upper
        assert declared <= gamma * (1 + 1e-9)
        emp = empirical_lipschitz(emap, seed=1000 + t, pairs=10 ** 4)
        assert emp <= declared * (1 + 1e-9)
    _report(3, "entropy-to-width map pipeline on 50 random sets",
            time.perf_counter() - t0, 120)


def test_criterion_04_log_sequence_separation():
    t0 = time.perf_counter()
    for n in (6, 8, 10):
        (upper, lower, ent), _ = cs.log_sequence_certificates(n, 3.0)
        rate_upper = 1.0 / (n * math.log2(n + 1))
        assert upper["value"] == pytest.approx(rate_upper, rel=1e-12)
        # headline separation: the width beats the 1/n entropy rate by the log
        ratio = upper["value"] / (1.0 / n)
        assert ratio <= (1.0 / math.log2(n + 1)) * (1 + 1e-6)
        # the computed bracket pins the exact entropy number sigma_{2^n}
        assert ent["reference"] == pytest.approx(1.0 / math.log2(2 ** n + 1), rel=1e-14)
        assert _contains(ent["lower"], ent["upper"], ent["reference"])
        assert lower["value"] > 0.0
        assert lower["value"] <= upper["value"]
    _report(4, "log-sequence width/entropy separation at n in {6,8,10}",
            time.perf_counter() - t0, 120)


def test_criterion_05_power_sequence_collapse():
    t0 = time.perf_counter()
    n1 = cs.power_collapse_index(1.0, 4.0)
    # integral inequality scan around the returned index
    n0 = 1
    lhs = lambda n: n0 + n0 / (1.0 * n - 1.0)
    assert lhs(n1) <= 2.0 ** n1
    assert all(lhs(n) <= 2.0 ** n for n in range(n1, n1 + 50))
    for total, cap in ((10 ** 3, 1e-3), (10 ** 6, 1e-6)):
        cert = cs.sequence_width_upper("power", 4.0, n1, total, c=1.0)
        assert cert.value <= cap * (1 + 1e-12)
    _report(5, "power-sequence width collapse (c=1, gamma=4)",
            time.perf_counter() - t0, 60)


def test_criterion_06_transport_references():
    t0 = time.perf_counter()
    tset = cs.transport_set(1024)
    refs = cs.transport_reference()
    twin = dense_twin(tset)  # the search, not the closed form
    for n in range(1, 9):
        est = inner_entropy(twin, n)
        assert _contains(est.lower, est.upper, cs.transport_entropy(1024, n)), (n, est)
    for n in (4, 16, 64):
        cert, _ = cs.transport_kolmogorov_upper(tset, n)
        assert cert.value <= refs["kolmogorov_upper"](n) * (1 + 1e-12)
        assert refs["kolmogorov_lower"](n) <= cert.value
    _report(6, "transport manifold entropy and Kolmogorov references",
            time.perf_counter() - t0, 30)


def test_criterion_07_kolmogorov_comparison():
    t0 = time.perf_counter()
    dset = cs.diagonal_set(64)
    for n in (4, 8, 16):
        dn, basis, coeffs = kolmogorov_upper(dset, range(n))
        comp = kolmogorov_comparison(dset, dn, basis, coeffs)
        assert comp.value <= dn.value + 1e-9
    tset = cs.transport_set(1024)
    for n in (4, 16, 64):
        dn, _ = cs.transport_kolmogorov_upper(tset, n)
        comp = cs.transport_comparison(tset, n)
        assert comp.value <= dn.value + 1e-9
    _report(7, "Lipschitz-from-Kolmogorov comparison (diagonal + transport)",
            time.perf_counter() - t0, 30)


def test_criterion_08_cross_polytope_closed_form():
    t0 = time.perf_counter()
    for n in range(1, 101):
        want = (1.0 / math.sqrt(2.0)) * (math.log2(2 * n + 1)) ** (-0.5)
        assert cs.cross_polytope_width(n) == pytest.approx(want, rel=1e-15)
    for n in (1, 2, 4):
        cert, _ = best_coordinate_subspace(cs.octahedron_set(n), n)
        assert cert.value >= cs.cross_polytope_width(n) * (1 - 1e-12)
    _report(8, "cross-polytope closed form and coordinate-subspace bound",
            time.perf_counter() - t0, 10)


def test_criterion_09_relu_lipschitz_bound():
    t0 = time.perf_counter()
    for d in (1, 2, 3):
        for w in (2, 3):
            for depth in range(1, 6):
                cfg = rn.ReLUNetConfig(d=d, width=w, depth=depth)
                res = rn.verify_lipschitz(cfg, seed=7, trials=10 ** 4)
                assert res.max_ratio <= res.bound, (d, w, depth, res.max_ratio)
                assert res.bound < res.coarse
                assert res.layer_bound_ok
    # dedicated runtime-assert sweep: 10^3 single forward passes
    cfg = rn.ReLUNetConfig(d=2, width=3, depth=4)
    rng = np.random.default_rng(99)
    npar = rn.param_count(2, 3, 4)
    for _ in range(10 ** 3):
        rn.forward(cfg, rng.uniform(-1, 1, size=npar), rng.uniform(0, 1, size=2),
                   check_bounds=True)
    _report(9, "ReLU parameter-map ratios below the recursion constant",
            time.perf_counter() - t0, 180)


def test_criterion_10_orthonormal_basis_threshold():
    t0 = time.perf_counter()
    rep = cs.orthonormal_basis_report(14, 2.0 * math.sqrt(2.0), 2,
                                      entropy_ks=list(range(1, 15)))
    assert rep["threshold_lhs"] > rep["threshold_rhs"]  # 1/24 > 1/32
    assert rep["regime_certified"]
    assert len(rep["entropy_brackets"]) == 14
    for k, (lo, hi) in rep["entropy_brackets"].items():
        assert _contains(lo, hi, math.sqrt(2.0)), (k, lo, hi)
    _report(10, "orthonormal-basis threshold and entropy saturation",
            time.perf_counter() - t0, 10)


def test_criterion_11_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "run"
    canon = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "lipwidth", "audit-all", "--seed", "7",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        canon.append((out / "audit-all-report.canonical.json").read_bytes())
    assert canon[0] == canon[1]
    _report(11, "byte-identical canonical reports across reruns",
            time.perf_counter() - t0, 600)
