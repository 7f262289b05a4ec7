"""--verify-witness: every certificate kind has a recheck that reads its
witness or recomputes a closed form.

The recheck table (``cli.RECHECKS``) is keyed by the witness kind, else the
quantity.  Every key a command emits must have an entry, every real
certificate must pass its recheck, and a tampered one must fail it.  A
producer patched to overclaim must fail too, so a recheck cannot simply call
its producer again: the entropy and covering-count mutants below are
searches with one line deleted or one bound shifted, which a recheck that
re-ran the search would repeat.  Every benchmark job's certificates pass
their rechecks.
"""

import copy
import dataclasses
import importlib.util
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lipwidth
from lipwidth import case_studies, cli, covering, widths

_POINTS = {"kind": "points", "space": {"dim": 2, "norm": {"kind": "l2"}},
           "points": np.random.default_rng(3).uniform(-1, 1, size=(18, 2)).tolist()}
_LOG = {"kind": "case-study", "name": "log-sequence"}
_POWER = {"kind": "case-study", "name": "power-sequence", "c": 0.5}

# (command, target, params): every command on a points target, then the
# sequence and transport targets whose certificates have their own kinds
_RUNS = {
    "entropy": ("entropy", _POINTS, {"n_values": [0, 1, 2, 3]}),
    "packing": ("packing", _POINTS, {}),
    "width-upper": ("width-upper", _POINTS, {"k": 1, "n": 2}),
    "width-lower": ("width-lower", _POINTS, {"n": 1, "gamma": 0.05}),
    "kolmogorov": ("kolmogorov", _POINTS, {"n": 1, "subspace_axes": [1]}),
    "relu-verify": ("relu-verify", None, {"d": 1, "width": 2, "depth": 2, "trials": 200}),
    "audit-all": ("audit-all", None, {}),
    "kolmogorov-transport": ("kolmogorov", {"kind": "case-study", "name": "transport",
                                            "grid": 64}, {"n": 4}),
    "width-lower-log": ("width-lower", _LOG, {"n": 2, "gamma": 1.0}),
    "width-lower-power": ("width-lower", _POWER, {"n": 1, "gamma": 1.0}),
    # past the exact size: the upper witness is a maximal packing's centers
    "entropy-cloud-l2": ("entropy", {"kind": "random", "m": 300, "dim": 2, "norm": "l2"},
                         {"n": 3}),
    "entropy-cloud-linf": ("entropy", {"kind": "random", "m": 300, "dim": 2, "norm": "linf"},
                           {"n": 3}),
    # a closed form answers: both witnesses are recorded
    "entropy-transport": ("entropy", {"kind": "case-study", "name": "transport", "grid": 64},
                          {"n_values": [2, 4]}),
}
_RUNS.update({f"case-study-{name}": ("case-study", dict(study.audit_inputs[0],
                                                          kind="case-study", name=name),
                                     study.audit_inputs[1])
              for name, study in cli._CASES.items()})


def _config(name):
    command, target, params = _RUNS[name]
    cfg = {"command": command, "seed": 1, "params": params, "verify_witness": True}
    if target is not None:
        cfg["target"] = target
    return cfg


def _key(cert):
    return (cert.get("witness") or {}).get("kind") or cert["quantity"]


@pytest.fixture(scope="module")
def reports():
    return {name: cli.run(_config(name)) for name in _RUNS}


@pytest.mark.parametrize("name", list(_RUNS))
def test_verify_witness_passes_every_audit(reports, name):
    report = reports[name]
    failed = [a["name"] for a in report["audits"] if not a["passed"]]
    assert failed == [] and report["passed"]
    witness = [a for a in report["audits"] if "witness-" in a["name"]]
    assert len(witness) == len(report["certificates"]) > 0


def test_emitted_keys_are_the_table_keys(reports):
    emitted = {_key(c) for r in reports.values() for c in r["certificates"]}
    assert emitted == set(cli.RECHECKS)


def test_unknown_key_fails():
    assert not cli.recheck({"quantity": "inner_entropy", "n": 1, "lower": 0.0, "upper": 1.0,
                            "witness": {"kind": "evaluated-map"}}, None)
    assert not cli.recheck({"quantity": "mystery"}, None)


def _scale(field, factor):
    def tamper(cert, fset):
        cert[field] *= factor
    return tamper


def _packing_eps_to_min_separation(cert, fset):
    idx = cert["indices"]
    cert["eps"] = min(fset.dist_row(a)[b] for k, a in enumerate(idx) for b in idx[k + 1:])


def _shift(field, delta):
    def tamper(cert, fset):
        cert[field] += delta
    return tamper


def _flip(field):
    def tamper(cert, fset):
        cert[field] = not cert[field]
    return tamper


def _centers(make):
    def tamper(cert, fset):
        cert["witness"]["upper"]["centers"] = make(cert, fset)
    return tamper


def _lower_points(make):
    def tamper(cert, fset):
        cert["witness"]["lower"]["points"] = make(cert["witness"]["lower"]["points"])
    return tamper


def _basis_bracket(end, factor):
    def tamper(cert, fset):
        cert["entropy_brackets"][max(cert["entropy_brackets"], key=int)][end] *= factor
    return tamper


def _identity_at_zero(cert, fset):
    cert.update(lower=0.0, upper=0.0, witness={"upper": {"kind": "identity", "size": fset.size},
                                               "lower": {}})


def _set_lower(witness):
    def tamper(cert, fset):
        cert["witness"]["lower"] = witness
    return tamper


def _scale_witness(field, factor):
    def tamper(cert, fset):
        cert["witness"][field] *= factor
    return tamper


def _set_witness(field, value):
    def tamper(cert, fset):
        cert["witness"][field] = value
    return tamper


def _edit_volume(edit):
    def tamper(cert, fset):
        edit(cert["witness"]["volume_condition"])
    return tamper


# key -> (run, tampering that must make the recheck fail)
_TAMPER = {
    "inner_entropy": ("entropy", _scale("upper", 0.99)),
    "packing": ("packing", _packing_eps_to_min_separation),
    "entropy-map": ("width-upper", _scale("value", 0.99)),
    "covering-count": ("width-lower", _scale("value", 1.01)),
    "orthogonal-projection": ("kolmogorov", _scale("value", 0.99)),
    "dyadic-bump-map": ("case-study-power-sequence", _scale("value", 0.99)),
    "collapse_index": ("case-study-power-sequence", _shift("n1", -1)),
    "basis_threshold": ("case-study-orthonormal-basis", _flip("regime_certified")),
    "piecewise-constant-cells": ("kolmogorov-transport", _scale("value", 0.99)),
    "affine-ball-from-subspace": ("case-study-transport", _scale("value", 0.99)),
    "coordinate-subspace": ("case-study-cross-polytope", _scale("value", 0.99)),
    "relu_lipschitz": ("relu-verify", _shift("C_n", -1)),
}
# more tamperings of bracket ends and closed-form counts
_EXTRA = [
    ("inner_entropy", "entropy", _scale("lower", 1.01)),
    ("inner_entropy", "case-study-log-sequence", _scale("upper", 0.99)),
    ("inner_entropy", "case-study-transport", _scale("lower", 1.01)),
    ("covering-count", "width-lower-log", _scale("value", 1.01)),
    ("covering-count", "case-study-log-sequence", _scale("value", 1.01)),
    ("dyadic-bump-map", "case-study-log-sequence", _scale("value", 0.99)),
    ("affine-ball-from-subspace", "case-study-diagonal", _scale("value", 0.99)),
    ("orthogonal-projection", "case-study-diagonal", _scale("value", 0.99)),
    # a bracket the search still confirms, with a witness that is no cover
    # of at most 2**n balls: one point 2**n times, or 50 centers
    ("inner_entropy", "entropy-cloud-l2", _centers(lambda cert, fset: [0] * 2 ** cert["n"])),
    ("inner_entropy", "entropy-cloud-linf", _centers(lambda cert, fset: list(range(50)))),
    # a run's second tampering adds a label to its test id: the same cover
    # with every center shifted below zero, so that no center names a point
    ("inner_entropy", "entropy-cloud-l2", _centers(
        lambda cert, fset: [c - fset.size for c in cert["witness"]["upper"]["centers"]]),
     "negative-centers"),
    # the closed-form bracket is confirmed again, so only its witnesses can fail:
    # a cover with one center dropped, and a lower witness point moved next to
    # another
    ("inner_entropy", "entropy-transport", _centers(
        lambda cert, fset: cert["witness"]["upper"]["centers"][:-1]), "center-dropped"),
    ("inner_entropy", "entropy-transport", _lower_points(
        lambda points: [points[0], points[0] + 1, *points[2:]]), "point-moved"),
    # the witnesses must hold whatever they claim: identity on 18 > 2**3
    # points, 2**n lower points, and an enumeration past N_EXACT points
    ("inner_entropy", "entropy", _identity_at_zero, "identity-on-more-points"),
    ("inner_entropy", "entropy-cloud-l2", _lower_points(lambda points: points[:-1]),
     "point-dropped"),
    ("inner_entropy", "entropy-cloud-linf", _set_lower({"kind": "exact-cover"}),
     "exact-cover-past-n-exact"),
    # fewer dimensions claimed than the recorded cells span
    ("piecewise-constant-cells", "kolmogorov-transport", _shift("n", -1), "n-below-cells"),
    # the basis cloud's own witnesses hold at both ends of each bracket
    ("basis_threshold", "case-study-orthonormal-basis", _basis_bracket(0, 1.01), "lower"),
    ("basis_threshold", "case-study-orthonormal-basis", _basis_bracket(1, 0.99), "upper"),
    # the map rebuilt from the materialised bumps has the recorded constant
    ("dyadic-bump-map", "case-study-log-sequence", _scale_witness("declared_constant", 1.01),
     "declared-constant"),
    # past the materialised prefix only the volume condition speaks for the
    # cubes: at N = 2**40 its dyadic-block majorant fails, while the value
    # still bounds sigma_N
    ("dyadic-bump-map", "case-study-log-sequence", _set_witness("total_terms", 2 ** 40),
     "total-terms"),
]
# the recorded volume bound and sigma_N are closed forms of (generator, c,
# gamma, n, N), so a false record fails even where the condition still holds
_EXTRA += [
    (key, run, tamper, label) for run in ("case-study-log-sequence",
                                               "case-study-power-sequence")
    for key, tamper, label in (
        ("dyadic-bump-map", _edit_volume(lambda v: v.update(lhs_upper=0.0, method="exact-sum")),
         "lhs-upper"),
        ("dyadic-bump-map", _edit_volume(lambda v: v.update(rhs_log2=v["rhs_log2"] + 1)),
         "rhs-log2"),
        ("dyadic-bump-map", _scale_witness("sigma_at_total", 0.5), "sigma-at-total"),
    )
]


def test_tamper_table_covers_every_key():
    assert set(_TAMPER) == set(cli.RECHECKS)


@pytest.mark.parametrize("key,run,tamper",
                         [(k, r, t) for k, (r, t) in _TAMPER.items()] + [e[:3] for e in _EXTRA],
                         ids=list(_TAMPER) + ["-".join(e[:2] + e[3:]) for e in _EXTRA])
def test_tampered_certificate_fails_its_recheck(reports, key, run, tamper):
    cfg = _config(run)
    try:  # the set --verify-witness rebuilds
        fset = cli._target_set(cfg, cfg["seed"])
    except cli.UsageError:
        fset = None
    # a zero value or upper end cannot be scaled into a false claim
    certs = [c for c in reports[run]["certificates"]
             if _key(c) == key and c.get("value", c.get("upper")) != 0]
    assert certs, f"{run} emits no usable {key} certificate"
    cert = certs[-1]
    assert cli.recheck(cert, fset)
    bad = copy.deepcopy(cert)
    tamper(bad, fset)
    assert bad != cert
    assert not cli.recheck(bad, fset)


# --- mutation gates: a producer that overclaims fails its own recheck ---------


def _value_times(factor):
    def mutate(produce):
        def mutant(*args):
            cert, *rest = produce(*args)
            return (dataclasses.replace(cert, value=factor * cert.value), *rest)
        return mutant
    return mutate


def _regime_flipped(produce):
    def mutant(*args, **kwargs):
        report = produce(*args, **kwargs)
        return dict(report, regime_certified=not report["regime_certified"])
    return mutant


def _line_deleted(line):
    """The producer rebuilt from its source without ``line``, in its module's namespace."""
    def mutate(produce):
        source = textwrap.dedent(inspect.getsource(produce)).splitlines(keepends=True)
        kept = [s for s in source if s.strip() != line]
        assert len(kept) == len(source) - 1
        namespace = dict(produce.__globals__)
        exec("".join(kept), namespace)
        return namespace[produce.__name__]
    return mutate


def _limit_minus_one(exact_min_cover):
    def mutant(masks, m, limit=None):
        return exact_min_cover(masks, m, None if limit is None else limit - 1)
    return mutant


def _eps_halved(greedy_packing):
    def mutant(fset, eps, stop_above=None):
        return greedy_packing(fset, eps / 2, stop_above)
    return mutant


# (producer, run, mutation): each mutant claims more than its set allows;
# the basis cloud at m = 3, gamma = 1e6 is outside the regime, so the
# flipped flag claims a threshold that does not hold.  The lower bound that
# skips excluding a block's later rows raises the cloud brackets' lower
# ends; the exact cover deciding at 2**n - 1 raises the 18-point cloud's
# (at n = 0 it finds no cover at all); the packing at 2 eps, not 4 eps,
# raises the covering-count value from 0.039 to 0.384
_MUTANTS = [
    ("kolmogorov_upper", _RUNS["kolmogorov"], _value_times(0.9)),
    ("best_coordinate_subspace", _RUNS["case-study-cross-polytope"], _value_times(0.9)),
    ("transport_kolmogorov_upper", _RUNS["kolmogorov-transport"], _value_times(0.9)),
    ("orthonormal_basis_report", ("case-study", {"kind": "case-study",
                                                 "name": "orthonormal-basis"},
                                  {"m": 3, "gamma": 1e6, "s": 1}), _regime_flipped),
    *[("covering_lower_bound", _RUNS[run],
       _line_deleted("free[k + 1:] &= ~within[k + 1:, ball].any(axis=1)"))
      for run in ("entropy-cloud-l2", "entropy-cloud-linf")],
    ("exact_min_cover", ("entropy", _POINTS, {"n_values": [1, 2, 3]}), _limit_minus_one),
    ("greedy_packing", ("width-lower", {"kind": "random", "m": 300, "dim": 2, "norm": "l2"},
                        {"n": 1, "gamma": 1.0}), _eps_halved),
]


@pytest.mark.parametrize("producer,run,mutate", _MUTANTS,
                         ids=[producer for producer, _, _ in _MUTANTS])
def test_overclaiming_producer_fails_verify_witness(monkeypatch, producer, run, mutate):
    command, target, params = run
    modules = (lipwidth, covering, widths, case_studies, cli)
    mutant = mutate(next(getattr(m, producer) for m in modules if hasattr(m, producer)))
    for module in modules:
        if hasattr(module, producer):
            monkeypatch.setattr(module, producer, mutant)
    if producer == "transport_kolmogorov_upper":  # the kolmogorov command's projector
        monkeypatch.setitem(cli._CASES, "transport",
                            dataclasses.replace(cli._CASES["transport"], kolmogorov=mutant))
    report = cli.run({"command": command, "seed": 1, "target": target, "params": params,
                      "verify_witness": True})
    witness = [a["passed"] for a in report["audits"] if a["name"].startswith("witness-")]
    assert witness and not all(witness) and not report["passed"]


# --- every benchmark job, with its rechecks -----------------------------------

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_jobs_pass_their_rechecks(workload, seed):
    # the small job lists of the benchmark's workloads (read, never changed)
    # with --verify-witness: audit-all re-checks inside its case studies
    audits = [a for cfg in workloads.jobs_for(workload, seed, tiny=True)
              for a in cli.run(dict(cfg, verify_witness=True))["audits"]
              if a["name"].startswith("witness-")]
    assert [a["name"] for a in audits if not a["passed"]] == []
    assert audits
