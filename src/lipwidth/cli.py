"""Command-line driver with schema-validated configs and canonical reports.

Reports are JSON; a CSV projection of the certificate table is available
for plotting.  Two runs with the same config and seed produce byte-identical
canonical reports (the ``meta`` block with wall clock and timestamp is
excluded from the canonical form).

Exit codes: 0 all audited inequalities pass, 1 usage error, 2 inequality
violation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from importlib import resources
from typing import Callable, Optional

import numpy as np

from . import __version__, case_studies as cs, relunet as rn
from .covering import greedy_packing, inner_entropy, sandwich_audit
from .spaces import FiniteSet, NormedSpace, PointSet, PreconditionError, radius_upper
from .widths import (
    best_coordinate_subspace,
    carl_transfer_check,
    kolmogorov_comparison,
    kolmogorov_upper,
    width_lower_certified,
    width_upper_from_entropy,
)


class UsageError(ValueError):
    pass


# The one config definition; ``validate_config`` checks configs against it.
CONFIG_SCHEMA = json.loads(
    resources.files(__package__).joinpath("config.schema.json").read_text())

_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "integer": int, "number": (int, float)}


def resolve_gamma(params: dict, fset=None) -> float:
    """gamma from either a number or one of the three schedule shapes.

    Schedules: {"type": "constant", "value": g}; {"type": "entropy-scaled",
    "k": k} meaning 2**k * rad; {"type": "geometric", "coeff": C, "delta": d,
    "lambda": l} meaning C * n**d * l**n at n = params["n"].
    """
    sched = params.get("gamma_schedule")
    if sched is None:
        if "gamma" not in params:
            raise UsageError("gamma or gamma_schedule required")
        return float(params["gamma"])
    kind = sched.get("type")
    if kind == "constant":
        return float(sched["value"])
    if kind == "entropy-scaled":
        if fset is None:
            raise UsageError("entropy-scaled schedule needs a target set")
        return 2.0 ** int(sched["k"]) * radius_upper(fset).upper
    if kind == "geometric":
        n = int(params.get("n", 1))
        return float(sched["coeff"]) * n ** float(sched["delta"]) \
            * float(sched["lambda"]) ** n
    raise UsageError(f"unknown gamma schedule {kind!r}")


def _check(value, schema: dict, path: str) -> None:
    """Raise UsageError where ``value`` breaks ``schema``.

    Covers the JSON Schema subset that config.schema.json uses: type, enum,
    const, required, properties, additionalProperties: false, items, minimum,
    exclusiveMinimum, allOf and if/then.  JSON booleans are neither integers
    nor numbers.
    """
    kind = schema.get("type")
    if kind is not None and (not isinstance(value, _JSON_TYPES[kind]) or (
            isinstance(value, bool) and kind in ("integer", "number"))):
        raise UsageError(f"{path} must be of type {kind}")
    if "enum" in schema and value not in schema["enum"]:
        raise UsageError(f"{path} must be one of {schema['enum']}, not {value!r}")
    if "const" in schema and value != schema["const"]:
        raise UsageError(f"{path} must be {schema['const']!r}, not {value!r}")
    if "minimum" in schema and value < schema["minimum"]:
        raise UsageError(f"{path} must be >= {schema['minimum']}")
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        raise UsageError(f"{path} must be > {schema['exclusiveMinimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise UsageError(f"missing config field {path}.{key}")
        props = schema.get("properties", {})
        for key, item in value.items():
            if key in props:
                _check(item, props[key], f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                raise UsageError(f"unknown config field {path}.{key}")
    if isinstance(value, list) and "items" in schema:
        path += "[]"  # no per-item index: configs can carry 10^4 points
        for item in value:
            _check(item, schema["items"], path)
    for sub in schema.get("allOf", ()):
        _check(value, sub, path)
    if "if" in schema:
        try:
            _check(value, schema["if"], path)
        except UsageError:
            return
        _check(value, schema["then"], path)


def validate_config(cfg: dict) -> dict:
    """Strict validation against CONFIG_SCHEMA: unknown fields anywhere are
    rejected."""
    _check(cfg, CONFIG_SCHEMA, "config")
    return cfg


def _jsonify(obj):
    """Convert numpy scalars/arrays so reports serialise canonically."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def canonical_report(report: dict) -> str:
    doc = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(_jsonify(doc), sort_keys=True, separators=(",", ":"))


def _target_set(target: Optional[dict], seed: int) -> FiniteSet:
    if not target:
        raise UsageError("this command needs a target")
    kind = target.get("kind")
    if kind == "points":
        return PointSet.from_json({"space": target["space"], "points": target["points"]})
    if kind == "random":
        rng = np.random.default_rng(seed)
        dim = int(target.get("dim", 2))
        m = int(target.get("m", 16))
        norm = target.get("norm", "l2")
        return PointSet(NormedSpace(dim, norm), rng.uniform(-1, 1, size=(m, dim)))
    if kind == "case-study":
        study = _case_study(target)
        if study.make_set is None:
            raise UsageError(f"no set constructor for case study {target['name']!r}")
        return study.make_set(target)
    raise UsageError(f"unknown target kind {kind!r}")


# ---------------------------------------------------------------------------
# case studies: one row per study in _CASES
# ---------------------------------------------------------------------------


def _sequence_spec(generator: str, target: dict) -> cs.SequenceSetSpec:
    return cs.SequenceSetSpec(generator=generator,
                              truncation=int(target.get("truncation", 256)),
                              c=float(target.get("c", 1.0)))


def _sequence_set(generator: str, target: dict) -> cs.SequenceSet:
    return cs.sequence_set(_sequence_spec(generator, target))


def _transport_set(target: dict) -> cs.TransportSet:
    return cs.transport_set(cs.TransportSpec(grid=int(target.get("grid", 1024))))


def _diagonal_set(target: dict) -> PointSet:
    return cs.diagonal_set(cs.DiagonalSetSpec(int(target.get("truncation", 64))))


def _log_sequence(target, params):
    n = int(params.get("n", 6))
    gamma = float(params.get("gamma", 3.0))
    rep = cs.log_sequence_certificates(n, gamma,
                                       max_bumps=int(params.get("max_bumps", 10 ** 5)))
    certs = [rep.upper.to_json(), rep.lower.to_json(),
             {"quantity": "inner_entropy", "n": n,
              "lower": rep.entropy_bracket[0], "upper": rep.entropy_bracket[1],
              "reference": rep.entropy_exact}]
    audits = [
        {"name": "upper-equals-rate", "passed":
            abs(rep.upper.value - 1.0 / (n * math.log2(n + 1))) <= 1e-12},
        {"name": "entropy-bracket-contains-reference", "passed":
            rep.entropy_bracket[0] <= rep.entropy_exact * (1 + 1e-9)
            and rep.entropy_bracket[1] >= rep.entropy_exact * (1 - 1e-9)},
        {"name": "lower-positive-below-upper", "passed":
            0 < rep.lower.value <= rep.upper.value},
    ]
    return certs, audits


def _power_sequence(target, params):
    c = float(params.get("c", 1.0))
    gamma = float(params.get("gamma", 4.0))
    n1 = cs.power_collapse_index(c, gamma)
    certs = [{"quantity": "collapse_index", "c": c, "gamma": gamma, "n1": n1}]
    audits = []
    for total in (10 ** 3, 10 ** 6):
        cert = cs.power_width_upper(c, gamma, n1, total,
                                    max_bumps=int(params.get("max_bumps", 10 ** 5)))
        certs.append(cert.to_json())
        audits.append({"name": f"upper-sigma-N{total}", "passed":
                       cert.value <= float(total) ** (-c) * (1 + 1e-12)})
    return certs, audits


def _transport(target, params):
    tset = _transport_set(target)
    refs = cs.transport_reference()
    certs, audits = [], []
    for n in params.get("n_values", [1, 3, 8]):
        est = inner_entropy(tset, int(n))
        ref = refs["entropy"](int(n))
        certs.append({"quantity": "inner_entropy", "n": int(n),
                      "lower": est.lower, "upper": est.upper, "reference": ref})
        audits.append({"name": f"entropy-contains-ref-n{n}", "passed":
                       est.lower <= ref * (1 + 1e-9) and est.upper >= ref * (1 - 1e-9)})
    for n in params.get("n_values_kolmogorov", [4, 16]):
        cert, _ = cs.transport_kolmogorov_upper(tset, int(n))
        certs.append(cert.to_json())
        audits.append({"name": f"kolmogorov-upper-n{n}", "passed":
                       refs["kolmogorov_lower"](int(n)) <= cert.value
                       <= refs["kolmogorov_upper"](int(n)) * (1 + 1e-12)})
        comp = cs.transport_comparison(tset, int(n))
        certs.append(comp.to_json())
        audits.append({"name": f"comparison-n{n}", "passed":
                       comp.value <= cert.value + 1e-9})
    return certs, audits


def _diagonal(target, params):
    dset = _diagonal_set(target)
    certs, audits = [], []
    for n in params.get("n_values", [4, 8, 16]):
        basis = np.eye(dset.space.dim)[: int(n)]
        cert, approx = kolmogorov_upper(dset, basis)
        comp = kolmogorov_comparison(dset, cert, basis, approx)
        certs += [cert.to_json(), comp.to_json()]
        ref = cs.diagonal_reference_upper(int(n))
        audits += [
            {"name": f"kolmogorov-matches-ref-n{n}", "passed":
                abs(cert.value - ref) <= 1e-9},
            {"name": f"comparison-n{n}", "passed": comp.value <= cert.value + 1e-9},
        ]
    return certs, audits


def _orthonormal_basis(target, params):
    m = int(params.get("m", 14))
    gamma = float(params.get("gamma", 2.0 * math.sqrt(2.0)))
    s = int(params.get("s", 2))
    rep = cs.orthonormal_basis_report(m, gamma, s)
    cert = {"quantity": "basis_threshold", "m": m, "gamma": gamma, "s": s,
            "threshold_lhs": rep.threshold_lhs,
            "threshold_rhs": rep.threshold_rhs,
            "regime_certified": rep.regime_certified,
            "entropy_brackets": {str(k): list(v)
                                 for k, v in rep.entropy_brackets.items()}}
    ok = all(lo <= rep.entropy_value * (1 + 1e-9) and hi >= rep.entropy_value * (1 - 1e-9)
             for lo, hi in rep.entropy_brackets.values())
    return [cert], [{"name": "entropy-saturates", "passed": ok}]


def _cross_polytope(target, params):
    certs, audits = [], []
    for n in params.get("n_values", [1, 2, 4]):
        val = cs.cross_polytope_width(int(n))
        certs.append({"quantity": "kolmogorov_width", "n": int(n),
                      "value": val, "direction": "reference"})
        cert, _ = best_coordinate_subspace(cs.octahedron_set(int(n)), int(n))
        certs.append(cert.to_json())
        audits.append({"name": f"coordinate-upper-above-closed-form-n{n}",
                       "passed": cert.value >= val * (1 - 1e-12)})
    return certs, audits


@dataclass(frozen=True)
class CaseStudy:
    """One case study: what ``case-study run`` computes, where ``audit-all``
    runs it, and the target set other commands can take from it."""

    # (target, params) -> (certificates, audits)
    certify: Callable[[dict, dict], tuple]
    # the (target, params) that ``audit-all`` runs ``certify`` at
    audit_inputs: tuple
    # target -> set, for entropy, packing, the width commands and --verify-witness
    make_set: Optional[Callable[[dict], FiniteSet]] = None
    # target -> SequenceSetSpec, whose closed form gives width-lower its packing counts
    sequence_spec: Optional[Callable[[dict], cs.SequenceSetSpec]] = None
    # (name, predicate on the certificates) checks that ``audit-all`` adds
    audit_checks: tuple = ()


_CASES = {
    "log-sequence": CaseStudy(
        _log_sequence, ({}, {"n": 6, "gamma": 3.0, "max_bumps": 10 ** 4}),
        make_set=partial(_sequence_set, "log"), sequence_spec=partial(_sequence_spec, "log")),
    "power-sequence": CaseStudy(
        _power_sequence, ({}, {"c": 1.0, "gamma": 4.0, "max_bumps": 10 ** 3}),
        make_set=partial(_sequence_set, "power"),
        sequence_spec=partial(_sequence_spec, "power")),
    "transport": CaseStudy(
        _transport, ({"grid": 256}, {"n_values": [1, 3, 6], "n_values_kolmogorov": [16]}),
        make_set=_transport_set),
    "diagonal": CaseStudy(
        _diagonal, ({"truncation": 48}, {"n_values": [8]}), make_set=_diagonal_set),
    "orthonormal-basis": CaseStudy(
        _orthonormal_basis, ({}, {"m": 10, "s": 1}),
        audit_checks=(("regime-certified", lambda certs: certs[0]["regime_certified"]),)),
    "cross-polytope": CaseStudy(
        _cross_polytope, ({}, {"n_values": [1, 2]}),
        audit_checks=(("closed-form-decreasing", lambda certs: all(
            cs.cross_polytope_width(n) > cs.cross_polytope_width(n + 1)
            for n in range(1, 30))),)),
}


def _case_study(target: dict) -> CaseStudy:
    name = target.get("name")
    if name not in _CASES:
        raise UsageError(f"unknown case study {name!r}; choose from {tuple(_CASES)}")
    return _CASES[name]


# ---------------------------------------------------------------------------
# command handlers (each returns certificates + audits)
# ---------------------------------------------------------------------------


def _run_entropy(cfg, seed):
    fset = _target_set(cfg.get("target"), seed)
    params = cfg.get("params", {})
    ns = params.get("n_values", [params.get("n", 3)])
    certs, audits = [], []
    for n in ns:
        est = inner_entropy(fset, int(n))
        certs.append({"quantity": "inner_entropy", "n": int(n), "lower": est.lower,
                      "upper": est.upper, "exact": est.exact,
                      "witness": {"upper": est.upper_witness, "lower": est.lower_witness}})
        audits.append({"name": f"entropy-bracket-n{n}", "passed": est.lower <= est.upper})
    return certs, audits


def _run_packing(cfg, seed):
    fset = _target_set(cfg.get("target"), seed)
    params = cfg.get("params", {})
    eps = float(params.get("eps", fset.diameter() / 4.0))
    pack = greedy_packing(fset, eps)
    audit = sandwich_audit(fset, eps)
    certs = [{"quantity": "packing", "eps": eps, "size": pack.size,
              "indices": list(pack.indices), "maximal": pack.maximal}]
    audits = [{"name": f"sandwich-eps{eps:.6g}", "passed": audit.passed,
               "detail": [list(c) for c in audit.checks]}]
    return certs, audits


def _run_width_upper(cfg, seed):
    pset = _target_set(cfg.get("target"), seed)
    params = cfg.get("params", {})
    k = int(params.get("k", 1))
    n = int(params.get("n", 2))
    cert = width_upper_from_entropy(pset, k, n)
    verified = cert.witness["realized_error"] <= cert.value + 1e-9
    return [cert.to_json()], [{"name": "width-upper-realized", "passed": bool(verified)}]


def _run_width_lower(cfg, seed):
    fset = _target_set(cfg.get("target"), seed)
    params = cfg.get("params", {})
    n = int(params.get("n", 2))
    if "gamma" in params or "gamma_schedule" in params:
        gamma = resolve_gamma(params, fset)
    else:
        gamma = 2.0 * radius_upper(fset).upper
    count_log2 = None
    study = _CASES.get((cfg.get("target") or {}).get("name"))
    if study is not None and study.sequence_spec is not None:
        spec = study.sequence_spec(cfg["target"])
        count_log2 = lambda t: cs.sequence_packing_count_log2(spec, t)
    cert = width_lower_certified(fset, n, gamma, count_log2=count_log2).to_json()
    return [cert], [{"name": "width-lower", "passed": lower_certificate_holds(cert)}]


def _run_kolmogorov(cfg, seed):
    pset = _target_set(cfg.get("target"), seed)
    params = cfg.get("params", {})
    n = int(params.get("n", 2))
    if isinstance(pset, cs.TransportSet):
        cert, _ = cs.transport_kolmogorov_upper(pset, n)
    else:
        axes = params.get("subspace_axes", list(range(n)))
        basis = np.eye(pset.space.dim)[np.asarray(axes, dtype=int)]
        cert, _ = kolmogorov_upper(pset, basis)
    return [cert.to_json()], [{"name": "kolmogorov-upper", "passed": True}]


def _run_relu_verify(cfg, seed):
    params = cfg.get("params", {})
    config = rn.ReLUNetConfig(
        d=int(params.get("d", 1)),
        width=int(params.get("width", 2)),
        depth=int(params.get("depth", params.get("n", 2))),  # --n is the depth here
        grid=params.get("grid"),
    )
    res = rn.verify_lipschitz(config, seed=seed, trials=int(params.get("trials", 1000)))
    cert = {"quantity": "relu_lipschitz", "d": config.d, "width": config.width,
            "depth": config.depth, "C_n": res.bound, "coarse_bound": res.coarse,
            "max_ratio": res.max_ratio, "pass": res.passed}
    return [cert], [{"name": "relu-ratio-below-bound", "passed": res.passed}]


def _run_case_study(cfg, seed):
    target = cfg.get("target") or {}
    return _case_study(target).certify(target, cfg.get("params", {}))


def _run_audit_all(cfg, seed):
    """Every case study at its audit inputs, then the checks that are not
    case studies."""
    certs, audits = [], []
    for name, study in _CASES.items():
        target, params = study.audit_inputs
        study_certs, study_audits = study.certify(target, params)
        certs += study_certs
        audits += [dict(a, name=f"{name}/{a['name']}") for a in study_audits]
        audits += [{"name": f"{name}/{check}", "passed": bool(pred(study_certs))}
                   for check, pred in study.audit_checks]
    rng = np.random.default_rng(seed)

    # sandwich chain on random small sets with exact covers
    bad = 0
    for t in range(40):
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(2, 21))
        norm = ("l1", "l2", "linf")[t % 3]
        ps = PointSet(NormedSpace(dim, norm), rng.uniform(-1, 1, size=(m, dim)))
        diam = ps.diameter()
        for eps in np.linspace(diam / 8, diam, 5):
            if eps <= 0:
                continue
            if not sandwich_audit(ps, float(eps)).passed:
                bad += 1
    audits.append({"name": "sandwich-random-sets", "passed": bad == 0, "violations": bad})

    # entropy exactness on the log sequence set
    ok = True
    for n in (1, 2, 4, 6):
        spec = cs.SequenceSetSpec(generator="log", truncation=2 ** (n + 2))
        est = inner_entropy(cs.sequence_set(spec), n)
        ref = cs.sigma_at(spec, 2 ** n)
        ok &= est.lower <= ref * (1 + 1e-9) and est.upper >= ref * (1 - 1e-9)
        ok &= (est.upper - est.lower) <= 1e-6 * ref
    audits.append({"name": "entropy-exactness-log-sequence", "passed": bool(ok)})

    # entropy-map pipeline on random sets
    ok = True
    for t in range(10):
        ps = PointSet(NormedSpace(2, "l2"), rng.uniform(-1, 1, size=(18, 2)))
        cert = width_upper_from_entropy(ps, k=1, n=3)
        ok &= cert.witness["realized_error"] <= cert.value + 1e-9
        ok &= cert.witness["declared_constant"] <= cert.gamma * (1 + 1e-9)
    audits.append({"name": "entropy-map-pipeline", "passed": bool(ok)})

    # relu bounds
    ok = True
    for d, w, depth in ((1, 2, 2), (2, 3, 3)):
        res = rn.verify_lipschitz(rn.ReLUNetConfig(d=d, width=w, depth=depth),
                                  seed=seed, trials=400)
        ok &= res.passed
    audits.append({"name": "relu-lipschitz", "passed": bool(ok)})

    # carl transfer coherence on the log sequence
    eta = cs.log_sequence_entropy_lower
    rep3 = carl_transfer_check(6, 3.0, 1.0 / (6 * math.log2(7)), eta)
    rep4 = carl_transfer_check(6, 3.0, 1e-9, eta)
    audits.append({"name": "carl-transfer", "passed":
                   (not rep3.contradiction) and rep4.contradiction})

    return certs, audits


_HANDLERS = {
    "entropy": _run_entropy,
    "packing": _run_packing,
    "width-upper": _run_width_upper,
    "width-lower": _run_width_lower,
    "kolmogorov": _run_kolmogorov,
    "case-study": _run_case_study,
    "relu-verify": _run_relu_verify,
    "audit-all": _run_audit_all,
}


def _covered_by(fset, centers, eps) -> bool:
    from .covering import coverage_assignment

    try:
        coverage_assignment(fset, list(centers), max(eps, 1e-300))
        return True
    except PreconditionError:
        return False


def lower_certificate_holds(cert: dict) -> bool:
    """Re-check a covering-count lower certificate from its witness.

    Value eps needs log2 N_{2 eps} > n log2(3 gamma / eps); when no eps
    qualified, the value must be 0.
    """
    w = cert["witness"]
    if w.get("count_source") == "none-qualified":
        return cert["value"] == 0.0
    thr = cert["n"] * math.log2(3.0 * cert["gamma"] / w["eps"])
    return bool(w["count_log2"] > thr - 1e-9 and cert["value"] == w["eps"])


def witness_audit_entries(certs: list, fset=None) -> list:
    """Re-check each certificate from its recorded witness.

    Cover witnesses are re-validated against the (re-derived) set geometry;
    closed-form witnesses are re-validated arithmetically.  Certificates
    with no checkable witness fail the audit rather than passing silently.
    """
    entries = []
    for i, cert in enumerate(certs):
        q = cert.get("quantity")
        w = cert.get("witness", {}) or {}
        kind = w.get("kind")
        ok = None
        if q == "inner_entropy":
            uw = w.get("upper", {}) if isinstance(w.get("upper"), dict) else {}
            if uw.get("kind") in ("exact-cover", "maximal-packing-cover") and fset is not None:
                ok = len(uw["centers"]) <= 2 ** int(cert["n"]) and \
                    _covered_by(fset, uw["centers"], uw["eps"])
            elif uw.get("kind") in ("identity", "singleton"):
                ok = cert["upper"] == 0.0
            elif "reference" in cert:
                ok = cert["lower"] <= cert["upper"]
        elif q == "packing" and fset is not None:
            idx = cert["indices"]
            seps = [fset.dist(a, b) for ai, a in enumerate(idx) for b in idx[ai + 1:]]
            ok = all(s > cert["eps"] for s in seps)
        elif q == "lipschitz_width" and cert.get("direction") == "upper":
            if kind == "entropy-map":
                ok = (w["realized_error"] <= cert["value"] * (1 + 1e-9) + 1e-15
                      and w["declared_constant"] <= cert["gamma"] * (1 + 1e-9))
                if ok and fset is not None and cert["value"] > 0:
                    ok = _covered_by(fset, w["cover_centers"], cert["value"])
            elif kind == "dyadic-bump-map":
                ok = (w["sigma_at_total"] <= cert["value"] * (1 + 1e-12)
                      and w["declared_constant"] <= cert["gamma"] * (1 + 1e-9))
            elif kind == "affine-ball-from-subspace":
                ok = cert["value"] <= w["kolmogorov_value"] + 1e-9
            elif kind == "evaluated-map":
                ok = cert["value"] >= 0.0
        elif q == "lipschitz_width" and cert.get("direction") == "lower":
            ok = lower_certificate_holds(cert)
        elif q == "kolmogorov_width":
            ok = cert["value"] >= 0.0 and kind in (
                "orthogonal-projection", "coordinate-subspace",
                "piecewise-constant-cells", None)
        elif q in ("relu_lipschitz",):
            trace = rn.lip_bound(rn.ReLUNetConfig(d=cert["d"], width=cert["width"],
                                                  depth=cert["depth"]))
            ok = trace.final == cert["C_n"] and cert["max_ratio"] <= cert["C_n"]
        elif q in ("collapse_index", "basis_threshold") or cert.get("direction") == "reference":
            ok = True  # closed forms re-derived by their own handlers
        entries.append({"name": f"witness-{i}-{q}", "passed": bool(ok)})
    return entries


def run(cfg: dict) -> dict:
    """Validate, dispatch, and assemble the run report."""
    cfg = validate_config(cfg)
    seed = int(cfg.get("seed", 0))
    start = time.perf_counter()
    certs, audits = _HANDLERS[cfg["command"]](cfg, seed)
    if cfg.get("verify_witness"):
        try:
            fset = _target_set(cfg.get("target"), seed)
        except UsageError:
            fset = None
        audits = list(audits) + witness_audit_entries(_jsonify(certs), fset=fset)
    passed = all(a.get("passed", False) for a in audits) if audits else True
    report = {
        "config": _jsonify(cfg),
        "version": __version__,
        "certificates": _jsonify(certs),
        "audits": _jsonify(audits),
        "passed": passed,
        "meta": {
            "wall_clock_s": time.perf_counter() - start,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }
    return report


def certificates_csv(report: dict) -> str:
    """CSV projection of the certificate table, one row per certificate."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["quantity", "n", "gamma", "direction", "reference",
                     "lower", "upper", "value"])
    for c in report.get("certificates", []):
        writer.writerow([
            c.get("quantity", ""), c.get("n", ""), c.get("gamma", ""),
            c.get("direction", ""), c.get("reference", ""),
            c.get("lower", ""), c.get("upper", ""), c.get("value", ""),
        ])
    return buf.getvalue()


class _ArgumentParser(argparse.ArgumentParser):
    """Bad flags are usage errors (exit 1); argparse's own exit code, 2, is
    the inequality-violation code here.  ``--help`` still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (overrides other flags)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", help="directory for report files")
    common.add_argument("--format", choices=("json", "csv", "both"), default="json")
    common.add_argument("--verify-witness", action="store_true")
    p = _ArgumentParser(prog="lipwidth", parents=[common],
                        description="certified width and entropy bounds")
    sub = p.add_subparsers(dest="command")
    for name in _HANDLERS:
        sp = sub.add_parser(name, parents=[common])
        if name == "case-study":
            sp.add_argument("action", choices=("run",))
            sp.add_argument("name", choices=tuple(_CASES))
        sp.add_argument("--target-json", help="inline JSON target spec")
        sp.add_argument("--n", type=int)
        sp.add_argument("--k", type=int)
        sp.add_argument("--gamma", type=float)
        sp.add_argument("--eps", type=float)
        sp.add_argument("--trials", type=int)
        sp.add_argument("--d", type=int)
        sp.add_argument("--width", "--W", dest="width", type=int)
        sp.add_argument("--depth", type=int)
    return p


def _config_from_args(args) -> dict:
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"config is not valid JSON: {exc}") from exc
        return cfg
    if not args.command:
        raise UsageError("no command given (and no --config)")
    cfg: dict = {"command": args.command, "seed": args.seed}
    params = {}
    for key in ("n", "k", "gamma", "eps", "trials", "d", "width", "depth"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if params:
        cfg["params"] = params
    if getattr(args, "target_json", None):
        cfg["target"] = json.loads(args.target_json)
    if args.command == "case-study":
        cfg.setdefault("target", {})["kind"] = "case-study"
        cfg["target"]["name"] = args.name
    if args.verify_witness:
        cfg["verify_witness"] = True
    if args.out:
        cfg["out"] = args.out
    if args.format != "json":
        cfg["format"] = args.format
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report = run(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    out_format = cfg.get("format", "json")
    text = json.dumps(_jsonify(report), indent=2, sort_keys=True)
    if cfg.get("out"):
        import os

        os.makedirs(cfg["out"], exist_ok=True)
        base = os.path.join(cfg["out"], f"{cfg['command']}-report")
        if out_format in ("json", "both"):
            with open(base + ".json", "w") as fh:
                fh.write(text + "\n")
            with open(base + ".canonical.json", "w") as fh:
                fh.write(canonical_report(report) + "\n")
        if out_format in ("csv", "both"):
            with open(base + ".csv", "w") as fh:
                fh.write(certificates_csv(report))
    else:
        print(text)
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
