"""Command-line driver with schema-validated configs and canonical reports.

Reports are JSON; a CSV projection of the certificate table is available
for plotting.  Two runs with the same config and seed produce byte-identical
canonical reports (the ``meta`` block with wall clock, timestamp and the
falsifier's thread count is excluded from the canonical form).

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
from functools import cache
from importlib import resources
from typing import Callable, Optional

import numpy as np

from . import __version__, case_studies as cs, relunet as rn
from .covering import greedy_packing, inner_entropy, recheck_packing, sandwich_audit
from .spaces import FiniteSet, NormedSpace, PointSet, PreconditionError, radius_upper
from .widths import (
    carl_transfer_check,
    kolmogorov_upper,
    recheck_covering_count,
    recheck_entropy_map,
    recheck_orthogonal_projection,
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
    maximum, exclusiveMinimum, allOf and if/then.  JSON booleans are neither
    integers nor numbers.  Beyond JSON Schema, numbers must be finite: RFC
    8259 JSON has no inf or nan, though float flags and ``json.load`` accept
    them.
    """
    kind = schema.get("type")
    if kind is not None and (not isinstance(value, _JSON_TYPES[kind]) or (
            isinstance(value, bool) and kind in ("integer", "number"))):
        raise UsageError(f"{path} must be of type {kind}")
    if kind == "number" and isinstance(value, float) and not math.isfinite(value):
        raise UsageError(f"{path} must be finite, not {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise UsageError(f"{path} must be one of {schema['enum']}, not {value!r}")
    if "const" in schema and value != schema["const"]:
        raise UsageError(f"{path} must be {schema['const']!r}, not {value!r}")
    if "minimum" in schema and value < schema["minimum"]:
        raise UsageError(f"{path} must be >= {schema['minimum']}")
    if "maximum" in schema and value > schema["maximum"]:
        raise UsageError(f"{path} must be <= {schema['maximum']}")
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
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _target_set(target: Optional[dict], seed: int) -> FiniteSet:
    if not target:
        raise UsageError("this command needs a target")
    kind = target.get("kind")
    if kind == "points":
        try:
            return PointSet.from_json({"space": target["space"], "points": target["points"]})
        except ValueError as exc:  # a malformed target, not a numeric failure
            raise UsageError(f"bad points target: {exc}") from exc
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
    # (name, predicate on the certificates) checks that ``audit-all`` adds
    audit_checks: tuple = ()
    # (set, n) -> (certificate, approximants): the study's own Kolmogorov projector
    kolmogorov: Optional[Callable] = None


def _sequence_set(generator: str, target: dict) -> FiniteSet:
    return cs.sequence_set(cs.SequenceSetSpec(generator, target.get("truncation", 256),
                                              float(target.get("c", 1.0))))


def _transport_set(target: dict) -> FiniteSet:
    return cs.transport_set(target.get("grid", 1024))


def _diagonal_set(target: dict) -> FiniteSet:
    return cs.diagonal_set(target.get("truncation", 64))


_CASES = {
    "log-sequence": CaseStudy(
        cs.certify_log_sequence, ({}, {"n": 6, "gamma": 3.0, "max_bumps": 10 ** 4}),
        make_set=lambda target: _sequence_set("log", target)),
    "power-sequence": CaseStudy(
        cs.certify_power_sequence, ({}, {"c": 1.0, "gamma": 4.0, "max_bumps": 10 ** 3}),
        make_set=lambda target: _sequence_set("power", target)),
    "transport": CaseStudy(
        lambda target, params: cs.certify_transport(_transport_set(target), params),
        ({"grid": 256}, {"n_values": [1, 3, 6], "n_values_kolmogorov": [16]}),
        make_set=_transport_set, kolmogorov=cs.transport_kolmogorov_upper),
    "diagonal": CaseStudy(
        lambda target, params: cs.certify_diagonal(_diagonal_set(target), params),
        ({"truncation": 48}, {"n_values": [8]}), make_set=_diagonal_set),
    "orthonormal-basis": CaseStudy(
        cs.certify_orthonormal_basis, ({}, {"m": 10, "s": 1}),
        audit_checks=(("regime-certified", lambda certs: certs[0]["regime_certified"]),)),
    "cross-polytope": CaseStudy(
        cs.certify_cross_polytope, ({}, {"n_values": [1, 2]}),
        audit_checks=(("closed-form-decreasing", lambda certs: all(
            cs.cross_polytope_width(n) > cs.cross_polytope_width(n + 1)
            for n in range(1, 30))),)),
}


def _case_study(target: dict) -> CaseStudy:
    name = target.get("name")
    if name not in _CASES:
        raise UsageError(f"unknown case study {name!r}; choose from {tuple(_CASES)}")
    return _CASES[name]


def _study_of(target: Optional[dict]) -> Optional[CaseStudy]:
    """The row behind a case-study target; None for other kinds, whatever their name."""
    return _case_study(target) if (target or {}).get("kind") == "case-study" else None


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
    if "eps" in params:
        eps = float(params["eps"])
    else:
        eps = fset.diameter() / 4.0
        if eps <= 0:
            raise PreconditionError("the target's diameter is zero, so the default "
                                    "eps = diameter/4 is 0; pass eps")
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
        if gamma <= 0:
            raise PreconditionError("the target's diameter is zero, so the default "
                                    "gamma = 2 * radius is 0; pass gamma")
    cert = _jsonify(width_lower_certified(fset, n, gamma).to_json())
    return [cert], [{"name": "width-lower", "passed": recheck(cert, fset)}]


def _run_kolmogorov(cfg, seed):
    pset = _target_set(cfg.get("target"), seed)
    params = cfg.get("params", {})
    n = int(params.get("n", 2))
    study = _study_of(cfg.get("target"))
    if study is not None and study.kolmogorov is not None:
        cert, _ = study.kolmogorov(pset, n)
    else:
        axes, dim = params.get("subspace_axes", list(range(n))), pset.space.dim
        if any(a >= dim for a in axes):
            raise UsageError(f"subspace axis {max(axes)} is out of range for a "
                             f"{dim}-dimensional target (axes are 0..{dim - 1})")
        cert, _ = kolmogorov_upper(pset, axes)
    cert = _jsonify(cert.to_json())
    return [cert], [{"name": "kolmogorov-upper", "passed": recheck(cert, pset)}]


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
        study_certs, study_audits = _certify(
            {"command": "case-study", "target": dict(target, kind="case-study", name=name),
             "params": params, "verify_witness": cfg.get("verify_witness", False)}, seed)
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


# certificate key (witness kind, else quantity) -> recheck(cert, fset) -> bool,
# each defined beside the code that produces the certificate
RECHECKS = {
    "inner_entropy": cs.recheck_entropy,
    "packing": recheck_packing,
    "entropy-map": recheck_entropy_map,
    "covering-count": recheck_covering_count,
    "orthogonal-projection": recheck_orthogonal_projection,
    "dyadic-bump-map": cs.recheck_dyadic_bump_map,
    "collapse_index": cs.recheck_collapse_index,
    "basis_threshold": cs.recheck_basis_threshold,
    "piecewise-constant-cells": cs.recheck_transport_cells,
    "affine-ball-from-subspace": cs.recheck_affine_ball,
    "coordinate-subspace": cs.recheck_octahedron_subspace,
    "kolmogorov_width": cs.recheck_cross_polytope_width,
    "relu_lipschitz": rn.recheck_lipschitz,
}


def recheck(cert: dict, fset: Optional[FiniteSet]) -> bool:
    """Re-check a JSON certificate with its key's entry in RECHECKS.  An
    unknown key fails, as does a recheck that raises: a missing field, a
    point a cover misses, or no set to recompute from."""
    try:
        key = (cert.get("witness") or {}).get("kind") or cert.get("quantity")
        return bool(RECHECKS[key](cert, fset))
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError):
        return False


def _certify(cfg: dict, seed: int) -> tuple:
    """The handler's certificates and audits, made JSON-safe; ``verify_witness``
    adds a recheck of each certificate against the target's set.  audit-all
    has no target: it re-checks inside each case study."""
    certs, audits = _jsonify(_HANDLERS[cfg["command"]](cfg, seed))
    if cfg.get("verify_witness") and cfg["command"] != "audit-all":
        try:
            fset = _target_set(cfg.get("target"), seed)
        except UsageError:
            fset = None
        audits = list(audits) + [{"name": f"witness-{i}-{c.get('quantity')}",
                                  "passed": recheck(c, fset)} for i, c in enumerate(certs)]
    return certs, audits


def run(cfg: dict) -> dict:
    """Validate, dispatch, and assemble the run report."""
    cfg = validate_config(cfg)
    seed = int(cfg.get("seed", 0))
    start = time.perf_counter()
    certs, audits = _certify(cfg, seed)
    passed = all(a.get("passed", False) for a in audits) if audits else True
    report = {
        "config": cfg,  # validated, so already JSON-safe
        "version": __version__,
        "certificates": certs,
        "audits": audits,
        "passed": passed,
        "meta": {
            "wall_clock_s": time.perf_counter() - start,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "workers": rn.worker_count(),  # threads relu-verify may use here
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


# the parameter flags, each --<name> copied into the config's params
_PARAM_FLAGS = {"n": int, "k": int, "gamma": float, "eps": float, "trials": int,
                "d": int, "width": int, "depth": int}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: flags may go before or after the command."""
    p = _ArgumentParser(prog="lipwidth", description="certified width and entropy bounds")
    p.add_argument("command", nargs="?", choices=tuple(_HANDLERS))
    p.add_argument("action", nargs="?", choices=("run",), help="case-study only")
    p.add_argument("name", nargs="?", choices=tuple(_CASES), help="case-study only")
    p.add_argument("--config", help="JSON config file (overrides other flags)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for report files")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")
    p.add_argument("--verify-witness", action="store_true")
    p.add_argument("--target-json", help="inline JSON target spec")
    for key, kind in _PARAM_FLAGS.items():
        aliases = ("--W",) if key == "width" else ()
        p.add_argument(f"--{key}", *aliases, type=kind)
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` once per process, with its usage formatted once:
    ``parse_intermixed_args`` formats an unset usage again on every call."""
    p = build_parser()
    p.usage = p.format_usage()[len("usage: "):]
    return p


def _config_from_args(args) -> dict:
    if args.config:
        try:
            with open(args.config) as fh:
                return json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config}: {exc.strerror}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not args.command:
        raise UsageError("no command given (and no --config)")
    if args.command == "case-study" and args.name is None:
        raise UsageError("case-study needs: case-study run <name>")
    if args.command != "case-study" and args.action is not None:
        raise UsageError(f"{args.command} takes no positional arguments")
    cfg: dict = {"command": args.command, "seed": args.seed}
    params = {key: getattr(args, key) for key in _PARAM_FLAGS
              if getattr(args, key) is not None}
    if params:
        cfg["params"] = params
    if args.target_json:
        try:
            cfg["target"] = json.loads(args.target_json)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--target-json is not valid JSON: {exc}") from exc
        if not isinstance(cfg["target"], dict):
            raise UsageError("--target-json must be a JSON object")
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
    args = _parser().parse_intermixed_args(argv)
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
    text = json.dumps(report, indent=2, sort_keys=True)
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
