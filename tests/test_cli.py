import hashlib
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from lipwidth.cli import (
    _CASES,
    UsageError,
    canonical_report,
    certificates_csv,
    main,
    run,
    validate_config,
)


def run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "lipwidth", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_validate_rejects_unknown_field():
    with pytest.raises(UsageError):
        validate_config({"command": "entropy", "bogus": 1})
    with pytest.raises(UsageError):
        validate_config({"command": "entropy", "params": {"mystery": 2}})


def test_validate_rejects_missing_or_bad_command():
    with pytest.raises(UsageError):
        validate_config({})
    with pytest.raises(UsageError):
        validate_config({"command": "frobnicate"})
    with pytest.raises(UsageError):
        validate_config({"command": "entropy", "format": "xml"})


def test_empty_config_file_is_usage_error(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    proc = run_cli(["--config", str(cfg)])
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


def test_invalid_json_config(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    proc = run_cli(["--config", str(cfg)])
    assert proc.returncode == 1


def test_entropy_command_on_points_target():
    cfg = {
        "command": "entropy",
        "seed": 1,
        "target": {
            "kind": "points",
            "space": {"dim": 2, "norm": {"kind": "l2"}},
            "points": np.eye(2).tolist() + [[0.0, 0.0]],
        },
        "params": {"n_values": [0, 1, 2]},
    }
    report = run(cfg)
    assert report["passed"]
    certs = report["certificates"]
    assert certs[2]["upper"] == 0.0  # 2^2 = 4 >= 3 points
    for c in certs:
        assert c["lower"] <= c["upper"]


def test_case_study_cross_polytope_cli():
    proc = run_cli(["case-study", "run", "cross-polytope"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["passed"]


def test_case_study_log_sequence_report_values():
    report = run({
        "command": "case-study",
        "seed": 0,
        "target": {"kind": "case-study", "name": "log-sequence"},
        "params": {"n": 6, "gamma": 3.0, "max_bumps": 2000},
    })
    assert report["passed"]
    import math
    upper = next(c for c in report["certificates"]
                 if c.get("direction") == "upper" and c["quantity"] == "lipschitz_width")
    assert upper["value"] == pytest.approx(1.0 / (6 * math.log2(7)), rel=1e-12)
    ent = next(c for c in report["certificates"] if c["quantity"] == "inner_entropy")
    assert ent["reference"] == pytest.approx(1.0 / math.log2(65), rel=1e-12)


def test_relu_verify_cli_json():
    proc = run_cli(["relu-verify", "--d", "1", "--width", "2", "--depth", "2",
                    "--trials", "200", "--seed", "4"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    cert = report["certificates"][0]
    assert set(cert) >= {"C_n", "coarse_bound", "max_ratio", "pass"}
    assert cert["pass"]


def test_report_canonical_excludes_meta():
    report = run({"command": "cross-polytope-placeholder"}) if False else run({
        "command": "packing",
        "seed": 3,
        "target": {"kind": "random", "m": 10, "dim": 2, "norm": "l2"},
    })
    canon = canonical_report(report)
    assert "wall_clock" not in canon and "timestamp" not in canon
    assert json.loads(canon)["version"] == report["version"]


def test_meta_records_the_falsifier_workers_outside_the_canonical_form(monkeypatch):
    from lipwidth import relunet

    monkeypatch.setattr(relunet, "worker_count", lambda: 3)
    report = run({"command": "relu-verify", "seed": 2,
                  "params": {"d": 1, "width": 2, "depth": 1, "trials": 600}})
    assert report["meta"]["workers"] == 3
    assert "workers" not in canonical_report(report)
    monkeypatch.setattr(relunet, "worker_count", lambda: 1)
    assert canonical_report(run(report["config"])) == canonical_report(report)


def test_random_target_deterministic_given_seed():
    cfg = {"command": "packing", "seed": 9,
           "target": {"kind": "random", "m": 12, "dim": 2, "norm": "linf"}}
    a = canonical_report(run(cfg))
    b = canonical_report(run(cfg))
    assert a == b


def test_csv_projection():
    report = run({
        "command": "width-upper",
        "seed": 2,
        "target": {"kind": "random", "m": 20, "dim": 2, "norm": "l2"},
        "params": {"k": 1, "n": 2},
    })
    csv_text = certificates_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("quantity,n,gamma")
    assert len(lines) == 2


def test_out_files_written(tmp_path):
    proc = run_cli(["entropy", "--seed", "5",
                    "--target-json",
                    json.dumps({"kind": "random", "m": 9, "dim": 2, "norm": "l1"}),
                    "--out", str(tmp_path), "--format", "both"])
    assert proc.returncode == 0
    assert (tmp_path / "entropy-report.json").exists()
    assert (tmp_path / "entropy-report.canonical.json").exists()
    assert (tmp_path / "entropy-report.csv").exists()


def test_exit_code_two_on_violation(monkeypatch):
    from lipwidth import cli as climod

    def failing_handler(cfg, seed):
        return [], [{"name": "always-fails", "passed": False}]

    monkeypatch.setitem(climod._HANDLERS, "packing", failing_handler)
    code = main(["packing", "--seed", "1"])
    assert code == 2


def test_exit_code_three_on_numeric_failure():
    # kolmogorov on an l1 target has no closed-form projector
    proc = run_cli(["kolmogorov", "--n", "1", "--target-json",
                    json.dumps({"kind": "random", "m": 6, "dim": 2, "norm": "l1"})])
    assert proc.returncode == 3
    assert "numeric failure" in proc.stderr


# configs the schema rejects: each must exit 1 (usage error)
_SCHEMA_VIOLATIONS = {
    "width-1": {"command": "relu-verify", "params": {"width": 1}},
    "eps-negative": {"command": "packing", "target": {"kind": "random", "m": 6},
                     "params": {"eps": -1}},
    "trials-0": {"command": "relu-verify", "params": {"trials": 0}},
    "unknown-case-study": {"command": "case-study",
                           "target": {"kind": "case-study", "name": "moebius"}},
    "workers": {"command": "entropy", "target": {"kind": "random", "m": 6}, "workers": 2},
    "points-without-space": {"command": "entropy",
                             "target": {"kind": "points", "points": [[0.0]]}},
    "space-without-norm": {"command": "entropy",
                           "target": {"kind": "points", "space": {"dim": 1},
                                      "points": [[0.0]]}},
    "constant-schedule-without-value": {
        "command": "width-lower", "target": {"kind": "random", "m": 6},
        "params": {"n": 1, "gamma_schedule": {"type": "constant"}}},
    "geometric-schedule-without-lambda": {
        "command": "width-lower", "target": {"kind": "random", "m": 6},
        "params": {"n": 1, "gamma_schedule": {"type": "geometric", "coeff": 1.0,
                                              "delta": 1.0}}},
    "constant-schedule-value-0": {
        "command": "width-lower", "target": {"kind": "random", "m": 6},
        "params": {"n": 1, "gamma_schedule": {"type": "constant", "value": 0}}},
    "geometric-schedule-coeff-negative": {
        "command": "width-lower", "target": {"kind": "random", "m": 6},
        "params": {"n": 1, "gamma_schedule": {"type": "geometric", "coeff": -1.0,
                                              "delta": 1.0, "lambda": 2.0}}},
    "geometric-schedule-lambda-0": {
        "command": "width-lower", "target": {"kind": "random", "m": 6},
        "params": {"n": 1, "gamma_schedule": {"type": "geometric", "coeff": 1.0,
                                              "delta": 1.0, "lambda": 0.0}}},
}


@pytest.mark.parametrize("cfg", list(_SCHEMA_VIOLATIONS.values()), ids=list(_SCHEMA_VIOLATIONS))
def test_schema_violations_exit_1(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)]) == 1
    assert "usage error" in capsys.readouterr().err


def _points(points, dim=2, **norm):
    return {"kind": "points", "space": {"dim": dim, "norm": {"kind": "l2", **norm}},
            "points": points}


# points targets the schema lets through but no PointSet can be built from
_MALFORMED_POINTS = {
    "ragged-rows": _points([[0.0, 0.0], [1.0]]),
    "width-not-dim": _points([[0.0, 0.0], [1.0, 1.0]], dim=3),
    "wlinf-without-weights": _points([[0.0, 0.0], [1.0, 1.0]], kind="wlinf"),
    "wlinf-zero-weight": _points([[0.0, 0.0], [1.0, 1.0]], kind="wlinf",
                                 weights=[1.0, 0.0]),
    "l1step-two-edges": _points([[0.0, 0.0], [1.0, 1.0]], kind="l1step",
                                cell_edges=[0.0, 2.0]),
    "no-points": _points([]),
}


@pytest.mark.parametrize("via", ["config", "target-json"])
@pytest.mark.parametrize("target", list(_MALFORMED_POINTS.values()), ids=list(_MALFORMED_POINTS))
def test_malformed_points_target_exits_1(tmp_path, capsys, via, target):
    if via == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "entropy", "target": target,
                                    "params": {"n": 1}}))
        argv = ["--config", str(path)]
    else:
        argv = ["entropy", "--n", "1", "--target-json", json.dumps(target)]
    assert _exit_code(argv) == 1
    assert "usage error" in capsys.readouterr().err


def test_points_target_above_dense_limit_still_exits_3(capsys):
    # a well-formed target the entropy search refuses is a numeric failure
    pts = np.random.default_rng(0).uniform(-1, 1, size=(4097, 1)).tolist()
    argv = ["entropy", "--n", "1", "--target-json", json.dumps(_points(pts, dim=1))]
    assert _exit_code(argv) == 3
    assert "dense distance matrix refused" in capsys.readouterr().err


def test_gamma_schedule_underflow_exits_3(tmp_path, capsys):
    # a positive schedule whose gamma underflows to 0 is a numeric failure
    cfg = {"command": "width-lower", "target": {"kind": "random", "m": 6},
           "params": {"n": 1, "gamma_schedule": {"type": "entropy-scaled", "k": -2000}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_bad_flags_exit_1_and_help_exits_0(capsys):
    # argparse would exit 2, which means "inequality violated" here
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--workers", "2"])
    assert exc.value.code == 1
    assert "usage error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["case-study", "run", "moebius"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--help"])
    assert exc.value.code == 0


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["entropy", "--n", "1", "--target-json", '{"kind": "random", "m": 6}'],
    ["audit-all"],
    ["relu-verify", "--d", "1", "--width", "2", "--depth", "1", "--trials", "10"],
], ids=["entropy-random", "audit-all", "relu-verify"])
def test_negative_seed_is_usage_error(capsys, argv):
    # seeds are U64: numpy refuses a negative one, and relu-verify would mask
    # 2^64 to 0; the largest U64 runs
    assert _exit_code(argv + ["--seed=-1"]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert _exit_code(argv + [f"--seed={2 ** 64}"]) == 1
    assert f"seed must be <= {2 ** 64 - 1}" in capsys.readouterr().err
    assert _exit_code(argv + [f"--seed={2 ** 64 - 1}"]) == 0


_RANDOM6 = json.dumps({"kind": "random", "m": 6})
_NON_FINITE_FLAGS = {
    "eps-inf": ["packing", "--eps", "inf", "--target-json", _RANDOM6],
    "eps-nan": ["packing", "--eps", "nan", "--target-json", _RANDOM6],
    "gamma-inf": ["width-lower", "--gamma", "inf", "--target-json", _RANDOM6],
}
# config files as json.load reads them: it accepts Infinity and NaN
_NON_FINITE_FILES = {
    "eps-Infinity": '{"command": "packing", "target": {"kind": "random", "m": 6}, '
                    '"params": {"eps": Infinity}}',
    "gamma-NaN": '{"command": "width-lower", "target": {"kind": "random", "m": 6}, '
                 '"params": {"n": 1, "gamma": NaN}}',
    "schedule-minus-Infinity": '{"command": "width-lower", "target": {"kind": "random", '
                               '"m": 6}, "params": {"n": 1, "gamma_schedule": '
                               '{"type": "constant", "value": -Infinity}}}',
    "point-NaN": '{"command": "entropy", "target": {"kind": "points", "space": '
                 '{"dim": 1, "norm": {"kind": "l2"}}, "points": [[0.0], [NaN]]}}',
    "weight-Infinity": '{"command": "entropy", "target": {"kind": "points", "space": '
                       '{"dim": 1, "norm": {"kind": "wlinf", "weights": [Infinity]}}, '
                       '"points": [[0.0], [1.0]]}}',
}


@pytest.mark.parametrize("argv,text", [(a, None) for a in _NON_FINITE_FLAGS.values()]
                         + [(None, t) for t in _NON_FINITE_FILES.values()],
                         ids=list(_NON_FINITE_FLAGS) + list(_NON_FINITE_FILES))
def test_non_finite_numbers_exit_1(tmp_path, capsys, argv, text):
    if argv is None:
        path = tmp_path / "cfg.json"
        path.write_text(text)
        argv = ["--config", str(path)]
    assert _exit_code(argv) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "must be finite" in err


_README_TARGET = '{"kind":"random","m":30,"dim":2,"norm":"l2"}'
# argv -> the config main() runs; each form that parsed before gives the same dict
_ARGV_CONFIGS = {
    "readme-audit-all": (
        ["audit-all", "--seed", "7", "--out", "reports/"],
        {"command": "audit-all", "seed": 7, "out": "reports/"}),
    "readme-case-study": (
        ["case-study", "run", "log-sequence", "--n", "6", "--gamma", "3"],
        {"command": "case-study", "seed": 0, "params": {"n": 6, "gamma": 3.0},
         "target": {"kind": "case-study", "name": "log-sequence"}}),
    "readme-relu-verify": (
        ["relu-verify", "--d", "1", "--width", "2", "--depth", "3", "--trials", "10000",
         "--seed", "4"],
        {"command": "relu-verify", "seed": 4,
         "params": {"d": 1, "width": 2, "depth": 3, "trials": 10000}}),
    "readme-entropy": (
        ["entropy", "--target-json", _README_TARGET, "--n", "3"],
        {"command": "entropy", "seed": 0, "params": {"n": 3},
         "target": {"kind": "random", "m": 30, "dim": 2, "norm": "l2"}}),
    "W-alias": (
        ["relu-verify", "--W", "3", "--depth", "2"],
        {"command": "relu-verify", "seed": 0, "params": {"width": 3, "depth": 2}}),
    "target-json-on-case-study": (
        ["case-study", "run", "transport", "--target-json", '{"grid": 64}', "--n", "2"],
        {"command": "case-study", "seed": 0, "params": {"n": 2},
         "target": {"grid": 64, "kind": "case-study", "name": "transport"}}),
    "flag-between-positionals": (
        ["case-study", "--seed", "3", "run", "diagonal"],
        {"command": "case-study", "seed": 3,
         "target": {"kind": "case-study", "name": "diagonal"}}),
    "every-param-flag": (
        ["packing", "--n", "1", "--k", "2", "--gamma", "1.5", "--eps", "0.25",
         "--trials", "5", "--d", "2", "--width", "3", "--depth", "4", "--verify-witness",
         "--format", "both"],
        {"command": "packing", "seed": 0, "verify_witness": True, "format": "both",
         "params": {"n": 1, "k": 2, "gamma": 1.5, "eps": 0.25, "trials": 5, "d": 2,
                    "width": 3, "depth": 4}}),
    # flags before the command were dropped before the parser was flat
    "seed-before-command": (
        ["--seed", "5", "relu-verify"], {"command": "relu-verify", "seed": 5}),
    "verify-witness-before-command": (
        ["--verify-witness", "packing"],
        {"command": "packing", "seed": 0, "verify_witness": True}),
    "config-file": (
        ["--config", "x.json"],
        {"command": "packing", "seed": 2, "target": {"kind": "random", "m": 5}}),
}


@pytest.mark.parametrize("argv,cfg", list(_ARGV_CONFIGS.values()), ids=list(_ARGV_CONFIGS))
def test_argv_to_config(monkeypatch, tmp_path, argv, cfg):
    from lipwidth import cli as climod

    seen = []
    monkeypatch.setattr(climod, "run", lambda c: seen.append(c) or {"passed": True})
    monkeypatch.chdir(tmp_path)  # --out writes files here; --config reads x.json
    (tmp_path / "x.json").write_text(json.dumps(cfg))
    assert main(argv) == 0
    assert seen == [cfg]


@pytest.mark.parametrize("argv,code", [
    (["entropy", "run"], 1), (["case-study"], 1), (["case-study", "run"], 1),
    (["entropy", "run", "diagonal"], 1), (["--help"], 0),
    # --target-json must be a JSON object
    (["entropy", "--target-json", "{bad"], 1),
    (["case-study", "run", "diagonal", "--target-json", "[1]"], 1),
    (["case-study", "run", "diagonal", "--target-json", '"x"'], 1),
    (["entropy", "--target-json", "null"], 1)])
def test_positionals_and_help_exit_codes(capsys, argv, code):
    assert _exit_code(argv) == code
    if code:
        assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["entropy", "--workers", "2"],
                                  ["case-study", "run", "moebius"]])
def test_reused_parser_prints_what_a_fresh_parser_prints(capsys, argv):
    from lipwidth import cli as climod

    assert climod._parser() is climod._parser()
    fresh = climod.build_parser()
    assert _exit_code(["--help"]) == 0
    assert capsys.readouterr().out == fresh.format_help()
    assert climod._parser().format_usage() == fresh.format_usage()
    assert _exit_code(argv) == 1
    err = capsys.readouterr().err
    with pytest.raises(SystemExit):
        climod.build_parser().parse_intermixed_args(argv)
    assert capsys.readouterr().err == err
    assert err.startswith(fresh.format_usage())


def test_schema_names_match_tables():
    from lipwidth.cli import CONFIG_SCHEMA, _CASES, _HANDLERS

    props = CONFIG_SCHEMA["properties"]
    assert props["command"]["enum"] == list(_HANDLERS)
    assert props["target"]["properties"]["name"]["enum"] == list(_CASES)


def test_validator_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    from lipwidth.cli import CONFIG_SCHEMA

    points = {"kind": "points", "space": {"dim": 2, "norm": {"kind": "l2"}},
              "points": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
    accepted = [
        {"command": "entropy", "seed": 1, "target": points, "params": {"n_values": [0, 1, 2]}},
        {"command": "case-study", "seed": 0,
         "target": {"kind": "case-study", "name": "log-sequence"},
         "params": {"n": 6, "gamma": 3.0, "max_bumps": 2000}},
        {"command": "case-study", "target": {"kind": "case-study", "name": "transport",
                                             "grid": 128},
         "params": {"n_values": [2], "n_values_kolmogorov": [4]}},
        {"command": "width-upper", "seed": 6, "verify_witness": True,
         "target": {"kind": "random", "m": 25, "dim": 2, "norm": "linf"},
         "params": {"k": 1, "n": 2}},
        {"command": "width-lower", "seed": 1,
         "target": {"kind": "random", "m": 15, "dim": 2, "norm": "l2"},
         "params": {"n": 2, "gamma_schedule": {"type": "entropy-scaled", "k": 1}}},
        {"command": "audit-all", "seed": 7, "out": "reports", "format": "both"},
        {"command": "relu-verify", "seed": 2 ** 64 - 1},
    ]
    rejected = list(_SCHEMA_VIOLATIONS.values()) + [
        {}, [], {"command": "frobnicate"}, {"command": "entropy", "bogus": 1},
        {"command": "entropy", "params": {"mystery": 2}},
        {"command": "entropy", "format": "xml"},
        {"command": "entropy", "seed": True},
        {"command": "entropy", "seed": 1.5},
        {"command": "entropy", "seed": 2 ** 64},
        {"command": "entropy", "target": dict(points, points=[[1.0, "x"]])},
    ]
    reference = jsonschema.Draft7Validator(CONFIG_SCHEMA)
    for cfg, ok in [(c, True) for c in accepted] + [(c, False) for c in rejected]:
        assert reference.is_valid(cfg) is ok, cfg
        if ok:
            validate_config(cfg)
        else:
            with pytest.raises(UsageError):
                validate_config(cfg)


def test_verify_witness_appends_audits():
    cfg = {
        "command": "width-upper",
        "seed": 6,
        "target": {"kind": "random", "m": 25, "dim": 2, "norm": "linf"},
        "params": {"k": 1, "n": 2},
        "verify_witness": True,
    }
    report = run(cfg)
    names = [a["name"] for a in report["audits"]]
    assert any(n.startswith("witness-") for n in names)
    assert report["passed"]


def test_gamma_schedule_shapes():
    from lipwidth.cli import resolve_gamma

    assert resolve_gamma({"gamma_schedule": {"type": "constant", "value": 2.5}}) == 2.5
    g = resolve_gamma({"n": 4, "gamma_schedule":
                       {"type": "geometric", "coeff": 6.0, "delta": 1.0, "lambda": 2.0}})
    assert g == 6.0 * 4 * 2 ** 4
    report = run({
        "command": "width-lower",
        "seed": 1,
        "target": {"kind": "random", "m": 15, "dim": 2, "norm": "l2"},
        "params": {"n": 2, "gamma_schedule": {"type": "entropy-scaled", "k": 1}},
    })
    assert report["passed"]


def test_csv_includes_reference_column():
    report = run({
        "command": "case-study",
        "seed": 0,
        "target": {"kind": "case-study", "name": "transport", "grid": 128},
        "params": {"n_values": [2], "n_values_kolmogorov": [4]},
    })
    lines = certificates_csv(report).strip().splitlines()
    assert "reference" in lines[0]
    assert report["passed"]


@pytest.mark.parametrize("name", ["log-sequence", "power-sequence"])
def test_width_upper_on_sequence_set_is_numeric_failure(tmp_path, capsys, name):
    # a SequenceSet oracle cannot be translated into an entropy-map target
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "width-upper",
                                "target": {"kind": "case-study", "name": name}}))
    assert main(["--config", str(path)]) == 3
    assert "materialised point set" in capsys.readouterr().err


def test_width_lower_audit_rechecks_certificate(monkeypatch):
    from lipwidth import cli as climod
    from lipwidth.widths import recheck_covering_count

    cfg = {"command": "width-lower", "seed": 2,
           "target": {"kind": "random", "m": 30, "dim": 2, "norm": "l2"},
           "params": {"n": 1, "gamma": 0.05}}
    fset = climod._target_set(cfg["target"], cfg["seed"])
    report = run(cfg)
    cert = report["certificates"][0]
    assert cert["witness"]["count_source"] == "materialized-packing"
    assert report["passed"] and recheck_covering_count(cert, fset)
    w = cert["witness"]
    tampered = [
        dict(cert, value=2.0 * cert["value"]),
        # n = 1: the threshold rises by log2 of the factor, past the count
        dict(cert, gamma=cert["gamma"] * 2.0 ** (w["count_log2"] - w["threshold_log2"] + 1)),
        dict(cert, witness=dict(w, count_log2=w["threshold_log2"] - 0.5)),
        dict(cert, witness={"kind": "covering-count", "count_source": "none-qualified"}),
    ]
    for bad in tampered:
        assert not recheck_covering_count(bad, fset)
    assert recheck_covering_count(dict(tampered[-1], value=0.0), fset)

    # the width-lower handler's own audit fails on a forged certificate
    real = climod.width_lower_certified

    def forged(*args, **kwargs):
        return replace(real(*args, **kwargs), value=1.0)

    monkeypatch.setattr(climod, "width_lower_certified", forged)
    assert not run(cfg)["passed"]


def test_width_lower_ignores_case_study_name_on_other_targets():
    # a 5-point cloud named like the log sequence must not borrow its closed form
    cfg = {"command": "width-lower",
           "target": {"kind": "random", "m": 5, "dim": 1, "name": "log-sequence"},
           "params": {"n": 3, "gamma": 1.0}, "verify_witness": True}
    report = run(cfg)
    cert = report["certificates"][0]
    assert cert["value"] == 0.0
    assert cert["witness"]["count_source"] == "none-qualified"
    assert report["passed"]


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_width_lower_on_random_target_never_reports_closed_form(norm):
    # a random cloud has no closed-form count: its certificates pack or are vacuous
    sources = set()
    for seed, params in ((0, {"n": 1, "gamma": 0.05}), (1, {"n": 2, "gamma": 0.05}),
                         (2, {"n": 1}), (3, {"n": 3, "gamma": 1.0})):
        report = run({"command": "width-lower", "seed": seed, "params": params,
                      "target": {"kind": "random", "m": 30, "dim": 2, "norm": norm},
                      "verify_witness": True})
        assert report["passed"]
        sources.add(report["certificates"][0]["witness"]["count_source"])
    assert "closed-form" not in sources and "materialized-packing" in sources


@pytest.mark.parametrize("params", [{"n": 1, "subspace_axes": [5]}, {"n": 3}],
                         ids=["axis-5", "default-axes-past-dim"])
def test_kolmogorov_axis_out_of_range_exit_1(tmp_path, capsys, params):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "kolmogorov", "params": params,
                                "target": {"kind": "random", "m": 6, "dim": 2}}))
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "2-dimensional" in err
    assert f"axis {max(params.get('subspace_axes', [2]))} " in err


@pytest.mark.parametrize("command,flag", [("packing", "eps"), ("width-lower", "gamma")])
def test_default_radius_on_zero_diameter_names_the_cause(capsys, command, flag):
    # coincident points: the default eps (diameter/4) and gamma (2 * radius) are 0
    target = {"kind": "points", "space": {"dim": 2, "norm": {"kind": "l2"}},
              "points": [[1.0, 1.0]] * 3}
    assert main([command, "--target-json", json.dumps(target)]) == 3
    err = capsys.readouterr().err
    assert "diameter is zero" in err and f"pass {flag}" in err


@pytest.mark.parametrize("grid", [8, 16, 32])
def test_transport_study_on_small_grids_passes(capsys, grid):
    # its entropy reference is the exact radius of 2**n balls on the grid
    assert main(["case-study", "run", "transport", "--target-json",
                 json.dumps({"grid": grid})]) == 0
    report = json.loads(capsys.readouterr().out)
    ents = [c for c in report["certificates"] if c["quantity"] == "inner_entropy"]
    assert [c["n"] for c in ents] == [1, 3, 8]
    assert all(c["lower"] <= c["reference"] <= c["upper"] for c in ents)


def test_kolmogorov_n0_on_transport_is_numeric_failure(capsys):
    target = {"kind": "case-study", "name": "transport", "grid": 8}
    assert main(["kolmogorov", "--n", "0", "--target-json", json.dumps(target)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "n >= 1" in err


@pytest.mark.parametrize("content,says", [(None, "cannot read config"),
                                          (b"\xff\xfe{", "not valid JSON")],
                         ids=["missing", "not-utf8"])
def test_unreadable_config_file_is_usage_error(tmp_path, capsys, content, says):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_bytes(content)
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and says in err and "Traceback" not in err


@pytest.mark.parametrize("n", [5, 8])
def test_diagonal_n_past_truncation_is_numeric_failure(tmp_path, capsys, n):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "case-study", "params": {"n_values": [n]},
                                "target": {"kind": "case-study", "name": "diagonal",
                                           "truncation": 4}}))
    assert main(["--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"n = {n}" in err and "truncation 4" in err and "Traceback" not in err


def test_case_study_sets_take_their_defaults_from_the_row():
    log, power = (_CASES[name].make_set({}) for name in ("log-sequence", "power-sequence"))
    assert log.size == power.size == 257
    assert np.array_equal(power.sigmas, 1.0 / np.arange(1, 257))  # c = 1
    assert _CASES["transport"].make_set({}).grid == 1024
    assert _CASES["diagonal"].make_set({}).space.dim == 64
    assert _CASES["transport"].make_set({"grid": 8}).size == 9


def _cloud(m, dim, norm):
    return {"kind": "random", "m": m, "dim": dim, "norm": norm}


def _study(name):
    target, params = _CASES[name].audit_inputs
    return {"command": "case-study", "target": dict(target, kind="case-study", name=name),
            "params": params, "verify_witness": True}


# sha256 of the canonical reports of seeded clouds, of each case study at its
# audit inputs and of audit-all; any change in a distance or a scan that moves
# one bit of a certificate moves these
_GOLDEN = {
    "entropy-l2-1500": (
        {"command": "entropy", "seed": 11, "target": _cloud(1500, 3, "l2"),
         "params": {"n_values": [3, 6]}},
        "9fd466d2f3cceb1b014213fca043ee88b16582ebfc140f20d459942311d28e09"),
    "entropy-l1-600-witness": (
        {"command": "entropy", "seed": 12, "target": _cloud(600, 3, "l1"),
         "params": {"n_values": [2, 5]}, "verify_witness": True},
        "6ca7b223f984cfa193d923dd291dc10e093d7249416e81a656e8e5c6bd1124d2"),
    "packing-linf-1200-witness": (
        {"command": "packing", "seed": 13, "target": _cloud(1200, 3, "linf"),
         "verify_witness": True},
        "7728022f52cdb015c2d2bc689909554670cc6a29c138d805ffacab4d7be8c691"),
    "packing-l1-dim9-400": (
        {"command": "packing", "seed": 16, "target": _cloud(400, 9, "l1")},
        "a3897f245740536c1231a51e52a38d27b0af19e655eb29ede10a4e1be9ff1ea5"),
    "width-upper-linf-1000-witness": (
        {"command": "width-upper", "seed": 14, "target": _cloud(1000, 3, "linf"),
         "params": {"k": 2, "n": 2}, "verify_witness": True},
        "8e9bf34ffaa0b53931669b57ed801465b1d9e6eff95c70f45f04b4c03741c3a1"),
    "width-lower-l1-800-witness": (
        {"command": "width-lower", "seed": 15, "target": _cloud(800, 3, "l1"),
         "params": {"n": 2}, "verify_witness": True},
        "5bc1a8d7ae9ca42e500a90e6e9378321f96957f78968bbfff9c6c867815a58e2"),
    "case-study-log-sequence-witness": (
        _study("log-sequence"),
        "1686f443e2cf6897e4bf02dbfbb7770fa0b11b706b8bb62a8efbfd47558eaa22"),
    "case-study-power-sequence-witness": (
        _study("power-sequence"),
        "96503a7bf71e32bc511755c86120ddd2201672f5a3e2dee4342cc4185fb74b58"),
    "case-study-transport-witness": (
        _study("transport"),
        "01d24231f48cbfdacbd07bdc9cb032141a4035dce012c20058c0bc2e708884e4"),
    "case-study-diagonal-witness": (
        _study("diagonal"),
        "59bd499e0aadce6257576657bf9bba1a842e250f22584d4b49a7edc6aa476ce5"),
    "case-study-orthonormal-basis-witness": (
        _study("orthonormal-basis"),
        "50d4afcfc7c802f608a2146595fe2b3c22a88cc3524e95ccc29d810e85d40619"),
    "case-study-cross-polytope-witness": (
        _study("cross-polytope"),
        "0ea38ad3f986007e664df02fd206c2bda4d136dfdc245c62e8b1d654417cc283"),
    "audit-all-seed7": (
        {"command": "audit-all", "seed": 7},
        "d43a7dffecf5709877656ac238050deb347268d4c02648587a9bd26e12027851"),
    # each moves if its study's default truncation (256, 64) or grid (1024) moves
    "entropy-power-sequence-c05-witness": (
        {"command": "entropy", "seed": 0,
         "target": {"kind": "case-study", "name": "power-sequence", "c": 0.5},
         "params": {"n_values": [2, 8]}, "verify_witness": True},
        "b23fdfab97a59fcb521dc9e6a136de055b4b59764bc33c4421821edb1088b2a1"),
    "entropy-transport-default-grid-witness": (
        {"command": "entropy", "seed": 0, "target": {"kind": "case-study", "name": "transport"},
         "params": {"n_values": [3, 10]}, "verify_witness": True},
        "8e8158a8d423c54425a2c46dda2cd0d6bebc44c1cee94f83b53a2867bc41a13c"),
    "packing-diagonal-default-truncation-witness": (
        {"command": "packing", "seed": 0, "target": {"kind": "case-study", "name": "diagonal"},
         "verify_witness": True},
        "6ce7c46a224ce3ea474d55c2beda8b2fe95e42df9b5f6a54673f9f97023d0fb9"),
}


@pytest.mark.parametrize("cfg,digest", list(_GOLDEN.values()), ids=list(_GOLDEN))
def test_canonical_report_digest_is_pinned(cfg, digest):
    report = run(json.loads(json.dumps(cfg)))
    assert report["passed"]
    assert hashlib.sha256(canonical_report(report).encode()).hexdigest() == digest
