import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
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


def test_report_json_is_the_canonical_text_with_meta_last(tmp_path, capsys):
    argv = ["entropy", "--seed", "5", "--n", "2",
            "--target-json", json.dumps({"kind": "random", "m": 9, "dim": 2})]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    canonical = (tmp_path / "entropy-report.canonical.json").read_text()
    text = (tmp_path / "entropy-report.json").read_text()
    assert text.startswith(canonical[:-2] + ',"meta":{') and text.endswith("}}\n")
    report = json.loads(text)
    assert list(report)[-1] == "meta"
    assert {k: v for k, v in report.items() if k != "meta"} == json.loads(canonical)
    assert set(report["meta"]) == {"wall_clock_s", "timestamp", "workers"}
    assert main(argv) == 0  # stdout gets the same form (its config has no "out")
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert list(report)[-1] == "meta"
    assert printed.startswith(canonical_report(report)[:-1] + ',"meta":{')


def test_one_config_writes_one_canonical_report_wherever_it_goes(tmp_path):
    cfg = {"command": "entropy", "seed": 5, "params": {"n_values": [1, 2]},
           "target": {"kind": "random", "m": 9, "dim": 2}, "format": "both"}
    texts = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(cfg, out=str(tmp_path / name))))
        assert main(["--config", str(path)]) == 0
        texts.append((tmp_path / name / "entropy-report.canonical.json").read_bytes())
    assert texts[0] == texts[1]
    # the config echoed without where and how the report is written
    assert json.loads(texts[0])["config"] == {k: v for k, v in cfg.items() if k != "format"}


def test_report_without_meta_writes_both_files(monkeypatch, tmp_path):
    from lipwidth import cli as climod

    monkeypatch.setattr(climod, "run", lambda c: {"passed": True})
    assert main(["packing", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "packing-report.json").read_text() == '{"passed":true}\n'
    assert (tmp_path / "packing-report.canonical.json").read_text() == '{"passed":true}\n'


@pytest.mark.parametrize("row,message", [
    ([0.5, True], "config.target.points[][] must be of type number"),
    ([0.5, None], "config.target.points[][] must be of type number"),
    ([0.5, "x"], "config.target.points[][] must be of type number"),
    ([0.5, float("nan")], "config.target.points[][] must be finite, not nan"),
    ([float("inf"), 0.5], "config.target.points[][] must be finite, not inf"),
    ([0.5, float("-inf")], "config.target.points[][] must be finite, not -inf")])
def test_bad_coordinate_keeps_its_message_and_path(tmp_path, capsys, row, message):
    # json.load reads NaN and Infinity, so only the check refuses them
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "entropy", "target": _points([[0.1, 0.2], row]),
                                "params": {"n": 1}}))
    assert main(["--config", str(path)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_integer_coordinates_are_accepted(capsys):
    target = _points([[0, 1], [2, 3], [-4, 5]])
    assert main(["entropy", "--n", "1", "--target-json", json.dumps(target)]) == 0
    echoed = json.loads(capsys.readouterr().out)["config"]["target"]
    as_f8 = np.array([[0.0, 1.0], [2.0, 3.0], [-4.0, 5.0]], dtype="<f8")
    assert echoed["sha256"] == hashlib.sha256(as_f8.tobytes()).hexdigest()


def _random_points(m, dim=3, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, size=(m, dim)).tolist()


def test_points_target_is_echoed_by_size_and_digest():
    points = _random_points(1024)
    report = run({"command": "entropy", "target": _points(points, dim=3),
                  "params": {"n": 1}})
    digest = hashlib.sha256(np.asarray(points, dtype="<f8").tobytes()).hexdigest()
    assert report["config"]["target"] == {
        "kind": "points", "space": {"dim": 3, "norm": {"kind": "l2"}}, "m": 1024,
        "sha256": digest}
    assert json.loads(canonical_report(report))["config"] == report["config"]


def test_points_target_is_parsed_once(monkeypatch):
    # the handler's PointSet and the witness recheck's hold the very array
    # whose bytes the echo hashes
    from lipwidth import cli as climod

    held = []
    real = climod._target_set

    def spy(cfg, seed):
        fset = real(cfg, seed)
        held.append((cfg["target"]["points"], fset.points))
        return fset

    monkeypatch.setattr(climod, "_target_set", spy)
    report = run({"command": "entropy", "target": _points(_random_points(64), dim=3),
                  "params": {"n": 1}, "verify_witness": True})
    assert len(held) == 2
    for parsed, points in held:
        assert parsed.dtype == np.dtype("<f8") and points is parsed
        assert hashlib.sha256(points.tobytes()).hexdigest() == report["config"]["target"]["sha256"]


def test_points_echo_does_not_grow_with_the_points():
    sizes = []
    for m in (1024, 8192):
        report = run({"command": "relu-verify", "target": _points(_random_points(m), dim=3),
                      "params": {"d": 1, "width": 2, "depth": 1, "trials": 10}})
        sizes.append(len(json.dumps(report["config"], sort_keys=True, separators=(",", ":"))))
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("bad,message", [
    ([0.5, 0.5, True], "config.target.points[][] must be of type number"),
    ([0.5, float("nan"), 0.5], "config.target.points[][] must be finite, not nan"),
    ("row", "config.target.points[] must be of type array")])
def test_bad_last_row_of_a_large_target_keeps_its_message(tmp_path, capsys, bad, message):
    # the one-pass check falls back to the walk, which names the first bad value
    points = _random_points(8192) + [bad]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "entropy", "target": _points(points, dim=3)}))
    assert main(["--config", str(path)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_ragged_row_of_a_large_target_is_a_bad_target(tmp_path, capsys):
    points = _random_points(8192)
    points[-1] = [0.5, 0.5]
    with pytest.raises(ValueError) as exc:
        np.asarray(points, dtype=float)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "entropy", "target": _points(points, dim=3)}))
    assert main(["--config", str(path)]) == 1
    assert capsys.readouterr().err == f"usage error: bad points target: {exc.value}\n"


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


def test_points_target_above_dense_limit_gets_a_traversal_bracket(monkeypatch, capsys):
    # above DENSE_LIMIT the bracket is the farthest-first [R/2, R], from distance
    # rows alone: no matrix, O(m) memory, and witnesses that --verify-witness
    # re-checks and that a tampered bracket fails
    from lipwidth import cli as climod, spaces

    sets, real = [], climod._target_set
    monkeypatch.setattr(climod, "_target_set", lambda t, s: sets.append(real(t, s)) or sets[-1])
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", 1 << 12)  # small row blocks
    m = spaces.DENSE_LIMIT + 1
    pts = np.random.default_rng(0).uniform(-1, 1, size=(m, 1))
    argv = ["entropy", "--n", "3", "--verify-witness",
            "--target-json", json.dumps(_points(pts.tolist(), dim=1))]
    tracemalloc.start()
    try:
        code = _exit_code(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [a["name"] for a in report["audits"]] == ["entropy-bracket-n3",
                                                     "witness-0-inner_entropy"]
    assert all(a["passed"] for a in report["audits"])
    cert = report["certificates"][0]
    upper, lower = cert["witness"]["upper"], cert["witness"]["lower"]
    assert upper["kind"] == "farthest-first-cover" and len(upper["centers"]) == 8
    assert lower["kind"] == "ball-disjoint-points" and lower["points"][:8] == upper["centers"]
    # R is an actual distance: the cover radius of the 8 centers, reached at point 9
    gaps = np.abs(pts - pts[upper["centers"]].T).min(axis=1)
    assert cert["upper"] == gaps.max() == gaps[lower["points"][8]]
    assert cert["lower"] == cert["upper"] / 2 and not cert["exact"]
    assert peak < m ** 2 // 8, peak
    assert len(sets) == 2 and all(fset._cache is None for fset in sets)
    for key, factor in (("upper", 0.99), ("lower", 1.01)):
        assert not climod.recheck(dict(cert, **{key: cert[key] * factor}), sets[0]), key


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

    assert resolve_gamma({"gamma_schedule": {"type": "constant", "value": 2.5}}, 1) == 2.5
    g = resolve_gamma({"gamma_schedule":
                       {"type": "geometric", "coeff": 6.0, "delta": 1.0, "lambda": 2.0}}, 4)
    assert g == 6.0 * 4 * 2 ** 4
    # with no n the certificate is at width-lower's default n = 2, and so is gamma
    cert = run({"command": "width-lower", "seed": 1,
                "target": {"kind": "random", "m": 40, "dim": 2, "norm": "l2"},
                "params": {"gamma_schedule": {"type": "geometric", "coeff": 1.0,
                                              "delta": 0.0, "lambda": 3.0}}})["certificates"][0]
    assert (cert["n"], cert["gamma"]) == (2, 9.0)
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
    fset = climod._target_set(cfg, cfg["seed"])
    report = run(cfg)
    cert = report["certificates"][0]
    assert cert["witness"]["count_source"] == "materialized-packing"
    assert report["passed"] and recheck_covering_count(cert, fset)
    w = cert["witness"]
    tampered = [
        dict(cert, value=2.0 * cert["value"]),
        # n = 1: a gamma whose threshold log2(3 gamma / eps) is the count plus one
        dict(cert, gamma=cert["value"] / 3.0 * 2.0 ** (w["count_log2"] + 1)),
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


def test_diagonal_study_at_its_truncation_has_reference_zero():
    # span{e_1..e_8} holds the whole truncation 8, so the residual is 0
    report = run({"command": "case-study", "params": {"n_values": [8]},
                  "target": {"kind": "case-study", "name": "diagonal", "truncation": 8}})
    assert report["passed"] and report["certificates"][0]["value"] == 0.0


def test_diagonal_study_runs_the_n_flag_alone(capsys):
    assert main(["case-study", "run", "diagonal", "--target-json", '{"truncation": 8}',
                 "--n", "8"]) == 0
    assert {c["n"] for c in json.loads(capsys.readouterr().out)["certificates"]} == {8}


@pytest.mark.parametrize("name,target,default", [
    ("diagonal", {"truncation": 16}, {4, 8, 16}),
    ("transport", {"grid": 64}, {1, 3, 8}),
    ("cross-polytope", {}, {1, 2, 4})])
def test_case_study_n_flag_replaces_the_default(capsys, name, target, default):
    # n_values, else --n, else the default, as the entropy command reads them;
    # transport's Kolmogorov certificates take n_values_kolmogorov instead
    def ns(argv):
        assert main(["case-study", "run", name, "--target-json", json.dumps(target), *argv]) == 0
        return {c["n"] for c in json.loads(capsys.readouterr().out)["certificates"]
                if name != "transport" or c["quantity"] == "inner_entropy"}

    assert ns(["--n", "2"]) == {2}
    assert ns([]) == default


@pytest.mark.parametrize("n", [15, 20, 30])
def test_log_sequence_study_past_any_truncation(n):
    # the entropy number sigma_{2^n} comes from the generator, not a materialised set
    report = run({"command": "case-study", "target": {"kind": "case-study", "name": "log-sequence"},
                  "params": {"n": n, "gamma": 3.0, "max_bumps": 1000}, "verify_witness": True})
    assert report["passed"]
    ent = next(c for c in report["certificates"] if c["quantity"] == "inner_entropy")
    assert ent["lower"] == ent["upper"] == 1.0 / math.log2(2 ** n + 1)
    assert ent["set"] == {"generator": "log"}


def test_case_study_sets_take_their_defaults_from_the_row():
    log, power = (_CASES[name].make_set({}, {}) for name in ("log-sequence", "power-sequence"))
    assert log.size == power.size == 257
    assert np.array_equal(power.sigmas, 1.0 / np.arange(1, 257))  # c = 1
    assert _CASES["transport"].make_set({}, {}).grid == 1024
    assert _CASES["diagonal"].make_set({}, {}).space.dim == 64
    assert _CASES["transport"].make_set({"grid": 8}, {}).size == 9


def test_power_study_takes_c_from_params_else_the_target(tmp_path, capsys):
    # params.c, else target.c, else 1.0, for the certificates and the set alike
    target = {"kind": "case-study", "name": "power-sequence", "c": 0.5}
    assert main(["case-study", "run", "power-sequence", "--target-json", '{"c": 0.5}']) == 0
    collapse = json.loads(capsys.readouterr().out)["certificates"][0]
    assert (collapse["c"], collapse["n1"]) == (0.5, 3)  # c = 1.0 would give n1 = 2
    bare = {"kind": "case-study", "name": "power-sequence"}
    for where, params in ((target, {}), (bare, {"c": 0.5}), (target, {"c": 0.5})):
        cfg = {"command": "case-study", "target": where, "params": params}
        assert run(cfg)["certificates"][0] == collapse
        assert np.array_equal(_CASES["power-sequence"].make_set(where, params).sigmas,
                              np.arange(1, 257) ** -0.5)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "case-study", "target": target,
                                "params": {"c": 1.0}}))
    assert main(["--config", str(path)]) == 1
    assert "params.c = 1.0 and target.c = 0.5 disagree" in capsys.readouterr().err
    with pytest.raises(UsageError, match="disagree"):
        _CASES["power-sequence"].make_set(target, {"c": 2.0})


def _cloud(m, dim, norm):
    return {"kind": "random", "m": m, "dim": dim, "norm": norm}


def _study(name):
    target, params = _CASES[name].audit_inputs
    return {"command": "case-study", "target": dict(target, kind="case-study", name=name),
            "params": params, "verify_witness": True}


def test_comparison_studies_solve_no_least_squares(monkeypatch):
    # the comparisons and their rechecks take the coefficients they are given
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for name in ("transport", "diagonal"):
        assert run(_study(name))["passed"], name


# sha256 of the canonical reports of seeded clouds, of each case study at its
# audit inputs and of audit-all; any change in a distance or a scan that moves
# one bit of a certificate moves these
_GOLDEN = {
    "entropy-l2-1500": (
        {"command": "entropy", "seed": 11, "target": _cloud(1500, 3, "l2"),
         "params": {"n_values": [3, 6]}},
        "c08ace45d3226d5ff7383b9a14b65c3a4be788460bdead2ea0658a0926baf8b9"),
    "entropy-l1-600-witness": (
        {"command": "entropy", "seed": 12, "target": _cloud(600, 3, "l1"),
         "params": {"n_values": [2, 5]}, "verify_witness": True},
        "3c47fcd373d34f4d0d29195025de361686df00f63967ef18fa4cfbe1d3db3a88"),
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
        "f6bdc03823906bdb231ebe38627ec551833cc2da54db5a27a103deb72df6840c"),
    "case-study-power-sequence-witness": (
        _study("power-sequence"),
        "84335a504a4fd49f19a7b3fc722ec8bf74109bdd9839ba9db8de887057c40817"),
    "case-study-transport-witness": (
        _study("transport"),
        "f4f31cd4a00975f393b25152017f250c9e38bcaa04bddf9bbb18f2c2331037e1"),
    "case-study-diagonal-witness": (
        _study("diagonal"),
        "59bd499e0aadce6257576657bf9bba1a842e250f22584d4b49a7edc6aa476ce5"),
    "case-study-orthonormal-basis-witness": (
        _study("orthonormal-basis"),
        "9991951235e1d8cab9fa6feeda9a37031b63a6ebb7d14bae8e69cc62b3160108"),
    "case-study-cross-polytope-witness": (
        _study("cross-polytope"),
        "fccc8befab79f3fc948b52d0ac42ad4e1405af98f010c24a69af618b65ac192b"),
    "audit-all-seed7": (
        {"command": "audit-all", "seed": 7},
        "a5fe237d73f7ca141c9cc4304e3ebe7749a307b04f14bbe80680dc30c85457fd"),
    # each moves if its study's default truncation (256, 64) or grid (1024) moves
    "entropy-power-sequence-c05-witness": (
        {"command": "entropy", "seed": 0,
         "target": {"kind": "case-study", "name": "power-sequence", "c": 0.5},
         "params": {"n_values": [2, 8]}, "verify_witness": True},
        "ee0b10b15e36e92b5ca333561d06bb5d52f33419c934abf0a3a825acd1bc2538"),
    "entropy-transport-default-grid-witness": (
        {"command": "entropy", "seed": 0, "target": {"kind": "case-study", "name": "transport"},
         "params": {"n_values": [3, 10]}, "verify_witness": True},
        "16c696a3868e913a581081e684a245c9e20e6ba1ec484f06cce885a4215e0e86"),
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
