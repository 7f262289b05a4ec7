"""Benchmark of the lipwidth CLI: end-to-end metrics and traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload clouds --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, one table

Each workload runs in a fresh interpreter (``worker.py``) as a closed loop:
one client, one ``lipwidth.cli.main(["--config", ...])`` call in flight,
BLAS pinned to one thread.  Job latencies are also reported at a reference
host speed, measured by a fixed kernel between jobs (see ``worker.py``).
Set-up is timed separately from a fresh interpreter to ``lipwidth.cli``
imported, several times per run, and the median is reported.  ``--trace 1``
alternates untraced and traced passes and reports per-layer self times (see
``tracing.py``) and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A fuller record (metadata, per-job exit codes and report digests,
the digest of all canonical reports) is written to
``.perfbench_out/<workload>-s<seed>-t<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 9
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s", "wall_ref_s": "s", "job_p50_ref_s": "s", "peak_rss_mb": "MB",
    "ok_share": "ratio", "tightness": "ratio",
}
_LAYER_METRICS = {
    "spaces": ["matrix_s", "dist_rows", "dist_row_s", "diameter_s", "radius_s",
               "distinct_s"],
    "covering": ["entropy_s", "entropy_calls", "lower_bound_s", "lower_bound_calls",
                 "packing_s", "packing_calls", "exact_cover_s", "exact_cover_calls",
                 "min_cover_s", "sandwich_s", "assign_s"],
    "lipmaps": ["allocate_s", "cubes", "seqmap_init_s", "seqmap_build_s",
                "entropy_map_s", "evaluate_s"],
    "widths": ["upper_s", "lower_s", "kolmogorov_s", "fixed_s"],
    "relunet": ["verify_s", "pairs", "pairs_per_s", "falsify_ratio"],
    "case_studies": ["volume_s", "sets_s", "transport_s"],
    "cli": ["parse_s", "run_s", "report_s"],
}


def _unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("share", "ratio", "coverage")):
        return "ratio"
    return "count"


PER_LAYER = {f"{layer}.{m}": _unit(m) for layer, ms in _LAYER_METRICS.items() for m in ms}
PER_LAYER |= {f"{layer}.{m}": _unit(m) for layer in LAYERS for m in ("self_s", "share")}
PER_LAYER |= {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
              "trace.coverage": "ratio", "trace.spans": "count"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], log, timeout: float) -> tuple[object, float]:
    """Run a worker to its end; returns (exit code or "timeout", set-up seconds).

    Set-up is the time from starting the interpreter to its ``ready`` line.
    The worker is killed if it is still running when this returns.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE,
                            stderr=log, env=_env(), cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup = time.perf_counter() - t0
        code = proc.wait(timeout=timeout) if ready else "no ready line"
    except subprocess.TimeoutExpired:
        code = "timeout"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return code, setup


def _source_id() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _layer_metrics(res: dict) -> dict:
    # per-pass means over the traced passes, so that shares add up to one
    tr = res["trace"]
    k = len(res["traced_walls"])
    per_pass = {key: val / k for key, val in tr.items()}
    traced = statistics.fmean(res["traced_walls"])
    out = {name: per_pass.get(name, 0.0) for name in PER_LAYER}
    for layer in LAYERS:
        own = sum((v for key, v in per_pass.items()
                   if key.startswith(layer + ".") and key.endswith("_s")), 0.0)
        out[f"{layer}.self_s"] = own
        out[f"{layer}.share"] = own / traced
    verify = out["relunet.verify_s"]
    out["relunet.pairs_per_s"] = out["relunet.pairs"] / verify if verify > 0 else 0.0
    out["relunet.falsify_ratio"] = res["falsify_ratio"] or 0.0
    out["trace.wall_s"] = traced
    untraced = statistics.fmean(res["pass_walls"])
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    out["trace.coverage"] = per_pass["root_s"] / traced
    out["trace.spans"] = per_pass["spans"]
    return out


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "lipwidth", "cli.py")):
        print(f"error: no lipwidth sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-tiny" if args.tiny else "")
    out = os.path.join(ROOT, ".perfbench_out", tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result_path = os.path.join(out, "result.json")
    deadline = time.monotonic() + DEADLINE_S
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", out, "--result", result_path]
    worker_args += ["--tiny"] * args.tiny + ["--inject-fail"] * args.inject_fail
    setups, code = [], 0
    with open(os.path.join(out, "worker.log"), "w") as log:
        for argv in [["--probe"]] * SETUP_PROBES + [worker_args]:
            code, setup = _worker(argv, log, max(1.0, deadline - time.monotonic()))
            setups.append(setup)
            if code != 0:
                break
    if code != 0:
        with open(os.path.join(out, "worker.log")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        print(f"error: worker ended with {code}", file=sys.stderr)
        return 1
    with open(result_path) as fh:
        res = json.load(fh)
    res["setup_s"] = statistics.median(setups)
    res["setup_samples"] = setups
    res["meta"] |= _source_id()
    if args.trace:
        metrics = _layer_metrics(res)
        units = PER_LAYER
    else:
        metrics = {name: res[name] for name in END_TO_END}
        units = END_TO_END
    res["metrics"] = metrics
    with open(result_path, "w") as fh:
        json.dump(res, fh, indent=1)
    for problem in res["problems"]:
        print(f"problem: {problem}")
    missing = [name for name, val in metrics.items() if val is None]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} passes={res['meta']['passes']} "
          f"attempted={res['attempted']} failed={res['failed']} digest={res['digest'][:16]}")
    for name, val in metrics.items():
        print(f"  {name:28s} {val:.6g} {units[name]}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every end-to-end metric."""
    rows, ok = {}, True
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        cmd += ["--tiny"] * args.tiny
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        line = json.loads(out.stdout.strip().splitlines()[-1])
        tag = f"{workload}-s{args.seed}-t0" + ("-tiny" if args.tiny else "")
        with open(os.path.join(ROOT, ".perfbench_out", tag, "result.json")) as fh:
            res = json.load(fh)
        row = {name: (m["value"], m["unit"]) for name, m in line["metrics"].items()}
        row["wall_s"] = (res["wall_s"], "s")
        row["job_p50_s"] = (res["job_p50_s"], "s")
        row["host_slowdown"] = (res["host_slowdown"], "ratio")
        row["fail_share"] = (res["fail_share"], "ratio")
        row["gap_rel"] = (res["gap_rel"], "ratio")
        if res["falsify_ratio"] is not None:
            row["falsify_ratio"] = (res["falsify_ratio"], "ratio")
        rows[workload] = row
        ok &= line["correct"]
    names = list(END_TO_END) + ["wall_s", "job_p50_s", "host_slowdown", "fail_share", "gap_rel",
                                "falsify_ratio"]
    print(f"{'metric':16s}{'unit':7s}" + "".join(f"{w:>15s}" for w in WORKLOADS))
    for name in names:
        unit = next(r[name][1] for r in rows.values() if name in r)
        cells = "".join(f"{rows[w][name][0]:15.6g}" if name in rows[w] else f"{'-':>15s}"
                        for w in WORKLOADS)
        print(f"{name:16s}{unit:7s}{cells}")
    print(f"correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (self-tests)")
    ap.add_argument("--inject-fail", action="store_true",
                    help="append a job that exits 3 (self-tests)")
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
