"""One workload in one fresh interpreter: a closed loop over ``cli.main``.

Started by ``run.py``; prints ``ready`` on stdout as soon as its imports,
``lipwidth.cli`` among them, are done (the parent times set-up up to that
line), then runs passes over
the workload's job list, one job in flight, and writes its result JSON to
``--result``.  With ``--probe`` it stops after ``ready``.

Every job gets its own report directory, so the checks run after a pass,
outside the timed region.  Passes repeat until the next one would end past
``--seconds``, with at least three, and the metrics are medians over them.
Tracing passes (``--trace 1``) alternate with untraced ones so the tracing
overhead is measured in the same process.

The host's speed drifts by a quarter and more within seconds, because other
tenants share its cores, caches and memory bandwidth.  A fixed reference
kernel (``HostSpeed``), timed between jobs, follows that drift; each job's
latency is also reported divided by the host's slowdown around it, in
seconds at the kernel's nominal speed.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import lipwidth
import lipwidth.cli as cli
import tracing
import workloads
from lipwidth.spaces import NormedSpace

TOL = 1e-9
# At least three passes, so a job's median latency is not set by the first,
# cold pass; a traced run then has one traced and one untraced pass after
# its warm-up.
MIN_PASSES = 3
# Nominal seconds of each part of the reference kernel (HostSpeed) on a
# 2-vCPU Xeon guest; a part's time over its nominal is the host's slowdown
# for that kind of work.
NOMINAL_S = {"interp": 8.0e-4, "stream": 3.8e-3, "calls": 6.8e-4, "matmul": 6.9e-4}
# Time the kernel before a job when this long has passed since it last ran,
# and after every job that took longer.
CAL_EVERY_S = 0.2
# Runs of the kernel per reading; a reading is their median.
CAL_RUNS = 3
# A job's slowdown is the mean of the readings from this long before it
# starts to this long after it ends, and at least of the last reading
# before it and the first after it.  Single readings are noisy, and the
# host's speed holds for about a second.
CAL_WINDOW_S = 1.0


def _brackets(report: dict) -> list[tuple[str, float, float]]:
    """Certified (kind, lower, upper) brackets in a report.

    Entropy brackets, the entropy bracket behind a ``width-upper`` witness,
    the basis-cloud brackets, and the ReLU Lipschitz bracket
    [falsified ratio, C_n] (kind ``relu``).
    """
    out = []
    for cert in report.get("certificates", []):
        q = cert.get("quantity")
        if q == "inner_entropy":
            out.append(("entropy", cert["lower"], cert["upper"]))
        elif q == "basis_threshold":
            out += [("entropy", lo, hi) for lo, hi in cert["entropy_brackets"].values()]
        elif q == "relu_lipschitz":
            out.append(("relu", cert["max_ratio"], cert["C_n"]))
        bracket = (cert.get("witness") or {}).get("entropy_bracket")
        if bracket:
            out.append(("entropy", bracket[0], bracket[1]))
    return [(kind, float(lo), float(hi)) for kind, lo, hi in out]


def _points(cfg: dict):
    target = cfg.get("target") or {}
    if target.get("kind") != "points":
        return None, None
    return NormedSpace.from_json(target["space"]), np.asarray(target["points"], dtype=float)


def check_report(cfg: dict, report: dict) -> list[str]:
    """Independent re-checks of a passed report; returns the problems found."""
    problems = []
    if report.get("passed") is not True:
        problems.append("report not passed")
    for _, lo, hi in _brackets(report):
        if not lo <= hi * (1 + TOL):
            problems.append(f"bracket inverted: {lo} > {hi}")
    space, pts = _points(cfg)
    for cert in report.get("certificates", []):
        q = cert.get("quantity")
        if q == "inner_entropy" and pts is not None:
            up = cert["witness"]["upper"]
            if up.get("kind") in ("exact-cover", "maximal-packing-cover"):
                centers = pts[up["centers"]]
                if len(centers) > 2 ** cert["n"]:
                    problems.append("entropy cover has too many centers")
                far = float(space.norm(pts[:, None, :] - centers[None, :, :])
                            .min(axis=1).max())
                if far > up["eps"] * (1 + TOL):
                    problems.append(f"entropy cover misses a point by {far}")
        elif q == "packing" and pts is not None:
            sel = pts[cert["indices"]]
            for i in range(len(sel) - 1):
                if float(np.min(space.norm(sel[i + 1:] - sel[i]))) <= cert["eps"]:
                    problems.append("packing points closer than eps")
                    break
        elif q == "lipschitz_width" and cert.get("direction") == "upper":
            w = cert["witness"]
            if w.get("kind") == "entropy-map" and \
                    w["realized_error"] > cert["value"] * (1 + TOL) + 1e-15:
                problems.append("entropy map error above its certificate")
        elif q == "relu_lipschitz" and cert["max_ratio"] > cert["C_n"]:
            problems.append("falsified ratio above C_n")
    return problems


def _settle_allocator() -> None:
    """Free one 32 MiB array before timing.

    glibc raises its mmap threshold (up to 32 MiB) the first time a large
    mapped block is freed; until then every big numpy array is a fresh
    mapping that page-faults.  Doing it once here makes the first timed pass
    behave like every later one.
    """
    block = np.ones(4 << 20)
    del block


def _write_configs(jobs: list[dict], out: str) -> list[str]:
    paths = []
    for i, job in enumerate(jobs):
        d = os.path.join(out, "jobs", f"{i:04d}")
        os.makedirs(d, exist_ok=True)
        cfg = dict(job, out=d)
        path = os.path.join(d, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        paths.append(path)
    return paths


class HostSpeed:
    """A fixed reference kernel in four parts, one for each kind of work the
    program does: interpreter loops, a memory-bound numpy stream, many numpy
    calls on tiny arrays, and small matrix products.  Its inputs are made
    once, outside every timed region."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.random(1 << 20)
        self.tmp = np.empty_like(self.big)
        self.small = [rng.random(16) for _ in range(8)]
        self.mat = rng.random((48, 48))

    def _interp(self):
        counts: dict = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + 3 * i
        return sum([2 * x for x in range(2000)])

    def _stream(self):
        np.multiply(self.big, 1.0001, out=self.tmp)
        np.add(self.tmp, self.big, out=self.tmp)

    def _calls(self):
        acc = 0.0
        for i in range(150):
            a = self.small[i % 8]
            acc += float((a * a + 1.0).sum())
        return acc

    def _matmul(self):
        x = self.mat
        for _ in range(36):
            x = np.maximum(self.mat @ x * 0.01, 0.0)
        return x

    def _once(self) -> float:
        total = 0.0
        for name, part in (("interp", self._interp), ("stream", self._stream),
                           ("calls", self._calls), ("matmul", self._matmul)):
            t0 = time.perf_counter()
            part()
            total += (time.perf_counter() - t0) / NOMINAL_S[name]
        return total / len(NOMINAL_S)

    def slowdown(self) -> float:
        """The host's slowdown now: over CAL_RUNS runs of the kernel, the
        median of the mean over its parts of (seconds / nominal seconds)."""
        return statistics.median(self._once() for _ in range(CAL_RUNS))


def run_pass(paths: list[str], tracer: tracing.Tracer, speed: HostSpeed) -> tuple[float, list]:
    """Run every job once; returns (pass seconds, [(exit, latency, ref latency, error)]).

    The pass seconds leave out the reference kernel.  A job's reference-speed
    latency is its latency divided by the host's slowdown around it (see
    CAL_WINDOW_S).
    """
    slow = [speed.slowdown()]
    times = [time.perf_counter()]
    raw = []
    for i, path in enumerate(paths):
        if time.perf_counter() - times[-1] > CAL_EVERY_S:
            slow.append(speed.slowdown())
            times.append(time.perf_counter())
        tracer.job = i
        err = None
        t0 = time.perf_counter()
        try:
            code = cli.main(["--config", path])
        except Exception:  # a crash is a failed job, not a dead benchmark
            code, err = -1, traceback.format_exc(limit=3)
        lat = time.perf_counter() - t0
        raw.append((code, t0, lat, err, len(slow) - 1))
        if lat > CAL_EVERY_S:
            slow.append(speed.slowdown())
            times.append(time.perf_counter())
    if len(slow) - 1 == raw[-1][4]:
        slow.append(speed.slowdown())
        times.append(time.perf_counter())
    results = []
    for code, t0, lat, err, k in raw:
        lo, hi = k, k + 1
        while lo > 0 and times[lo - 1] >= t0 - CAL_WINDOW_S:
            lo -= 1
        while hi + 1 < len(times) and times[hi + 1] <= t0 + lat + CAL_WINDOW_S:
            hi += 1
        results.append((code, lat, lat / statistics.fmean(slow[lo:hi + 1]), err))
    return sum(lat for _, lat, _, _ in results), results


def _report_path(job: dict, path: str) -> str:
    return os.path.join(os.path.dirname(path), f"{job['command']}-report")


def check_pass(jobs, paths, results, digests: list, problems: list) -> list:
    """Checks one pass's outputs; returns the brackets of its reports.

    ``digests`` holds, per job, the sha256 of its canonical report (or its
    exit code when it failed) from the first pass; any later pass that
    differs is a problem.
    """
    brackets = []
    for i, (job, path, (code, _, _, _)) in enumerate(zip(jobs, paths, results)):
        if code == 2:
            problems.append(f"job {i}: exit 2 (an audited inequality failed)")
        canon = None
        if code == 0:
            base = _report_path(job, path)
            with open(base + ".canonical.json", "rb") as fh:
                canon = fh.read()
            os.remove(base + ".canonical.json")
            os.remove(base + ".json")
        digest = hashlib.sha256(canon).hexdigest() if canon else f"exit:{code}"
        if digests[i] is None:
            digests[i] = digest
        elif digests[i] != digest:
            problems.append(f"job {i}: output differs between passes")
        if canon is None:
            continue
        report = json.loads(canon)
        problems += [f"job {i}: {p}" for p in check_report(job, report)]
        brackets += _brackets(report)
    return brackets


def _metadata(workload, seed, jobs) -> dict:
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "jobs": [{k: v for k, v in job.items() if k != "target"}
                 | {"target": _target_summary(job.get("target"))} for job in jobs],
    }


def _target_summary(target):
    if not target or target.get("kind") != "points":
        return target
    return {"kind": "points", "space": target["space"], "m": len(target["points"]),
            "sha256": hashlib.sha256(json.dumps(target["points"]).encode()).hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--result")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-fail", action="store_true")
    args = ap.parse_args(argv)
    print("ready", flush=True)
    if args.probe:
        return 0

    _settle_allocator()
    jobs = workloads.jobs_for(args.workload, args.seed, args.tiny, args.inject_fail)
    paths = _write_configs(jobs, args.out)
    tracer = tracing.Tracer()
    patcher = tracing.Patcher(lipwidth, tracer)
    speed = HostSpeed()

    walls, traced_walls, latencies, ref_latencies, codes = [], [], [], [], []
    digests: list = [None] * len(jobs)
    problems: list = []
    errors: list = []
    brackets: list = []
    start = time.perf_counter()
    passes = 0
    while True:
        traced = bool(args.trace) and passes % 2 == 1
        # a traced run leaves out its first, cold pass, so that traced and
        # untraced passes compare like with like
        warmup = bool(args.trace) and passes == 0
        t_pass = time.perf_counter()
        if traced:
            patcher.install()
        try:
            wall, results = run_pass(paths, tracer, speed)
        finally:
            if traced:
                patcher.restore()
        if not warmup:
            (traced_walls if traced else walls).append(wall)
        if not (warmup or traced):
            latencies.append([lat for _, lat, _, _ in results])
            ref_latencies.append([ref for _, _, ref, _ in results])
        passes += 1
        codes += [code for code, _, _, _ in results]
        errors += [(i, err) for i, (_, _, _, err) in enumerate(results) if err]
        brackets = check_pass(jobs, paths, results, digests, problems)
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + (now - t_pass) > args.seconds:
            break

    failed = sum(code in (1, 3, -1) for code in codes)
    ratios = [lo / hi for _, lo, hi in brackets if hi > 0]
    if not ratios:
        problems.append("no certified bracket with a positive upper end in the reports")
    relu = [lo / hi for kind, lo, hi in brackets if kind == "relu" and hi > 0]
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    job_latency = [statistics.median(col) for col in zip(*latencies)]
    job_ref = [statistics.median(col) for col in zip(*ref_latencies)]
    result = {
        "meta": _metadata(args.workload, args.seed, jobs)
        | {"lipwidth": os.path.dirname(lipwidth.__file__), "passes": passes,
           "traced_passes": len(traced_walls), "tiny": args.tiny},
        "correct": not problems,
        "problems": problems[:50],
        "errors": errors[:10],
        "attempted": len(codes),
        "failed": failed,
        "exit_codes": codes[: len(jobs)],
        "job_digests": digests,
        "digest": combined,
        # A job's latency is its median over the untraced passes; summing
        # those estimates one pass and shrugs off a slow or cold pass.
        "wall_s": sum(job_latency),
        "pass_walls": walls,
        "job_p50_s": statistics.median(job_latency),
        "job_latency_s": job_latency,
        # the same at the reference host speed (see HostSpeed)
        "wall_ref_s": sum(job_ref),
        "job_p50_ref_s": statistics.median(job_ref),
        "job_latency_ref_s": job_ref,
        "host_slowdown": sum(job_latency) / sum(job_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / len(codes),
        "fail_share": failed / len(codes),
        "tightness": statistics.fmean(ratios) if ratios else None,
        "gap_rel": 1.0 - statistics.fmean(ratios) if ratios else None,
        "falsify_ratio": statistics.median(relu) if relu else None,
    }
    if args.trace:
        result["trace"] = tracing.summarize(tracer)
        result["traced_walls"] = traced_walls
        with gzip.open(os.path.join(args.out, "spans.jsonl.gz"), "wt") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
