"""Print the sha256 of every benchmark job's canonical report.

Each line is ``workload seed index command digest``, one per job that
``perfbench/workloads.py`` generates for the ``case-studies``, ``clouds``,
``small-clouds`` and ``relu-sweep`` workloads at seeds 1 and 2 (688 jobs), in
its order; a job that the CLI would end with exit 1 or 3 (a ``ValueError`` or
an ``ArithmeticError``) prints the exception's class name in place of the
digest.  The last line is the sha256 of all the lines before it.  Two trees
write the same reports when the outputs of one run against each tree's
``src`` are identical:

    PYTHONPATH=src python3 tools/report_digests.py > new.txt
    PYTHONPATH=../parent/src python3 tools/report_digests.py > old.txt
    diff old.txt new.txt

The job lists are read from this checkout's ``perfbench/workloads.py`` by
path, so both runs hash the same jobs; ``lipwidth`` comes from ``PYTHONPATH``.
"""

import hashlib
import importlib.util
import os

from lipwidth.cli import canonical_report, run

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench", "workloads.py")


def main() -> None:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    total = hashlib.sha256()
    for workload in ("case-studies", "clouds", "small-clouds", "relu-sweep"):
        for seed in (1, 2):
            for i, cfg in enumerate(workloads.jobs_for(workload, seed)):
                try:
                    digest = hashlib.sha256(canonical_report(run(cfg)).encode()).hexdigest()
                except (ValueError, ArithmeticError) as exc:
                    digest = type(exc).__name__
                line = f"{workload} {seed} {i} {cfg['command']} {digest}"
                total.update(line.encode() + b"\n")
                print(line, flush=True)
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
