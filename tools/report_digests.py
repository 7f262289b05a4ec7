"""Print the sha256 of every benchmark job's canonical report.

Each line is ``workload seed index command digest bare``, one per job that
``perfbench/workloads.py`` generates for the named workloads (by default
``case-studies``, ``clouds``, ``small-clouds`` and ``relu-sweep``) at seeds 1
and 2 (688 jobs for all four), in its order.  ``digest`` hashes the canonical
report and ``bare`` the same report without its ``config`` echo, so a change
to the echo alone moves only the first.  A job that the CLI would end with
exit 1 or 3 (a ``ValueError`` or an ``ArithmeticError``) prints the
exception's class name in place of both.  The last line is the sha256 of all
the lines before it.  Two trees write the same reports when the outputs of
one run against each tree's ``src`` are identical:

    PYTHONPATH=src python3 tools/report_digests.py > new.txt
    PYTHONPATH=../parent/src python3 tools/report_digests.py > old.txt
    diff old.txt new.txt

``python3 tools/report_digests.py small-clouds`` hashes one workload only.
The job lists are read from this checkout's ``perfbench/workloads.py`` by
path, so both runs hash the same jobs; ``lipwidth`` comes from ``PYTHONPATH``.
"""

import argparse
import hashlib
import importlib.util
import os

from lipwidth.cli import canonical_report, run

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench", "workloads.py")
NAMES = ("case-studies", "clouds", "small-clouds", "relu-sweep")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"any of {', '.join(NAMES)} (default: all)")
    names = parser.parse_args(argv).workloads or NAMES
    for name in set(names) - set(NAMES):
        parser.error(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    total = hashlib.sha256()
    for workload in names:
        for seed in (1, 2):
            for i, cfg in enumerate(workloads.jobs_for(workload, seed)):
                try:
                    report = run(cfg)
                    bare = {k: v for k, v in report.items() if k != "config"}
                    digests = [hashlib.sha256(canonical_report(doc).encode()).hexdigest()
                               for doc in (report, bare)]
                except (ValueError, ArithmeticError) as exc:
                    digests = [type(exc).__name__] * 2
                line = f"{workload} {seed} {i} {cfg['command']} {' '.join(digests)}"
                total.update(line.encode() + b"\n")
                print(line, flush=True)
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
