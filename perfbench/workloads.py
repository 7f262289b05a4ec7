"""Job lists of the four benchmark workloads, generated from a workload seed.

A job is one ``lipwidth`` config (the dict a ``--config`` file holds). The
same (workload, seed, tiny) always yields the same jobs; point clouds are
drawn here with the standard library so the program only ever sees the
generated configs.

Why each workload exists (the one-line form is in BENCHMARK.json):

* ``case-studies``: the dyadic allocation and bump lookup build in
  ``lipmaps`` do most of the work; ``covering`` runs on oracle sets (the
  8193-point basis cloud, the transport grid).
* ``clouds``: dense distance matrices in ``spaces`` and the bisection
  predicates in ``covering`` on 1k-4k point clouds. The 8192-point entropy
  job exits 3 today (``DENSE_LIMIT``); it stays so the defect shows.
* ``small-clouds``: hundreds of cheap jobs on 12-20 point clouds, where exact
  branch and bound and the per-call CLI cost dominate.
* ``relu-sweep``: the falsification sweep of ``relunet`` and nothing else.
"""

from __future__ import annotations

import random

WORKLOADS = ("case-studies", "clouds", "small-clouds", "relu-sweep")
NORMS = ("l2", "linf", "l1")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _cloud(rng: random.Random, m: int, dim: int, norm: str) -> dict:
    pts = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(m)]
    return {"kind": "points", "space": {"dim": dim, "norm": {"kind": norm}},
            "points": pts}


def _case_study(name: str, params: dict, **target) -> dict:
    return {"command": "case-study",
            "target": {"kind": "case-study", "name": name, **target},
            "params": params}


def case_studies(seed: int, tiny: bool) -> list[dict]:
    # The bump maps keep lipmaps the main cost.  Sizes keep a pass near 5 s,
    # and put the median job (transport, which ignores the seed) well apart
    # from its neighbours in cost, so job_p50_ref_s does not flip between
    # jobs.
    return [
        _case_study("log-sequence", {"n": 5 if tiny else 8, "gamma": 3.0,
                                     "max_bumps": 10 ** 3 if tiny else 4 * 10 ** 5}),
        _case_study("power-sequence", {"c": 1.0, "gamma": 4.0,
                                       "max_bumps": 10 ** 3 if tiny else 2 * 10 ** 5}),
        _case_study("transport", {"n_values": [1, 2] if tiny else list(range(1, 9))},
                    grid=64 if tiny else 512),
        _case_study("orthonormal-basis", {"m": 6 if tiny else 13, "s": 2}),
        _case_study("diagonal", {}),
        _case_study("cross-polytope", {}),
        {"command": "audit-all", "seed": seed},
    ]


def clouds(seed: int, tiny: bool) -> list[dict]:
    rng = _rng("clouds", seed)
    sizes = (64, 128, 256) if tiny else (1024, 2048, 4096)
    jobs = []
    # Few commands per cloud keep a pass short.  Seven jobs in all, and the
    # median one (entropy on 2048 points, whose cost barely depends on the
    # seed) is well apart from its neighbours in cost, so job_p50_ref_s does
    # not flip between jobs.
    commands = (("entropy", "width-upper", "width-lower"), ("entropy",),
                ("entropy", "packing"))
    params = {"entropy": {"n_values": [3, 6]}, "width-upper": {"k": 2, "n": 2},
              "width-lower": {"n": 2}, "packing": {}}
    for m, norm, cmds in zip(sizes, NORMS, commands):
        target = _cloud(rng, m, 3, norm)
        jobs += [{"command": c, "target": target, "params": params[c]} for c in cmds]
    # Above DENSE_LIMIT (4096) the entropy bisection is refused today: exit 3.
    jobs.append({"command": "entropy", "target": _cloud(rng, 4097 if tiny else 8192, 3, "l2"),
                 "params": {"n_values": [3, 6]}})
    return jobs


def small_clouds(seed: int, tiny: bool) -> list[dict]:
    # Sizes, dimensions and norms cycle in a fixed order and only the points
    # come from the seed, so the cost of a pass barely depends on the seed.
    # Packing on every other cloud puts the median job inside the entropy
    # jobs rather than on the edge between the two kinds.
    rng = _rng("small-clouds", seed)
    jobs = []
    for i in range(6 if tiny else 200):
        target = _cloud(rng, 12 + i % 9, 1 + i % 4, NORMS[i % 3])
        jobs.append({"command": "entropy", "target": target,
                     "params": {"n_values": [1, 2, 3, 4]}})
        if i % 2 == 0:
            jobs.append({"command": "packing", "target": target, "params": {}})
    return jobs


def relu_sweep(seed: int, tiny: bool) -> list[dict]:
    shapes = [(1, 2, 2), (2, 3, 3)] if tiny else [
        (d, w, depth) for d in (1, 2, 3) for w in (2, 3) for depth in range(1, 6)]
    return [{"command": "relu-verify", "seed": seed,
             "params": {"d": d, "width": w, "depth": depth,
                        "trials": 100 if tiny else 4096}}
            for d, w, depth in shapes]


_JOB_LISTS = {"case-studies": case_studies, "clouds": clouds,
             "small-clouds": small_clouds, "relu-sweep": relu_sweep}

# A job that fails with exit 3 (PreconditionError: eps must be positive); the
# self-tests append it to check that failures are counted.
FAILING_JOB = {"command": "packing",
               "target": {"kind": "points", "space": {"dim": 1, "norm": {"kind": "l2"}},
                          "points": [[0.0], [1.0]]},
               "params": {"eps": -1.0}}


def jobs_for(workload: str, seed: int, tiny: bool = False, inject_fail: bool = False
             ) -> list[dict]:
    jobs = _JOB_LISTS[workload](seed, tiny)
    if inject_fail:
        jobs.append(dict(FAILING_JOB))
    return jobs
