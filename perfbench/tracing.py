"""Layer spans recorded from outside the program by patching its functions.

Each wrapped function becomes a span (name, start, end, parent, job) kept in
memory.  Functions are patched where they are defined *and* at every module
attribute that is bound to them, because ``cli``, ``widths`` and
``case_studies`` import many of them by name; methods are patched on every
class that defines them.  ``dist_row`` runs ~5e5 times per ``clouds`` pass,
so it is a *counted leaf*: its calls and time are added up, and its time is
charged to the enclosing span, without a span record of its own.

A span's self time is its duration minus the part of its interval that its
child spans cover, minus the counted-leaf time charged to it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Callable, Optional

# span name -> wrapped targets.  "mod:func" is a module-level function;
# "mod:Class.meth" a method on that one class; "*Base.meth" the method on
# every class of the package that is Base or derives from it and defines it.
SPANS = {
    "spaces.matrix": ["spaces:PointSet.matrix"],
    "spaces.diameter": ["spaces:diameter", "*FiniteSet.diameter"],
    "spaces.radius": ["spaces:radius_upper"],
    "spaces.distinct": ["*FiniteSet.distinct_distances"],
    "covering.entropy": ["covering:inner_entropy"],
    "covering.lower_bound": ["covering:covering_lower_bound"],
    "covering.packing": ["covering:greedy_packing"],
    "covering.exact_cover": ["covering:exact_min_cover"],
    "covering.min_cover": ["covering:minimal_inner_covering"],
    "covering.sandwich": ["covering:sandwich_audit"],
    "covering.assign": ["covering:coverage_assignment"],
    "lipmaps.allocate": ["lipmaps:allocate_dyadic_cubes"],
    "lipmaps.seqmap_init": ["lipmaps:SequenceBumpSum.__init__"],
    "lipmaps.seqmap_build": ["lipmaps:build_sequence_bump_map"],
    "lipmaps.entropy_map": ["lipmaps:build_entropy_map"],
    "lipmaps.evaluate": ["lipmaps:BumpSum.evaluate_batch"],
    "widths.upper": ["widths:width_upper_from_entropy"],
    "widths.lower": ["widths:width_lower_certified"],
    "widths.kolmogorov": ["widths:kolmogorov_upper", "widths:best_coordinate_subspace",
                          "widths:kolmogorov_comparison"],
    "widths.fixed": ["widths:fixed_width_upper"],
    "relunet.verify": ["relunet:verify_lipschitz"],
    "case_studies.volume": ["case_studies:volume_condition"],
    "case_studies.sets": ["case_studies:sequence_set", "case_studies:transport_set",
                          "case_studies:diagonal_set", "case_studies:basis_cloud",
                          "case_studies:octahedron_set"],
    "case_studies.transport": ["case_studies:transport_kolmogorov_upper",
                               "case_studies:transport_comparison"],
    "cli.parse": ["cli:build_parser", "cli:_config_from_args"],
    "cli.run": ["cli:run"],
    "cli.report": ["cli:main"],
}
LEAVES = {"spaces.dist_row": ["*FiniteSet.dist_row"]}
# the package's modules, one layer each
LAYERS = ("spaces", "covering", "lipmaps", "widths", "relunet", "case_studies", "cli")


class Tracer:
    """In-memory span recorder; one per traced process.

    ``spans`` holds [name, start, end, parent, job, leaf_s] lists; ``parent``
    is an index into ``spans`` or -1.  ``counts`` holds call counts and the
    counters added by result hooks; ``leaf_s`` the time of counted leaves.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(float)
        self.leaf_s: dict = defaultdict(float)
        self.job = -1

    def span(self, name: str, fn: Callable, on_result: Optional[Callable] = None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            counts[name + "_calls"] += 1
            if on_result is not None:
                on_result(self, out)
            return out

        return wrapper

    def leaf(self, name: str, fn: Callable):
        spans, stack, counts, leaf_s = self.spans, self.stack, self.counts, self.leaf_s
        clock = time.perf_counter
        count_key = name + "s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n0 = len(spans)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if len(spans) > n0:
                    # spans opened inside this call already charge their parent
                    parent = stack[-1] if stack else -1
                    dt -= sum(r[2] - r[1] for r in spans[n0:] if r[3] == parent)
                counts[count_key] += 1
                leaf_s[name] += dt
                if stack:
                    spans[stack[-1]][5] += dt

        return wrapper


def _count_cubes(tracer: Tracer, alloc) -> None:
    tracer.counts["lipmaps.cubes"] += alloc.count


def _count_pairs(tracer: Tracer, res) -> None:
    tracer.counts["relunet.pairs"] += res.trials


HOOKS = {"lipmaps.allocate": _count_cubes, "relunet.verify": _count_pairs}


def _classes(package) -> list[type]:
    seen = {}
    for mod in LAYERS:
        for obj in vars(getattr(package, mod)).values():
            if inspect.isclass(obj) and obj.__module__.startswith(package.__name__):
                seen[id(obj)] = obj
    return list(seen.values())


class Patcher:
    """Installs wrappers for every target in SPANS/LEAVES; ``restore`` undoes it."""

    def __init__(self, package, tracer: Tracer):
        self.package = package
        self.tracer = tracer
        self.saved: list[tuple] = []

    def _set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _targets(self, target: str):
        pkg = self.package
        if target.startswith("*"):
            base_name, meth = target[1:].split(".")
            base = getattr(pkg.spaces, base_name)
            return [(cls, meth) for cls in _classes(pkg)
                    if issubclass(cls, base) and meth in cls.__dict__]
        mod_name, qual = target.split(":")
        mod = getattr(pkg, mod_name)
        if "." in qual:
            cls_name, meth = qual.split(".")
            return [(getattr(mod, cls_name), meth)]
        return [(mod, qual)]

    def install(self) -> None:
        pkg = self.package
        modules = [pkg] + [getattr(pkg, m) for m in LAYERS]
        for table, make in ((SPANS, self._span), (LEAVES, self.tracer.leaf)):
            for name, targets in table.items():
                for target in targets:
                    for owner, attr in self._targets(target):
                        orig = owner.__dict__[attr]
                        wrapped = make(name, orig)
                        if inspect.isclass(owner):
                            self._set(owner, attr, wrapped)
                            continue
                        # the definition and every `from .x import y` binding
                        for mod in modules:
                            for key, val in list(vars(mod).items()):
                                if val is orig:
                                    self._set(mod, key, wrapped)

    def _span(self, name: str, fn: Callable):
        return self.tracer.span(name, fn, HOOKS.get(name))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()


def self_times(spans: list) -> list[float]:
    """Self time of every span: duration minus child-covered part minus leaf time.

    Child intervals are clipped to the parent and merged before subtracting,
    so overlapping or out-of-range children are never counted twice.
    """
    children: dict = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(i)
    out = []
    for i, (_, start, end, _, _, leaf) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered - leaf)
    return out


def summarize(tracer: Tracer) -> dict:
    """Totals per span name: self seconds, calls; plus leaf and hook counters."""
    selfs = self_times(tracer.spans)
    by_name: dict = defaultdict(float)
    for rec, s in zip(tracer.spans, selfs):
        by_name[rec[0] + "_s"] += s
    for name, t in tracer.leaf_s.items():
        by_name[name + "_s"] += t
    for key, val in tracer.counts.items():
        by_name[key] += val
    roots = sum(rec[2] - rec[1] for rec in tracer.spans if rec[3] < 0)
    by_name["root_s"] = roots
    by_name["spans"] = len(tracer.spans)
    return dict(by_name)
