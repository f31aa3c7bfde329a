"""Span tracing of sgl's public functions, installed from outside the package.

Each traced function is replaced by a wrapper at every name it is reachable
under inside the package: the defining module's attribute (which also
covers the lazy ``from .analysis import ...`` inside function bodies), any
top-level re-import such as ``learner.perturb``, and the package namespace
(every loaded module of the package is scanned).
Methods are wrapped on their class; ``games.PolicyProfile`` is traced
through ``PolicyProfile.__post_init__``, which the dataclass constructor
calls. ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, job)``; ``parent`` is the index of
the enclosing span or -1. Spans stay in memory, one flat list per field so
the garbage collector has no per-span objects to scan, until
``write_spans``.
"""

from __future__ import annotations

import csv
import functools
import sys
import time

# (module, dotted attribute) for every traced function; the metric prefix is
# "<module>.<attribute>" with a trailing ".__post_init__" dropped.
TRACED = (
    ("learner", "run"),
    ("learner", "decompose_step"),
    ("learner", "RunLog.write"),
    ("learner", "default_schedule"),
    ("generators", "convergence_benchmark"),
    ("generators", "sweep"),
    ("analysis", "exact_value"),
    ("analysis", "exact_gradient"),
    ("analysis", "advantages"),
    ("analysis", "nash_gap"),
    ("analysis", "best_response"),
    ("games", "PolicyProfile.__post_init__"),
    ("games", "analyze_chain"),
    ("games", "induced_transition_matrix"),
    ("games", "stationary_distribution"),
    ("games", "certify_mixing"),
    ("games", "certification_sample"),
    ("spsa", "smoothed_gradient_estimate"),
    ("spsa", "perturb"),
    ("spsa", "sample_sphere"),
    ("spsa", "lift_policy"),
    ("mirror", "fenchel_coupling"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__post_init__')}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in TRACED)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    ``observers`` maps a span name to ``fn(args, kwargs)``, called before
    each traced call, so counts can be taken at the same boundary.
    """

    def __init__(self, package, workload: str, observers=None, clock=time.perf_counter):
        self.package = package
        self.workload = workload
        self.observers = dict(observers or {})
        self.clock = clock
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.jobs: list = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn):
        names, starts, ends, parents, jobs = (
            self.names, self.starts, self.ends, self.parents, self.jobs
        )
        stack, clock = self._stack, self.clock
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = self.package.__name__ + "."
        namespaces = [
            module
            for key, module in list(sys.modules.items())
            if key == self.package.__name__ or key.startswith(prefix)
        ]
        for module, attr in TRACED:
            name = span_name(module, attr)
            owner = getattr(self.package, module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(name, original)
            if path:  # a method: the class attribute is the only name
                self._patch(owner, leaf, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def spans(self) -> list:
        return list(zip(self.names, self.starts, self.ends, self.parents, self.jobs))

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start", "end", "parent", "workload", "job"))
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                writer.writerow((i, name, repr(start), repr(end), parent, self.workload, job))


def self_times(spans) -> dict:
    """Per span name: ``[calls, self seconds, inclusive seconds]``.

    Self time is a span's duration minus the durations of its direct
    children; in one thread children never overlap, so that is the time
    they cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start - covered[i]
        entry[2] += end - start
    return out


def root_time(spans) -> float:
    """Total duration of the spans that have no traced parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
