"""Closed job loop, output checks and the end-to-end and per-layer measurements.

Imported by run.py after it has pinned the BLAS threads and put the
checkout's ``src`` first on ``sys.path``.
"""

import hashlib
import inspect
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_right

import numpy
import scipy

import sgl
import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
REFERENCE_DIR = HERE / "reference"
SETUP_PROBES = 5
UNTRACED_SHARE = 0.25
# Median HostProbe duration on the baseline host (2-core VM, Python 3.11.7,
# numpy 2.4.6); seed_iters_per_s is reported at this host speed.
PROBE_REFERENCE_S = 0.007

# (name, unit, better). Only END_TO_END_REPORTED goes into the JSON line and
# carries a bound: failed_ops_ratio is 0 on a correct program and travels as
# "failed" / "attempted"; end_gap_median is fixed by the seed's game, so it
# spreads across seeds (IQR/median 0.3-0.65) whatever the speed,
# and the reference comparison guards the learner's math instead.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("seed_iters_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("failed_ops_ratio", "ratio", "lower"),
    ("end_gap_median", "payoff", "lower"),
    ("raw_seed_iters_per_s", "1/s", "higher"),
    ("host_probe_ms", "ms", "lower"),
)
END_TO_END_REPORTED = ("setup_s", "seed_iters_per_s", "peak_rss_mb")


def per_layer_specs(span_names) -> list:
    specs = []
    for name in span_names:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    specs += [
        ("learner.run.self_us_per_iter", "us", "lower"),
        ("learner.window_stages", "count", "lower"),
        ("learner.checkpoint_oracle_ok_ratio", "ratio", "higher"),
        ("learner.run_csv_bytes", "bytes", "lower"),
        ("analysis.exact_value.us_per_call", "us", "lower"),
        ("bench.traced_wall_s", "s", "lower"),
        ("bench.outside_spans_s", "s", "lower"),
        ("bench.untraced_seed_iters_per_s", "1/s", "higher"),
        ("bench.traced_seed_iters_per_s", "1/s", "higher"),
        ("bench.trace_overhead_ratio", "ratio", "lower"),
    ]
    return specs


# ---------------------------------------------------------------------------
# environment record


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # an exported checkout has no .git


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "src_loc": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "sgl").glob("*.py"))),
    }


# ---------------------------------------------------------------------------
# closed job loop


def _digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


class HostProbe:
    """A fixed slice of interpreter and small-matrix work that touches no
    sgl code; its duration tracks how fast the host runs right now.

    On a shared two-core host the same job runs 25 % faster or slower from
    one minute to the next. Timing the probe between jobs and scaling the
    job rate by the probe's median divides that drift out (see README.md).
    """

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.uniforms = rng.random((6000, 2)).tolist()
        self.cdfs = [[0.2, 0.7, 1.0], [0.5, 0.8, 1.0], [0.1, 0.3, 1.0]]
        P = rng.random((3, 3))
        self.P = P / P.sum(axis=1, keepdims=True)

    def __call__(self) -> float:
        start = time.perf_counter()
        s = 0
        for u, v in self.uniforms:
            a = bisect_right(self.cdfs[s], u)
            s = (a + bisect_right(self.cdfs[a], v)) % 3
        P = self.P
        for _ in range(80):
            A = numpy.vstack([P.T - numpy.eye(3), numpy.ones((1, 3))])
            numpy.linalg.lstsq(A, numpy.eye(4)[-1], rcond=None)
            numpy.linalg.eigvals(P)
            numpy.einsum("sj,sjt->st", P, P[:, :, None] * P[:, None, :])
        return time.perf_counter() - start


class JobLoop:
    """Runs a workload's jobs back to back, cycling through its input pool,
    and checks each job's outputs.

    A job fails when it raises, breaks an invariant, differs from the first
    run of the same pool item, differs from ``expected`` (the untraced
    digests, in a traced run), or its pool item's output differs from
    ``reference``.
    """

    def __init__(self, workload, ctx, items, workdir, reference=None, expected=None,
                 tracer=None, first_job=0, probe=None):
        self.workload = workload
        self.ctx = ctx
        self.items = items
        self.workdir = workdir
        self.reference = reference
        self.expected = expected
        self.tracer = tracer
        self.next_job = first_job
        self.records: list[dict] = []
        self.digests: dict = {}
        self.first_outputs: dict = {}
        self.reference_problems: dict = {}
        self.csv_sizes: list[int] = []
        self.probe = probe
        self.probe_times: list[float] = []

    def _check(self, index, item, raw, jobdir) -> list[str]:
        wl = self.workload
        outputs = wl.outputs(self.ctx, item, raw, jobdir)
        problems = wl.invariants(self.ctx, item, raw, outputs)
        digest = _digest(outputs)
        if digest != self.digests.setdefault(index, digest):
            problems.append(f"pool item {index}: output differs from its first run")
        if self.expected is not None and digest != self.expected.get(index):
            problems.append(f"pool item {index}: traced output differs from the untraced run")
        if index not in self.first_outputs:
            self.first_outputs[index] = outputs
            self.reference_problems[index] = [] if self.reference is None else [
                f"reference: {p}"
                for p in workloads.compare(self.reference["items"][index], outputs)
            ]
        # a repeat with the first run's output repeats its reference verdict
        problems += self.reference_problems[index]
        return problems

    def run_one(self) -> None:
        k = self.next_job
        self.next_job += 1
        index = k % len(self.items)
        item = self.items[index]
        jobdir = self.workdir / f"job{k}"
        jobdir.mkdir(parents=True)
        if self.tracer is not None:
            self.tracer.job = k
        problems = []
        start = time.perf_counter()
        try:
            raw = self.workload.run_job(self.ctx, item, jobdir)
        except Exception:  # a raising job is a failed op; the loop goes on
            raw = None
            problems.append("job raised: " + traceback.format_exc(limit=-3))
        seconds = time.perf_counter() - start
        if raw is not None:
            try:
                problems += self._check(index, item, raw, jobdir)
            except Exception:  # unreadable output is a failed op
                problems.append("output check raised: " + traceback.format_exc(limit=-3))
        self.csv_sizes += [p.stat().st_size for p in jobdir.rglob("run.csv")]
        shutil.rmtree(jobdir)
        for p in problems[:5]:
            print(f"job {k} FAILED: {p}", file=sys.stderr)
        if len(problems) > 5:
            print(f"job {k} FAILED: ... and {len(problems) - 5} more", file=sys.stderr)
        self.records.append({
            "job": k,
            "index": index,
            "iterations": self.workload.job_iterations(item),
            "seconds": seconds,
            "raised": raw is None,
            "failed": bool(problems),
        })

    def run_for(self, seconds: float, min_jobs: int = 1) -> float:
        start = time.perf_counter()
        done = len(self.records)
        while len(self.records) - done < min_jobs or time.perf_counter() - start < seconds:
            if self.probe is not None:
                self.probe_times.append(self.probe())
            self.run_one()
        if self.probe is not None:
            self.probe_times.append(self.probe())
        return time.perf_counter() - start

    def rate(self) -> float:
        """Median over jobs of learner iterations per second."""
        rates = [r["iterations"] / r["seconds"] for r in self.records if not r["raised"]]
        return statistics.median(rates) if rates else 0.0

    def failed(self) -> int:
        return sum(r["failed"] for r in self.records)

    def run_csvs(self) -> list:
        return [c for out in self.first_outputs.values() for c in self.workload.run_csvs(out)]


# ---------------------------------------------------------------------------
# measurements


def measure_setup(name: str, inputs: dict) -> float:
    """Median cold set-up time over fresh interpreters: import, game
    construction, mixing certificate and schedule."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, json.dumps(inputs)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_gap_median(loop: JobLoop):
    gaps = [workloads.final_max_gap(c) for c in loop.run_csvs()]
    gaps = [g for g in gaps if g is not None]
    return statistics.median(gaps) if gaps else None


def load_reference(name: str, seed: int):
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        reference = json.load(fh)
    return reference if reference["seed"] == seed else None


def run_untraced(wl, inputs, ctx, items, workdir, reference, seconds) -> dict:
    setup_s = measure_setup(wl.name, inputs)
    loop = JobLoop(wl, ctx, items, workdir, reference=reference, probe=HostProbe())
    loop.run_for(seconds)
    attempted = len(loop.records)
    probe_s = statistics.median(loop.probe_times)
    values = {
        "setup_s": setup_s,
        "seed_iters_per_s": loop.rate() * probe_s / PROBE_REFERENCE_S,
        "peak_rss_mb": peak_rss_mb(),
        "failed_ops_ratio": loop.failed() / attempted,
        "end_gap_median": end_gap_median(loop),
        "raw_seed_iters_per_s": loop.rate(),
        "host_probe_ms": 1e3 * probe_s,
    }
    return {"attempted": attempted, "failed": loop.failed(), "values": values,
            "specs": END_TO_END, "reported": END_TO_END_REPORTED}


def run_traced(wl, inputs, ctx, items, workdir, reference, seconds, rundir) -> dict:
    untraced = JobLoop(wl, ctx, items, workdir, reference=reference)
    untraced_s = untraced.run_for(UNTRACED_SHARE * seconds, min_jobs=len(items))

    run_sig = inspect.signature(sgl.learner.run)
    learner_runs = []

    def observe_run(args, kwargs):
        bound = run_sig.bind(*args, **kwargs)
        learner_runs.append((bound.arguments["schedule"], bound.arguments["iters"]))

    tracer = tracing.Tracer(sgl, wl.name, observers={"learner.run": observe_run})
    wall_start = time.perf_counter()
    tracer.install()
    try:
        tracer.job = "setup"
        traced_ctx = wl.setup(inputs)
        traced = JobLoop(wl, traced_ctx, items, workdir, expected=untraced.digests,
                         tracer=tracer, first_job=untraced.next_job)
        traced.run_for(max(seconds - untraced_s, 0.0))
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - wall_start
    tracer.write_spans(rundir / "spans.csv")
    spans = tracer.spans

    table = tracing.self_times(spans)
    values = {}
    for name in tracing.SPAN_NAMES:
        calls, self_s, _ = table.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    iterations = sum(iters for _, iters in learner_runs)
    values["learner.run.self_us_per_iter"] = (
        1e6 * values["learner.run.self_s"] / iterations if iterations else 0.0
    )
    values["learner.window_stages"] = sum(
        schedule.horizon(t) + 1 for schedule, iters in learner_runs for t in range(iters)
    )
    ok = total = 0
    for run_csv in traced.run_csvs():
        a, b = workloads.checkpoint_oracle_counts(run_csv)
        ok, total = ok + a, total + b
    values["learner.checkpoint_oracle_ok_ratio"] = ok / total if total else 0.0
    values["learner.run_csv_bytes"] = (
        statistics.mean(traced.csv_sizes) if traced.csv_sizes else 0.0
    )
    calls, _, inclusive = table.get("analysis.exact_value", (0, 0.0, 0.0))
    values["analysis.exact_value.us_per_call"] = 1e6 * inclusive / calls if calls else 0.0
    values["bench.traced_wall_s"] = wall
    values["bench.outside_spans_s"] = wall - tracing.root_time(spans)
    values["bench.untraced_seed_iters_per_s"] = untraced.rate()
    values["bench.traced_seed_iters_per_s"] = traced.rate()
    values["bench.trace_overhead_ratio"] = (
        untraced.rate() / traced.rate() if traced.rate() else 0.0
    )
    specs = per_layer_specs(tracing.SPAN_NAMES)
    loops = (untraced, traced)
    return {
        "attempted": sum(len(lp.records) for lp in loops),
        "failed": sum(lp.failed() for lp in loops),
        "values": values,
        "specs": specs,
        "reported": tuple(name for name, _, _ in specs),
    }


def record_reference(wl, seed, inputs, ctx, items, workdir) -> int:
    loop = JobLoop(wl, ctx, items, workdir)
    for _ in items:
        loop.run_one()
    if loop.failed():
        print("not recorded: an output check failed", file=sys.stderr)
        return 1
    doc = {
        "workload": wl.name,
        "seed": seed,
        "rtol": workloads.RTOL,
        "atol": workloads.ATOL,
        "environment": environment(),
        "items": [loop.first_outputs[k] for k in range(len(items))],
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{wl.name}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(items)} pool items to reference/{wl.name}.json")
    return 0


def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(args) -> int:
    """Run one benchmark invocation; returns the exit code."""
    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    rundir = OUT / f"{wl.name}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    workdir = rundir / "jobs"
    workdir.mkdir(parents=True)
    with open(rundir / "env.json", "w") as fh:
        json.dump(env, fh, indent=1)

    inputs = wl.make_inputs(args.seed)
    items = inputs["items"]
    ctx = wl.setup(inputs)
    if args.record_reference:
        return record_reference(wl, args.seed, inputs, ctx, items, workdir)
    reference = load_reference(wl.name, args.seed)

    if args.trace:
        result = run_traced(wl, inputs, ctx, items, workdir, reference, args.seconds, rundir)
    else:
        result = run_untraced(wl, inputs, ctx, items, workdir, reference, args.seconds)
    shutil.rmtree(workdir)

    values = result["values"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"reference {'compared' if reference else 'not compared (other seed)'}")
    print(f"jobs attempted {result['attempted']}  failed {result['failed']}")
    for name, unit, better in result["specs"]:
        print(f"  {name:<48} {_format(values[name]):>14} {unit:<7} ({better} is better)")
    doc = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in result["specs"]
            if name in result["reported"]
        },
    }
    with open(rundir / "result.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1
