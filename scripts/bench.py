#!/usr/bin/env python3
"""Per-call timings of the exact oracle and the learner, written to a
BENCH_<n>.json file.

Times exact_value, exact_values over a stack of 256 profiles,
smoothed_gradient_estimate with 256 draws, exact_gradient,
finite_difference_gradient (default step, one exact_values call), nash_gap,
fenchel_coupling (entropy mirror, uniform reference) and
horizon_bias_check (window 8, 1000 draws, contraction given) on three game
sizes: (2 states, 2 players, 2 actions), (3, 3, 3) and (20, 2, 4) with
transition floor 0.01. The learner rows give microseconds per seed-
iteration of B seeds with the entropy mirror, the default schedule and
log_every=1000: B = 1, 3, 10 on matching-pennies and zerosum-switching,
whose windows are 2 stages, and on perfbench's slow-mixing mixing-window
game (seed 7, certified tau 40), whose windows grow from 57 to 554 stages.
The log_every=1 rows run the checkpoint oracle (value, Nash gap and
Fenchel coupling to the uniform reference) after every one of 100
iterations, at B = 1, 3 and 10 on both zero-sum games and at B = 1 and 3
on the (3, 3, 3) game. The learner[failing,B=b,log_every=1] rows do the
same at B = 1 and 6 on the stay/switch game, with the power window preset:
player 0 keeps or flips the state, so best responses and chains fail at
many checkpoints and the failure path is timed (its warnings ignored). The
learner[oracle_mode] row is perfbench's oracle-audit job on the (3, 3, 3)
game: one seed, 40 iterations in oracle_mode with log_every=10 and 256
decomposition draws, so each checkpoint adds the step decomposition to
the oracle. Each is one run_batch call. Every learner row also records,
per side, the cProfile count of Python and C function calls of one such
call divided by its iterations (calls_per_iter) and by its
seed-iterations (calls_per_seed_iter); unlike the times, the counts do not move with the
host. The window rows time the last stage of B windows of H + 1 stages on
the mixing-window game, at (B, H) = (3, 1), (3, 450) and (1000, 8), as one
games._window_ends call: once with its array kernel forced (the
_window_ends rows) and once with every window walked by the scalar
games._walk (the _walk rows); from them the change side's crossover, the
stage-rows B * (H + 1) at which the two cost the same, is recorded.
The job rows run perfbench's three job shapes end to end in one
interpreter with one BLAS thread, as perfbench does: the mixing-window
sweep (600 iterations, 3 seeds, Euclidean mirror), the zerosum
convergence_benchmark on both games (2000 iterations, 3 seeds) and the
oracle-audit run (40 iterations in oracle_mode, 256 draws), with the
workloads' parameters and seed 7's games and learner seeds. Each side's
src/sgl is copied under its own package name (sgl_parent, sgl_change; the
package imports only relatively), so both load in the same interpreter,
and for JOB_ROUNDS rounds every shape runs one job per side, the sides
alternating which goes first. Each job row records per side the median and
IQR of the seed-iterations per second, and with a baseline the median of
the per-round ratios change / parent and the rounds the change was faster.
With --baseline REV the same timings are also taken on that git revision's
src/ (exported with git archive) and every row holds both sides. Each
operation and size is timed in fresh interpreters, ten rounds per side
with the sides alternating. The baseline must have this API, as every
revision from dbf9f10 on does. Each side also records its src/sgl line
count, the number of names in sgl.__all__, its count of defaulted function
parameters, its counts of dataclass fields and of those with a default,
the number of arguments (options and positionals, not -h) of each sgl
subcommand as sgl.cli.build_parser() defines them, the wall time of a
cold `import sgl` (median and IQR over fresh interpreters, the sides
alternating) and the number of modules that import loads. Times differ
more between interpreters than within one, so every row also records,
per side, the IQR of the per-interpreter medians (round_iqr_us) and, with
a baseline, in how many rounds the change's interpreter had the lower
median (change_faster_rounds of ROUNDS); a speedup whose rounds split, or
that sits inside round_iqr_us, is unresolved.

    python scripts/bench.py --baseline HEAD~1 --out BENCH_<n>.json
"""

import argparse
import ast
import cProfile
import importlib
import io
import json
import math
import os
import pathlib
import platform
import pstats
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings

import numpy as np

REPO = pathlib.Path(__file__).resolve().parents[1]
SIZES = {
    "2s2p2a": dict(n_states=2, n_players=2, n_actions=2),
    "3s3p3a": dict(n_states=3, n_players=3, n_actions=3),
    "20s2p4a": dict(n_states=20, n_players=2, n_actions=4, eps=0.01),
}
STACK = 256          # profiles per exact_values call, draws per smoothed gradient
OPS = (
    "exact_value",
    f"exact_values[B={STACK}]",
    f"smoothed_gradient_estimate[draws={STACK}]",
    "exact_gradient",
    "finite_difference_gradient",
    "nash_gap",
    "fenchel_coupling",
    "horizon_bias_check[H=8,draws=1000]",
)
LEARNER_BATCHES = {  # seeds per learner row, by game
    "matching-pennies": (1, 3, 10),
    "zerosum-switching": (1, 3, 10),
    "mixing-window": (1, 3, 10),
}
WINDOWS = ((3, 1), (3, 450), (1000, 8))  # (B, H) of the window rows
ORACLE_BATCHES = {  # seeds per log_every=1 learner row, by game
    "matching-pennies": (1, 3, 10),
    "zerosum-switching": (1, 3, 10),
    "3s3p3a": (1, 3),
}
MIXING_SEED = 7  # perfbench mixing-window game seed
LEARNER_ITERS = 1000  # outer iterations per seed and learner call
ORACLE_ITERS = 100    # the same, with a checkpoint after every iteration
FAILING_BATCHES = (1, 6)  # seeds per learner[failing,...] row, on the stay/switch game
ORACLE_MODE_ITERS = 40  # iterations of the oracle_mode row (perfbench oracle-audit)
ORACLE_MODE_EVERY = 10  # and its iterations per checkpoint
JOB_SHAPES = ("zerosum-converge", "mixing-window", "oracle-audit")  # perfbench's jobs
JOB_ROUNDS = 30      # interleaved rounds of one job per shape and side
ROUNDS = 10          # interpreter runs per side, operation and size
REPEATS = 7          # timed repeats per interpreter run
MIN_REPEAT_S = 0.02  # calls per repeat are doubled until a repeat lasts this long


def _time(fn) -> dict:
    fn()
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= MIN_REPEAT_S:
            break
        calls *= 2
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append(1e6 * (time.perf_counter() - start) / calls)
    return {"samples_us": samples, "calls_per_repeat": calls}


def measure(src: pathlib.Path, op: str, size: str) -> dict:
    """Timing of one operation at one size for the package under src."""
    sys.path.insert(0, str(src))
    import sgl
    from sgl import analysis, games, generators, learner, mirror, spsa

    if not pathlib.Path(sgl.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported {sgl.__file__}, not the package under {src}")
    if op.startswith("learner"):
        return _time_learner(op, size)
    if op.startswith(("_window_ends", "_walk")):
        return _time_window(op)
    game = generators.generate(
        generators.GeneratorSpec(kind="random-ergodic", seed=0, **SIZES[size])
    )
    rng = np.random.default_rng(1)
    policy = games.random_profile(game, rng, margin=0.3)
    profiles = [games.random_profile(game, rng, margin=0.3) for _ in range(STACK)]
    stacks = [np.stack([p.probs[i] for p in profiles]) for i in range(game.n_players)]
    delta = 0.5 * min(
        spsa.safety_net_for(game.n_states, m).radius for m in game.n_actions
    )
    if op == "exact_value":
        return _time(lambda: analysis.exact_value(game, policy))
    if op == f"exact_values[B={STACK}]":
        return _time(lambda: analysis.exact_values(game, stacks))
    if op == f"smoothed_gradient_estimate[draws={STACK}]":
        return _time(
            lambda: spsa.smoothed_gradient_estimate(
                game, policy, delta, STACK, np.random.default_rng(0)
            )
        )
    if op == "exact_gradient":
        return _time(lambda: analysis.exact_gradient(game, policy))
    if op == "finite_difference_gradient":
        return _time(lambda: analysis.finite_difference_gradient(game, policy))
    if op == "nash_gap":
        return _time(lambda: analysis.nash_gap(game, policy))
    if op == "fenchel_coupling":
        reg = mirror.make_regularizer("entropy")
        scores = [rng.standard_normal((game.n_states, m)) for m in game.n_actions]
        reference = games.uniform_profile(game)
        return _time(lambda: mirror.fenchel_coupling(reg, reference, scores))
    if op == "horizon_bias_check[H=8,draws=1000]":
        return _time(
            lambda: learner.horizon_bias_check(
                game, policy, 8, 1000, rng=0, contraction=0.5
            )
        )
    raise SystemExit(f"unknown operation {op!r}")


def _time_learner(op: str, kind: str) -> dict:
    """Microseconds per seed-iteration of one learner call over B seeds, and
    the call's profiled function calls per iteration and per seed-iteration:
    op is learner[B=b] (log_every=1000), learner[B=b,log_every=1],
    learner[failing,B=b,log_every=1] (kind stay-switch) or
    learner[oracle_mode] (one seed, perfbench's oracle-audit job)."""
    from sgl import games, generators, learner, mirror

    if op == "learner[oracle_mode]":
        batch, every = "1", "oracle_mode"
    else:
        batch, _, every = (
            op.removeprefix("learner[").removeprefix("failing,").removeprefix("B=")
            .removesuffix("]").partition(",")
        )
    seeds = list(range(int(batch)))
    if kind == "mixing-window":
        game = _mixing_window_game()
    elif kind == "stay-switch":
        game = _stay_switch_game()
    elif kind in SIZES:
        game = generators.generate(
            generators.GeneratorSpec(kind="random-ergodic", seed=0, **SIZES[kind])
        )
    else:
        game = generators.generate(generators.GeneratorSpec(kind=kind))
    if kind == "stay-switch":  # no certified mixing constant: the power window
        schedule = learner._preset_schedule(game, "power", None, 1.0)
        warnings.simplefilter("ignore")
    else:
        schedule = learner.default_schedule(game)
    reg = mirror.make_regularizer("entropy")
    if every == "oracle_mode":  # a decomposition at every checkpoint
        iters = ORACLE_MODE_ITERS
        options = {
            "log_every": ORACLE_MODE_EVERY,
            "reference": games.uniform_profile(game),
            "oracle_mode": True,
            "decomposition_draws": STACK,
        }
    elif every:  # a checkpoint, with the Fenchel coupling, after every iteration
        iters = ORACLE_ITERS
        options = {"log_every": 1, "reference": games.uniform_profile(game)}
    else:
        iters, options = LEARNER_ITERS, {"log_every": 1000}
    timed = _time(lambda: learner.run_batch(game, schedule, reg, iters, seeds, **options))
    per_call = iters * len(seeds)
    timed["samples_us"] = [us / per_call for us in timed["samples_us"]]
    profile = cProfile.Profile()
    profile.runcall(learner.run_batch, game, schedule, reg, iters, seeds, **options)
    calls = pstats.Stats(profile).total_calls
    timed["calls_per_iter"] = calls / iters
    timed["calls_per_seed_iter"] = calls / per_call
    return timed


def _stay_switch_game():
    """Two states, two players with two actions: player 0's first action
    keeps the state and its second flips it, so its pure responses give
    reducible or periodic chains; the rewards are matching pennies'
    with the roles swapping between the states."""
    from sgl import games

    rewards = np.zeros((2, 2, 4))
    rewards[0] = [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]
    rewards[1] = 1.0 - rewards[0]
    transitions = np.zeros((2, 4, 2))
    for s in range(2):
        transitions[s, :2, s] = 1.0
        transitions[s, 2:, 1 - s] = 1.0
    return games.StochasticGame(2, (2, 2), rewards, transitions)


def _mixing_window_game():
    sys.path.append(str(REPO))
    from perfbench.workloads import MixingWindow

    workload = MixingWindow()
    return workload.build_game(MIXING_SEED, workload.calibrate_stay(MIXING_SEED))


def _time_window(op: str) -> dict:
    """Microseconds of one games._window_ends call for the last stage of B
    windows of H + 1 stages from state 0, each row with its own random
    profile: op is _window_ends[B=b,H=h] (the array kernel forced) or
    _walk[B=b,H=h] (every window walked by the scalar _walk)."""
    from sgl import games

    name, _, shape = op.partition("[B=")
    batch, height = (int(x) for x in shape.removesuffix("]").split(",H="))
    game = _mixing_window_game()
    rng = np.random.default_rng(1)
    blocks = [
        np.stack(blocks)
        for blocks in zip(*(games.random_profile(game, rng, 0.3).probs for _ in range(batch)))
    ]
    u = rng.random((batch, height + 1, game.n_players + 1))
    cols = [np.cumsum(b, axis=2)[..., :-1] for b in blocks]
    starts = [0] * batch
    games._KERNEL_STAGE_ROWS = 0 if name == "_window_ends" else math.inf
    return _time(lambda: games._window_ends(game, cols, starts, u))


def _jobs(pkg, out: pathlib.Path) -> dict:
    """perfbench's three job shapes on the package pkg, by name: (run, n),
    where run(k) plays item k of the shape's pool, cycling through it, and a
    job is n seed-iterations."""
    from perfbench.workloads import WORKLOADS, _learner_seeds

    games, generators, learner, mirror = pkg.games, pkg.generators, pkg.learner, pkg.mirror
    zerosum, mixing, audit = (WORKLOADS[name] for name in JOB_SHAPES)
    zerosum_items = _learner_seeds(MIXING_SEED, (zerosum.pool, zerosum.seeds_per_job))
    mixing_items = _learner_seeds(MIXING_SEED, (mixing.pool, mixing.seeds_per_job))
    audit_items = _learner_seeds(MIXING_SEED, audit.pool)

    slow = _mixing_window_game()  # built by the working tree's sgl
    slow = games.StochasticGame(
        slow.n_states, slow.n_actions, slow.rewards, slow.transitions, dict(slow.meta)
    )
    slow_schedule = learner.default_schedule(slow, tau=slow.mixing_certificate.tau)
    euclidean = mirror.make_regularizer("euclidean")
    oracle_game = generators.generate(
        generators.GeneratorSpec(
            kind="random-ergodic", n_states=3, n_players=3, n_actions=3, eps=0.1,
            seed=MIXING_SEED,
        )
    )
    oracle_schedule = learner.default_schedule(oracle_game)
    entropy = mirror.make_regularizer("entropy")

    def run_zerosum(k):
        for kind in zerosum.kinds:
            generators.convergence_benchmark(
                kind, zerosum.iters, zerosum_items[k % zerosum.pool],
                log_every=zerosum.log_every, out=str(out / kind),
            )

    def run_mixing(k):
        generators.sweep(
            slow, [slow_schedule], mixing_items[k % mixing.pool], mixing.iters,
            regularizer=euclidean, reference=games.uniform_profile(slow),
            log_every=mixing.log_every, out=str(out / mixing.name),
        )

    def run_audit(k):
        learner.run(
            oracle_game, oracle_schedule, entropy, audit.iters, audit_items[k % audit.pool],
            oracle_mode=True, reference=games.uniform_profile(oracle_game),
            log_every=audit.log_every, out_dir=str(out / audit.name),
            decomposition_draws=audit.draws,
        )

    return {
        zerosum.name: (run_zerosum, zerosum.iters * zerosum.seeds_per_job * len(zerosum.kinds)),
        mixing.name: (run_mixing, mixing.iters * mixing.seeds_per_job),
        audit.name: (run_audit, audit.iters),
    }


def _measure_jobs(packages: pathlib.Path, names: list) -> dict:
    """Seed-iterations per second of JOB_ROUNDS jobs of every shape on each
    package under packages, by package and shape, the packages alternating
    which goes first in each round."""
    sys.path.insert(0, str(packages))
    # perfbench.workloads, and the working tree's sgl, which it imports
    sys.path += [str(REPO), str(REPO / "src")]
    jobs = {}
    for name in names:
        pkg = importlib.import_module(name)
        if not pathlib.Path(pkg.__file__).resolve().is_relative_to(packages.resolve()):
            raise SystemExit(f"imported {pkg.__file__}, not the package under {packages}")
        jobs[name] = _jobs(pkg, packages / f"{name}_out")
    for name in names:  # first calls fill each game's caches
        for run, _ in jobs[name].values():
            run(0)
    rates = {name: {shape: [] for shape in JOB_SHAPES} for name in names}
    for r in range(JOB_ROUNDS):
        for shape in JOB_SHAPES:
            for name in names[:: 1 if r % 2 == 0 else -1]:
                run, n = jobs[name][shape]
                start = time.perf_counter()
                run(r)
                rates[name][shape].append(n / (time.perf_counter() - start))
    return rates


def _job_rows(sides: dict, tmp: pathlib.Path) -> list:
    """The interleaved job rows: one interpreter runs every side's copy of
    src/sgl, each under its own package name."""
    packages = tmp / "packages"
    names = []
    for side, (src, _) in sides.items():
        shutil.copytree(src / "sgl", packages / f"sgl_{side}")
        names.append(f"sgl_{side}")
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    one_thread = {var: "1" for var in threads}  # as perfbench/run.py sets them
    rates = json.loads(subprocess.run(
        [sys.executable, __file__, "--measure", str(packages), "jobs", ",".join(names)],
        env={**os.environ, **one_thread}, check=True, capture_output=True, text=True,
    ).stdout)
    rows = []
    for shape in JOB_SHAPES:
        row = {"op": f"job[{shape}]", "rounds": JOB_ROUNDS}
        for side in sides:
            q1, median, q3 = np.percentile(rates[f"sgl_{side}"][shape], [25, 50, 75])
            row[side] = {"seed_iters_per_s": float(median), "round_iqr": float(q3 - q1)}
        if "parent" in sides:
            parent, change = rates["sgl_parent"][shape], rates["sgl_change"][shape]
            row["ratio"] = float(np.median([c / p for p, c in zip(parent, change)]))
            row["change_faster_rounds"] = sum(int(c > p) for p, c in zip(parent, change))
        rows.append(row)
    return rows


def _crossover(rows: list) -> dict:
    """Stage-rows B * (H + 1) at which one _window_ends call costs as much as
    B scalar walks on the change side: the kernel's cost as fixed plus
    per-stage-row from its (3, 1) and (3, 450) rows, the walk's as
    per-stage-row from its (3, 450) row."""
    us = {
        row["op"]: row["change"]["us_per_call"] for row in rows
        if row["op"].startswith(("_window_ends", "_walk"))
    }
    short, long_ = "[B=3,H=1]", "[B=3,H=450]"
    slope = (us[f"_window_ends{long_}"] - us[f"_window_ends{short}"]) / (3 * 451 - 3 * 2)
    fixed = us[f"_window_ends{short}"] - slope * 3 * 2
    walk = us[f"_walk{long_}"] / (3 * 451)
    return {
        "kernel_fixed_us": fixed,
        "kernel_us_per_stage_row": slope,
        "walk_us_per_stage_row": walk,
        "stage_rows": fixed / (walk - slope),
    }


def _src_loc(src: pathlib.Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (src / "sgl").glob("*.py"))


_CLI_COUNTS = """
import argparse, json, sgl, sgl.cli
sub = next(a for a in sgl.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
print(json.dumps({"public_names": len(sgl.__all__), "cli_options": {
    name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
    for name, p in sub.choices.items()}}))
"""


def _surface(src: pathlib.Path) -> dict:
    """Counts of the names in sgl.__all__, of defaulted parameters of every
    function and lambda, of the fields of every @dataclass class and of
    those with a default, in src/sgl, and of the arguments of each sgl
    subcommand."""
    params = fields = defaulted = 0
    for path in (src / "sgl").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                annotated = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                fields += len(annotated)
                defaulted += sum(s.value is not None for s in annotated)
    counts = json.loads(subprocess.run(
        [sys.executable, "-c", _CLI_COUNTS],
        env={**os.environ, "PYTHONPATH": str(src)}, check=True, capture_output=True, text=True,
    ).stdout)
    return {
        "public_names": counts["public_names"],
        "defaulted_params": params,
        "dataclass_fields": fields,
        "defaulted_dataclass_fields": defaulted,
        "cli_options": counts["cli_options"],
    }


def _import_cost(sides: dict) -> dict:
    """Per side: median and IQR of the seconds a cold `import sgl` takes, over
    ROUNDS * REPEATS fresh interpreters with the sides alternating, and the
    number of modules it adds to sys.modules."""
    code = (
        "import sys, time; n = len(sys.modules); start = time.perf_counter(); "
        "import sgl; print(time.perf_counter() - start, len(sys.modules) - n)"
    )
    runs = {side: [] for side in sides}
    for r in range(ROUNDS * REPEATS):
        for side in list(sides)[:: 1 if r % 2 == 0 else -1]:
            out = subprocess.run(
                [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(sides[side])},
                check=True, capture_output=True, text=True,
            ).stdout.split()
            runs[side].append((float(out[0]), int(out[1])))
    cost = {}
    for side, timed in runs.items():
        q1, median, q3 = np.percentile([s for s, _ in timed], [25, 50, 75])
        cost[side] = {
            "import_s": float(median),
            "import_iqr_s": float(q3 - q1),
            "import_runs": len(timed),
            "import_modules": timed[0][1],
        }
    return cost


def _git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str, dest: pathlib.Path) -> pathlib.Path:
    blob = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"],
        cwd=REPO, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def _summary(samples: list, calls: int) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {
        "us_per_call": float(median),
        "iqr_us": float(q3 - q1),
        "repeats": len(samples),
        "calls_per_repeat": calls,
    }


def _row(sides: dict, op: str, size: str) -> dict:
    """One operation at one size on every side. Each round starts one
    interpreter per side, alternating which side goes first, so drift of
    the host's speed hits both sides alike."""
    runs = {side: [] for side in sides}
    for r in range(ROUNDS):
        for side in list(sides)[:: 1 if r % 2 == 0 else -1]:
            out = subprocess.run(
                [sys.executable, __file__, "--measure", str(sides[side][0]), op, size],
                check=True, capture_output=True, text=True,
            ).stdout
            runs[side].append(json.loads(out))
    row = {"op": op, "size": size}
    medians = {side: [np.median(t["samples_us"]) for t in timed] for side, timed in runs.items()}
    for side, timed in runs.items():
        samples = [s for t in timed for s in t["samples_us"]]
        row[side] = _summary(samples, timed[0]["calls_per_repeat"])
        q1, q3 = np.percentile(medians[side], [25, 75])
        row[side]["round_iqr_us"] = float(q3 - q1)
        for key in ("calls_per_iter", "calls_per_seed_iter"):
            if key in timed[0]:  # the same in every round
                row[side][key] = timed[0][key]
    if "parent" in row:
        row["speedup"] = row["parent"]["us_per_call"] / row["change"]["us_per_call"]
        row["change_faster_rounds"] = sum(
            int(c < p) for p, c in zip(medians["parent"], medians["change"])
        )
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="BENCH_<n>.json file to write")
    ap.add_argument("--baseline", help="git revision timed next to the working tree")
    ap.add_argument("--measure", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure:  # a child: SRC OP SIZE, or PACKAGES jobs NAMES
        src, op, size = args.measure
        if op == "jobs":
            print(json.dumps(_measure_jobs(pathlib.Path(src), size.split(","))))
        else:
            print(json.dumps(measure(pathlib.Path(src), op, size)))
        return 0
    if not args.out:
        ap.error("--out is required")

    dirty = bool(_git("status", "--porcelain", "--", "src"))
    head = _git("rev-parse", "HEAD") + ("+dirty" if dirty else "")
    sides = {"change": (REPO / "src", head)}
    with tempfile.TemporaryDirectory() as tmp:
        if args.baseline:
            commit = _git("rev-parse", args.baseline)
            sides = {"parent": (_export(commit, pathlib.Path(tmp)), commit), **sides}
        rows = [_row(sides, op, size) for size in SIZES for op in OPS]
        rows += [
            _row(sides, f"learner[B={b}]", kind)
            for kind, batches in LEARNER_BATCHES.items()
            for b in batches
        ]
        rows += [
            _row(sides, f"learner[B={b},log_every=1]", kind)
            for kind, batches in ORACLE_BATCHES.items()
            for b in batches
        ]
        rows += [
            _row(sides, f"learner[failing,B={b},log_every=1]", "stay-switch")
            for b in FAILING_BATCHES
        ]
        rows.append(_row(sides, "learner[oracle_mode]", "3s3p3a"))
        rows += [
            _row(sides, f"{name}[B={b},H={h}]", "mixing-window")
            for b, h in WINDOWS
            for name in ("_window_ends", "_walk")
        ]
        jobs = _job_rows(sides, pathlib.Path(tmp))
        imports = _import_cost({side: src for side, (src, _) in sides.items()})
        env_sides = {
            side: {"commit": commit, "src_loc": _src_loc(src), **_surface(src), **imports[side]}
            for side, (src, commit) in sides.items()
        }

    doc = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "sides": env_sides,
        "sizes": SIZES,
        "learner": {
            "batches": LEARNER_BATCHES,
            "mixing_window_seed": MIXING_SEED,
            "iters": LEARNER_ITERS,
            "mirror": "entropy",
            "log_every": 1000,
            "oracle_batches": ORACLE_BATCHES,
            "oracle_iters": ORACLE_ITERS,
            "failing_batches": {"stay-switch": FAILING_BATCHES, "horizon": "power"},
            "oracle_mode": {
                "size": "3s3p3a", "iters": ORACLE_MODE_ITERS,
                "log_every": ORACLE_MODE_EVERY, "draws": STACK, "seeds": 1,
            },
            "unit": "us per seed-iteration",
            "calls": "cProfile calls of one call / iters (calls_per_iter) and / (iters * B)",
        },
        "rounds": {
            "count": ROUNDS,
            "round_iqr_us": "IQR over the rounds of each interpreter's median",
            "change_faster_rounds": "rounds whose change interpreter's median beat the parent's",
        },
        "windows": {"game": "mixing-window", "shapes_b_h": WINDOWS, "unit": "us per call"},
        "window_crossover": _crossover(rows),
        "jobs": {
            "shapes": JOB_SHAPES,
            "seed": MIXING_SEED,
            "unit": "seed-iterations per second, median over the rounds",
            "ratio": "median over the rounds of change / parent",
        },
        "rows": rows,
        "job_rows": jobs,
    }
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for row in rows:
        cells = [f"{side} {row[side]['us_per_call']:10.1f} us" for side in sides]
        cells += [
            f"{side} {row[side]['calls_per_iter']:6.1f} calls/it"
            for side in sides if "calls_per_iter" in row[side]
        ]
        speed = ""
        if "speedup" in row:
            speed = f"  x{row['speedup']:.2f} ({row['change_faster_rounds']}/{ROUNDS} rounds)"
        print(f"{row['op']:36s} {row['size']:17s} " + "  ".join(cells) + speed)
    for row in jobs:
        cells = [f"{side} {row[side]['seed_iters_per_s']:10.1f} /s" for side in sides]
        speed = ""
        if "ratio" in row:
            speed = f"  x{row['ratio']:.2f} ({row['change_faster_rounds']}/{JOB_ROUNDS} rounds)"
        print(f"{row['op']:36s} {'interleaved':17s} " + "  ".join(cells) + speed)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
