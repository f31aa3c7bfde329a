#!/usr/bin/env python3
"""Per-call timings of the exact oracle, the learner, window play and
perfbench's jobs, written to a BENCH_<n>.json file.

    python scripts/bench.py --baseline HEAD~1 --out BENCH_<n>.json

The operation rows time exact_value, exact_values over a stack of 256
profiles, smoothed_gradient_estimate with 256 draws, exact_gradient,
finite_difference_gradient (default step, one exact_values call), nash_gap,
fenchel_coupling (entropy mirror, uniform reference),
horizon_bias_check (window 8, 1000 draws, contraction given) and the
single-sample calls sample_sphere, perturb and estimate_gradient (one
draw, one query and one estimate for the player with the most actions, as
criterion 4 makes 400 000 of each) on four game sizes: (2 states, 2
players, 2 actions), (3, 3, 3), (20, 2, 4) with transition floor 0.01,
and 3 states with actions (1, 3, 2), whose unequal
action counts and single-action player take their own branches. The learner rows are one run_batch call each, of B
seeds with the entropy mirror and the default schedule: at log_every=1000,
B = 1, 3, 10 on matching-pennies and zerosum-switching, whose windows are 2
stages, and on perfbench's slow-mixing mixing-window game (seed 7,
certified tau 40), whose windows grow from 57 to 554 stages. The
log_every=1 rows run the checkpoint oracle (value, Nash gap and Fenchel
coupling to the uniform reference) after every one of 100 iterations, at
B = 1, 3 and 10 on both zero-sum games and at B = 1 and 3 on the (3, 3, 3)
game. The learner[failing,B=b,log_every=1] rows do the same at B = 1 and 6
on the stay/switch game, with the power window preset: player 0 keeps or
flips the state, so best responses and chains fail at many checkpoints and
the failure path is timed (its warnings ignored). The learner[oracle_mode]
row is perfbench's oracle-audit job on the (3, 3, 3) game: one seed, 40
iterations in oracle_mode with log_every=10 and 256 decomposition draws;
the learner[oracle_mode,log_every=1] row is the same run with a
decomposition after every iteration, where a block of checkpoints holds
the most oracle checkpoints.
The window rows time the last stage of B windows of H + 1 stages on the
mixing-window game, at (B, H) = (3, 1), (3, 450) and (1000, 8), as one
games._window_ends call: once with its array branch forced (the
_window_ends rows) and once with every window walked by the scalar
games._walk (the _walk rows). The array branch plays the stage maps, or
steps the rows one stage at a time (_step_rows) where rows * states * CDF
columns pass games._STAGE_MAP_CELLS: at (1000, 8) the mixing-window game
has 1000 * 3 * 6 = 18 000 such cells, so that row times _step_rows. The _window_ends[periodic,B=3,H=450] row
forces the kernel on the 3-cycle game, the mixing-window game whose every
state moves to the next with probability 1: its stage maps never send two
states to one, so the kernel composes every stage back to stage 0, its
worst case. The job rows run perfbench's three job shapes end to end with the
workloads' parameters and seed 7's games and learner seeds: the
mixing-window sweep (600 iterations, 3 seeds, Euclidean mirror), the
zerosum convergence_benchmark on both games (2000 iterations, 3 seeds)
and the oracle-audit run (40 iterations in oracle_mode, 256 draws).

The window scan times, on the change side only, one _window_ends call with
the kernel forced against one with every window walked, interleaved in the
same ROUNDS rounds, at B = 3 on the mixing-window game and stage-rows
B * (H + 1) = 60, 90, ..., 240; window_crossover is the smallest stage-rows
at which the kernel took less time in at least CROSSOVER_WINS rounds.

One child interpreter, pinned to one BLAS thread as perfbench pins it,
times every row. Each side's src/sgl is copied under its own package name
(sgl_parent, sgl_change; the package imports only relatively), so with
--baseline REV the working tree and REV's src/ (exported with git archive)
load side by side; the baseline must have this API, as every revision from
dbf9f10 on does. Every row's callable is built and called once on each
side before any timing. Then, row by row, one call count is fixed for
both sides, doubled until a round of that many calls lasts MIN_REPEAT_S on
each, and ROUNDS rounds are timed, the sides alternating which goes first.
A row records per side the microseconds per call of every round
(rounds_us; per seed-iteration on the learner and job rows), their median
(us) and their IQR q75 - q25 (round_iqr_us), and with a baseline the
median of the per-round speedups parent / change and the rounds in which
the change took less time (change_won_rounds; a tie counts for neither
side). A speedup whose rounds split, or that sits inside round_iqr_us, is
unresolved. Every learner row also records, per side, the cProfile count
of Python and C function calls of one call, summed over the profiler's
entries so that every dataclass constructor counts, divided by its
iterations (calls_per_iter) and by its seed-iterations
(calls_per_seed_iter); unlike the times, the counts do not move with the
host.

Each side also records its src/sgl line count, the number of names in
sgl.__all__, its count of defaulted function parameters, its counts of
dataclass fields and of those with a default, the number of arguments
(options and positionals, not -h) of each sgl subcommand as
sgl.cli.build_parser() defines them, the wall time of a cold `import sgl`
(median and IQR over ROUNDS fresh interpreters per side, the sides
alternating: a cold import is what they measure) and the number of
modules that import loads.
"""

import argparse
import ast
import cProfile
import functools
import importlib
import inspect
import io
import itertools
import json
import math
import os
import pathlib
import platform
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
    "3s(1,3,2)a": dict(n_states=3, n_players=3, n_actions=(1, 3, 2)),
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
    "sample_sphere",
    "perturb",
    "estimate_gradient",
)
LEARNER_BATCHES = {  # seeds per learner row, by game
    "matching-pennies": (1, 3, 10),
    "zerosum-switching": (1, 3, 10),
    "mixing-window": (1, 3, 10),
}
WINDOWS = ((3, 1), (3, 450), (1000, 8))  # (B, H) of the window rows
SCAN_STAGE_ROWS = range(60, 241, 30)  # B * (H + 1) of the window scan, at B = 3
CROSSOVER_WINS = 27  # rounds of ROUNDS the kernel must win at the crossover
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
ROUNDS = 30          # timed rounds per side and row, and cold imports per side
MIN_REPEAT_S = 0.02  # calls per round are doubled until a round lasts this long
# as perfbench/run.py sets them
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _rows() -> list:
    """Every timed row as (op, size), in the order of the file; a job row
    has no size."""
    rows = [(op, size) for size in SIZES for op in OPS]
    rows += [(f"learner[B={b}]", kind) for kind, bs in LEARNER_BATCHES.items() for b in bs]
    rows += [
        (f"learner[B={b},log_every=1]", kind) for kind, bs in ORACLE_BATCHES.items() for b in bs
    ]
    rows += [(f"learner[failing,B={b},log_every=1]", "stay-switch") for b in FAILING_BATCHES]
    rows += [("learner[oracle_mode]", "3s3p3a"), ("learner[oracle_mode,log_every=1]", "3s3p3a")]
    rows += [
        (f"{name}[B={b},H={h}]", "mixing-window")
        for b, h in WINDOWS
        for name in ("_window_ends", "_walk")
    ]
    rows.append(("_window_ends[periodic,B=3,H=450]", "3-cycle"))
    return rows + [(f"job[{shape}]", None) for shape in JOB_SHAPES]


def _operation(pkg, op: str, size: str):
    """One call of an operation row at one size."""
    analysis, games, learner, mirror, spsa = (
        pkg.analysis, pkg.games, pkg.learner, pkg.mirror, pkg.spsa
    )
    game = _game(pkg, size)
    rng = np.random.default_rng(1)
    policy = games.random_profile(game, rng, margin=0.3)
    profiles = [games.random_profile(game, rng, margin=0.3) for _ in range(STACK)]
    stacks = [np.stack([p.probs[i] for p in profiles]) for i in range(game.n_players)]
    delta = 0.5 * min(
        spsa.safety_net_for(game.n_states, m).radius for m in game.n_actions
    )
    if op == "exact_value":
        return functools.partial(analysis.exact_value, game, policy)
    if op == f"exact_values[B={STACK}]":
        return functools.partial(analysis.exact_values, game, stacks)
    if op == f"smoothed_gradient_estimate[draws={STACK}]":
        return lambda: spsa.smoothed_gradient_estimate(
            game, policy, delta, STACK, np.random.default_rng(0)
        )
    if op == "exact_gradient":
        return functools.partial(analysis.exact_gradient, game, policy)
    if op == "finite_difference_gradient":
        return functools.partial(analysis.finite_difference_gradient, game, policy)
    if op == "nash_gap":
        return functools.partial(analysis.nash_gap, game, policy)
    if op == "fenchel_coupling":
        reg = mirror.make_regularizer("entropy")
        scores = [rng.standard_normal((game.n_states, m)) for m in game.n_actions]
        return functools.partial(mirror.fenchel_coupling, reg, games.uniform_profile(game), scores)
    if op == "horizon_bias_check[H=8,draws=1000]":
        return functools.partial(
            learner.horizon_bias_check, game, policy, 8, 1000, rng=0, contraction=0.5
        )
    i = int(np.argmax(game.n_actions))  # one player's single-sample calls
    S, m = game.n_states, game.n_actions[i]
    z = spsa.sample_sphere(spsa.reduced_dim(S, m), rng)
    if op == "sample_sphere":
        return functools.partial(spsa.sample_sphere, z.size, np.random.default_rng(0))
    if op == "perturb":
        base = spsa.reduce_policy(policy)[i]
        return functools.partial(spsa.perturb, base, z, delta, spsa.safety_net_for(S, m))
    if op == "estimate_gradient":
        return functools.partial(spsa.estimate_gradient, 0.7, z, delta, spsa.lifting_for(S, m))
    raise SystemExit(f"unknown operation {op!r}")


def _learner(pkg, op: str, kind: str):
    """(call, seed-iterations) of one learner row's run_batch call: op is
    learner[B=b] (log_every=1000), learner[B=b,log_every=1],
    learner[failing,B=b,log_every=1] (kind stay-switch),
    learner[oracle_mode] (one seed, perfbench's oracle-audit job) or
    learner[oracle_mode,log_every=1] (the same with a decomposition after
    every iteration)."""
    games, learner, mirror = pkg.games, pkg.learner, pkg.mirror
    if op.startswith("learner[oracle_mode"):
        batch, every = "1", "oracle_mode"
    else:
        batch, _, every = (
            op.removeprefix("learner[").removeprefix("failing,").removeprefix("B=")
            .removesuffix("]").partition(",")
        )
    seeds = list(range(int(batch)))
    game = _game(pkg, kind)
    if kind == "stay-switch":  # no certified mixing constant: the power window
        schedule = learner._preset_schedule(game, "power", None, 1.0)
    else:
        schedule = learner.default_schedule(game)
    if every == "oracle_mode":  # a decomposition at every checkpoint
        iters = ORACLE_MODE_ITERS
        options = {
            "log_every": 1 if op.endswith(",log_every=1]") else ORACLE_MODE_EVERY,
            "reference": games.uniform_profile(game),
            "oracle_mode": True,
            "decomposition_draws": STACK,
        }
    elif every:  # a checkpoint, with the Fenchel coupling, after every iteration
        iters = ORACLE_ITERS
        options = {"log_every": 1, "reference": games.uniform_profile(game)}
    else:
        iters, options = LEARNER_ITERS, {"log_every": 1000}
    reg = mirror.make_regularizer("entropy")
    call = functools.partial(learner.run_batch, game, schedule, reg, iters, seeds, **options)
    return call, iters * len(seeds)


def _game(pkg, kind: str):
    """The game of a row's size or kind, as pkg's StochasticGame."""
    if kind == "mixing-window":
        game = _mixing_window_game()
        return pkg.games.StochasticGame(
            game.n_states, game.n_actions, game.rewards, game.transitions, dict(game.meta)
        )
    if kind == "stay-switch":
        return _stay_switch_game(pkg)
    if kind == "3-cycle":
        game = _mixing_window_game()
        cycle = np.roll(np.eye(3), 1, axis=1)[:, None].repeat(game.n_joint, axis=1)
        return pkg.games.StochasticGame(3, game.n_actions, game.rewards, cycle)
    generators = pkg.generators
    if kind in SIZES:
        return generators.generate(
            generators.GeneratorSpec(kind="random-ergodic", seed=0, **SIZES[kind])
        )
    return generators.generate(generators.GeneratorSpec(kind=kind))


def _stay_switch_game(pkg):
    """Two states, two players with two actions: player 0's first action
    keeps the state and its second flips it, so its pure responses give
    reducible or periodic chains; the rewards are matching pennies'
    with the roles swapping between the states."""
    rewards = np.zeros((2, 2, 4))
    rewards[0] = [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]
    rewards[1] = 1.0 - rewards[0]
    transitions = np.zeros((2, 4, 2))
    for s in range(2):
        transitions[s, :2, s] = 1.0
        transitions[s, 2:, 1 - s] = 1.0
    return pkg.games.StochasticGame(2, (2, 2), rewards, transitions)


@functools.cache
def _mixing_window_game():
    """perfbench's mixing-window game of seed MIXING_SEED, built by the
    working tree's sgl."""
    from perfbench.workloads import MixingWindow

    workload = MixingWindow()
    return workload.build_game(MIXING_SEED, workload.calibrate_stay(MIXING_SEED))


def _window(pkg, op: str, kind: str):
    """One games._window_ends call for the last stage of B windows of H + 1
    stages from state 0 on the game of kind, each row with its own random
    profile: op is _window_ends[B=b,H=h] (the array branch forced: the
    stage maps, or _step_rows past games._STAGE_MAP_CELLS; the 3-cycle
    game's row is _window_ends[periodic,B=b,H=h]) or _walk[B=b,H=h] (every
    window walked by the scalar _walk). The CDF columns come in the layout
    pkg's _window_ends takes: one (B, players, S, m - 1) array per span of
    players with equal action counts (its cdf_cols), or, before that
    layout, one (B, S, m - 1) array per player (pol_cols)."""
    games = pkg.games
    name, _, shape = op.partition("[")
    fields = shape.removeprefix("periodic,").removesuffix("]").split(",")
    batch, height = (int(field.partition("=")[2]) for field in fields)
    game = _game(pkg, kind)
    rng = np.random.default_rng(1)
    blocks = [
        np.stack(blocks)
        for blocks in zip(*(games.random_profile(game, rng, 0.3).probs for _ in range(batch)))
    ]
    u = rng.random((batch, height + 1, game.n_players + 1))
    cols = [np.cumsum(b, axis=2)[..., :-1] for b in blocks]
    if "cdf_cols" in inspect.signature(games._window_ends).parameters:
        cols = [np.stack(cols[lo:hi], axis=1) for lo, hi in pkg.spsa.action_spans(game.n_actions)]
    starts = [0] * batch
    forced, default = (0 if name == "_window_ends" else math.inf), games._KERNEL_STAGE_ROWS

    def call():  # the branch is forced for this call only
        games._KERNEL_STAGE_ROWS = forced
        try:
            games._window_ends(game, cols, starts, u)
        finally:
            games._KERNEL_STAGE_ROWS = default

    return call


def _jobs(pkg, out: pathlib.Path) -> dict:
    """perfbench's three job shapes on pkg, by shape: (call, n), where a call
    plays one job, the next item of the shape's pool, and a job is n
    seed-iterations."""
    from perfbench.workloads import WORKLOADS, _learner_seeds

    games, generators, learner, mirror = pkg.games, pkg.generators, pkg.learner, pkg.mirror
    zerosum, mixing, audit = (WORKLOADS[name] for name in JOB_SHAPES)
    zerosum_items = _learner_seeds(MIXING_SEED, (zerosum.pool, zerosum.seeds_per_job))
    mixing_items = _learner_seeds(MIXING_SEED, (mixing.pool, mixing.seeds_per_job))
    audit_items = _learner_seeds(MIXING_SEED, audit.pool)

    slow = _game(pkg, "mixing-window")
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

    def cycling(run):  # job k plays item k of the pool, cycling through it
        items = itertools.count()
        return lambda: run(next(items))

    return {
        zerosum.name: (
            cycling(run_zerosum), zerosum.iters * zerosum.seeds_per_job * len(zerosum.kinds)
        ),
        mixing.name: (cycling(run_mixing), mixing.iters * mixing.seeds_per_job),
        audit.name: (cycling(run_audit), audit.iters),
    }


def _callables(pkg, out: pathlib.Path) -> dict:
    """Every row's (call, units per call) on pkg, by (op, size)."""
    jobs = _jobs(pkg, out)
    built = {}
    for op, size in _rows():
        if op.startswith("learner"):
            built[op, size] = _learner(pkg, op, size)
        elif op.startswith(("_window_ends", "_walk")):
            built[op, size] = _window(pkg, op, size), 1
        elif op.startswith("job["):
            built[op, size] = jobs[op.removeprefix("job[").removesuffix("]")]
        else:
            built[op, size] = _operation(pkg, op, size), 1
    return built


def _round_s(call, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        call()
    return time.perf_counter() - start


def _time_row(calls_by_side: dict) -> tuple:
    """(n, rounds): one call count n for every side, doubled until n calls
    last MIN_REPEAT_S on each, and per side the seconds per call of ROUNDS
    rounds of n calls, the sides alternating which goes first."""
    n = 1
    while min(_round_s(call, n) for call in calls_by_side.values()) < MIN_REPEAT_S:
        n *= 2
    rounds = {side: [] for side in calls_by_side}
    for r in range(ROUNDS):
        for side in list(calls_by_side)[:: 1 if r % 2 == 0 else -1]:
            rounds[side].append(_round_s(calls_by_side[side], n) / n)
    return n, rounds


def _record(op: str, size, calls: int, rounds_us: dict) -> dict:
    """A row's record from each side's microseconds per call in every round:
    per side the rounds, their median and their IQR q75 - q25; with a parent
    side, the median over the rounds of parent / change and the rounds in
    which the change took less time (a tie counts for neither side)."""
    row = {"op": op, "size": size, "calls_per_round": calls}
    for side, us in rounds_us.items():
        q1, median, q3 = np.percentile(us, [25, 50, 75])
        row[side] = {"us": float(median), "round_iqr_us": float(q3 - q1), "rounds_us": list(us)}
    if "parent" in rounds_us:
        pairs = list(zip(rounds_us["parent"], rounds_us["change"]))
        row["speedup"] = float(np.median([p / c for p, c in pairs]))
        row["change_won_rounds"] = sum(c < p for p, c in pairs)
    return row


def measure(packages: pathlib.Path, sides: list) -> dict:
    """Every row's record (rows) and the window scan's (window_scan), timed in
    this interpreter on the package sgl_<side> under packages of every
    side, the scan on the last side's."""
    sys.path.insert(0, str(packages))
    # perfbench.workloads, and the working tree's sgl, which it imports
    sys.path += [str(REPO), str(REPO / "src")]
    warnings.simplefilter("ignore")  # the failing rows' skipped checkpoints
    built = {}
    for side in sides:
        pkg = importlib.import_module(f"sgl_{side}")
        if not pathlib.Path(pkg.__file__).resolve().is_relative_to(packages.resolve()):
            raise SystemExit(f"imported {pkg.__file__}, not the package under {packages}")
        built[side] = _callables(pkg, packages / f"sgl_{side}_out")
    for side in sides:  # first calls fill each game's caches
        for call, _ in built[side].values():
            call()
    records = []
    for op, size in _rows():
        n, rounds = _time_row({side: built[side][op, size][0] for side in sides})
        row = _record(op, size, n, {
            side: [1e6 * s / built[side][op, size][1] for s in rounds[side]] for side in sides
        })
        if op.startswith("learner"):
            for side in sides:
                call, seed_iters = built[side][op, size]
                total = _profiled_calls(call)
                row[side]["calls_per_iter"] = total / call.args[3]  # run_batch's iters
                row[side]["calls_per_seed_iter"] = total / seed_iters
        records.append(row)
    return {"rows": records, "window_scan": _scan(importlib.import_module(f"sgl_{sides[-1]}"))}


def _profiled_calls(call) -> int:
    """The calls call() makes, summed over cProfile's entries. Not pstats'
    total_calls: pstats keys by (file, line, name), so every dataclass
    __init__, all compiled from <string> at one line, counts as one."""
    profile = cProfile.Profile()
    profile.runcall(call)
    return sum(entry.callcount for entry in profile.getstats())


def _scan(pkg) -> list:
    """One record per SCAN_STAGE_ROWS entry, as _record makes it with the
    sides kernel (_window_ends, the kernel forced) and walk (_walk), timed
    in the same rounds on pkg, with the stage-rows and the rounds in which
    the kernel took less time (kernel_won_rounds)."""
    records = []
    for stage_rows in SCAN_STAGE_ROWS:
        shape = f"[B=3,H={stage_rows // 3 - 1}]"
        calls = {
            side: _window(pkg, name + shape, "mixing-window")
            for side, name in (("kernel", "_window_ends"), ("walk", "_walk"))
        }
        for call in calls.values():
            call()
        n, rounds = _time_row(calls)
        us = {side: [1e6 * s for s in rounds[side]] for side in calls}
        row = _record(f"window_scan{shape}", "mixing-window", n, us)
        row["stage_rows"] = stage_rows
        row["kernel_won_rounds"] = sum(k < w for k, w in zip(us["kernel"], us["walk"]))
        records.append(row)
    return records


def _crossover(scan: list):
    """The smallest stage-rows of the window scan at which the kernel won
    at least CROSSOVER_WINS rounds, or None if it won that many nowhere."""
    return next(
        (row["stage_rows"] for row in scan if row["kernel_won_rounds"] >= CROSSOVER_WINS), None
    )


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
    ROUNDS fresh interpreters with the sides alternating, and the number of
    modules it adds to sys.modules."""
    code = (
        "import sys, time; n = len(sys.modules); start = time.perf_counter(); "
        "import sgl; print(time.perf_counter() - start, len(sys.modules) - n)"
    )
    runs = {side: [] for side in sides}
    for r in range(ROUNDS):
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


# the child: load this file by path and time every row on the packages
_CHILD = """
import importlib.util, json, pathlib, sys
spec = importlib.util.spec_from_file_location("bench", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
print(json.dumps(bench.measure(pathlib.Path(sys.argv[2]), sys.argv[3:])))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="BENCH_<n>.json file to write")
    ap.add_argument("--baseline", help="git revision timed next to the working tree")
    args = ap.parse_args(argv)

    dirty = bool(_git("status", "--porcelain", "--", "src"))
    head = _git("rev-parse", "HEAD") + ("+dirty" if dirty else "")
    sides = {"change": (REPO / "src", head)}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        if args.baseline:
            commit = _git("rev-parse", args.baseline)
            sides = {"parent": (_export(commit, tmp), commit), **sides}
        packages = tmp / "packages"
        for side, (src, _) in sides.items():
            shutil.copytree(src / "sgl", packages / f"sgl_{side}")
        timed = json.loads(subprocess.run(
            [sys.executable, "-c", _CHILD, __file__, str(packages), *sides],
            env={**os.environ, **ONE_THREAD}, check=True, stdout=subprocess.PIPE, text=True,
        ).stdout)
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
                "log_every": [ORACLE_MODE_EVERY, 1], "draws": STACK, "seeds": 1,
            },
            "calls": "calls of one call, summed over cProfile's entries, / iters "
                     "(calls_per_iter) and / (iters * B)",
        },
        "rounds": {
            "count": ROUNDS,
            "min_round_s": MIN_REPEAT_S,
            "protocol": "one interpreter, one BLAS thread, every side's package loaded; "
                        "per row one call count, rounds alternating which side goes first",
            "us": "median over the rounds of microseconds per call; "
                  "per seed-iteration on the learner and job rows",
            "round_iqr_us": "q75 - q25 over the rounds",
            "speedup": "median over the rounds of parent / change",
            "change_won_rounds": "rounds in which the change took less time; ties count for neither",
        },
        "windows": {"game": "mixing-window", "shapes_b_h": WINDOWS, "unit": "us per call"},
        "window_scan": timed["window_scan"],
        "window_crossover": {
            "stage_rows": _crossover(timed["window_scan"]),
            "kernel_won_rounds_at_least": CROSSOVER_WINS,
        },
        "jobs": {"shapes": JOB_SHAPES, "seed": MIXING_SEED},
        "rows": timed["rows"],
    }
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for row in timed["rows"]:
        cells = [f"{side} {row[side]['us']:10.1f} us" for side in sides]
        cells += [
            f"{side} {row[side]['calls_per_iter']:6.1f} calls/it"
            for side in sides if "calls_per_iter" in row[side]
        ]
        speed = ""
        if "speedup" in row:
            speed = f"  x{row['speedup']:.2f} ({row['change_won_rounds']}/{ROUNDS} rounds)"
        print(f"{row['op']:36s} {row['size'] or '':17s} " + "  ".join(cells) + speed)
    for row in timed["window_scan"]:
        print(f"{row['op']:36s} kernel {row['kernel']['us']:8.1f} us  walk "
              f"{row['walk']['us']:8.1f} us  kernel won {row['kernel_won_rounds']}/{ROUNDS} rounds")
    print(f"window_crossover {_crossover(timed['window_scan'])} stage-rows")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
