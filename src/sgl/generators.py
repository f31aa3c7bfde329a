"""Benchmark game constructions and seed-sweep orchestration.

The built-in benchmarks instantiate verifiable premises at desk scale:
random-ergodic games satisfy the transition floor that guarantees uniform
mixing, and the two zero-sum constructions have action-independent (or
trivial) transitions so the stationary distribution is policy-free, values
are multilinear per state, and the per-state uniform profile is the
equilibrium.
"""

from __future__ import annotations

import json
import math
import numbers
import pathlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from .analysis import nash_gap
from .errors import ConfigError
from .games import (
    MAX_WINDOW_BYTES,
    PolicyProfile,
    StochasticGame,
    load_game,
    load_policy,
    uniform_profile,
    _count,
    _read_json,
)
from .learner import (
    RunLog,
    Schedule,
    ScheduleReport,
    default_schedule,
    run,  # still importable from this module
    run_batch,
    validate_schedule,
    _preset_schedule,
    _seed_list,
)
from .mirror import Regularizer, make_regularizer

KINDS = ("random-ergodic", "matching-pennies", "zerosum-switching")


@dataclass(frozen=True)
class GeneratorSpec:
    """What to build: a benchmark kind plus its size and range parameters."""

    kind: str
    n_states: int = 2
    n_players: int = 2
    n_actions: int | tuple[int, ...] = 2
    eps: float = 0.1
    reward_low: float = 0.0
    reward_high: float = 1.0
    seed: int = 0

    def action_counts(self) -> tuple[int, ...]:
        counts = self.n_actions
        if not isinstance(counts, (tuple, list)):
            counts = (counts,) * _count("n_players", self.n_players, 1, None)
        return tuple(_count("n_actions", m, 1, None) for m in counts)


def _matching_pennies() -> StochasticGame:
    # joint order (0,0), (0,1), (1,0), (1,1); +1 to player 1 on a match
    r1 = np.array([[1.0, -1.0, -1.0, 1.0]])
    rewards = np.stack([r1, -r1])
    transitions = np.ones((1, 4, 1))
    return StochasticGame(1, (2, 2), rewards, transitions, {"kind": "matching-pennies"})


def _zerosum_switching() -> StochasticGame:
    # two states, per-state zero-sum 2x2 stage games (second state doubled),
    # transitions independent of play so the state chain is a fair coin
    stage = np.array([1.0, -1.0, -1.0, 1.0])
    r1 = np.stack([stage, 2.0 * stage])
    rewards = np.stack([r1, -r1])
    transitions = np.full((2, 4, 2), 0.5)
    return StochasticGame(2, (2, 2), rewards, transitions, {"kind": "zerosum-switching"})


def _random_ergodic(spec: GeneratorSpec) -> StochasticGame:
    actions = spec.action_counts()
    n_states, seed = _count("n_states", spec.n_states, 1, None), _count("seed", spec.seed, 0, None)
    n_joint = math.prod(actions)
    if 8 * n_states * n_joint * n_states > MAX_WINDOW_BYTES:
        raise ConfigError(
            f"{n_joint} joint actions over {n_states} states need a transition "
            f"tensor over the {MAX_WINDOW_BYTES}-byte cap"
        )
    if spec.eps < 0 or spec.eps * n_states >= 1.0:
        raise ConfigError(
            f"need eps * n_states < 1, got {spec.eps} * {n_states}"
        )
    if spec.reward_high < spec.reward_low:
        raise ConfigError("reward_high must be at least reward_low")
    rng = np.random.default_rng(seed)
    raw = rng.random((n_states, n_joint, n_states))
    raw /= raw.sum(axis=2, keepdims=True)
    transitions = spec.eps + (1.0 - spec.eps * n_states) * raw
    rewards = rng.uniform(
        spec.reward_low,
        spec.reward_high,
        size=(len(actions), n_states, n_joint),
    )
    meta = {
        "kind": "random-ergodic",
        "eps": spec.eps,
        "seed": seed,
        "reward_range": [spec.reward_low, spec.reward_high],
    }
    return StochasticGame(n_states, actions, rewards, transitions, meta)


def generate(spec: GeneratorSpec) -> StochasticGame:
    """Build the game a GeneratorSpec describes."""
    if spec.kind == "matching-pennies":
        return _matching_pennies()
    if spec.kind == "zerosum-switching":
        return _zerosum_switching()
    if spec.kind == "random-ergodic":
        return _random_ergodic(spec)
    raise ConfigError(f"unknown generator kind {spec.kind!r}; use one of {KINDS}")


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class ExperimentResult:
    """Per-run logs plus cross-seed aggregates at shared checkpoints."""

    grid: list[Schedule]
    seeds: list[int]
    iters: int
    schedule_reports: list[ScheduleReport]
    runs: list[dict]
    failures: list[dict]
    aggregates: list[dict]

    def summary(self) -> dict:
        return {
            "grid": [
                {
                    **asdict(schedule),
                    "theorem_conditions": {
                        **report.conditions,
                        "ok": report.ok,
                    },
                }
                for schedule, report in zip(self.grid, self.schedule_reports)
            ],
            "seeds": self.seeds,
            "iters": self.iters,
            "runs": [
                {k: v for k, v in entry.items() if k != "log"} for entry in self.runs
            ],
            "failures": self.failures,
            "aggregates": self.aggregates,
        }


def _quartiles(values: list) -> dict:
    values = np.array([math.nan if v is None else v for v in values])
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return {"q25": None, "median": None, "q75": None}
    q25, med, q75 = np.percentile(finite, [25, 50, 75])
    return {"q25": float(q25), "median": float(med), "q75": float(q75)}


def _aggregate(logs: list[RunLog]) -> list[dict]:
    """Cross-seed quartiles of distance, gap, and coupling per checkpoint.

    The runs of one sweep share iters and log_every, so checkpoint k is the
    same outer iteration in every log.
    """
    if not logs:
        return []
    out = []
    for k, first in enumerate(logs[0].diagnostics):
        diags = [log.diagnostics[k] for log in logs]
        out.append(
            {
                "t": first.t,
                "dist_to_ref": _quartiles([d.profile_dist for d in diags]),
                "nash_gap": _quartiles([d.max_gap for d in diags]),
                "fenchel": _quartiles([d.fenchel for d in diags]),
            }
        )
    return out


def sweep(
    game: StochasticGame,
    grid,
    seeds,
    iters: int,
    regularizer: Regularizer | None = None,
    reference: PolicyProfile | None = None,
    log_every: int = 100,
    out=None,
) -> ExperimentResult:
    """Run the learner for every (schedule, seed) pair and aggregate.

    The seeds of one schedule run as one run_batch. A seed that fails is
    recorded and the batch is run again without it, so the other seeds
    finish with the bits of their solo runs; an error of the whole batch
    propagates. When out is given, per-run CSVs and a summary.json are
    written there.
    """
    grid = list(grid)
    seeds = _seed_list(seeds)
    regularizer = regularizer or make_regularizer("entropy")
    tau = game.mixing_certificate.tau
    reports = [validate_schedule(s, tau) for s in grid]
    runs, failures, aggregates = [], [], []
    out_path = pathlib.Path(out) if out is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    for gi, schedule in enumerate(grid):
        pending = list(range(len(seeds)))  # positions in seeds still to run
        errors, batch = {}, []
        while pending:
            try:
                batch = run_batch(
                    game,
                    schedule,
                    regularizer,
                    iters,
                    [seeds[k] for k in pending],
                    reference=reference,
                    log_every=log_every,
                )
                break
            except Exception as exc:  # a seed's own error: recorded, the others run again
                if not hasattr(exc, "seed_index"):
                    raise
                errors[pending.pop(exc.seed_index)] = str(exc)
        by_position = dict(zip(pending, batch))
        logs = []
        for k, seed in enumerate(seeds):
            if k in errors:
                failures.append({"schedule_index": gi, "seed": seed, "error": errors[k]})
                continue
            log = by_position[k]
            logs.append(log)
            entry = {"schedule_index": gi, "seed": seed, "log": log}
            if out_path is not None:
                run_dir = out_path / f"run_g{gi}_s{seed}"
                log.write(run_dir)
                entry["csv"] = str(run_dir / "run.csv")
            runs.append(entry)
        aggregates.append({"schedule_index": gi, "checkpoints": _aggregate(logs)})

    result = ExperimentResult(grid, seeds, iters, reports, runs, failures, aggregates)
    if out_path is not None:
        with open(out_path / "summary.json", "w") as fh:
            json.dump(result.summary(), fh, indent=1)
            fh.write("\n")
    return result


def convergence_benchmark(
    kind: str,
    iters: int,
    seeds,
    log_every: int = 1000,
    gamma_scale: float = 1.0,
    out=None,
) -> dict:
    """Learner-vs-equilibrium benchmark on one zero-sum construction.

    Runs all seeds as one run_batch with the default schedule (exponents
    (1, 1/3), log window at twice the certified mixing constant), measures
    distance to the per-state uniform equilibrium and the Fenchel coupling,
    and reports three clauses: median end distance at most 0.15, median end
    distance no larger than at t = 1000, and median coupling over the last
    tenth of checkpoints below the first tenth.
    """
    iters, seeds = _count("iters", iters, 1, None), _seed_list(seeds)
    game = generate(GeneratorSpec(kind=kind))
    reference = uniform_profile(game)
    schedule = default_schedule(game, gamma_scale=gamma_scale)
    reg = make_regularizer("entropy")

    logs = run_batch(
        game,
        schedule,
        reg,
        iters,
        seeds,
        reference=reference,
        log_every=log_every,
        out_dirs=None if out is None else [f"{out}/{kind}_seed{seed}" for seed in seeds],
    )
    runs = [log.diagnostics for log in logs]

    times = [d.t for d in runs[0]]
    k_early = next((k for k, t in enumerate(times) if t >= 1000), 0)
    decile = max(1, len(times) // 10)

    end_dist = float(np.median([diags[-1].profile_dist for diags in runs]))
    early_dist = float(np.median([diags[k_early].profile_dist for diags in runs]))
    fen_first = float(
        np.median([np.median([d.fenchel for d in diags[:decile]]) for diags in runs])
    )
    fen_last = float(
        np.median([np.median([d.fenchel for d in diags[-decile:]]) for diags in runs])
    )
    return {
        "game": kind,
        "uniform_nash_gap": nash_gap(game, reference).max_gap,
        "schedule": asdict(schedule),
        "iters": iters,
        "seeds": seeds,
        "median_end_dist": end_dist,
        "median_early_dist": early_dist,
        "median_fenchel_first_decile": fen_first,
        "median_fenchel_last_decile": fen_last,
        "clauses": {
            "end_dist_below_0.15": end_dist <= 0.15,
            "end_dist_below_early": end_dist <= early_dist,
            "fenchel_last_below_first": fen_last < fen_first,
        },
    }


def load_sweep_config(path) -> dict:
    cfg = _read_json(path, ConfigError, "sweep config is not valid UTF-8 JSON")
    if not isinstance(cfg, dict):
        raise ConfigError("sweep config must be a JSON object")
    for key in ("game", "grid", "seeds", "iters"):
        if key not in cfg:
            raise ConfigError(f"sweep config missing key {key!r}")
    for key in ("game", "ref", "out"):  # ref and out may be null
        value = cfg.get(key)
        if not isinstance(value, str) and (key == "game" or value is not None):
            raise ConfigError(f"sweep config {key!r} must be a string, got {value!r}")
    for key in ("grid", "seeds"):
        if not isinstance(cfg[key], list):
            raise ConfigError(f"sweep config {key!r} must be a list, got {cfg[key]!r}")
    return cfg


def schedule_from_grid_entry(entry: dict, game: StochasticGame) -> Schedule:
    """The preset of the entry's horizon mode (default log) with its window
    parameter T0, its scale gamma0 (default 1) and its exponents p, q; its
    delta0 overrides the preset's query scale. Each of the five is a JSON
    number, checked in the order p, q, gamma0, delta0, T0: a string or a
    bool is a ConfigError, not converted."""

    def real(key, value):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"bad grid entry {entry!r}: {key!r} must be a number, not {value!r}")
        return float(value)

    try:
        overrides = {"gamma_exp": real("p", entry["p"]), "delta_exp": real("q", entry["q"])}
        gamma0 = real("gamma0", entry.get("gamma0", 1.0))
        if "delta0" in entry:
            overrides["delta_scale"] = real("delta0", entry["delta0"])
        horizon = str(entry.get("horizon", "log"))
        base = _preset_schedule(game, horizon, real("T0", entry["T0"]), gamma0)
        return replace(base, **overrides)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid entry {entry!r}: {exc}") from exc


def run_sweep_config(path) -> ExperimentResult:
    """Execute a sweep described by a JSON config file."""
    cfg = load_sweep_config(path)
    game = load_game(cfg["game"])
    grid = [schedule_from_grid_entry(e, game) for e in cfg["grid"]]
    ref = cfg.get("ref", "uniform")
    if ref == "uniform":
        reference = uniform_profile(game)
    elif ref is None:
        reference = None
    else:
        reference = load_policy(ref)
    return sweep(
        game,
        grid,
        cfg["seeds"],
        cfg["iters"],
        regularizer=make_regularizer(cfg.get("mirror", "entropy")),
        reference=reference,
        log_every=cfg.get("log_every", 100),
        out=cfg.get("out"),
    )
