"""The benchmark's workloads: inputs from a seed, set-up, jobs and output checks.

Every workload turns its seed into a small pool of job inputs and cycles
through it in a closed loop: the next job starts when the previous one has
returned. The program only ever sees the generated games, schedules and
learner seeds. Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib

import numpy as np

from sgl import games, generators, learner, mirror

# Reference comparison: |out - ref| <= ATOL + RTOL * |ref| for every number.
# A changed estimator or step moves values at 1e-3 or more; a linear solve
# reordered at roundoff level moves them at 1e-15 relative.
RTOL = 1e-9
ATOL = 1e-12
# Invariant slack for quantities that are nonnegative in exact arithmetic.
NONNEG_SLACK = 1e-9


# ---------------------------------------------------------------------------
# shared output helpers


def n_checkpoints(iters: int, log_every: int) -> int:
    return iters // log_every + (1 if iters % log_every else 0)


def _cell(text: str, column: str):
    if text == "":
        return None
    if column in ("t", "horizon", "player"):
        return int(text)
    return float(text)


def read_run_csv(path) -> dict:
    """The header and parsed rows of one run.csv; empty cells become None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[_cell(v, c) for v, c in zip(row, header)] for row in reader]
    return {"header": header, "rows": rows}


def check_run_csv(run_csv: dict, iters: int, log_every: int, n_players: int) -> list[str]:
    """Pin-free checks on one run.csv."""
    problems = []
    if run_csv["header"] != list(learner.CSV_COLUMNS):
        problems.append(f"run.csv header {run_csv['header']} != CSV_COLUMNS")
        return problems
    expected = n_checkpoints(iters, log_every) * n_players
    if len(run_csv["rows"]) != expected:
        problems.append(f"run.csv has {len(run_csv['rows'])} rows, expected {expected}")
    col = {c: k for k, c in enumerate(run_csv["header"])}
    for row in run_csv["rows"]:
        for name in ("gamma", "delta", "value", "fenchel", "nash_gap", "dist_to_ref", "est_norm"):
            v = row[col[name]]
            if v is not None and not math.isfinite(v):
                problems.append(f"t={row[col['t']]} {name} is not finite: {v!r}")
        for name in ("fenchel", "nash_gap"):
            v = row[col[name]]
            if v is not None and v < -NONNEG_SLACK:
                problems.append(f"t={row[col['t']]} {name} is negative: {v!r}")
    return problems


def final_max_gap(run_csv: dict):
    """Largest player gap at the last checkpoint, or None if one is missing."""
    col = {c: k for k, c in enumerate(run_csv["header"])}
    t_end = max(row[col["t"]] for row in run_csv["rows"])
    gaps = [row[col["nash_gap"]] for row in run_csv["rows"] if row[col["t"]] == t_end]
    return None if None in gaps else max(gaps)


def checkpoint_oracle_counts(run_csv: dict) -> tuple[int, int]:
    """(checkpoints where every player got a Nash gap, all checkpoints)."""
    col = {c: k for k, c in enumerate(run_csv["header"])}
    by_t: dict = {}
    for row in run_csv["rows"]:
        by_t.setdefault(row[col["t"]], []).append(row[col["nash_gap"]])
    ok = sum(1 for gaps in by_t.values() if None not in gaps)
    return ok, len(by_t)


def _all_finite(arrays) -> bool:
    return all(bool(np.isfinite(np.asarray(a, dtype=float)).all()) for a in arrays)


def compare(ref, out, rtol: float = RTOL, atol: float = ATOL, path: str = "") -> list[str]:
    """Differences between a reference output tree and a new one."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(ref) != set(out):
            return [f"{path or '/'}: keys differ"]
        problems = []
        for key in ref:
            problems += compare(ref[key], out[key], rtol, atol, f"{path}/{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(out, list) or len(ref) != len(out):
            return [f"{path}: length differs"]
        problems = []
        for k, (r, o) in enumerate(zip(ref, out)):
            problems += compare(r, o, rtol, atol, f"{path}/{k}")
        return problems
    if isinstance(ref, bool) or isinstance(out, bool):
        same = type(ref) is type(out) and ref == out
    elif isinstance(ref, (int, float)):
        if not isinstance(out, (int, float)):
            return [f"{path}: {out!r} is not a number"]
        same = abs(out - ref) <= atol + rtol * abs(ref)
    else:
        same = ref == out
    return [] if same else [f"{path}: {out!r} != reference {ref!r}"]


def _learner_seeds(seed: int, shape) -> list:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**31 - 1, size=shape).tolist()


# ---------------------------------------------------------------------------
# workloads


class ZerosumConverge:
    """Criterion 7's shape at benchmark length: both zero-sum constructions,
    all of a job's seeds in one ``convergence_benchmark`` call per game."""

    name = "zerosum-converge"
    kinds = ("matching-pennies", "zerosum-switching")

    def __init__(self, iters: int = 2000, seeds_per_job: int = 3, pool: int = 3):
        self.iters = iters
        self.seeds_per_job = seeds_per_job
        self.pool = pool
        self.log_every = 1000

    def make_inputs(self, seed: int) -> dict:
        return {"items": _learner_seeds(seed, (self.pool, self.seeds_per_job))}

    def setup(self, inputs: dict) -> dict:
        # convergence_benchmark builds its game and schedule again on every
        # call; building them here keeps setup_s the same kind of work on
        # every workload.
        ctx = {}
        for kind in self.kinds:
            game = generators.generate(generators.GeneratorSpec(kind=kind))
            cert = games.certify_mixing(game, games.certification_sample(game, rng=0))
            ctx[kind] = {"game": game, "schedule": learner.default_schedule(game, tau=cert.tau)}
        return ctx

    def job_iterations(self, item) -> int:
        return self.iters * len(item) * len(self.kinds)

    def run_job(self, ctx, item, workdir: pathlib.Path):
        return {
            kind: generators.convergence_benchmark(
                kind, self.iters, item, log_every=self.log_every, out=str(workdir / kind)
            )
            for kind in self.kinds
        }

    def outputs(self, ctx, item, raw, workdir: pathlib.Path) -> dict:
        out = {}
        for kind in self.kinds:
            runs = {
                str(seed): read_run_csv(workdir / kind / f"{kind}_seed{seed}" / "run.csv")
                for seed in item
            }
            out[kind] = {"result": raw[kind], "runs": runs}
        return out

    def run_csvs(self, outputs: dict) -> list[dict]:
        return [csv_ for kind in self.kinds for csv_ in outputs[kind]["runs"].values()]

    def invariants(self, ctx, item, raw, outputs: dict) -> list[str]:
        problems = []
        for kind in self.kinds:
            result = outputs[kind]["result"]
            if abs(result["uniform_nash_gap"]) > NONNEG_SLACK:
                problems.append(f"{kind}: uniform_nash_gap {result['uniform_nash_gap']!r} != 0")
            numbers = [v for v in result.values() if isinstance(v, float)]
            if not _all_finite(numbers):
                problems.append(f"{kind}: non-finite entry in the result dict")
            n_players = ctx[kind]["game"].n_players
            for seed, run_csv in outputs[kind]["runs"].items():
                problems += [
                    f"{kind} seed {seed}: {p}"
                    for p in check_run_csv(run_csv, self.iters, self.log_every, n_players)
                ]
        return problems


class MixingWindow:
    """A slow-mixing 3-state game whose long stage windows dominate the
    learner's time, run through ``sweep`` with the Euclidean mirror."""

    name = "mixing-window"
    tau_target = 40.0

    def __init__(self, iters: int = 600, seeds_per_job: int = 3, pool: int = 3):
        self.iters = iters
        self.seeds_per_job = seeds_per_job
        self.pool = pool
        self.log_every = 100

    @staticmethod
    def build_game(seed: int, stay: float) -> games.StochasticGame:
        base = generators.generate(
            generators.GeneratorSpec(
                kind="random-ergodic", n_states=3, n_players=2, n_actions=3, eps=0.1, seed=seed
            )
        )
        transitions = stay * np.eye(3)[:, None, :] + (1.0 - stay) * base.transitions
        meta = {"kind": "slow-mixing", "seed": seed, "stay": stay}
        return games.StochasticGame(3, (3, 3), base.rewards, transitions, meta)

    def calibrate_stay(self, seed: int) -> float:
        """Stay probability whose certified mixing constant is tau_target.

        With a fixed stay probability the certified tau ranges over roughly
        28-46 across seeds, and the window, hence the cost of an iteration,
        with it; pinning tau keeps the work per iteration seed-independent.
        """

        def tau(stay):
            game = self.build_game(seed, stay)
            return games.certify_mixing(game, games.certification_sample(game, rng=0)).tau

        lo, hi = 0.5, 0.999
        if not tau(lo) < self.tau_target < tau(hi):
            raise RuntimeError(f"seed {seed}: tau {self.tau_target} is not bracketed")
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if tau(mid) < self.tau_target:
                lo = mid
            else:
                hi = mid
        return hi

    def make_inputs(self, seed: int) -> dict:
        return {
            "seed": seed,
            "stay": self.calibrate_stay(seed),
            "items": _learner_seeds(seed, (self.pool, self.seeds_per_job)),
        }

    def setup(self, inputs: dict) -> dict:
        game = self.build_game(inputs["seed"], inputs["stay"])
        cert = games.certify_mixing(game, games.certification_sample(game, rng=0))
        return {
            "game": game,
            "schedule": learner.default_schedule(game, tau=cert.tau),
            "reference": games.uniform_profile(game),
            "regularizer": mirror.make_regularizer("euclidean"),
        }

    def job_iterations(self, item) -> int:
        return self.iters * len(item)

    def run_job(self, ctx, item, workdir: pathlib.Path):
        return generators.sweep(
            ctx["game"],
            [ctx["schedule"]],
            item,
            self.iters,
            regularizer=ctx["regularizer"],
            reference=ctx["reference"],
            log_every=self.log_every,
            out=str(workdir),
        )

    def outputs(self, ctx, item, raw, workdir: pathlib.Path) -> dict:
        with open(workdir / "summary.json") as fh:
            summary = json.load(fh)
        for entry in summary["runs"]:
            entry.pop("csv", None)  # a path under the job's scratch directory
        runs = {}
        for entry in raw.runs:
            seed = entry["seed"]
            runs[str(seed)] = {
                "csv": read_run_csv(workdir / f"run_g0_s{seed}" / "run.csv"),
                "final_scores": [y.tolist() for y in entry["log"].final_state.scores],
            }
        return {"summary": summary, "runs": runs}

    def run_csvs(self, outputs: dict) -> list[dict]:
        return [run["csv"] for run in outputs["runs"].values()]

    def invariants(self, ctx, item, raw, outputs: dict) -> list[str]:
        problems = [f"sweep failure: {f}" for f in outputs["summary"]["failures"]]
        if sorted(outputs["runs"]) != sorted(str(s) for s in item):
            problems.append("sweep did not return one run per seed")
        for seed, run in outputs["runs"].items():
            problems += [
                f"seed {seed}: {p}"
                for p in check_run_csv(run["csv"], self.iters, self.log_every, 2)
            ]
            if not _all_finite(run["final_scores"]):
                problems.append(f"seed {seed}: final scores are not finite")
        return problems


class OracleAudit:
    """A learner run under the exact oracle: every checkpoint decomposes the
    realized estimate with 256 smoothed-gradient value queries."""

    name = "oracle-audit"

    def __init__(self, iters: int = 40, pool: int = 4, draws: int = 256):
        self.iters = iters
        self.pool = pool
        self.draws = draws
        self.log_every = 10

    def make_inputs(self, seed: int) -> dict:
        return {"seed": seed, "items": _learner_seeds(seed, self.pool)}

    def setup(self, inputs: dict) -> dict:
        game = generators.generate(
            generators.GeneratorSpec(
                kind="random-ergodic", n_states=3, n_players=3, n_actions=3, eps=0.1,
                seed=inputs["seed"],
            )
        )
        return {
            "game": game,
            "schedule": learner.default_schedule(game),
            "reference": games.uniform_profile(game),
            "regularizer": mirror.make_regularizer("entropy"),
        }

    def job_iterations(self, item) -> int:
        return self.iters

    def run_job(self, ctx, item, workdir: pathlib.Path):
        return learner.run(
            ctx["game"],
            ctx["schedule"],
            ctx["regularizer"],
            self.iters,
            item,
            oracle_mode=True,
            reference=ctx["reference"],
            log_every=self.log_every,
            out_dir=str(workdir),
            decomposition_draws=self.draws,
        )

    def outputs(self, ctx, item, raw, workdir: pathlib.Path) -> dict:
        with open(workdir / "run.json") as fh:
            sidecar = json.load(fh)
        parts = ("gradient", "smoothing_bias", "noise", "window_bias")
        decomposition = [
            None
            if d.decomposition is None
            else {p: [float(np.linalg.norm(b)) for b in getattr(d.decomposition, p)] for p in parts}
            for d in raw.diagnostics
        ]
        return {
            "csv": read_run_csv(workdir / "run.csv"),
            "sidecar": sidecar,
            "final_scores": [y.tolist() for y in raw.final_state.scores],
            "decomposition_norms": decomposition,
        }

    def run_csvs(self, outputs: dict) -> list[dict]:
        return [outputs["csv"]]

    def invariants(self, ctx, item, raw, outputs: dict) -> list[str]:
        n_players = ctx["game"].n_players
        run_csv = outputs["csv"]
        problems = check_run_csv(run_csv, self.iters, self.log_every, n_players)
        if outputs["sidecar"].get("columns") != list(learner.CSV_COLUMNS):
            problems.append("run.json columns != CSV_COLUMNS")
        if not _all_finite(outputs["final_scores"]):
            problems.append("final scores are not finite")
        if problems:
            return problems
        col = {c: k for k, c in enumerate(run_csv["header"])}
        logged = {(r[col["t"]], r[col["player"]]): r[col["est_norm"]] for r in run_csv["rows"]}
        for diag in raw.diagnostics:
            d = diag.decomposition
            if d is None:
                continue
            for i in range(n_players):
                total = d.gradient[i] + d.smoothing_bias[i] + d.noise[i] + d.window_bias[i]
                norm = float(np.linalg.norm(total))
                est = logged[(diag.t, i)]
                if abs(norm - est) > 1e-9 * max(1.0, abs(est)):
                    problems.append(
                        f"t={diag.t} player {i}: decomposition norm {norm!r} != est_norm {est!r}"
                    )
        return problems


WORKLOADS = {w.name: w for w in (ZerosumConverge(), MixingWindow(), OracleAudit())}
