"""Payoff-only bandit learning loop over a shared game trajectory.

Each outer iteration perturbs every player's reduced policy through a
safety net, plays the fixed perturbed profile for a scheduled number of
stages so the chain approaches stationarity, reads one instantaneous reward
per player as a value sample, turns it into a one-point gradient estimate,
and applies a mirror-descent style dual update. The game is never reset:
the state carries over between outer iterations.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import pathlib
import sys
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .analysis import (
    ValueReport,
    _gradients,
    _responses,
    _values,
    exact_value,
)
from .errors import DomainError, ErgodicityError, ScheduleError
from .games import (
    MixingCertificate,
    PolicyProfile,
    StochasticGame,
    certify_mixing,  # still importable from this module
    game_hash,
    _cap_window,
    _check_compatible,
    _count,
    _generator,
    _raised,
    _window_ends,
)
from .mirror import (
    ENTROPY,
    SCORE_LIMIT,
    Regularizer,
    fenchel_coupling,  # still importable from this module
    _coupling_terms,
    _map_block,
    _score_top,
)
from .spsa import (
    ORACLE_BLOCK,
    SPHERE_FLOOR,
    action_spans,
    active_players,
    lift_block,
    lifting_for,
    nets_for,
    perturb,
    reduce_policy,
    reduced_dim,
    reduced_from_full,
    _check_smoothing,
    _lift_players,
    _one_point,
    _perturb,
    _smoothed_gradient,
    _sphere_draws,
    _sphere_norms,
    _tangent,
)

CSV_COLUMNS = (
    "t",
    "gamma",
    "delta",
    "horizon",
    "player",
    "value",
    "fenchel",
    "nash_gap",
    "dist_to_ref",
    "est_norm",
)
# checkpoints are evaluated in blocks: run_batch records each and makes one
# _checkpoint_oracle call once a block's stacked profile rows would pass this
_CHECKPOINT_ROWS = 64


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class Schedule:
    """Step-size, query-radius, and stage-window schedules.

    gamma(t) = gamma_scale / (t+1)^gamma_exp, delta(t) likewise; the window
    is ceil(horizon_param * log(t+2)) + 1 in log mode and
    ceil((t+1)^horizon_param) + 1 in power mode.
    """

    gamma_exp: float
    delta_exp: float
    gamma_scale: float = 1.0
    delta_scale: float = 0.25
    horizon_mode: str = "log"
    horizon_param: float = 1.0

    def __post_init__(self):
        if self.horizon_mode not in ("log", "power"):
            raise ScheduleError(f"unknown horizon mode {self.horizon_mode!r}")
        numbers = (
            self.gamma_exp, self.delta_exp, self.gamma_scale, self.delta_scale, self.horizon_param
        )
        if not all(math.isfinite(v) for v in numbers):
            raise ScheduleError(f"schedule parameters must be finite: {self}")
        if self.gamma_scale <= 0 or self.delta_scale <= 0:
            raise ScheduleError("schedule scales must be positive")
        if self.horizon_mode == "log" and self.horizon_param < 0:
            # ceil(param * log(t+2)) + 1 would fall below one stage
            raise ScheduleError(
                f"log-mode horizon_param must be nonnegative, got {self.horizon_param}"
            )

    def gamma(self, t: int) -> float:
        return self.gamma_scale / (t + 1) ** self.gamma_exp

    def delta(self, t: int) -> float:
        return self.delta_scale / (t + 1) ** self.delta_exp

    def horizon(self, t: int) -> int:
        if self.horizon_mode == "log":
            return int(math.ceil(self.horizon_param * math.log(t + 2))) + 1
        return int(math.ceil((t + 1) ** self.horizon_param)) + 1


def min_safety_radius(game: StochasticGame) -> float:
    active = active_players(game)
    if not active:
        raise DomainError("every player has a single action; nothing to learn")
    nets = nets_for(game)
    return min(nets[i].radius for i in active)


def certified_tau(cert: MixingCertificate) -> float:
    """The certified mixing constant, or ScheduleError when the sampled
    certificate failed and no finite log window can be derived from it."""
    if not cert.ok:
        raise ScheduleError(
            f"mixing certificate failed at sampled profile {cert.failing_index} "
            f"(contraction {cert.contraction}); the default log window needs a "
            "finite mixing constant, use a power window or give the window parameter"
        )
    return cert.tau


def _preset_schedule(
    game: StochasticGame, horizon_mode: str, horizon_param: float | None, gamma_scale: float,
    **given,
) -> Schedule:
    """Exponents (1, 1/3), query scale a quarter of the tightest safety
    radius, and the window parameter horizon_param; when it is None, the
    mode's own: twice the certified mixing constant in log mode, 1/2 in
    power mode. Then every Schedule field given that is not None (the CLI's
    flags, a grid entry's p, q and delta0) replaces the preset's."""
    if horizon_param is None:
        if horizon_mode == "log":
            horizon_param = 2.0 * certified_tau(game.mixing_certificate)
        else:
            horizon_param = 0.5
    preset = Schedule(
        gamma_exp=1.0,
        delta_exp=1.0 / 3.0,
        gamma_scale=gamma_scale,
        delta_scale=0.25 * min_safety_radius(game),
        horizon_mode=horizon_mode,
        horizon_param=horizon_param,
    )
    given = {k: v for k, v in given.items() if v is not None}
    return replace(preset, **given) if given else preset


def default_schedule(
    game: StochasticGame, tau: float | None = None, gamma_scale: float = 1.0
) -> Schedule:
    """The preset with a log window twice the (certified) mixing constant."""
    return _preset_schedule(game, "log", None if tau is None else 2.0 * tau, gamma_scale)


@dataclass(frozen=True)
class ScheduleReport:
    """Pass/fail record of the summability conditions a schedule must meet."""

    conditions: dict

    @property
    def ok(self) -> bool:
        return all(self.conditions.values())


def validate_schedule(schedule: Schedule, tau: float) -> ScheduleReport:
    """Check the power-law summability conditions symbolically.

    The five requirements: both step sequences vanish, the step sizes still
    sum to infinity, gamma * delta is summable, (gamma/delta)^2 is summable,
    and the window term (gamma/delta) * e^(-T/tau) is summable. Failing
    schedules are reported, never rejected. A power window decays the bias
    term faster than any polynomial; an instantly mixing chain (tau 0) has
    none; a chain with no finite certified tau fails the window condition.
    """
    p, q = schedule.gamma_exp, schedule.delta_exp
    conditions = {
        "vanishing_steps": p > 0 and q > 0,
        "infinite_travel": p <= 1,
        "gamma_delta_summable": p + q > 1,
        "squared_ratio_summable": p - q > 0.5,
    }
    if schedule.horizon_mode == "power":
        conditions["horizon_term_summable"] = schedule.horizon_param > 0
    elif tau <= 0.0:
        conditions["horizon_term_summable"] = True
    elif not math.isfinite(tau):
        conditions["horizon_term_summable"] = False
    else:
        conditions["horizon_term_summable"] = (
            p - q + schedule.horizon_param / tau > 1.0
        )
    return ScheduleReport(conditions)


# ---------------------------------------------------------------------------
# state and diagnostics


@dataclass
class LearnerState:
    """Loop variables: dual scores, the policy they select, and the shared
    trajectory position."""

    scores: list[np.ndarray]
    policy: PolicyProfile
    state: int


@dataclass(frozen=True)
class StepDecomposition:
    """Estimate split into gradient, smoothing bias, sphere noise, and
    window bias, all in lifted (policy-shaped, simplex-tangent) coordinates.

    The gradient term is the lifted reduced exact gradient; smoothing_bias
    compares the Monte Carlo smoothed gradient at the net-shifted center
    against it; noise is the sphere fluctuation around the smoothed
    gradient; window_bias carries the finite-window payoff error. The four
    parts sum to the realized estimate exactly.
    """

    gradient: tuple[np.ndarray, ...]
    smoothing_bias: tuple[np.ndarray, ...]
    noise: tuple[np.ndarray, ...]
    window_bias: tuple[np.ndarray, ...]
    query_values: np.ndarray


@dataclass(frozen=True)
class StepDiagnostics:
    """Checkpoint record; t counts completed outer iterations."""

    t: int
    gamma: float
    delta: float
    horizon: int
    payoffs: np.ndarray
    estimate_norms: np.ndarray
    values: np.ndarray | None
    fenchel_per_player: np.ndarray | None
    nash_gaps: np.ndarray | None
    dist_to_ref: np.ndarray | None
    decomposition: StepDecomposition | None

    @property
    def fenchel(self) -> float | None:
        """Fenchel coupling of the whole profile: the per-player sum."""
        if self.fenchel_per_player is None:
            return None
        return float(self.fenchel_per_player.sum())

    @property
    def profile_dist(self) -> float | None:
        """Euclidean distance of the whole profile to the reference."""
        if self.dist_to_ref is None:
            return None
        return math.sqrt(sum(d * d for d in self.dist_to_ref.tolist()))

    @property
    def max_gap(self) -> float | None:
        """Largest per-player Nash gap."""
        return None if self.nash_gaps is None else max(self.nash_gaps.tolist())


def _cells(per_player: np.ndarray | None, n_players: int) -> list[str]:
    """run.csv cells of one per-player quantity: the repr of each float,
    or empty cells when the checkpoint did not compute it."""
    if per_player is None:
        return [""] * n_players
    return [repr(v) for v in per_player.tolist()]


@dataclass
class RunLog:
    """Everything a single run produced; diagnostics holds one record per
    checkpoint and is what run.csv is written from."""

    schedule: Schedule
    seed: int
    mirror_kind: str
    game_digest: str
    iters: int
    log_every: int
    diagnostics: list[StepDiagnostics]
    final_state: LearnerState
    clamped_steps: int

    def write(self, out_dir) -> None:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "run.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for d in self.diagnostics:
                n = len(d.estimate_norms)
                per_player = (
                    d.values, d.fenchel_per_player, d.nash_gaps, d.dist_to_ref, d.estimate_norms
                )
                head = [d.t, repr(float(d.gamma)), repr(float(d.delta)), d.horizon]
                for i, cells in enumerate(zip(*(_cells(a, n) for a in per_player))):
                    writer.writerow([*head, i, *cells])
        sidecar = {
            "schedule": asdict(self.schedule),
            "seed": self.seed,
            "mirror": self.mirror_kind,
            "game_hash": self.game_digest,
            "iters": self.iters,
            "log_every": self.log_every,
            "clamped_steps": self.clamped_steps,
            "columns": list(CSV_COLUMNS),
        }
        with open(out / "run.json", "w") as fh:
            fh.write(json.dumps(sidecar, indent=1) + "\n")


# ---------------------------------------------------------------------------
# the loop


def _initial_scores(reg: Regularizer, game: StochasticGame, init_policy):
    if init_policy is None:
        return [np.zeros((game.n_states, m)) for m in game.n_actions]
    if reg.kind == ENTROPY:
        blocks = []
        for b in init_policy.probs:
            if (b <= 0.0).any():
                raise DomainError(
                    "entropy initialization requires an interior policy"
                )
            blocks.append(np.log(b))
        return blocks
    return [np.array(b) for b in init_policy.probs]


def decompose_step(
    game: StochasticGame,
    policy: PolicyProfile,
    directions,
    delta: float,
    payoffs,
    rng,
    smoothing_draws: int,
) -> StepDecomposition:
    """Oracle decomposition of one realized estimate.

    directions[i] is the sphere draw used for player i (None for a skipped
    single-action player), payoffs[i] the realized value sample, and the
    smoothed gradient is estimated from rng with smoothing_draws queries.
    The one-seed case of run_batch's oracle checkpoint: _exact_parts over
    the profile and its query, raising its first failure, then _decomposition.
    """
    _check_smoothing(game, delta, smoothing_draws)
    nets = nets_for(game)
    active = active_players(game)
    reduced = reduce_policy(policy)
    queried = [
        lift_block(perturb(reduced[i], directions[i], delta, nets[i])) if i in active else block
        for i, block in enumerate(policy.probs)
    ]
    values, grads, _ = _raised(*_exact_parts(
        game, [b[None] for b in policy.probs], [q[None] for q in queried], None
    ))
    z = [
        np.stack([np.asarray(directions[i], float).reshape(reduced[i].shape)
                  for i in range(lo, hi)]) if lo in active else None
        for lo, hi in action_spans(game.n_actions)
    ]
    return _decomposition(
        game, reduced, values[0, 0], grads[0], values[1, 0], z, delta,
        np.asarray(payoffs, dtype=float), _sphere_draws(game, smoothing_draws, _generator(rng)),
        smoothing_draws,
    )


def _exact_parts(game, before, queried, after):
    """One _values call over decomposed profiles (before), their queries
    and their updated profiles (after), each None or one (*lead, S, m_i)
    stack per player with leading axes lead, (seeds,) or (checkpoints,
    seeds); then one _gradients call on before and one _responses call on
    after. Returns the values (arguments given, *lead, n), the (*lead, n,
    S, max m) gradients, the (*lead, n) best-response gains (None where not
    given) and the failures {(*entry, part): its profile's first
    ErgodicityError}, an entry being a position in lead and its part its
    "decomposition" (x_t and the query), "value" (x_{t+1}) or "gap" (none
    for a failed value), whose results are NaN. Reads no stream."""
    stacks = [x for x in (before, queried, after) if x is not None]
    lead = stacks[0][0].shape[:-2]
    entries = list(itertools.product(*map(range, lead)))
    E = len(entries)
    N, failures = len(stacks) * E, {}
    # stacked row r: entry r % E's profile in stacks[r // E]
    cat = [
        np.concatenate([x.reshape((E,) + x.shape[-2:]) for x in players])
        for players in zip(*stacks)
    ]
    first_value = N - E if after is not None else N
    report, failed = _values(game, cat)
    for r, exc in failed.items():  # a part keeps its first error, by check, then row
        part = "value" if r >= first_value else "decomposition"
        failures.setdefault((*entries[r % E], part), exc)
    values = report.values.reshape((-1,) + lead + (game.n_players,))
    grads = best = None
    if before is not None:
        head = ValueReport(*(x[:E] for x in vars(report).values()))
        grads, failed = _gradients(game, [x[:E] for x in cat], head)
        grads = grads.reshape(lead + grads.shape[1:])
        for r, exc in failed.items():
            failures.setdefault((*entries[r], "decomposition"), exc)
    if after is not None:
        best, _, failed = _responses(game, [x[N - E:] for x in cat])
        best = best.reshape(lead + best.shape[1:])
        for r, exc in failed.items():
            if (*entries[r], "value") not in failures:
                failures[(*entries[r], "gap")] = exc
    return values, grads, best, failures


def _decomposition(
    game, base, base_values, gradient, query_values, z, delta, payoffs, blocks, draws
) -> StepDecomposition:
    """One seed's StepDecomposition from its exact parts: the decomposed
    profile's reduced blocks base, its values (the smoothed gradient's
    control variate) and (n, S, max m) gradient, the query's values, and
    z[k], the (players, S, m - 1) directions of the k-th span of players
    with equal action counts (action_spans; None for single actions).
    The smoothed gradient reads its draws from blocks, _sphere_draws'
    (raw, norms) blocks. Each span's parts are one array with a players
    axis."""
    smoothed, _ = _smoothed_gradient(game, base, base_values, delta, draws, blocks)
    parts = ([], [], [], [])
    for (lo, hi), sm, zk in zip(action_spans(game.n_actions), smoothed, z):
        m = game.n_actions[lo]
        if zk is None:
            for part in parts:
                part.extend(np.zeros((hi - lo, game.n_states, m)))
            continue
        d = reduced_dim(game.n_states, m)
        g = _tangent(reduced_from_full(gradient[lo:hi, :, :m]))
        sm = _tangent(sm)
        at_query = _tangent(_one_point(query_values[lo:hi, None, None], zk, delta, d))
        realized = _tangent(_one_point(payoffs[lo:hi, None, None], zk, delta, d))
        for part, x in zip(parts, (g, sm - g, at_query - sm, realized - at_query)):
            part.extend(x)
    return StepDecomposition(*map(tuple, parts), query_values.copy())


def run(
    game: StochasticGame,
    schedule: Schedule,
    regularizer: Regularizer,
    iters: int,
    seed: int,
    out_dir=None,
    **options,
) -> RunLog:
    """Run the bandit learner for `iters` outer iterations with one seed.

    The one-seed case of run_batch, whose keywords `options` takes; out_dir,
    when given, receives run.csv and run.json.
    """
    out_dirs = None if out_dir is None else [out_dir]
    return run_batch(
        game, schedule, regularizer, iters, [seed], out_dirs=out_dirs, **options
    )[0]


def _tagged(exc: Exception, index: int) -> Exception:
    """Mark an error as raised for the seed at position index of a batch."""
    exc.seed_index = index
    return exc


def _seed_list(seeds) -> list[int]:
    """seeds as ints through games._count, a seed's error tagged with its
    position: the one seed door of run_batch, sweep and convergence_benchmark.
    A seed is refused, before any run, when the interpreter could not write
    it in decimal (sys.get_int_max_str_digits; 0 is no limit), as run.json
    must."""
    try:
        seeds = list(seeds)
    except TypeError:
        raise DomainError("seeds: need a list of integers") from None
    if not seeds:
        raise DomainError("seeds: need at least one seed")
    digits = sys.get_int_max_str_digits()
    for b, seed in enumerate(seeds):
        try:  # a NumPy integer seed becomes an int, which run.json can write
            seeds[b] = _count("seed", seed, 0, None)
            # below 2**(3 digits) < 10**digits a seed needs no power of ten
            if digits and seeds[b].bit_length() > 3 * digits and seeds[b] >= 10**digits:
                raise DomainError(
                    f"seed at position {b}: has more than {digits} decimal digits, "
                    "the interpreter's limit for writing an int (run.json holds the seed)"
                )
        except DomainError as exc:
            raise _tagged(exc, b)
    return seeds


def _checkpoint_oracle(game, block, draws):
    """The StepDiagnostics of a block of recorded checkpoints, one list of
    per-seed records per checkpoint.

    Each checkpoint is recorded when run_batch reaches it, as (t, the
    iterations completed, gamma, delta, horizon, payoffs, lifted, scores,
    coupling, after, oracle): lifted[k] and scores[k] hold the (B, players,
    S, m) estimates and updated scores of span k of players with equal
    action counts (lifted None for single actions), coupling None or the
    reference's (regularizer, values, blocks) by span, after x_{t+1} as one
    (B, S, m_i) stack per player, and oracle None or, in oracle_mode,
    (before, queried, z, sphere): x_t and its query stacked like after, span
    k's (B, players, S, m - 1) directions z[k] (None for single actions) and
    sphere[b] an iterator over seed b's (raw, norms) blocks of draws sphere
    rows (spsa._sphere_draws), read at the checkpoint or, at the block's
    last, from the seed's stream during this call. The block's estimate
    norms, Fenchel terms (one _coupling_terms call per span) and distances
    are formed here, each entry with its solo bits, and one _exact_parts
    call evaluates it; a skipped or failed decomposition reads the rows it
    left. A failed part is None and warns, in (t, seed) order, with its
    profile's error alone; another error carries its seed_index.
    """
    after = [np.stack(x) for x in zip(*(after for *_, after, _ in block))]
    shape = (len(block), len(block[0][4]), game.n_players)  # (checkpoints, seeds, players)
    norms, fen, dist, coupling = np.zeros(shape), np.empty(shape), np.empty(shape), block[0][7]
    for k, (lo, hi) in enumerate(action_spans(game.n_actions)):
        flat = shape[:2] + (hi - lo, -1)  # one row per checkpoint, seed and player
        if block[0][5][k] is not None:
            x = np.stack([record[5][k] for record in block])
            norms[..., lo:hi] = np.sqrt(np.add.reduce((x * x).reshape(flat), axis=-1))
        if coupling is not None:  # fenchel_coupling's terms, without its Bregman check
            reg, ref_h, ref_blocks = coupling
            y = np.stack([record[6][k] for record in block])
            fen[..., lo:hi] = _coupling_terms(reg, ref_h[k], ref_blocks[k], y)[0]
            diff = (np.stack(after[lo:hi], axis=2) - ref_blocks[k]).reshape(flat)
            dist[..., lo:hi] = np.sqrt(np.vecdot(diff, diff))
    before = queried = None
    if block[0][-1] is not None:  # an oracle_mode block
        before, queried = (
            [np.stack(x) for x in zip(*(oracle[k] for *_, oracle in block))] for k in (0, 1)
        )
    values, grads, best, failures = _exact_parts(game, before, queried, after)
    skipped = (
        ("decomposition", "oracle decomposition"), ("value", "checkpoint oracle"),
        ("gap", "checkpoint oracle"),
    )
    rows = []
    for c, (t, gamma, delta, horizon, payoffs, *_, oracle) in enumerate(block):
        row = []
        for b in range(len(payoffs)):
            value = gap = decomposition = None
            try:
                if oracle is not None:
                    _, _, z, sphere = oracle
                    if (c, b, "decomposition") not in failures:
                        try:
                            decomposition = _decomposition(
                                game, [x[c, b, :, :-1] for x in before], values[0, c, b],
                                grads[c, b], values[1, c, b],
                                [None if d is None else d[b] for d in z], delta, payoffs[b],
                                sphere[b], draws,
                            )
                        except ErgodicityError as exc:
                            failures[c, b, "decomposition"] = exc
                    for _ in sphere[b]:  # the rows a skipped or failed one left unread
                        pass
                for part, what in skipped:
                    if (c, b, part) in failures:  # a warning names the iteration, t - 1
                        warnings.warn(f"{what} skipped at t={t - 1}: {failures[c, b, part]}")
                if (c, b, "value") not in failures:
                    value = values[-1, c, b].copy()
                    if (c, b, "gap") not in failures:
                        gap = best[c, b] - value
            except Exception as exc:
                raise _tagged(exc, b)
            row.append(StepDiagnostics(
                t, gamma, delta, horizon, payoffs[b].copy(), norms[c, b].copy(), value,
                None if coupling is None else fen[c, b].copy(), gap,
                None if coupling is None else dist[c, b].copy(), decomposition,
            ))
        rows.append(row)
    return rows


def run_batch(
    game: StochasticGame,
    schedule: Schedule,
    regularizer: Regularizer,
    iters: int,
    seeds,
    oracle_mode: bool = False,
    reference: PolicyProfile | None = None,
    start_state: int = 0,
    log_every: int = 1,
    init_policy: PolicyProfile | None = None,
    out_dirs=None,
    decomposition_draws: int = 256,
) -> list[RunLog]:
    """Run the bandit learner for `iters` outer iterations, once per seed.

    Per iteration and seed: draw one sphere direction per player, form the
    safety-net adjusted query profile, play it for the scheduled window
    continuing that seed's trajectory, read the single instantaneous reward
    at the stage after the window as the value sample, update dual scores
    with the one-point estimate, and mirror them back to policies.
    Checkpoints are taken every log_every iterations (and at the end);
    oracle_mode adds the exact decomposition at checkpoints.

    Scores, policies and directions are arrays of shape (seeds, players,
    states, actions), one per run of consecutive players with equal action
    counts, so every step runs once for the whole batch: one
    games._window_ends call plays every seed's window from these groups'
    CDF arrays, filled in place. A checkpoint is recorded when it is
    reached, as references to its arrays, and a block of them makes one
    _checkpoint_oracle call, which forms their numbers for every seed. A
    block is flushed at the end of the run and before its stacked profile
    rows, B per checkpoint and 3B in oracle_mode, would pass
    _CHECKPOINT_ROWS, or before the sphere rows its checkpoints keep would
    pass _CHECKPOINT_ROWS * spsa.ORACLE_BLOCK; it holds at least one
    checkpoint. Its warnings fire at the flush, in (t, seed) order, and an
    error raised there for a seed carries its seed_index.
    Seed s reads its own np.random.default_rng(s) in the order a run of it
    alone does, so its RunLog has the same bits alone or in any batch, and
    in any block; its sphere draw is one row of normals, redrawn whole under
    SPHERE_FLOOR. At an oracle_mode checkpoint each seed's stream is read
    once for its decomposition_draws sphere rows (spsa._sphere_draws),
    before the next iteration and whatever its decomposition gives: a
    checkpoint that waits for a later flush reads and keeps them, the one
    that flushes reads them during the flush.
    out_dirs, when given, holds one run.csv / run.json directory per seed.
    A run whose schedule overflows at its last iteration, or whose uniforms
    would take more than games.MAX_WINDOW_BYTES, is refused with ScheduleError
    before its first iteration, and so is, with DomainError, an oracle_mode
    run whose decomposition_draws is not an integer from 1 to the largest
    float, or a run whose rewards could overflow: E = max_i 2 d_i
    |lifting_i| max|r_i| / min delta bounds every estimate's norm and
    smoothing sample, and E * E (times decomposition_draws in oracle_mode)
    must be finite; Y = max|y_0| + iters * max gamma * E bounds every score
    and Y * S * max m may not pass mirror.SCORE_LIMIT: the loop's only score
    check, as its maps skip mirror._score_top, which the initial map and the
    checkpoints' Euclidean conjugates pass. No part of a run sets its own
    numpy error state.
    An error raised for one seed (a negative or a float seed, say) carries
    the seed's position in `seeds` as its seed_index attribute.
    """
    iters = _count("iters", iters, 0, sys.maxsize)
    log_every = _count("log_every", log_every, 1, None)
    draws = 1
    if oracle_mode:
        draws = _count("decomposition_draws", decomposition_draws, 1, sys.float_info.max)
    start_state = _count("start_state", start_state, 0, game.n_states - 1)
    seeds = _seed_list(seeds)
    if out_dirs is not None and len(out_dirs) != len(seeds):
        raise DomainError("out_dirs needs one directory per seed")
    if iters:
        # windows never shrink and (t+1)**p is monotone in t, so the last
        # iteration is the first to overflow or to round the radius to zero
        try:
            schedule.gamma(iters - 1), 1.0 / schedule.delta(iters - 1)
            longest = schedule.horizon(iters - 1)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ScheduleError(
                f"the schedule at t={iters - 1} overflows or underflows to zero ({exc})"
            ) from None
        _cap_window(
            game, len(seeds), longest, ScheduleError,
            f"{len(seeds)} seeds' windows of {longest + 1} stages at t={iters - 1}",
        )
    rngs = [np.random.default_rng(seed) for seed in seeds]
    radius_cap = 0.99 * min_safety_radius(game)

    n_batch = len(seeds)
    n_players, n_states, n_actions = game.n_players, game.n_states, game.n_actions
    nets = nets_for(game)
    dims = [reduced_dim(n_states, m) for m in n_actions]
    active = active_players(game)
    init = _initial_scores(regularizer, game, init_policy)
    if iters:
        # gamma and delta are monotone in t; the 2 in E covers the oracle's
        # difference of two estimates; E is at least spsa's smoothing bound E_i
        delta_min = min(schedule.delta(0), schedule.delta(iters - 1), radius_cap)
        E = max(
            2.0 * dims[i] * lifting_for(n_states, n_actions[i]).op_norm * game.max_abs_reward(i)
            for i in active
        ) / delta_min
        gamma_max = max(schedule.gamma(0), schedule.gamma(iters - 1))
        Y = max(float(np.abs(y).max()) for y in init) + iters * gamma_max * E
        if not (math.isfinite(draws * E * E) and Y * n_states * max(n_actions) <= SCORE_LIMIT):
            raise DomainError(
                f"rewards up to {max(map(game.max_abs_reward, active))} at query radius "
                f"{delta_min} over {iters} iterations can overflow the estimates or scores"
            )

    # group k holds players lo..hi-1 and cdf_cols[k] their played action-CDF
    # columns but the last (none for single-action players); raw holds each
    # seed's sphere draw, the active players' reduced coordinates side by
    # side. Active group g is groups[g] = (k, lo, hi); segments[g] is its
    # (seeds, players, reduced dim) view of raw and shaped[g] the same view
    # shaped like the group's reduced policies.
    spans = action_spans(n_actions)
    slots = [(k, i - lo) for k, (lo, hi) in enumerate(spans) for i in range(lo, hi)]
    raw = np.empty((n_batch, sum(dims)))
    cdf_cols = [np.empty((n_batch, hi - lo, n_states, n_actions[lo] - 1)) for lo, hi in spans]
    groups, segments, shaped, start = [], [], [], 0
    for k, (lo, hi) in enumerate(spans):
        if lo in active:
            width = (hi - lo) * dims[lo]
            z = raw[:, start:start + width].reshape(n_batch, hi - lo, dims[lo])
            groups.append((k, lo, hi))
            segments.append(z)
            shaped.append(z.reshape(cdf_cols[k].shape))
            start += width
    raw_rows = list(raw)

    scores = [np.repeat(np.stack(init[lo:hi])[None], n_batch, axis=0) for lo, hi in spans]
    # the loop's maps skip this door: the bound Y covers their scores
    policy = [_map_block(regularizer, _score_top(y)) for y in scores]
    reduced = [p[..., :-1] for p in policy]

    coupling = None
    if reference is not None:  # the regularizer, the reference's values and blocks by group
        _check_compatible(game, reference.probs)
        coupling = regularizer, [
            np.array(list(map(regularizer.block_value, reference.probs[lo:hi]))) for lo, hi in spans
        ], [np.stack(reference.probs[lo:hi]) for lo, hi in spans]

    digest = game_hash(game)
    records = [[] for _ in seeds]  # each seed's StepDiagnostics, one per checkpoint
    states = [start_state] * n_batch
    clamped = 0
    # recorded checkpoints wait in block for one _checkpoint_oracle call; a
    # block holds at least one checkpoint, and no more than fit in
    # _CHECKPOINT_ROWS stacked profile rows (B per checkpoint, 3B in
    # oracle_mode); the sphere rows its checkpoints keep, B * draws each,
    # stay within _CHECKPOINT_ROWS * ORACLE_BLOCK
    block, per_block = [], max(1, _CHECKPOINT_ROWS // (n_batch * (3 if oracle_mode else 1)))
    kept = 0
    lifted = [None] * len(spans)  # each group's lifted estimates; None for single actions
    uniforms = np.empty((n_batch, 0, n_players + 1))

    def blocks_of(arrays, b):
        return [arrays[k][b, j] for k, j in slots]

    for t in range(iters):
        gamma = schedule.gamma(t)
        delta = schedule.delta(t)
        if delta > radius_cap:
            delta = radius_cap
            clamped += 1
        horizon = schedule.horizon(t)
        checkpoint = (t + 1) % log_every == 0 or (t + 1) == iters

        # each seed's generator reads one row of normals, drawn again whole
        # while it fails SPHERE_FLOOR
        for rng, row in zip(rngs, raw_rows):
            rng.standard_normal(out=row)
        norms = [_sphere_norms(z) for z in segments]
        while min([np.minimum.reduce(x, axis=None) for x in norms]) <= SPHERE_FLOOR:
            for b, (rng, row) in enumerate(zip(rngs, raw_rows)):  # practically never
                if min([x[b].min() for x in norms]) <= SPHERE_FLOOR:
                    rng.standard_normal(out=row)
            norms = [_sphere_norms(z) for z in segments]
        directions = [z / x[..., None, None] for z, x in zip(shaped, norms)]

        for (k, lo, _), d in zip(groups, directions):
            x = _perturb(reduced[k], d, delta, nets[lo])
            np.maximum(x, 0.0, out=x)  # roundoff dust only
            np.add.accumulate(x, axis=-1, out=cdf_cols[k])  # cumsum's ufunc
        if uniforms.shape[1] != horizon + 1:
            uniforms = np.empty((n_batch, horizon + 1, n_players + 1))
            u_rows = list(uniforms)
        for rng, row in zip(rngs, u_rows):
            rng.random(out=row)
        payoffs, states = _window_ends(game, cdf_cols, states, uniforms)

        before = policy[:]
        for (k, lo, hi), d in zip(groups, directions):
            lifted[k] = x = _tangent(_one_point(payoffs[:, lo:hi, None, None], d, delta, dims[lo]))
            scores[k] = scores[k] + gamma * x
            policy[k] = _map_block(regularizer, scores[k])
            reduced[k] = policy[k][..., :-1]

        if checkpoint:
            flush = len(block) + 1 == per_block or t + 1 == iters
            oracle = None
            if oracle_mode:
                # the decomposition of the step just taken, from x_t, with
                # each seed's next draws sphere rows: read here, or, at a
                # checkpoint that flushes, during the flush
                flush = flush or kept + n_batch * draws > _CHECKPOINT_ROWS * ORACLE_BLOCK
                drawn = {k: d for (k, _, _), d in zip(groups, directions)}
                queried = []
                for k, (lo, hi) in enumerate(spans):
                    x = before[k]
                    if k in drawn:
                        x = _lift_players(_perturb(x[..., :-1], drawn[k], delta, nets[lo]))
                    queried += [x[:, j] for j in range(hi - lo)]
                sphere = [_sphere_draws(game, draws, rng) for rng in rngs]
                if not flush:
                    sphere = [iter(list(x)) for x in sphere]
                    kept += n_batch * draws
                oracle = (
                    [before[k][:, j] for k, j in slots], queried,
                    [drawn.get(k) for k in range(len(spans))], sphere,
                )
            block.append((
                t + 1, gamma, delta, horizon, payoffs, lifted[:], scores[:], coupling,
                [policy[k][:, j] for k, j in slots], oracle,
            ))
            if flush:
                for row in _checkpoint_oracle(game, block, draws):
                    for diagnostics, d in zip(records, row):
                        diagnostics.append(d)
                block, kept = [], 0

    logs = []
    for b, (seed, diagnostics) in enumerate(zip(seeds, records)):
        log = RunLog(
            schedule=schedule,
            seed=seed,
            mirror_kind=regularizer.kind,
            game_digest=digest,
            iters=iters,
            log_every=log_every,
            diagnostics=diagnostics,
            final_state=LearnerState(
                scores=[y.copy() for y in blocks_of(scores, b)],
                policy=PolicyProfile(tuple(blocks_of(policy, b))),
                state=states[b],
            ),
            clamped_steps=clamped,
        )
        if out_dirs is not None:
            log.write(out_dirs[b])
        logs.append(log)
    return logs


# ---------------------------------------------------------------------------
# window-length bias check


@dataclass(frozen=True)
class HorizonBiasReport:
    """Measured one-step value-sample bias against the mixing bound."""

    horizon: int
    mean: np.ndarray
    bias: np.ndarray
    bound: np.ndarray
    stderr: np.ndarray

    @property
    def ok(self) -> bool:
        return bool((self.bias <= self.bound + 3.0 * self.stderr).all())


def horizon_bias_check(
    game: StochasticGame,
    policy: PolicyProfile,
    horizon: int,
    n_draws: int,
    rng=None,
    start_state: int = 0,
    contraction: float | None = None,
) -> HorizonBiasReport:
    """Estimate |E[value sample] - exact value| for a fixed window length.

    Runs n_draws independent rollouts of horizon + 1 stages from
    start_state, reads the reward at the final stage, and compares the mean
    against the exact value. The bound is n_states * max|reward| times the
    certified contraction to the power horizon; a given contraction must be
    finite and in [0, 1]. Draws whose uniforms would take more than
    games.MAX_WINDOW_BYTES are refused with DomainError.
    """
    horizon = _count("horizon", horizon, 0, sys.maxsize)
    n_draws = _count("n_draws", n_draws, 2, sys.maxsize)
    start_state = _count("start_state", start_state, 0, game.n_states - 1)
    if contraction is not None and not 0.0 <= contraction <= 1.0:  # NaN fails too
        raise DomainError(f"contraction={contraction!r}: need a finite value in [0, 1]")
    _cap_window(game, n_draws, horizon, DomainError, f"{n_draws} windows of {horizon + 1} stages")
    rng = _generator(rng)
    if contraction is None:
        contraction = game.mixing_certificate.contraction
    exact = exact_value(game, policy).values
    spans = action_spans(game.n_actions)
    cdf_cols = [np.cumsum(np.stack(policy.probs[lo:hi]), axis=-1)[..., :-1] for lo, hi in spans]
    # one window per draw, all with the same policy and start state, read
    # from the stream in one call
    samples, _ = _window_ends(
        game, [np.broadcast_to(c, (n_draws,) + c.shape) for c in cdf_cols],
        [start_state] * n_draws, rng.random((n_draws, horizon + 1, game.n_players + 1)),
    )
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(n_draws)
    bound = np.array(
        [
            game.n_states * game.max_abs_reward(i) * contraction**horizon
            for i in range(game.n_players)
        ]
    )
    return HorizonBiasReport(
        horizon=horizon,
        mean=mean,
        bias=np.abs(mean - exact),
        bound=bound,
        stderr=stderr,
    )
