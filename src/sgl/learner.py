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
import operator
import pathlib
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import (
    ValueReport,
    _best_responses,
    _evaluate,
    _gradients,
    exact_value,
)
from .errors import DomainError, ErgodicityError, ScheduleError
from .games import (
    MAX_WINDOW_BYTES,
    MixingCertificate,
    PolicyProfile,
    StochasticGame,
    certify_mixing,  # still importable from this module
    game_hash,
    _check_compatible,
    _count,
    _window_bytes,
    _window_ends,
)
from .mirror import (
    ENTROPY,
    Regularizer,
    fenchel_coupling,  # still importable from this module
    _coupling_terms,
    _map_block,
)
from .spsa import (
    SPHERE_FLOOR,
    active_players,
    lift_block,
    lifting_for,
    nets_for,
    perturb,
    reduce_policy,
    reduced_dim,
    reduced_from_full,
    _check_smoothing,
    _one_point,
    _perturb,
    _smoothed_gradient,
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
    game: StochasticGame, horizon_mode: str, horizon_param: float | None, gamma_scale: float
) -> Schedule:
    """Exponents (1, 1/3), query scale a quarter of the tightest safety
    radius, and the window parameter horizon_param; when it is None, the
    mode's own: twice the certified mixing constant in log mode, 1/2 in
    power mode."""
    if horizon_param is None:
        if horizon_mode == "log":
            horizon_param = 2.0 * certified_tau(game.mixing_certificate)
        else:
            horizon_param = 0.5
    return Schedule(
        gamma_exp=1.0,
        delta_exp=1.0 / 3.0,
        gamma_scale=gamma_scale,
        delta_scale=0.25 * min_safety_radius(game),
        horizon_mode=horizon_mode,
        horizon_param=horizon_param,
    )


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
    diagnostics: list[StepDiagnostics] = field(default_factory=list)
    final_state: LearnerState | None = None
    clamped_steps: int = 0

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
    The one-seed case of run_batch's oracle checkpoint: one _evaluate call
    for the profile and its query, then _decomposition.
    """
    _check_smoothing(game, delta, smoothing_draws)
    nets = nets_for(game)
    active = active_players(game)
    reduced = reduce_policy(policy)
    queried = [
        lift_block(perturb(reduced[i], directions[i], delta, nets[i])) if i in active else block
        for i, block in enumerate(policy.probs)
    ]
    values, grads, _, failures = _exact_parts(
        game, [b[None] for b in policy.probs], [q[None] for q in queried], None
    )
    if failures:
        raise next(iter(failures.values()))
    z = [
        np.asarray(directions[i], float).reshape(x.shape) if i in active else None
        for i, x in enumerate(reduced)
    ]
    return _decomposition(
        game, reduced, values[0, 0], grads[0], values[1, 0], z, delta, payoffs, rng,
        smoothing_draws,
    )


def _exact_parts(game, before, queried, after):
    """One _evaluate call over B seeds' decomposed profiles (before), their
    queries and their updated profiles (after), each None or one (B, S,
    m_i) stack per player, then _gradients of before and _best_responses
    against after. Returns the values (arguments given, B, n), the (B, n,
    S, max m) gradients, the (B, n) best-response gains (None where not
    given) and the failures {(seed, part): the error its profile raises
    alone}. A seed's part is its "decomposition" (x_t and the query), its
    "value" (x_{t+1}) or its "gap" (best responses); a stage runs again
    without a failing part, whose results are NaN. Reads no stream."""
    stacks = [x for x in (before, queried, after) if x is not None]
    B = len(stacks[0][0])
    N, failures = len(stacks) * B, {}
    cat = [np.concatenate(players) for players in zip(*stacks)]
    kept, (blocks, report) = _dropping(  # stacked row r: seed r % B's profile in stacks[r // B]
        lambda rows: _evaluate(game, [x[rows] for x in cat]), 0, N, None, failures,
        lambda r: (r % B, "value" if after is not None and r >= N - B else "decomposition"),
    )
    if kept is not None:  # full-size stacks again, NaN in the dropped rows
        blocks = [_placed(x, kept, 0, N) for x in blocks]
        report = ValueReport(*(_placed(x, kept, 0, N) for x in vars(report).values()))
    values = report.values.reshape(-1, B, game.n_players)
    grads = best = None
    if before is not None:
        rows, grads = _dropping(
            lambda rows: _gradients(
                game, [x[rows] for x in blocks],
                ValueReport(*(x[rows] for x in vars(report).values())),
            ),
            0, B, kept, failures, lambda r: (r, "decomposition"),
        )
        grads = _placed(grads, rows, 0, B)
    if after is not None:
        rows, best = _dropping(
            lambda rows: _best_responses(game, [x[rows] for x in blocks])[0],
            N - B, N, kept, failures, lambda r: (r % B, "gap"),
        )
        best = _placed(best, rows, N - B, N)
    return values, grads, best, failures


def _dropping(run, lo, hi, kept, failures, part):
    """(rows, run(rows)) on the stacked rows lo..hi-1 in kept (None: all);
    until a row fails, rows is None and run reads the slice lo:hi. An
    ErgodicityError about slice k goes to failures under part(row k), and
    run repeats without that part's rows."""
    rows = None if kept is None else [r for r in kept if lo <= r < hi]
    while True:
        try:
            return rows, run(slice(lo, hi) if rows is None else rows)
        except ErgodicityError as exc:
            if not hasattr(exc, "slice_index"):
                raise
            rows = list(range(lo, hi)) if rows is None else rows
            failures[part(rows[exc.slice_index])] = exc
            rows = [r for r in rows if part(r) not in failures]


def _placed(x, rows, lo, hi):
    """x, a stage's results for the stacked rows `rows` of lo..hi-1 (None:
    all), as hi - lo rows with NaN where a row is missing."""
    if rows is None:
        return x
    out = np.full((hi - lo,) + x.shape[1:], np.nan)
    out[[r - lo for r in rows]] = x
    return out


def _decomposition(
    game, base, base_values, gradient, query_values, z, delta, payoffs, rng, draws
) -> StepDecomposition:
    """One seed's StepDecomposition from its exact parts: the decomposed
    profile's reduced blocks base, its values (the smoothed gradient's
    control variate) and (n, S, max m) gradient, the query's values, and
    each player's (S, m_i - 1) direction z[i] (None for a single action).
    Reads rng for the smoothed gradient's draws."""
    smoothed, _ = _smoothed_gradient(game, base, base_values, delta, draws, rng)
    grad, smooth_bias, noise, window = [], [], [], []
    for i, m in enumerate(game.n_actions):
        if z[i] is None:
            for part in (grad, smooth_bias, noise, window):
                part.append(np.zeros((game.n_states, m)))
            continue
        d = reduced_dim(game.n_states, m)
        g = _tangent(reduced_from_full(gradient[i, :, :m]))
        sm = _tangent(smoothed[i])
        at_query = _tangent(_one_point(query_values[i], z[i], delta, d))
        realized = _tangent(_one_point(payoffs[i], z[i], delta, d))
        grad.append(g)
        smooth_bias.append(sm - g)
        noise.append(at_query - sm)
        window.append(realized - at_query)
    return StepDecomposition(
        tuple(grad), tuple(smooth_bias), tuple(noise), tuple(window), query_values.copy()
    )


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


def _mirror_batch(reg: Regularizer, y: np.ndarray) -> np.ndarray:
    """_map_block of every seed's (states x actions) block of y at once: both
    mirror maps act on the last axis of any stack."""
    try:
        return _map_block(reg, y)
    except DomainError as exc:  # non-finite scores: name the first such seed
        finite = np.isfinite(y).reshape(len(y), -1).all(axis=1)
        raise _tagged(exc, int(np.argmin(finite)))


def _checkpoint_oracle(game, t, after, decomposed):
    """Every seed's values, Nash gaps and, in oracle_mode, StepDecomposition
    at checkpoint t, as three per-seed lists.

    after holds one (B, S, m_i) policy stack per player; decomposed is None,
    or (before, z, delta, payoffs, rngs, draws) with before stacked like
    after, z[i] player i's (B, S, m_i - 1) directions (None for a single
    action) and one payoff row and stream per seed. One _exact_parts call
    covers every seed; the smoothed gradients stay per seed. A failed part
    is None, with the warnings of the seed's solo run, in seed order; the
    values stay where only the best responses fail. An error raised for
    one seed, other than an ErgodicityError, carries its position as
    seed_index.
    """
    n_batch = len(after[0])
    values, gaps, decompositions = [None] * n_batch, [None] * n_batch, [None] * n_batch
    before = queried = None
    if decomposed is not None:
        before, z, delta, payoffs, rngs, draws = decomposed
        _check_smoothing(game, delta, draws)
        queried = [
            x if d is None else lift_block(_perturb(x[..., :-1], d, delta, net))
            for x, d, net in zip(before, z, nets_for(game))
        ]
    seed_values, grads, best, failures = _exact_parts(game, before, queried, after)
    for b in range(n_batch):
        try:
            if decomposed is not None and (b, "decomposition") not in failures:
                try:
                    decompositions[b] = _decomposition(
                        game, [x[b, :, :-1] for x in before], seed_values[0, b], grads[b],
                        seed_values[1, b], [None if d is None else d[b] for d in z],
                        delta, payoffs[b], rngs[b], draws,
                    )
                except ErgodicityError as exc:
                    failures[b, "decomposition"] = exc
            for part in ("decomposition", "value", "gap"):
                if (b, part) in failures:
                    what = {"decomposition": "oracle decomposition"}.get(part, "checkpoint oracle")
                    warnings.warn(f"{what} skipped at t={t}: {failures[b, part]}")
            if (b, "value") not in failures:
                values[b] = seed_values[-1, b].copy()
                if (b, "gap") not in failures:
                    gaps[b] = best[b] - values[b]
        except Exception as exc:
            raise _tagged(exc, b)
    return values, gaps, decompositions


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
    games._window_ends call plays every seed's window, and one
    _checkpoint_oracle call evaluates every seed's checkpoint (only
    oracle_mode's smoothed-gradient draws stay per seed).
    Seed s reads its own np.random.default_rng(s) in the order a run of it
    alone does, so its RunLog has the same bits alone or in any batch; its
    sphere draw is one row of normals, redrawn whole under SPHERE_FLOOR.
    out_dirs, when given, holds one run.csv / run.json directory per seed.
    A run whose schedule overflows at its last iteration, or whose uniforms
    would take more than MAX_WINDOW_BYTES, is refused with ScheduleError
    before its first iteration. An error raised for one seed (a negative
    seed, say) carries the seed's position in `seeds` as its seed_index
    attribute. The iterations run under one np.errstate(over="ignore",
    invalid="ignore") and the checkpoints under the caller's error state.
    """
    try:  # a float count fails instead of being truncated
        iters, log_every = operator.index(iters), operator.index(log_every)
    except TypeError:
        raise DomainError(f"iters={iters!r}, log_every={log_every!r}: need integers") from None
    if iters < 0:
        raise DomainError("iters must be nonnegative")
    if log_every < 1:
        raise DomainError("log_every must be at least 1")
    if not 0 <= start_state < game.n_states:
        raise DomainError(f"start_state {start_state} out of range")
    seeds = list(seeds)
    if not seeds:
        raise DomainError("run_batch needs at least one seed")
    if out_dirs is not None and len(out_dirs) != len(seeds):
        raise DomainError("out_dirs needs one directory per seed")
    if iters:
        # windows never shrink and (t+1)**p is monotone in t, so the last
        # iteration has the longest window and is the first to overflow
        try:
            schedule.gamma(iters - 1), schedule.delta(iters - 1)
            longest = schedule.horizon(iters - 1)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ScheduleError(
                f"the schedule at t={iters - 1} overflows or underflows to zero ({exc})"
            ) from None
        size = _window_bytes(len(seeds), longest, game)
        if size > MAX_WINDOW_BYTES:
            raise ScheduleError(
                f"the window of {longest} stages at t={iters - 1} needs {size} bytes of "
                f"uniforms for {len(seeds)} seeds, over the {MAX_WINDOW_BYTES}-byte cap"
            )
    for b, seed in enumerate(seeds):
        if seed < 0:  # numpy's default_rng says only "expected non-negative integer"
            raise _tagged(DomainError(f"seed {seed} is negative"), b)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    radius_cap = 0.99 * min_safety_radius(game)

    n_batch = len(seeds)
    n_players, n_states, n_actions = game.n_players, game.n_states, game.n_actions
    nets = nets_for(game)
    liftings = [lifting_for(n_states, m) for m in n_actions]
    dims = [reduced_dim(n_states, m) for m in n_actions]
    active = active_players(game)
    norm_cap = max(dims[i] * game.max_abs_reward(i) * liftings[i].op_norm for i in active)

    # group k holds players lo..hi-1 and cdf_cols[k] their played action-CDF
    # columns but the last (none for single-action players); raw holds each
    # seed's sphere draw, the active players' reduced coordinates side by
    # side. Active group g is groups[g] = (k, lo, hi); segments[g] is its
    # (seeds, players, reduced dim) view of raw and shaped[g] the same view
    # shaped like the group's reduced policies.
    spans, lo = [], 0
    for _, members in itertools.groupby(n_actions):
        hi = lo + len(list(members))
        spans.append((lo, hi))
        lo = hi
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
    pol_cols = [cdf_cols[k][:, j] for k, j in slots]

    init = _initial_scores(regularizer, game, init_policy)
    scores = [np.repeat(np.stack(init[lo:hi])[None], n_batch, axis=0) for lo, hi in spans]
    policy = [_mirror_batch(regularizer, y) for y in scores]
    reduced = [p[..., :-1] for p in policy]

    if reference is not None:
        _check_compatible(game, reference.probs)
        # the reference's blocks and regularizer values, by group
        ref_blocks = [np.stack(reference.probs[lo:hi]) for lo, hi in spans]
        ref_h = [
            np.array([regularizer.block_value(x) for x in reference.probs[lo:hi]])
            for lo, hi in spans
        ]

    digest = game_hash(game)
    logs = [
        RunLog(
            schedule=schedule,
            seed=seed,
            mirror_kind=regularizer.kind,
            game_digest=digest,
            iters=iters,
            log_every=log_every,
        )
        for seed in seeds
    ]
    states = [start_state] * n_batch
    clamped = 0
    est_norms = np.zeros((n_batch, n_players))
    uniforms = np.empty((n_batch, 0, n_players + 1))

    def blocks_of(arrays, b):
        return [arrays[k][b, j] for k, j in slots]

    # one error state for the whole loop: an estimate whose norm overflows,
    # on rewards near the float range, reaches the norm check below without
    # a RuntimeWarning, and the checkpoints run under the caller's state
    caller_errors = np.geterr()
    with np.errstate(over="ignore", invalid="ignore"):
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
            for b, (rng, row) in enumerate(zip(rngs, raw_rows)):
                try:
                    rng.standard_normal(out=row)
                except Exception as exc:
                    raise _tagged(exc, b)
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
            for b, (rng, row) in enumerate(zip(rngs, u_rows)):
                try:
                    rng.random(out=row)
                except Exception as exc:
                    raise _tagged(exc, b)
            payoffs, states = _window_ends(game, pol_cols, states, uniforms)

            before = policy[:]
            coeff_cap = norm_cap / delta * (1.0 + 1e-9)
            for (k, lo, hi), d in zip(groups, directions):
                lifted = _tangent(_one_point(payoffs[:, lo:hi, None, None], d, delta, dims[lo]))
                squares = (lifted * lifted).reshape(n_batch, hi - lo, -1)
                norm = np.sqrt(np.add.reduce(squares, axis=-1))
                if np.maximum.reduce(norm, axis=None) > coeff_cap:
                    b, j = np.argwhere(norm > coeff_cap)[0]
                    raise _tagged(
                        DomainError(
                            f"estimate norm {float(norm[b, j])} exceeds bound {norm_cap / delta} "
                            f"at t={t}: the estimate's norm overflowed for rewards this large "
                            "at this query radius"
                        ),
                        b,
                    )
                est_norms[:, lo:hi] = norm
                scores[k] = scores[k] + gamma * lifted
                policy[k] = _mirror_batch(regularizer, scores[k])
                reduced[k] = policy[k][..., :-1]

            if checkpoint:
                decomposed = None
                if oracle_mode:
                    # the decomposition of the step just taken, from x_t: no
                    # stream is read between that step and here
                    drawn = {k: d for (k, _, _), d in zip(groups, directions)}
                    decomposed = (
                        [before[k][:, j] for k, j in slots],
                        [drawn[k][:, j] if k in drawn else None for k, j in slots],
                        delta, payoffs, rngs, decomposition_draws,
                    )
                with np.errstate(**caller_errors):
                    values, gaps, decompositions = _checkpoint_oracle(
                        game, t, [policy[k][:, j] for k, j in slots], decomposed
                    )
                    fen_pp = dist = None
                    if reference is not None:
                        # the terms of fenchel_coupling's value, without its Bregman
                        # cross-check, and the distances, as (seeds, players) arrays
                        fen_pp = np.empty((n_batch, n_players))
                        dist = np.empty((n_batch, n_players))
                        for k, (lo, hi) in enumerate(spans):
                            fen_pp[:, lo:hi] = _coupling_terms(
                                regularizer, ref_h[k], ref_blocks[k], scores[k]
                            )[0]
                            diff = (policy[k] - ref_blocks[k]).reshape(n_batch, hi - lo, -1)
                            dist[:, lo:hi] = np.sqrt(np.vecdot(diff, diff))
                for b, log in enumerate(logs):
                    log.diagnostics.append(
                        StepDiagnostics(
                            t=t + 1,
                            gamma=gamma,
                            delta=delta,
                            horizon=horizon,
                            payoffs=payoffs[b].copy(),
                            estimate_norms=est_norms[b].copy(),
                            values=values[b],
                            fenchel_per_player=None if fen_pp is None else fen_pp[b].copy(),
                            nash_gaps=gaps[b],
                            dist_to_ref=None if dist is None else dist[b].copy(),
                            decomposition=decompositions[b],
                        )
                    )

    for b, log in enumerate(logs):
        log.clamped_steps = clamped
        log.final_state = LearnerState(
            scores=[y.copy() for y in blocks_of(scores, b)],
            policy=PolicyProfile(tuple(blocks_of(policy, b))),
            state=states[b],
        )
        if out_dirs is not None:
            log.write(out_dirs[b])
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
    certified contraction to the power horizon. Draws whose uniforms would
    take more than MAX_WINDOW_BYTES are refused with DomainError.
    """
    horizon, n_draws = _count("horizon", horizon), _count("n_draws", n_draws)
    start_state = _count("start_state", start_state)
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
    if n_draws < 2:
        raise DomainError("n_draws must be at least 2 for a standard error")
    if not 0 <= start_state < game.n_states:
        raise DomainError(f"start_state {start_state} out of range")
    size = _window_bytes(n_draws, horizon, game)
    if size > MAX_WINDOW_BYTES:
        raise DomainError(
            f"{n_draws} windows of {horizon + 1} stages need {size} bytes of "
            f"uniforms, over the {MAX_WINDOW_BYTES}-byte cap"
        )
    rng = np.random.default_rng(rng)
    if contraction is None:
        contraction = game.mixing_certificate.contraction
    exact = exact_value(game, policy).values
    pol_cols = [np.cumsum(block, axis=1)[:, :-1] for block in policy.probs]
    # one window per draw, all with the same policy and start state, read
    # from the stream in one call
    samples, _ = _window_ends(
        game, [np.broadcast_to(c, (n_draws,) + c.shape) for c in pol_cols],
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
