"""Exact desk-scale analysis: values, advantages, payoff gradients, gaps.

Everything here assumes the induced chain is ergodic for the profiles it is
given and works in closed form: long-run average values come from the
stationary distribution, advantages from the average-reward Poisson
equation, and per-player payoff gradients from the product
stationary-weight times average advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from .errors import ContractError, DimensionError, DomainError, ErgodicityError
from .games import (
    ROW_SUM_TOL,
    ChainAnalysis,
    PolicyProfile,
    StochasticGame,
    _slicewise,
    analyze_chain,
    check_policy_block,
    induced_transition_matrix,
    joint_weight_matrix,
    random_profile,
    stationary_distribution,
)

# policy-iteration sweeps after which a row that still moves is an error
_MAX_SWEEPS = 1000
# stages truncated_advantage_series sums
_SERIES_TERMS = 200


@dataclass(frozen=True)
class ValueReport:
    """Per-player long-run average values and expected stage rewards.

    values[i] equals stationary . stage_rewards[i] by construction.
    """

    values: np.ndarray          # (n_players,)
    stage_rewards: np.ndarray   # (n_players, n_states)
    stationary: np.ndarray      # (n_states,)
    chain: ChainAnalysis


@dataclass(frozen=True)
class AdvantageTable:
    """Joint and own-action advantages plus the relative-value vectors.

    joint[i, s, j] is player i's advantage of joint action j in state s;
    own[i] has shape (n_states, n_actions_i) and marginalizes opponents
    under the profile; bias[i] solves the Poisson equation with zero
    stationary mean.
    """

    joint: np.ndarray
    own: tuple[np.ndarray, ...]
    bias: np.ndarray
    values: np.ndarray
    stationary: np.ndarray


@dataclass(frozen=True)
class ExactGradient:
    """Per-player payoff gradient in policy coordinates.

    blocks[i][s, a] = stationary(s) * own_advantage_i(s, a).
    """

    blocks: tuple[np.ndarray, ...]
    values: np.ndarray
    stationary: np.ndarray


@dataclass(frozen=True)
class DominanceCheck:
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class GapReport:
    """Unilateral best-response improvements per player."""

    gaps: np.ndarray
    values: np.ndarray
    best_values: np.ndarray
    best_actions: tuple[tuple[int, ...], ...]

    @property
    def max_gap(self) -> float:
        return float(self.gaps.max())


# ---------------------------------------------------------------------------
# values and advantages


def _stage_rewards(game, policy) -> np.ndarray:
    w = joint_weight_matrix(policy.probs)
    return np.einsum("isj,sj->is", game.rewards, w)


def exact_value(game: StochasticGame, policy: PolicyProfile) -> ValueReport:
    """Long-run average payoff of every player under a stationary profile."""
    chain = analyze_chain(game, policy)
    R = _stage_rewards(game, policy)
    return ValueReport(R @ chain.stationary, R, chain.stationary, chain)


def exact_values(game: StochasticGame, blocks) -> np.ndarray:
    """Long-run average payoffs of a stack of B profiles, shape (B, n_players).

    blocks[i] is player i's (B, n_states, n_actions_i) policy stack; row k
    of the result is exact_value(...).values of the profile formed by every
    player's slice k, equal to it to roundoff (the products and sums run in
    another order). Each stack gets the PolicyProfile checks (errors name
    the profile) and is evaluated batch-last by _batch_values, whose B
    chains share one stacked stationary solve. B = 0 gives a (0,
    n_players) array.
    """
    if len(blocks) != game.n_players:
        raise DimensionError(
            f"policy stack has {len(blocks)} players, game has {game.n_players}"
        )
    n_profiles = len(blocks[0])
    cols = []
    for i, (block, m) in enumerate(zip(blocks, game.n_actions)):
        arr = np.asarray(block, dtype=float)
        if arr.shape != (n_profiles, game.n_states, m):
            raise DimensionError(
                f"player {i} policy stack shape {arr.shape} != "
                f"{(n_profiles, game.n_states, m)}"
            )
        cols.append(arr.transpose(1, 2, 0).copy())
    if not n_profiles:
        return np.zeros((0, game.n_players))
    return _batch_values(game, cols).T


def _batch_values(game: StochasticGame, cols) -> np.ndarray:
    """Long-run average payoffs (n_players, B) of B profiles stored
    batch-last: cols[i] is player i's (n_states, n_actions_i, B) stack,
    which this checks as check_policy_block does (on a failure
    check_policy_block itself raises, naming the profile) and clips in
    place. With the profile axis innermost, the joint weights, the induced
    chains and the stage rewards each run a few long loops, the last two as
    one matmul against the game's _joint_tables."""
    S, B = game.n_states, cols[0].shape[-1]
    for i, x in enumerate(cols):
        if (x < -ROW_SUM_TOL).any() or not (np.abs(x.sum(axis=1) - 1.0) <= ROW_SUM_TOL).all():
            check_policy_block(x.transpose(2, 0, 1), i)
        np.clip(x, 0.0, None, out=x)
    # joint actions row-major, the last player's action fastest
    w = cols[0]
    for x in cols[1:]:
        w = (w[:, :, None] * x[:, None]).reshape(S, -1, B)
    transitions, rewards = game._joint_tables
    p = stationary_distribution((transitions @ w).transpose(2, 0, 1))   # (B, S)
    stage = rewards @ w                                                 # (S, n, B)
    return (stage * p.T[:, None]).sum(axis=0)


def opponent_weights(game: StochasticGame, policy: PolicyProfile) -> np.ndarray:
    """(n_players, n_states, n_joint) probability of each joint action's
    opponent part: entry (i, s, j) multiplies, in player order, every other
    player's probability of its own action in joint action j at state s."""
    n = game.n_players
    offsets = list(accumulate(game.n_actions[:-1], initial=0))
    # factors[k, s, j]: player k's probability of its action in joint action j
    columns = (game.action_table + offsets).T
    factors = np.concatenate(policy.probs, axis=1)[:, columns].transpose(1, 0, 2)
    # entry (k, i) is 1 where k == i; reducing over the leading k axis
    # multiplies in player order
    others = np.where(np.eye(n, dtype=bool)[:, :, None, None], 1.0, factors[:, None])
    return others.prod(axis=0)


def _own_actions(game: StochasticGame) -> np.ndarray:
    """(n_players, n_joint, max n_actions) one-hot map from each joint action
    to each player's own action; the columns of actions a player lacks are 0."""
    n, J = game.n_players, game.n_joint
    onehot = np.zeros((n, J, max(game.n_actions)))
    onehot[np.arange(n)[:, None], np.arange(J), game.action_table.T] = 1.0
    return onehot


def advantages(game: StochasticGame, policy: PolicyProfile) -> AdvantageTable:
    """Advantage tables computed through the relative-value route.

    Solves (I - P + 1 p) h_i = R_i - V_i 1 (so p . h_i = 0) for every player
    in one stacked solve, then
    joint[i, s, a] = r_i(s, a) - V_i + transitions[s, a] . h_i. The
    infinite-sum definition is recovered exactly; the truncated sum is kept
    as a test oracle.
    """
    report = exact_value(game, policy)
    p = report.stationary
    n, S = game.n_players, game.n_states
    bias = _poisson(
        np.broadcast_to(report.chain.transition_matrix, (n, S, S)),
        np.broadcast_to(p, (n, S)),
        report.stage_rewards - report.values[:, None],
        lambda i: f" for player {i}",
    )
    future = (game.transitions @ bias.T).transpose(2, 0, 1)   # (n, S, J)
    joint = game.rewards - report.values[:, None, None] + future
    weighted = opponent_weights(game, policy) * joint      # (n, S, J)
    # a sum over a non-last axis adds the joint actions one at a time, in order
    own = (weighted[..., None] * _own_actions(game)[:, None]).sum(axis=2)
    return AdvantageTable(
        joint,
        tuple(own[i, :, :m] for i, m in enumerate(game.n_actions)),
        bias,
        report.values,
        p,
    )


def exact_gradient(game: StochasticGame, policy: PolicyProfile) -> ExactGradient:
    """Per-player payoff gradient: stationary weight times own advantage."""
    table = advantages(game, policy)
    blocks = tuple(table.stationary[:, None] * block for block in table.own)
    return ExactGradient(blocks, table.values, table.stationary)


def finite_difference_gradient(
    game: StochasticGame, policy: PolicyProfile, step: float = 1e-5
) -> tuple[np.ndarray, ...]:
    """Central finite differences of the value along simplex-tangent swaps.

    Returns per-player arrays of shape (n_states, n_actions - 1) holding the
    directional derivatives along e_a - e_last within each state, so the
    perturbed points remain valid policies. The policy must be interior by
    more than `step` in every coordinate. All plus and minus points share
    one exact_values call.
    """
    if not 0.0 < step < math.inf:
        raise DomainError("step must be positive and finite")
    queries = [
        (i, s, a)
        for i, m in enumerate(game.n_actions)
        for s in range(game.n_states)
        for a in range(m - 1)
    ]
    out = [np.zeros((game.n_states, m - 1)) for m in game.n_actions]
    if not queries:
        return tuple(out)
    # rows 2q and 2q + 1 of every stack are query q's plus and minus points
    stacks = [np.repeat(b[None], 2 * len(queries), axis=0) for b in policy.probs]
    for q, (i, s, a) in enumerate(queries):
        last = game.n_actions[i] - 1
        for row, sign in ((2 * q, 1.0), (2 * q + 1, -1.0)):
            stacks[i][row, s, a] += sign * step
            stacks[i][row, s, last] -= sign * step
    values = exact_values(game, stacks)
    for q, (i, s, a) in enumerate(queries):
        out[i][s, a] = (values[2 * q, i] - values[2 * q + 1, i]) / (2.0 * step)
    return tuple(out)


def truncated_advantage_series(game: StochasticGame, policy: PolicyProfile) -> np.ndarray:
    """Direct forward-recursion oracle for the advantage definition.

    Sums expected reward-minus-value terms for _SERIES_TERMS stages starting from
    each (state, joint action); the tail is geometrically small once the
    chain has mixed. Shape (n_players, n_states, n_joint).
    """
    report = exact_value(game, policy)
    P = report.chain.transition_matrix
    R = report.stage_rewards                      # (n, S)
    S, J = game.n_states, game.n_joint

    total = game.rewards - report.values[:, None, None]
    # mu[s, j] is the state distribution after taking joint action j in s
    mu = game.transitions.reshape(S * J, S).copy()
    for _ in range(1, _SERIES_TERMS + 1):
        term = mu @ R.T - report.values            # (S*J, n)
        total += term.T.reshape(game.n_players, S, J)
        mu = mu @ P
    return total


# ---------------------------------------------------------------------------
# equilibrium diagnostics


def check_gradient_dominance(
    game: StochasticGame,
    policy: PolicyProfile,
    deviation_policy: PolicyProfile,
    mismatch: float,
) -> DominanceCheck:
    """Value gain of a unilateral deviation versus its linearized bound.

    lhs is the deviating player's value improvement, rhs is mismatch times
    the inner product of her payoff gradient with the policy difference;
    holds means lhs <= rhs + 1e-8.
    """
    movers = [
        i
        for i in range(game.n_players)
        if not np.array_equal(policy.probs[i], deviation_policy.probs[i])
    ]
    if len(movers) > 1:
        raise ContractError(f"deviation changes players {movers}; exactly one allowed")
    if not movers:
        return DominanceCheck(0.0, 0.0, True)
    i = movers[0]
    base = exact_value(game, policy).values[i]
    moved = exact_value(game, policy.replace(i, deviation_policy.probs[i])).values[i]
    grad = exact_gradient(game, policy).blocks[i]
    lhs = float(moved - base)
    rhs = float(mismatch * np.sum(grad * (deviation_policy.probs[i] - policy.probs[i])))
    return DominanceCheck(lhs, rhs, lhs <= rhs + 1e-8)


def estimate_mismatch(game: StochasticGame, policy_samples) -> float:
    """Sampled lower bound on the worst stationary-distribution ratio.

    Maximum over ordered sample pairs of max_s p(s) / p'(s). The true
    coefficient maximizes over all profile pairs, so this is a lower bound.
    """
    samples = list(policy_samples)
    if len(samples) < 2:
        raise DomainError("estimate_mismatch needs at least 2 sample policies")
    dists = stationary_distribution(
        np.array([induced_transition_matrix(game, pi) for pi in samples])
    )
    return float((dists.max(axis=0) / dists.min(axis=0)).max())


def _frozen_mdps(game, policy, players):
    """Single-agent average-reward MDPs faced by `players`, others frozen.

    P[k, s, a] is the next-state law and R[k, s, a] the expected reward of
    players[k] taking action a in state s. The action axis is padded to the
    largest action count: a padded action has a zero transition row and
    reward -inf, so no policy step ever picks it.
    """
    S = game.n_states
    w = opponent_weights(game, policy)[players]           # (k, S, J)
    onehot = _own_actions(game)[players]                  # (k, J, m)
    # next-state law and reward side by side: one contraction gives both
    transitions = np.broadcast_to(game.transitions, w.shape + (S,))
    law = np.concatenate([transitions, game.rewards[players, ..., None]], axis=-1)
    PR = onehot.transpose(0, 2, 1)[:, None] @ (w[..., None] * law)   # (k, S, m, S + 1)
    missing = np.arange(onehot.shape[2]) >= np.asarray(game.n_actions)[players, None]
    return PR[..., :S], np.where(missing[:, None, :], -np.inf, PR[..., S])


def _poisson(P, p, r, at):
    """Zero-mean biases (k, S) of a (k, S, S) stack of ergodic chains: row i
    solves (I - P[i] + 1 p[i]) h = r[i], with r[i] the stage rewards minus
    the gain, so p[i] . h = 0. One solve per slice, all in one stacked call;
    a singular slice raises ErgodicityError, located by at(i)."""
    A = np.eye(P.shape[-1]) - P + p[:, None, :]
    return _slicewise(np.linalg.solve, "singular Poisson system", at, A, r[..., None])[..., 0]


def _evaluate_deterministic(P, R, actions, players):
    """Gains (k,) and zero-mean biases (k, S) of one deterministic policy per
    MDP of the stack: one stationary solve and one Poisson solve for all.
    A non-ergodic candidate raises ErgodicityError naming its player."""
    k, S = actions.shape
    stack, rows = np.arange(k)[:, None], np.arange(S)
    P_pi = P[stack, rows, actions]                        # (k, S, S)
    R_pi = R[stack, rows, actions]                        # (k, S)
    try:
        p = stationary_distribution(P_pi)
        gain = np.vecdot(p, R_pi)
        h = _poisson(P_pi, p, R_pi - gain[:, None], lambda i: f" at slice {i}")
    except ErgodicityError as exc:
        i = getattr(exc, "slice_index", None)
        if i is None:
            raise
        raise ErgodicityError(
            f"best-response candidate {tuple(actions[i].tolist())} of player "
            f"{players[i]}: {exc}"
        ) from exc
    return gain, h


def _policy_iteration(P, R, players):
    """Howard policy iteration on a stack of MDPs, one row per player.

    Every row starts from its greedy stage-reward policy; each sweep
    evaluates all rows with stacked solves and moves a state to a better
    action only when it wins by more than 1e-12, so the incumbent keeps
    ties and the iteration terminates. Rows that have settled keep their
    actions, and with them their gains, bit for bit. Returns the optimal
    gains (k,) and actions (k, S).
    """
    stack, rows = np.arange(len(players))[:, None], np.arange(R.shape[1])
    actions = R.argmax(axis=2)
    gain, h = _evaluate_deterministic(P, R, actions, players)
    moved = np.ones(len(players), dtype=bool)
    for _ in range(_MAX_SWEEPS):
        q = R + (P @ h[:, None, :, None])[..., 0]          # (k, S, m)
        best = q.argmax(axis=2)
        incumbent = q[stack, rows, actions]
        nxt = np.where(q.max(axis=2) > incumbent + 1e-12, best, actions)
        moved = (nxt != actions).any(axis=1)
        if not moved.any():
            return gain, actions
        actions = nxt
        gain, h = _evaluate_deterministic(P, R, actions, players)
    unsettled = [players[i] for i in np.flatnonzero(moved)]
    raise ErgodicityError(
        f"policy iteration for players {unsettled} did not settle in {_MAX_SWEEPS} sweeps"
    )


def best_response(
    game: StochasticGame,
    policy: PolicyProfile,
    player: int,
    method: str = "policy-iteration",
):
    """Optimal average reward of one player against a frozen profile.

    policy-iteration is this player's row of the stacked iteration that
    nash_gap runs for every player; enumerate scores every deterministic
    policy (use only when n_actions ** n_states is small). Returns (value,
    actions, flags).
    """
    if not 0 <= player < game.n_players:
        raise DomainError(f"player {player} out of range for {game.n_players} players")
    P, R = _frozen_mdps(game, policy, [player])
    if method == "policy-iteration":
        gain, actions = _policy_iteration(P, R, [player])
        return float(gain[0]), tuple(actions[0].tolist()), ()
    if method != "enumerate":
        raise DomainError(f"unknown best-response method {method!r}")

    flags: list[str] = []
    best, best_actions = -np.inf, None
    for combo in product(range(game.n_actions[player]), repeat=game.n_states):
        try:
            gain, _ = _evaluate_deterministic(P, R, np.array([combo]), [player])
        except ErgodicityError:
            flags.append(f"player {player}: skipped non-ergodic candidate {combo}")
            continue
        if gain[0] > best:
            best, best_actions = float(gain[0]), combo
    if best_actions is None:
        raise ErgodicityError(
            f"ergodicity check failed: no ergodic deterministic response "
            f"for player {player}"
        )
    return best, best_actions, tuple(flags)


def nash_gap(game: StochasticGame, policy: PolicyProfile) -> GapReport:
    """Best unilateral improvement available to each player.

    gap_i = max over player i's stationary policies of its value against the
    frozen opponents, minus her current value; the inner maximum is exact
    because a deterministic policy attains it. One stacked policy iteration
    finds every player's best response.
    """
    values = exact_value(game, policy).values
    players = list(range(game.n_players))
    best_vals, actions = _policy_iteration(*_frozen_mdps(game, policy, players), players)
    return GapReport(
        best_vals - values,
        values,
        best_vals,
        tuple(tuple(row) for row in actions.tolist()),
    )


def first_order_residual(game: StochasticGame, policy: PolicyProfile) -> float:
    """Largest linearized gain over the whole profile polytope.

    max over profiles pi' of <gradient, pi' - pi>; separates per (player,
    state) into a max over simplex vertices, so it is computed exactly.
    """
    grad = exact_gradient(game, policy)
    total = 0.0
    for block, probs in zip(grad.blocks, policy.probs):
        total += float(np.sum(block.max(axis=1) - np.sum(block * probs, axis=1)))
    return total


def lipschitz_probe(game: StochasticGame, n_pairs: int, rng=None) -> float:
    """Empirical Lipschitz constant of the stacked payoff gradient.

    Maximum over n_pairs policy pairs, drawn with random_profile at margin
    0.05, of the sup-norm gradient difference divided by the sup-norm
    policy difference. Identical pairs are skipped; if every pair is
    identical, as when every player has one action, the probe is undefined.
    """
    if n_pairs < 1:
        raise DomainError("lipschitz_probe needs n_pairs >= 1")
    rng = np.random.default_rng(rng)
    best = None
    for _ in range(n_pairs):
        a, b = random_profile(game, rng, 0.05), random_profile(game, rng, 0.05)
        # a lone action's probability is 1 up to the sampler's roundoff
        diff = max(
            (
                float(np.abs(pa - pb).max())
                for pa, pb, m in zip(a.probs, b.probs, game.n_actions)
                if m > 1
            ),
            default=0.0,
        )
        if diff == 0.0:
            continue
        ga = exact_gradient(game, a).blocks
        gb = exact_gradient(game, b).blocks
        gdiff = max(float(np.abs(x - y).max()) for x, y in zip(ga, gb))
        ratio = gdiff / diff
        best = ratio if best is None else max(best, ratio)
    if best is None:
        raise DomainError("degenerate pair: all sampled pairs are identical")
    return best
