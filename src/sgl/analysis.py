"""Exact desk-scale analysis: values, advantages, payoff gradients, gaps.

Everything here assumes the induced chain is ergodic for the profiles it is
given and works in closed form: long-run average values come from the
stationary distribution, advantages from the average-reward Poisson
equation, and per-player payoff gradients from the product
stationary-weight times average advantage.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from .errors import ContractError, DimensionError, DomainError, ErgodicityError
from .games import (
    PolicyProfile,
    StochasticGame,
    _at_slice,
    _check_compatible,
    _count,
    _generator,
    _raised,
    _slicewise,
    _stationary,
    analyze_chain,
    check_policy_block,
    induced_transition_matrix,
    joint_weight_matrix,
    random_profile,
    stationary_distribution,
)
from .mirror import BoundCheck

# policy-iteration sweeps after which a row that still moves is an error
_MAX_SWEEPS = 1000
# stages truncated_advantage_series sums
_SERIES_TERMS = 200


@dataclass(frozen=True)
class ValueReport:
    """Long-run values, stage rewards, and the induced chain with its stationary law.

    values[i] equals stationary . stage_rewards[i] by construction. The
    shapes are those of one profile; _evaluate's report of a stack of
    profiles adds a leading profile axis to each.
    """

    values: np.ndarray             # (n_players,)
    stage_rewards: np.ndarray      # (n_players, n_states)
    stationary: np.ndarray         # (n_states,)
    transition_matrix: np.ndarray  # (n_states, n_states)


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


def exact_value(game: StochasticGame, policy: PolicyProfile) -> ValueReport:
    """Long-run average payoff of every player under a stationary profile."""
    return _evaluate(game, policy)[1]


def _evaluate(game: StochasticGame, profiles):
    """The row-layout value core: (blocks, ValueReport).

    profiles is one PolicyProfile or one (K, S, m_i) policy stack per
    player, simplex rows by construction; only its shapes are checked,
    against the game. Each slice has the bits of its profile alone at any
    stack size, as a learner seed needs and the batch-last _batch_values
    does not. A failing chain (analyze_chain) raises the error its profile
    raises alone, with its position as slice_index; _values returns every
    failure instead.
    """
    blocks = profiles.probs if isinstance(profiles, PolicyProfile) else profiles
    _check_compatible(game, blocks)
    w = joint_weight_matrix(blocks)
    return blocks, _report(game, w, *analyze_chain(game, w))


def _values(game: StochasticGame, stacks):
    """_evaluate's report of stacked profiles that fit the game, with _stationary's failures."""
    w = joint_weight_matrix(stacks)
    P = induced_transition_matrix(game, w)
    p, failures = _stationary(P)
    return _report(game, w, P, p), failures


def _report(game: StochasticGame, w, P, p) -> ValueReport:
    """The ValueReport of joint weights w, their chains P and laws p."""
    R = np.einsum("isj,...sj->...is", game.rewards, w)
    return ValueReport((R @ p[..., None])[..., 0], R, p, P)


def exact_values(game: StochasticGame, blocks) -> np.ndarray:
    """Long-run average payoffs of a stack of B profiles, shape (B, n_players).

    blocks[i] is player i's (B, n_states, n_actions_i) policy stack; row k
    of the result is exact_value(...).values of the profile formed by every
    player's slice k, equal to it to roundoff (the products and sums run in
    another order). Each stack is copied once with its profile axis
    innermost in memory, checked as PolicyProfile does (errors name the
    profile) and evaluated by _batch_values, whose B chains share one
    stacked stationary solve. B = 0 gives a (0, n_players) array.
    """
    if len(blocks) != game.n_players:
        raise DimensionError(
            f"policy stack has {len(blocks)} players, game has {game.n_players}"
        )
    n_profiles = len(blocks[0])
    stacks = []
    for i, (block, m) in enumerate(zip(blocks, game.n_actions)):
        arr = np.asarray(block, dtype=float)
        if arr.shape != (n_profiles, game.n_states, m):
            raise DimensionError(
                f"player {i} policy stack shape {arr.shape} != "
                f"{(n_profiles, game.n_states, m)}"
            )
        stacks.append(check_policy_block(arr.transpose(1, 2, 0).copy().transpose(2, 0, 1), i))
    return _batch_values(game, stacks).T


def _batch_values(game: StochasticGame, stacks) -> np.ndarray:
    """Long-run average payoffs (n_players, B) of B profiles: stacks[i] is
    player i's (B, n_states, n_actions_i) policy stack, checked already,
    with its profile axis innermost in memory (a transposed view).
    joint_weight_matrix keeps that layout, so the joint weights transposed
    to (n_states, n_joint, B) are contiguous, and the induced chains and
    the stage rewards are each one matmul against the game's _joint_tables.
    Above about ten profiles this beats the row-layout _evaluate."""
    w = joint_weight_matrix(stacks).transpose(1, 2, 0)                 # (S, J, B)
    transitions, rewards = game._joint_tables
    p = stationary_distribution((transitions @ w).transpose(2, 0, 1))   # (B, S)
    stage = rewards @ w                                                 # (S, n, B)
    return (stage * p.T[:, None]).sum(axis=0)


def opponent_weights(game: StochasticGame, blocks) -> np.ndarray:
    """(..., n_players, n_states, n_joint) probability of each joint action's
    opponent part: entry (i, s, j) multiplies, in player order, every other
    player's probability of its own action in joint action j at state s.
    blocks[i] is player i's (..., n_states, n_actions_i) policy block."""
    n = game.n_players
    offsets = list(accumulate(game.n_actions[:-1], initial=0))
    # factors[k, ..., s, j]: player k's probability of its action in joint action j
    columns = (game.action_table + offsets).T
    factors = np.moveaxis(np.concatenate(blocks, axis=-1)[..., columns], -2, 0)
    # entry (k, ..., i) is 1 where k == i; reducing over the leading k axis
    # multiplies in player order
    own = np.eye(n, dtype=bool).reshape((n,) + (1,) * (factors.ndim - 3) + (n, 1, 1))
    others = np.where(own, 1.0, factors[..., None, :, :])
    return others.prod(axis=0)


def _own_advantages(game: StochasticGame, blocks, report: ValueReport):
    """(joint, own, bias, failures) of the profiles _evaluate returned
    blocks and report for, the first three with the profiles' leading axes:
    own is (..., n, S, max n_actions), zero past a player's action count.

    Solves (I - P + 1 p) h_i = R_i - V_i 1 (so p . h_i = 0) for every
    profile and player in one stacked solve, then
    joint[i, s, a] = r_i(s, a) - V_i + transitions[s, a] . h_i. A singular
    system's rows are NaN, and failures {position in the flattened stack:
    error} names each profile's first singular player (a NaN report row
    gives NaN rows only).
    """
    n, S = game.n_players, game.n_states
    lead = report.values.shape[:-1]
    P = np.broadcast_to(report.transition_matrix[..., None, :, :], lead + (n, S, S))
    p = np.broadcast_to(report.stationary[..., None, :], lead + (n, S))
    bias, singular = _poisson(
        P.reshape(-1, S, S),
        p.reshape(-1, S),
        (report.stage_rewards - report.values[..., None]).reshape(-1, S),
    )
    bias = bias.reshape(lead + (n, S))
    failures = {}
    for k, exc in singular.items():  # row k is player k % n of profile k // n
        failures.setdefault(k // n, _at_slice(f"advantages of player {k % n}: {exc}", k // n))
    future = np.moveaxis(game.transitions @ np.swapaxes(bias, -1, -2)[..., None, :, :], -1, -3)
    joint = game.rewards - report.values[..., None, None] + future   # (..., n, S, J)
    weighted = opponent_weights(game, blocks) * joint
    # a sum over a non-last axis adds the joint actions one at a time, in order
    own = (weighted[..., None] * game._own_actions[:, None]).sum(axis=-2)
    return joint, own, bias, failures


def _gradients(game: StochasticGame, blocks, report: ValueReport):
    """(..., n, S, max n_actions) payoff gradients of the profiles
    _evaluate returned blocks and report for: stationary weight times own
    advantage, zero past a player's action count; and the failures of
    _own_advantages."""
    _, own, _, failures = _own_advantages(game, blocks, report)
    return report.stationary[..., None, :, None] * own, failures


def advantages(game: StochasticGame, policy: PolicyProfile) -> AdvantageTable:
    """Advantage tables computed through the relative-value route.

    The one-profile case of _own_advantages: joint[i, s, a] = r_i(s, a) -
    V_i + transitions[s, a] . h_i, with the biases from one stacked
    Poisson solve. The infinite-sum definition is recovered exactly; the
    truncated sum is kept as a test oracle.
    """
    blocks, report = _evaluate(game, policy)
    joint, own, bias = _raised(*_own_advantages(game, blocks, report))
    return AdvantageTable(
        joint,
        tuple(own[i, :, :m] for i, m in enumerate(game.n_actions)),
        bias,
        report.values,
        report.stationary,
    )


def exact_gradient(game: StochasticGame, policy: PolicyProfile) -> ExactGradient:
    """Per-player payoff gradient: stationary weight times own advantage,
    the one-profile case of _gradients."""
    blocks, report = _evaluate(game, policy)
    grad = _raised(*_gradients(game, blocks, report))
    return ExactGradient(
        tuple(grad[i, :, :m] for i, m in enumerate(game.n_actions)),
        report.values,
        report.stationary,
    )


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
    P = report.transition_matrix
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
) -> BoundCheck:
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
        return BoundCheck(0.0, 0.0, True)
    i = movers[0]
    # the gradient's values are the base value, with exact_value's bits
    gradient = exact_gradient(game, policy)
    base = gradient.values[i]
    moved = exact_value(game, policy.replace(i, deviation_policy.probs[i])).values[i]
    grad = gradient.blocks[i]
    lhs = float(moved - base)
    rhs = float(mismatch * np.sum(grad * (deviation_policy.probs[i] - policy.probs[i])))
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-8)


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


def _frozen_mdps(game, blocks, players):
    """Single-agent average-reward MDPs faced by `players`, others frozen.

    blocks[i] is player i's (..., S, m_i) policy block; leading axes index
    a stack of profiles and lead the results. P[..., k, s, a] is the
    next-state law and R[..., k, s, a] the expected reward of players[k]
    taking action a in state s. The action axis is padded to the largest
    action count: a padded action has a zero transition row and reward
    -inf, so no policy step ever picks it.
    """
    S = game.n_states
    w = opponent_weights(game, blocks)[..., players, :, :]    # (..., k, S, J)
    onehot = game._own_actions[players]                       # (k, J, m)
    # next-state law and reward side by side: one contraction gives both
    transitions = np.broadcast_to(game.transitions, (len(players),) + game.transitions.shape)
    law = np.concatenate([transitions, game.rewards[players, ..., None]], axis=-1)
    PR = onehot.transpose(0, 2, 1)[:, None] @ (w[..., None] * law)   # (..., k, S, m, S + 1)
    missing = np.arange(onehot.shape[2]) >= np.asarray(game.n_actions)[players, None]
    return PR[..., :S], np.where(missing[:, None, :], -np.inf, PR[..., S])


def _poisson(P, p, r):
    """Zero-mean biases (k, S) of a (k, S, S) stack of ergodic chains, in
    one stacked call, and _slicewise's failures {row: error}: row i solves
    (I - P[i] + 1 p[i]) h = r[i], r[i] the stage rewards minus the gain."""
    A = np.eye(P.shape[-1]) - P + p[:, None, :]
    h, failures = _slicewise(np.linalg.solve, "singular Poisson system", A, r[..., None])
    return h[..., 0], failures


def _evaluate_deterministic(P, R, actions, players):
    """Gains (k,), zero-mean biases (k, S) and failures {row: error naming
    the candidate and its player} of one deterministic policy per MDP of the
    stack: one stationary solve, then one Poisson solve, for all."""
    k, S = actions.shape
    stack, rows = np.arange(k)[:, None], np.arange(S)
    P_pi = P[stack, rows, actions]                        # (k, S, S)
    R_pi = R[stack, rows, actions]                        # (k, S)
    p, failed = _stationary(P_pi)
    gain = np.vecdot(p, R_pi)
    h, singular = _poisson(P_pi, p, R_pi - gain[:, None])
    return gain, h, {  # a failed chain's NaN Poisson row fails no solve
        i: _at_slice(
            f"best-response candidate {tuple(actions[i].tolist())} of player "
            f"{players[i]}: {exc}", i
        ) for i, exc in (failed | singular).items()
    }


def _policy_iteration(P, R, players):
    """Howard policy iteration on a stack of MDPs, one row per player.

    Every row starts from its greedy stage-reward policy; each sweep
    evaluates all rows with stacked solves and moves a state to a better
    action only when it wins by more than 1e-12, so the incumbent keeps
    ties and the iteration terminates. Rows that have settled keep their
    actions, and with them their gains, bit for bit. Returns the optimal
    gains (k,), actions (k, S) and failures {row: the error it raises
    alone}, by sweep, then check, then row: a failing candidate's row is
    retired (its NaN biases never move it), as is one still moving after
    _MAX_SWEEPS sweeps.
    """
    stack, rows = np.arange(len(players))[:, None], np.arange(R.shape[1])
    actions = R.argmax(axis=2)
    gain, h, failures = _evaluate_deterministic(P, R, actions, players)
    moved = np.ones(len(players), dtype=bool)
    for _ in range(_MAX_SWEEPS):
        q = R + (P @ h[:, None, :, None])[..., 0]          # (k, S, m)
        best = q.argmax(axis=2)
        incumbent = q[stack, rows, actions]
        nxt = np.where(q.max(axis=2) > incumbent + 1e-12, best, actions)
        moved = (nxt != actions).any(axis=1)
        if not moved.any():
            return gain, actions, failures
        actions = nxt
        gain, h, failed = _evaluate_deterministic(P, R, actions, players)
        failures |= {k: exc for k, exc in failed.items() if k not in failures}
    for k in np.flatnonzero(moved):  # none in an empty stack
        failures.setdefault(int(k), _at_slice(
            f"policy iteration for player {players[k]} did not settle in {_MAX_SWEEPS} sweeps", k
        ))
    return gain, actions, failures


def best_response(
    game: StochasticGame,
    policy: PolicyProfile,
    player: int,
    method: str = "policy-iteration",
):
    """Optimal average reward of one player against a frozen profile.

    policy-iteration is this player's row of the stacked iteration that
    nash_gap runs for every player (_best_responses); enumerate scores
    every deterministic policy (use only when n_actions ** n_states is
    small). Returns (value,
    actions, flags).
    """
    player = _count("player", player, 0, game.n_players - 1)
    P, R = _frozen_mdps(game, policy.probs, [player])
    if method == "policy-iteration":
        gain, actions = _raised(*_policy_iteration(P, R, [player]))
        return float(gain[0]), tuple(actions[0].tolist()), ()
    if method != "enumerate":
        raise DomainError(f"unknown best-response method {method!r}")

    flags: list[str] = []
    best, best_actions = -np.inf, None
    for combo in product(range(game.n_actions[player]), repeat=game.n_states):
        gain, _, failures = _evaluate_deterministic(P, R, np.array([combo]), [player])
        if failures:
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


def _best_responses(game: StochasticGame, blocks):
    """Optimal gains (..., n) and actions (..., n, S) of every player
    against the others frozen, for the profile or stack of profiles blocks
    holds (as _evaluate's blocks): _responses, raising its first failure."""
    return _raised(*_responses(game, blocks))


def _responses(game: StochasticGame, blocks):
    """(gains, actions, failures): one _frozen_mdps and one _policy_iteration
    over all (profile, player) rows, a failing row's gain NaN. failures
    {position in a stack, or player for one profile: error} holds each
    failing profile's first error, which reads as the profile's alone."""
    n, S = game.n_players, game.n_states
    P, R = _frozen_mdps(game, blocks, list(range(n)))
    lead = R.shape[:-3]
    P, R = P.reshape((-1,) + P.shape[-3:]), R.reshape((-1,) + R.shape[-2:])
    gain, actions, failed = _policy_iteration(P, R, list(range(n)) * math.prod(lead))
    failures = {}
    for k, exc in failed.items():  # row k is player k % n of profile k // n
        gain[k], exc.slice_index = np.nan, k // n if lead else k
        failures.setdefault(exc.slice_index, exc)
    return gain.reshape(lead + (n,)), actions.reshape(lead + (n, S)), failures


def nash_gap(game: StochasticGame, policy: PolicyProfile) -> GapReport:
    """Best unilateral improvement available to each player.

    gap_i = max over player i's stationary policies of its value against the
    frozen opponents, minus her current value; the inner maximum is exact
    because a deterministic policy attains it. The one-profile case of
    _evaluate and _best_responses, whose one stacked policy iteration
    finds every player's best response.
    """
    blocks, report = _evaluate(game, policy)
    best_vals, actions = _best_responses(game, blocks)
    return GapReport(
        best_vals - report.values,
        report.values,
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
    n_pairs, rng = _count("n_pairs", n_pairs, 1, sys.maxsize), _generator(rng)
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
        with np.errstate(over="ignore", invalid="ignore"):  # huge rewards: an inf ratio
            gdiff = max(float(np.abs(x - y).max()) for x, y in zip(ga, gb))
        ratio = gdiff / diff
        best = ratio if best is None else max(best, ratio)
    if best is None:
        raise DomainError("degenerate pair: all sampled pairs are identical")
    return best
