from bisect import bisect_right

import numpy as np
import pytest


class PrefixedStream(np.random.Generator):
    """A numpy Generator whose stream of standard normals starts with extra
    values. It shares rng's bit generator, so every other draw reads rng's
    stream unchanged, and np.random.default_rng passes it through."""

    def __init__(self, rng, prefix):
        super().__init__(rng.bit_generator)
        self.rng = rng
        self._prefix = list(prefix)

    def standard_normal(self, size=None, out=None):
        n = out.size if out is not None else int(np.prod(size))
        head, self._prefix = self._prefix[:n], self._prefix[n:]
        values = np.concatenate([head, self.rng.standard_normal(n - len(head))])
        if out is None:
            return values.reshape(size)
        out[...] = values
        return out


@pytest.fixture
def prefixed_stream():
    return PrefixedStream


def _reference_rollout(game, policy, start_state, horizon, rng):
    """games.rollout as a stage-by-stage loop that bisects each player's
    action CDF and then the next-state CDF, one row of uniforms per stage."""
    n = game.n_players
    pol_cdf = [[np.cumsum(row).tolist() for row in block] for block in policy.probs]
    trans_cdf = [[np.cumsum(row).tolist() for row in rows] for rows in game.transitions]
    strides = np.cumprod((game.n_actions + (1,))[::-1])[::-1][1:]
    u = rng.random((horizon, n + 1))
    states = np.empty(horizon, dtype=int)
    actions = np.empty((horizon, n), dtype=int)
    rewards = np.empty((horizon, n))
    s = start_state
    for t in range(horizon):
        joint = 0
        row = u[t]
        for i in range(n):
            a = min(bisect_right(pol_cdf[i][s], row[i]), game.n_actions[i] - 1)
            actions[t, i] = a
            joint += a * strides[i]
        states[t] = s
        rewards[t] = game.rewards[:, s, joint]
        s = min(bisect_right(trans_cdf[s][joint], row[n]), game.n_states - 1)
    return states, actions, rewards


@pytest.fixture
def reference_rollout():
    return _reference_rollout


def _reference_frozen_mdp(game, policy, player):
    """The single-agent MDP one player faces, as a loop over states and
    joint actions with the opponent weights of each state built in player
    order. Returns P (S, m, S) and R (S, m)."""
    S, m = game.n_states, game.n_actions[player]
    table = game.action_table
    P = np.zeros((S, m, S))
    R = np.zeros((S, m))
    for s in range(S):
        w = np.ones(game.n_joint)
        for k, block in enumerate(policy.probs):
            if k != player:
                w *= block[s, table[:, k]]
        for j in range(game.n_joint):
            a = table[j, player]
            P[s, a] += w[j] * game.transitions[s, j]
            R[s, a] += w[j] * game.rewards[player, s, j]
    return P, R


def _reference_project_simplex(y):
    """mirror.project_simplex as written with the np.cumsum, np.argmax and
    np.clip wrappers."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    m = y.shape[1]
    sorted_desc = -np.sort(-y, axis=1)
    cumsum = np.cumsum(sorted_desc, axis=1)
    counts = np.arange(1, m + 1)
    theta = (cumsum - 1.0) / counts
    ok = sorted_desc - theta > 0
    k = ok.shape[1] - 1 - np.argmax(ok[:, ::-1], axis=1)   # last True per row
    row_theta = theta[np.arange(y.shape[0]), k]
    return np.clip(y - row_theta[:, None], 0.0, None)


@pytest.fixture
def reference_project_simplex():
    return _reference_project_simplex


def _reference_own_advantages(game, policy, joint):
    """Own-action advantages: joint advantages marginalised over opponents
    one (player, state) at a time with bincount."""
    table = game.action_table
    own = []
    for i, m in enumerate(game.n_actions):
        block = np.zeros((game.n_states, m))
        for s in range(game.n_states):
            w = np.ones(game.n_joint)
            for k, other in enumerate(policy.probs):
                if k != i:
                    w *= other[s, table[:, k]]
            block[s] = np.bincount(table[:, i], weights=w * joint[i, s], minlength=m)
        own.append(block)
    return own


def _reference_best_response(game, policy, player, max_iters=1000):
    """Howard policy iteration for one player, one candidate at a time, each
    evaluated with its own 2-d stationary and Poisson solves. Returns
    (value, actions)."""
    from sgl.games import stationary_distribution

    P, R = _reference_frozen_mdp(game, policy, player)
    S = R.shape[0]
    rows = np.arange(S)

    def evaluate(actions):
        P_pi, R_pi = P[rows, actions], R[rows, actions]
        p = stationary_distribution(P_pi)
        gain = float(p @ R_pi)
        A = np.eye(S) - P_pi + np.outer(np.ones(S), p)
        return gain, np.linalg.solve(A, R_pi - gain)

    actions = np.asarray([int(np.argmax(R[s])) for s in range(S)])
    gain, h = evaluate(actions)
    for _ in range(max_iters):
        q = R + P @ h
        nxt = actions.copy()
        for s in range(S):
            best_a = int(np.argmax(q[s]))
            if q[s, best_a] > q[s, actions[s]] + 1e-12:
                nxt[s] = best_a
        if np.array_equal(nxt, actions):
            return gain, tuple(int(a) for a in actions)
        actions = nxt
        gain, h = evaluate(actions)
    raise RuntimeError("reference policy iteration did not settle")


def _reference_value(game, policy):
    """exact_value's formula on a path of its own, apart from the stacked
    value core: the chain of the profile's joint weights, its stationary
    law, the stage rewards and the values. Returns a ValueReport."""
    from sgl.analysis import ValueReport
    from sgl.games import joint_weight_matrix, stationary_distribution

    w = joint_weight_matrix(policy.probs)
    P = np.einsum("sj,sjt->st", w, game.transitions)
    p = stationary_distribution(P)
    R = np.einsum("isj,sj->is", game.rewards, w)
    return ValueReport(R @ p, R, p, P)


@pytest.fixture
def reference_value():
    return _reference_value


def _reference_nash_gap(game, policy):
    """nash_gap as a loop over players, each with its own policy iteration.
    Returns (gaps, best_values, best_actions)."""
    from sgl.analysis import exact_value

    values = exact_value(game, policy).values
    best = [_reference_best_response(game, policy, i) for i in range(game.n_players)]
    best_values = np.array([v for v, _ in best])
    return best_values - values, best_values, tuple(a for _, a in best)


@pytest.fixture
def reference_frozen_mdp():
    return _reference_frozen_mdp


@pytest.fixture
def reference_own_advantages():
    return _reference_own_advantages


@pytest.fixture
def reference_nash_gap():
    return _reference_nash_gap


def _stay_switch_game():
    """Two states, two players with two actions: player 0's first action
    keeps the state and its second flips it, so its pure responses give
    reducible or periodic chains and the sampled certificate fails; the
    rewards are matching pennies' with the roles swapping between the
    states."""
    from sgl.games import StochasticGame

    rewards = np.zeros((2, 2, 4))
    rewards[0] = [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]
    rewards[1] = 1.0 - rewards[0]
    transitions = np.zeros((2, 4, 2))
    for s in range(2):
        transitions[s, :2, s] = 1.0
        transitions[s, 2:, 1 - s] = 1.0
    return StochasticGame(2, (2, 2), rewards, transitions)


@pytest.fixture
def stay_switch_game():
    return _stay_switch_game
