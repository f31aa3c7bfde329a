from bisect import bisect_right

import numpy as np
import pytest


class PrefixedStream:
    """A numpy Generator whose stream of standard normals starts with extra
    values; every other draw is delegated unchanged."""

    def __init__(self, rng, prefix):
        self.rng = rng
        self._prefix = list(prefix)

    def __getattr__(self, name):
        return getattr(self.rng, name)

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
