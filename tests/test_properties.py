"""Property tests: on small random games every public entry point returns
finite numbers or raises one of the package's own errors, and the learner
and the smoothed gradient do so over the whole finite reward range. An
ergodicity error about one slice of a stack reads as that slice's own
error alone, with its position only in slice_index.

The games cover 1-3 states, single-action players, transition rows with
zero entries (so chains may be reducible or periodic) and rewards up to
1e6, or up to 1e300 for the learner and the smoothed gradient; profiles
are uniform, random or pure (on the faces of the simplex).
"""

import dataclasses
import warnings
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgl import errors, learner
from sgl.analysis import (
    _best_responses,
    best_response,
    exact_gradient,
    exact_value,
    exact_values,
    finite_difference_gradient,
    nash_gap,
)
from sgl.games import (
    PolicyProfile,
    StochasticGame,
    deterministic_profile,
    random_profile,
    rollout,
    stationary_distribution,
    uniform_profile,
)
from sgl.learner import _exact_parts, default_schedule, horizon_bias_check, run
from sgl.mirror import make_regularizer
from sgl.spsa import bias_probe, nets_for, smoothed_gradient_estimate

PACKAGE_ERRORS = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)


def _finite(*items) -> bool:
    """Every number in items, arrays, sequences and dataclasses included, is
    finite; None and strings are skipped."""
    for item in items:
        if item is None or isinstance(item, (str, bool, int)):
            continue
        if dataclasses.is_dataclass(item):
            if not _finite(*(getattr(item, f.name) for f in dataclasses.fields(item))):
                return False
        elif isinstance(item, (list, tuple)):
            if not _finite(*item):
                return False
        elif not np.isfinite(np.asarray(item, dtype=float)).all():
            return False
    return True


@st.composite
def games(draw, scales=(0.0, 1.0, 1e6)):
    n_states = draw(st.integers(1, 3))
    n_actions = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(scales))
    n_joint = int(np.prod(n_actions))
    # integer weights 0..3 give zero-floor rows; one entry is always positive
    weights = rng.integers(0, 4, size=(n_states, n_joint, n_states)).astype(float)
    weights[..., 0] += weights.sum(axis=-1) == 0
    transitions = weights / weights.sum(axis=-1, keepdims=True)
    rewards = rng.uniform(-scale, scale, size=(len(n_actions), n_states, n_joint))
    return StochasticGame(n_states, n_actions, rewards, transitions), rng


def _profile(game, rng, kind):
    if kind == "uniform":
        return uniform_profile(game)
    if kind == "random":
        return random_profile(game, rng)
    actions = [rng.integers(0, m, size=game.n_states) for m in game.n_actions]
    return deterministic_profile(game, actions)


def _check(fn, *finite_parts):
    """Call fn; its result, through finite_parts, must be finite, unless it
    raises a package error."""
    try:
        out = fn()
    except PACKAGE_ERRORS:
        return
    assert _finite(*(part(out) for part in finite_parts))


@settings(max_examples=300, deadline=None)
@given(
    drawn=games(),
    kind=st.sampled_from(["uniform", "random", "pure"]),
    mirror=st.sampled_from(["entropy", "euclidean"]),
    horizon=st.integers(0, 5),
    n_draws=st.integers(1, 40),
)
def test_entry_points_are_finite_or_raise_package_errors(drawn, kind, mirror, horizon, n_draws):
    game, rng = drawn
    policy = _profile(game, rng, kind)
    other = _profile(game, rng, "random")
    stacks = [np.stack([a, b]) for a, b in zip(policy.probs, other.probs)]
    radius = min(net.radius for net in nets_for(game))
    seed = int(rng.integers(2**31))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # skipped checkpoint oracles warn
        _check(
            lambda: exact_value(game, policy),
            lambda r: (r.values, r.stage_rewards, r.stationary),
        )
        _check(lambda: exact_values(game, stacks), lambda v: v)
        _check(lambda: nash_gap(game, policy), lambda r: (r.gaps, r.values, r.best_values))
        _check(lambda: exact_gradient(game, policy), lambda g: g)
        _check(lambda: finite_difference_gradient(game, policy), lambda g: g)
        _check(
            lambda: smoothed_gradient_estimate(
                game, policy, 0.5 * radius, n_draws, np.random.default_rng(seed)
            ),
            lambda out: out,
        )
        _check(
            lambda: rollout(game, policy, 0, horizon + 1, np.random.default_rng(seed)),
            lambda out: out,
        )
        _check(lambda: horizon_bias_check(game, policy, horizon, n_draws, rng=seed), lambda r: r)
        _check(
            lambda: run(
                game, default_schedule(game), make_regularizer(mirror), 6, seed,
                oracle_mode=True, reference=uniform_profile(game), log_every=3,
                decomposition_draws=8,
            ),
            lambda log: (log.diagnostics, log.final_state.scores, log.final_state.policy),
        )


@settings(max_examples=200, deadline=None)
@given(
    drawn=games(scales=(0.0, 1.0, 1e6, 1e100, 1e200, 1e300)),
    mirror=st.sampled_from(["entropy", "euclidean"]),
    with_reference=st.booleans(),
)
def test_learner_is_finite_or_refused_before_its_first_window(drawn, mirror, with_reference):
    # rewards whose one-point estimates or scores could overflow are refused
    # before any window is played; every other run is finite, with no numpy
    # overflow or invalid operation on the way; tau is given because a game
    # whose mixing certificate fails has no default window
    game, rng = drawn
    seed = int(rng.integers(2**31))
    windows, window_ends = [], learner._window_ends

    def counted(*args):
        windows.append(args)
        return window_ends(*args)

    with warnings.catch_warnings(), mock.patch.object(learner, "_window_ends", counted):
        warnings.simplefilter("ignore")  # skipped checkpoint oracles warn
        warnings.simplefilter("error", RuntimeWarning)
        try:
            log = run(
                game, default_schedule(game, tau=1.0), make_regularizer(mirror), 6, seed,
                reference=uniform_profile(game) if with_reference else None, log_every=3,
            )
        except errors.DomainError:
            assert not windows
            return
    assert len(windows) == 6
    assert _finite(log.diagnostics, log.final_state.scores, log.final_state.policy)


@settings(max_examples=200, deadline=None)
@given(
    drawn=games(scales=(0.0, 1.0, 1e6, 1e100, 1e200, 1e300)),
    kind=st.sampled_from(["uniform", "random", "pure"]),
    n_draws=st.integers(1, 8),
)
def test_smoothed_gradient_is_finite_or_refused_before_its_first_draw(drawn, kind, n_draws):
    # rewards whose one-point samples could overflow are refused before the
    # generator is read; every other call is finite, with no numpy overflow
    # or invalid operation on the way
    game, rng = drawn
    policy = _profile(game, rng, kind)
    delta = 0.5 * min(net.radius for net in nets_for(game))
    gen = np.random.default_rng(int(rng.integers(2**31)))
    for fn in (smoothed_gradient_estimate, bias_probe):
        state = gen.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                out = fn(game, policy, delta, n_draws, gen)
            except errors.DomainError:
                assert gen.bit_generator.state == state
                continue
            except PACKAGE_ERRORS:
                continue
        assert _finite(out)


def _ergodic_chain(rng, n):
    """A positive chain, or a lazy n-cycle, which has no positive column for
    n >= 3 and so goes through the eigenvalue count."""
    if rng.random() < 0.5:
        P = rng.random((n, n)) + 0.05
        return P / P.sum(axis=1, keepdims=True)
    a = rng.uniform(0.1, 0.9)
    return a * np.eye(n) + (1 - a) * np.roll(np.eye(n), 1, axis=1)


def _failing_chain(rng, n, kind):
    if kind == "identity":
        return np.eye(n)
    if kind == "periodic":
        return np.roll(np.eye(n), 1, axis=1)
    # reducible: two closed classes, each a positive chain
    cut = int(rng.integers(1, n))
    P = np.zeros((n, n))
    for lo, hi in ((0, cut), (cut, n)):
        block = rng.random((hi - lo, hi - lo)) + 0.05
        P[lo:hi, lo:hi] = block / block.sum(axis=1, keepdims=True)
    return P


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 4),
    size=st.integers(1, 8),
    position=st.integers(0, 7),
    kind=st.sampled_from(["periodic", "reducible", "identity"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_stacked_chain_error_reads_as_its_slice_alone(n, size, position, kind, seed):
    rng = np.random.default_rng(seed)
    k = position % size
    stack = np.array([_ergodic_chain(rng, n) for _ in range(size)])
    stack[k] = _failing_chain(rng, n, kind)
    with pytest.raises(errors.ErgodicityError) as alone:
        stationary_distribution(stack[k])
    with pytest.raises(errors.ErgodicityError) as stacked:
        stationary_distribution(stack)
    assert str(stacked.value) == str(alone.value)
    assert "unit-circle eigenvalue count" in str(alone.value)
    assert stacked.value.slice_index == k


def _stay_switch(controller):
    """Two states and two players with two actions: the controller's first
    action keeps the state and its second flips it, and the rewards are
    matching pennies' with the roles swapping between the states."""
    rewards = np.zeros((2, 2, 4))
    transitions = np.zeros((2, 4, 2))
    for j, actions in enumerate(product(range(2), repeat=2)):
        own, other = actions[controller], actions[1 - controller]
        for s in range(2):
            transitions[s, j, s if own == 0 else 1 - s] = 1.0
            rewards[controller, s, j] = float((own == other) == (s == 0))
    rewards[1 - controller] = 1.0 - rewards[controller]
    return StochasticGame(2, (2, 2), rewards, transitions)


@settings(max_examples=100, deadline=None)
@given(
    controller=st.integers(0, 1),
    size=st.integers(1, 6),
    position=st.integers(0, 5),
    flips=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_failing_candidate_reads_the_same_from_every_entry(
    controller, size, position, flips, seed
):
    # the controller's mixes are interior, so the other player's responses
    # are ergodic; at profile k the other player's mixes make the
    # controller's greedy candidate keep both states or flip both, so the
    # stack fails at profile k or before it
    rng = np.random.default_rng(seed)
    k = position % size
    game = _stay_switch(controller)
    mix = rng.uniform(0.05, 0.95, size=(2, size, 2))  # (player, profile, state)
    mix[1 - controller, k] = rng.uniform(0.05, 0.45, size=2) + [0.5 * (not flips), 0.5 * flips]
    blocks = [np.stack([m, 1.0 - m], axis=-1) for m in mix]
    with pytest.raises(errors.ErgodicityError) as stacked:
        _best_responses(game, blocks)
    j = stacked.value.slice_index
    assert j <= k
    text = str(stacked.value)
    assert text.startswith("best-response candidate ") and f" of player {controller}: " in text
    profile = PolicyProfile(tuple(b[j] for b in blocks))
    for alone in (lambda: nash_gap(game, profile), lambda: best_response(game, profile, controller)):
        with pytest.raises(errors.ErgodicityError) as info:
            alone()
        assert str(info.value) == text
    assert str(_exact_parts(game, None, None, blocks)[3][j, "gap"]) == text
