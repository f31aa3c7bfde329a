"""One-point payoff-based gradient estimation in reduced policy coordinates.

A policy block with m actions per state is represented by its first m - 1
action probabilities per state (the last one is implied), which makes the
feasible set full-dimensional so sphere perturbations stay meaningful. A
safety net recenters perturbations toward the uniform policy so every
queried point is feasible, and the block lifting matrix carries reduced
vectors back to simplex-tangent policy-shaped tensors.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import _batch_values, exact_gradient, exact_value
from .errors import DomainError, ScheduleError
from .games import (
    MAX_WINDOW_BYTES, PolicyProfile, StochasticGame, _count, _generator, _stack_prefix
)

REDUCED_TOL = 1e-12
# sphere draws smoothed_gradient_estimate evaluates at once, as one
# batch-last (states, actions, draws) stack per player and one stacked
# stationary solve
ORACLE_BLOCK = 256
# a sphere draw is one row of normals, every active player's segment side by
# side; a row with a segment of norm at most this is drawn again whole
SPHERE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# reduced coordinates


def lift_block(x: np.ndarray) -> np.ndarray:
    """Rebuild the full block; the last action gets 1 minus the row sum.

    x is one (states x (m-1)) block or an (n, states, m-1) stack of draws;
    errors in a stack name the draw.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if (x < -REDUCED_TOL).any():
        *k, s, a = np.argwhere(x < -REDUCED_TOL)[0]
        raise DomainError(
            f"reduced entry ({_stack_prefix(k, 'draw')}state={s}, action={a}) is negative"
        )
    block = _complete(x)
    if (block[..., -1] < -REDUCED_TOL).any():
        *k, s = np.argwhere(block[..., -1] < -REDUCED_TOL)[0]
        raise DomainError(
            f"reduced row ({_stack_prefix(k, 'draw')}state={s}) sums to more than 1"
        )
    return np.clip(block, 0.0, None, out=block)


def _complete(x: np.ndarray) -> np.ndarray:
    """Unchecked, unclipped full blocks of reduced points x (..., m-1): the
    last action gets 1 minus the row sum, added a column at a time (numpy's
    order below 8 terms) so its bits do not depend on x's memory order, which
    the result keeps and np.concatenate would lose where x has one column."""
    block = np.empty_like(x, shape=x.shape[:-1] + (x.shape[-1] + 1,))
    block[..., :-1] = x
    total = 0.0
    for j in range(x.shape[-1]):
        total = total + x[..., j]
    block[..., -1] = 1.0 - total
    return block


def reduce_policy(policy: PolicyProfile) -> list[np.ndarray]:
    """Every player's block without its last action column, as a copy."""
    return [np.array(b[:, :-1]) for b in policy.probs]


def lift_policy(blocks) -> PolicyProfile:
    return PolicyProfile(tuple(lift_block(x) for x in blocks))


def reduced_dim(n_states: int, n_actions: int) -> int:
    return n_states * (n_actions - 1)


def reduced_from_full(grad_block: np.ndarray) -> np.ndarray:
    """Chain rule from policy coordinates: entry a becomes entry a minus the
    last action's entry within the same state."""
    g = np.asarray(grad_block, dtype=float)
    return g[:, :-1] - g[:, -1:]


# ---------------------------------------------------------------------------
# lifting matrices


@dataclass(frozen=True)
class Lifting:
    """Block-diagonal map from reduced vectors to simplex-tangent tensors.

    Each per-state block is the (m x (m-1)) matrix with the identity on top
    and a row of -1, so lifted tensors have zero action-sum in every state.
    """

    n_states: int
    n_actions: int
    op_norm: float


def _tangent(x: np.ndarray) -> np.ndarray:
    """Lift reduced vectors x (..., m-1) to simplex-tangent (..., m) tensors:
    the last action coordinate is minus the sum of the others."""
    return np.concatenate((x, -np.add.reduce(x, axis=-1, keepdims=True)), axis=-1)


@functools.cache
def lifting_for(n_states: int, n_actions: int) -> Lifting:
    """The lifting of one player's reduced coordinates, with the spectral
    norm of its per-state block; each is built once and shared."""
    k = _count("n_actions", n_actions, 1, None) - 1
    block = np.vstack([np.eye(k), -np.ones((1, k))])
    return Lifting(n_states, n_actions, float(np.linalg.norm(block, 2)) if k else 0.0)


# ---------------------------------------------------------------------------
# safety net


@dataclass(frozen=True)
class SafetyNet:
    """Interior center and a radius whose ball stays inside the reduced set."""

    center: np.ndarray
    radius: float


def nets_for(game: StochasticGame) -> list[SafetyNet]:
    return [safety_net_for(game.n_states, m) for m in game.n_actions]


def active_players(game: StochasticGame) -> list[int]:
    """Players with at least two actions; single-action players are never
    perturbed."""
    return [i for i, m in enumerate(game.n_actions) if m >= 2]


@functools.cache
def safety_net_for(n_states: int, n_actions: int) -> SafetyNet:
    """Uniform-policy center with the exact inscribed Euclidean radius.

    Per state the binding facets sit at distance 1/m (coordinate floors) and
    (1/m)/sqrt(m-1) (the row-sum cap); the product over states keeps the
    same minimum. Single-action players get an empty net and are skipped by
    perturbation. Each net is built once and shared, its center read-only.
    """
    k = _count("n_actions", n_actions, 1, None) - 1
    center = np.full((n_states, k), 1.0 / n_actions)
    center.flags.writeable = False
    if k == 0:
        return SafetyNet(center, np.inf)
    radius = min(1.0 / n_actions, (1.0 / n_actions) / np.sqrt(k))
    return SafetyNet(center, float(radius))


def sample_sphere(d: int, rng) -> np.ndarray:
    """Uniform draw from the unit sphere in d dimensions, at most as many as
    fit MAX_WINDOW_BYTES as floats; rng: a seed or a Generator."""
    d, rng = _count("d", d, 1, MAX_WINDOW_BYTES // 8), _generator(rng)
    while True:
        z = rng.standard_normal(d)
        norm = _sphere_norms(z)
        if norm > SPHERE_FLOOR:
            return z / norm


def _sphere_norms(z: np.ndarray) -> np.ndarray:
    """Norms over the last axis, the one sphere norm: a dot product, not a
    sum of squares, so a vector's has np.linalg.norm's bits."""
    return np.sqrt(np.vecdot(z, z))


def perturb(x: np.ndarray, z: np.ndarray, delta: float, net: SafetyNet) -> np.ndarray:
    """Feasibility-adjusted query point x + delta * (z - (x - center)/radius).

    Equals the convex combination (1 - delta/radius) x + (delta/radius)
    (center + radius z), hence stays feasible whenever delta < radius. z is
    one flat direction, or an (n, d) stack of them giving (n,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    norms = _sphere_norms(z)
    unit = np.abs(norms - 1.0) <= 1e-12
    if not unit.all():  # NaN fails too
        k = np.flatnonzero(~unit)[0]
        where = f" (draw {k})" if z.ndim > 1 else ""
        raise DomainError(
            f"perturbation direction{where} has norm {norms.flat[k]!r}, expected 1"
        )
    if not delta > 0.0:  # NaN fails too
        raise DomainError("delta must be positive")
    if delta >= net.radius:
        raise ScheduleError(
            f"query radius {delta} exceeds safety radius {net.radius}"
        )
    return _perturb(x, z.reshape(z.shape[:-1] + x.shape), delta, net)


def _perturb(x: np.ndarray, z: np.ndarray, delta: float, net: SafetyNet) -> np.ndarray:
    """Unchecked perturb for directions already shaped like (a stack of) x."""
    lam = delta / net.radius
    return (1.0 - lam) * x + lam * (net.center + net.radius * z)


# ---------------------------------------------------------------------------
# the estimator


@dataclass(frozen=True)
class GradientEstimate:
    """One-point gradient estimate in reduced and lifted coordinates.

    reduced is (states x (m-1)); lifted is the simplex-tangent (states x m)
    image whose last action coordinate is minus the sum of the others.
    """

    reduced: np.ndarray
    lifted: np.ndarray


def estimate_gradient(
    payoff: float, z: np.ndarray, delta: float, lifting: Lifting
) -> GradientEstimate:
    """Scale the sphere direction by dim/delta times the observed payoff."""
    if not delta > 0.0:  # NaN fails too
        raise DomainError("delta must be positive")
    d = reduced_dim(lifting.n_states, lifting.n_actions)
    z = np.asarray(z, float).reshape(lifting.n_states, lifting.n_actions - 1)
    reduced = _one_point(float(payoff), z, delta, d)
    return GradientEstimate(reduced, _tangent(reduced))


def _one_point(payoff, z: np.ndarray, delta: float, d: int) -> np.ndarray:
    """Unchecked reduced estimate (d / delta) * payoff * z; payoff is a
    scalar or an array that broadcasts against a stack of directions z."""
    return (d / delta) * np.asarray(payoff, dtype=float) * z


# ---------------------------------------------------------------------------
# smoothed-payoff diagnostics (oracle access to exact values)


@dataclass(frozen=True)
class BiasProbe:
    """Monte Carlo estimate of the smoothing bias of the estimator."""

    value: float
    stderr: float


def smoothed_gradient_estimate(
    game: StochasticGame,
    policy: PolicyProfile,
    delta: float,
    n_draws: int,
    rng,
):
    """Monte Carlo mean of the oracle-payoff estimator, in reduced coordinates.

    All players are perturbed jointly through their safety nets and the
    exact value at the queried profile plays the role of the observed
    payoff. The current value, exact_value(game, policy).values, is
    subtracted as a control variate, which leaves the mean unchanged and
    shrinks the variance. rng is a seed or a Generator. Each draw is one row
    of normals, redrawn whole under SPHERE_FLOOR's rule, so rng is read as
    by a row-by-row loop.
    Queries are evaluated ORACLE_BLOCK draws at a time: the block's
    directions are transposed once, and the perturbation, lift_block, the
    one-point samples and their sums run on (draws, states, m) views whose
    draw axis is innermost in memory, as exact_values' core reads them.
    The means equal those of a per-draw exact_value loop to roundoff.
    Returns (means, stderrs) as per-player (states x (m-1)) arrays.
    """
    _check_smoothing(game, delta, n_draws)
    return _smoothed_gradient(
        game, reduce_policy(policy), exact_value(game, policy).values, delta, n_draws, rng
    )


def _check_smoothing(game: StochasticGame, delta: float, n_draws: int) -> None:
    """The smoothed gradient's argument checks: a positive integer draw
    count that a float holds, a positive query radius inside every active
    player's safety radius, and n_draws E_i E_i finite (E_i bounds a
    sample's entries)."""
    _count("n_draws", n_draws, 1, sys.float_info.max)
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    nets = nets_for(game)
    active = active_players(game)
    if not active:
        raise DomainError("no player has at least 2 actions")
    for i in active:
        if delta >= nets[i].radius:
            raise ScheduleError(
                f"query radius {delta} exceeds safety radius {nets[i].radius}"
            )
        E = 2.0 * (reduced_dim(game.n_states, game.n_actions[i]) / delta) * game.max_abs_reward(i)
        if not np.isfinite(n_draws * E * E):
            raise DomainError(
                f"rewards up to {game.max_abs_reward(i)} at query radius {delta} over "
                f"{n_draws} draws can overflow the smoothed gradient's samples"
            )


def _sphere_draws(game, n_draws, rng):
    """The sphere rows of n_draws smoothed-gradient draws from rng, a
    Generator, as (raw, norms) per block of at most ORACLE_BLOCK rows: raw
    holds one row of normals per draw, every active player's reduced
    segment side by side, and norms[j] the segment norms of active player j.
    A row with a segment of norm at most SPHERE_FLOOR is dropped, the rows
    after it move up and a new last row is drawn, as in a row-by-row loop.
    Reading every block advances rng exactly as _smoothed_gradient does."""
    dims = [reduced_dim(game.n_states, game.n_actions[i]) for i in active_players(game)]
    starts = np.cumsum([0, *dims]).tolist()
    for start in range(0, n_draws, ORACLE_BLOCK):
        raw = rng.standard_normal((min(ORACLE_BLOCK, n_draws - start), starts[-1]))
        segments = [raw[:, a:b] for a, b in zip(starts, starts[1:])]
        norms = [_sphere_norms(z) for z in segments]
        while np.min(norms) <= SPHERE_FLOOR:  # practically never
            k = np.flatnonzero(np.min(norms, axis=0) <= SPHERE_FLOOR)[0]
            raw[k:-1] = raw[k + 1:]
            rng.standard_normal(out=raw[-1])
            norms = [_sphere_norms(z) for z in segments]
        yield raw, norms


def _smoothed_gradient(game, base, base_values, delta, n_draws, rng):
    """smoothed_gradient_estimate about the reduced profile base (each
    player's block without its last column), with base_values, the
    profile's exact values, as the control variate; its arguments must
    have passed _check_smoothing. The learner's oracle passes the values
    of its row-layout evaluation, which have exact_value's bits. The draws
    come from _sphere_draws, then each block is evaluated."""
    nets = nets_for(game)
    active = active_players(game)
    dims = [reduced_dim(game.n_states, game.n_actions[i]) for i in active]
    starts = np.cumsum([0, *dims]).tolist()

    sums = {i: np.zeros_like(base[i]) for i in active}
    sq_sums = {i: np.zeros_like(base[i]) for i in active}
    for raw, norms in _sphere_draws(game, n_draws, _generator(rng)):
        n = len(raw)
        # (n, S, m) views of one transposed block: the draw axis is innermost
        columns = raw.T.copy()
        zs = {
            i: (columns[a:b] / norms[j]).reshape(base[i].shape + (n,)).transpose(2, 0, 1)
            for j, (i, a, b) in enumerate(zip(active, starts, starts[1:]))
        }
        # a single-action player's block is repeated, not broadcast, so its
        # draw axis is innermost too and the joint weights keep that layout
        queried = [
            lift_block(_perturb(base[i], zs[i], delta, nets[i]))
            if i in active
            else np.repeat(lift_block(base[i])[..., None], n, axis=-1).transpose(2, 0, 1)
            for i in range(game.n_players)
        ]
        values = _batch_values(game, queried)
        for j, i in enumerate(active):
            payoffs = (values[i] - base_values[i])[:, None, None]
            samples = _one_point(payoffs, zs[i], delta, dims[j])
            sums[i] += samples.sum(axis=0)
            sq_sums[i] += (samples * samples).sum(axis=0)

    means, stderrs = [], []
    for i in range(game.n_players):
        if i not in active:
            means.append(np.zeros((game.n_states, 0)))
            stderrs.append(np.zeros((game.n_states, 0)))
            continue
        mean = sums[i] / n_draws
        var = np.clip(sq_sums[i] / n_draws - mean * mean, 0.0, None)
        means.append(mean)
        stderrs.append(np.sqrt(var / n_draws))
    return means, stderrs


def bias_probe(
    game: StochasticGame,
    policy: PolicyProfile,
    delta: float,
    n_draws: int = 20000,
    rng=None,
) -> BiasProbe:
    """Sup-norm distance between the smoothed and exact reduced gradients.

    The smoothed gradient is estimated by Monte Carlo with oracle payoffs;
    the exact gradient comes from the closed-form analysis. The reported
    stderr is the largest per-coordinate Monte Carlo standard error.
    """
    means, stderrs = smoothed_gradient_estimate(game, policy, delta, n_draws, rng)
    exact = [reduced_from_full(b) for b in exact_gradient(game, policy).blocks]
    finite = [np.abs(m - e).max() for m, e in zip(means, exact) if m.size]
    err = [s.max() for s in stderrs if s.size]
    return BiasProbe(
        value=float(max(finite)) if finite else 0.0,
        stderr=float(max(err)) if err else 0.0,
    )
