"""Finite stochastic games, stationary policies, induced chains, rollouts.

A game couples per-player reward tensors with a controlled Markov chain over
a finite state set. Policies are stationary: one mixed action per (player,
state). Joint actions are flattened row-major with the LAST player's action
varying fastest; every tensor in this package and in the JSON file format
shares that convention, so indices are bit-exact across I/O and oracles.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import sys
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product
from types import MappingProxyType

import numpy as np

from .errors import DimensionError, DomainError, ErgodicityError, GameFormatError

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
_UNIT_EIG_TOL = 1e-9
# pure-profile corners certification_sample enumerates; above it, it draws half as many
_CORNER_CAP = 64
_RANDOM_PROFILES = 8  # random profiles certification_sample adds
# a window of rows * (horizon + 1) stage-rows at least this long is played
# by _window_ends's array kernel, a shorter one by one scalar _walk call
# (the kernel's fixed cost per call is that of about 120 scalar stages)
_KERNEL_STAGE_ROWS = 120
# (rows x states x stages) cells of the largest integer array _window_ends
# builds at once; a longer window is played this many cells at a time
_WINDOW_CHUNK = 1 << 18
# stage maps _window_ends composes first, backward from a window's last
# stage; under the shared uniforms most mixing-window suffixes send every
# state to one state within this many stages, and then the stages before
# cannot change the window's end
_SUFFIX_STAGES = 128
# cells rows * states * (CDF columns of every player and of the transitions)
# of one stage over every state above which _window_ends steps its rows one
# stage at a time instead; the two cost the same near 10**4 cells
_STAGE_MAP_CELLS = 10_000


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class StochasticGame:
    """Finite stochastic game.

    rewards has shape (n_players, n_states, n_joint) and transitions has
    shape (n_states, n_joint, n_states); the joint-action axis uses the
    shared row-major flattening (last player fastest). meta is kept as a
    read-only copy, its mappings read-only and its lists tuples, so the
    game's digest cannot go stale.
    """

    n_states: int
    n_actions: tuple[int, ...]
    rewards: np.ndarray
    transitions: np.ndarray
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.n_states < 1:
            raise GameFormatError("n_states must be a positive integer")
        n_actions = tuple(int(m) for m in self.n_actions)
        if not n_actions or any(m < 1 for m in n_actions):
            raise GameFormatError("every player needs at least one action")
        object.__setattr__(self, "n_actions", n_actions)
        object.__setattr__(self, "meta", _frozen(self.meta))

        rewards = np.asarray(self.rewards, dtype=float)
        transitions = np.asarray(self.transitions, dtype=float)
        n_joint = math.prod(n_actions)
        if rewards.shape != (len(n_actions), self.n_states, n_joint):
            raise GameFormatError(
                f"rewards shape {rewards.shape} != "
                f"{(len(n_actions), self.n_states, n_joint)}"
            )
        if transitions.shape != (self.n_states, n_joint, self.n_states):
            raise GameFormatError(
                f"transitions shape {transitions.shape} != "
                f"{(self.n_states, n_joint, self.n_states)}"
            )

        bad = np.argwhere(~np.isfinite(rewards))
        if bad.size:
            i, s, j = bad[0]
            raise GameFormatError(
                f"reward entry (player={i}, state={s}, joint_action={j}) is not finite"
            )
        bad = np.argwhere(transitions < 0.0)
        if bad.size:
            s, j, s2 = bad[0]
            raise GameFormatError(
                f"transition entry (state={s}, joint_action={j}, next_state={s2}) "
                f"is negative: {transitions[s, j, s2]!r}"
            )
        sums = transitions.sum(axis=2)
        bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            s, j = bad[0]
            raise GameFormatError(
                f"transition row (state={s}, joint_action={j}) sums to {sums[s, j]!r}"
            )

        rewards.flags.writeable = False
        transitions.flags.writeable = False
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "transitions", transitions)
        # joint index -> per-player action ids, row-major, last player fastest
        table = np.array(list(np.ndindex(*n_actions)), dtype=int)
        table.flags.writeable = False
        object.__setattr__(self, "_action_table", table)

    @property
    def n_players(self) -> int:
        return len(self.n_actions)

    @property
    def n_joint(self) -> int:
        return self.transitions.shape[1]

    @property
    def action_table(self) -> np.ndarray:
        """(n_joint, n_players) array mapping joint index to action ids."""
        return self._action_table

    def max_abs_reward(self, player: int) -> float:
        return float(np.abs(self.rewards[player]).max())

    @functools.cached_property
    def mixing_certificate(self) -> "MixingCertificate":
        """The game's default certificate, certify_mixing over
        certification_sample(game, rng=0), computed on first use and kept."""
        return certify_mixing(self, certification_sample(self, rng=0))

    @functools.cached_property
    def _stage_tables(self):
        """What rollout and _window_ends play stages from, built on first use
        and kept: the row-major joint-action strides, the (S, J, S - 1)
        next-state CDF columns but the last as an array, the same columns
        transposed to a contiguous (S - 1, S * J) array, one row per column
        over the flat index s * J + joint action, and as nested lists, and
        the (S, J, n_players) rewards as a view and as nested lists."""
        strides = np.cumprod((self.n_actions + (1,))[::-1])[::-1][1:].tolist()
        cols = np.cumsum(self.transitions, axis=2)[..., :-1]
        flat = np.ascontiguousarray(cols.reshape(self.n_states * self.n_joint, -1).T)
        # shared by every call, like transitions
        cols.flags.writeable = flat.flags.writeable = False
        rewards = self.rewards.transpose(1, 2, 0)
        return strides, cols, flat, cols.tolist(), rewards, rewards.tolist()

    @functools.cached_property
    def _joint_tables(self):
        """What exact_values contracts the joint actions of a batch-last
        stack against, built on first use and kept: the (S, S, J)
        transitions with the next state before the joint action, and the
        (S, n_players, J) rewards."""
        transitions = np.ascontiguousarray(self.transitions.transpose(0, 2, 1))
        rewards = np.ascontiguousarray(self.rewards.transpose(1, 0, 2))
        # shared by every call, like transitions
        transitions.flags.writeable = rewards.flags.writeable = False
        return transitions, rewards

    @functools.cached_property
    def _own_actions(self) -> np.ndarray:
        """(n_players, n_joint, max n_actions) one-hot map from each joint
        action to each player's own action, built on first use and kept
        read-only; the columns of actions a player lacks are 0."""
        n, J = self.n_players, self.n_joint
        onehot = np.zeros((n, J, max(self.n_actions)))
        onehot[np.arange(n)[:, None], np.arange(J), self.action_table.T] = 1.0
        onehot.flags.writeable = False
        return onehot

    @functools.cached_property
    def _digest(self) -> str:
        """game_hash's digest, computed on first use and kept."""
        blob = json.dumps(game_to_dict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _frozen(value):
    """Read-only copy of a JSON-like value: mappings become read-only
    mappings and lists tuples, all the way down."""
    if isinstance(value, (dict, MappingProxyType)):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def _thawed(value):
    """The plain dicts and lists of a _frozen value."""
    if isinstance(value, MappingProxyType):
        return {k: _thawed(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_thawed(v) for v in value]
    return value


def _stack_prefix(index, name: str) -> str:
    """'name=k, ' for an error in slice k of a stack, '' for a single item."""
    return f"{name}={int(index[0])}, " if len(index) else ""


def check_policy_block(block: np.ndarray, player: int) -> np.ndarray:
    """Clipped copy of one player's (..., states, actions) policy block.

    Rejects entries below -ROW_SUM_TOL and rows whose sum is off one by more
    than ROW_SUM_TOL (a NaN row too). A leading axis indexes a stack of
    profiles, and errors then name the profile.
    """
    # one reduction per check over the whole block (a NaN fails it); the
    # offending entry is located only on failure
    sums = np.add.reduce(block, axis=-1)
    if not (
        np.minimum.reduce(block, axis=None, initial=0.0) >= -ROW_SUM_TOL
        and np.maximum.reduce(np.abs(sums - 1.0), axis=None, initial=0.0) <= ROW_SUM_TOL
    ):
        if (block < -ROW_SUM_TOL).any():
            *k, s, a = np.argwhere(block < -ROW_SUM_TOL)[0]
            raise GameFormatError(
                f"policy entry ({_stack_prefix(k, 'profile')}player={player}, "
                f"state={s}, action={a}) is negative"
            )
        *k, s = np.argwhere(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))[0]
        raise GameFormatError(
            f"policy row ({_stack_prefix(k, 'profile')}player={player}, state={s}) "
            f"sums to {sums[(*k, s)]!r}"
        )
    return np.maximum(block, 0.0)


@dataclass(frozen=True)
class PolicyProfile:
    """One probability vector over actions per (player, state)."""

    probs: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = []
        for i, block in enumerate(self.probs):
            arr = np.asarray(block, dtype=float)
            if arr.ndim != 2:
                raise DimensionError(f"player {i} policy must be 2-d (states x actions)")
            arr = check_policy_block(arr, i)
            arr.flags.writeable = False
            blocks.append(arr)
        object.__setattr__(self, "probs", tuple(blocks))

    def replace(self, player: int, block: np.ndarray) -> "PolicyProfile":
        blocks = list(self.probs)
        blocks[player] = np.asarray(block, dtype=float)
        return PolicyProfile(tuple(blocks))


@dataclass(frozen=True)
class MixingCertificate:
    """Sampled contraction certificate over a finite set of policies.

    This is a certificate over the sampled policies only, not a proof over
    the whole policy space. When every raw transition entry is at least
    eps_floor > 0, the chain contracts for all profiles; that sufficient
    condition is reported alongside.
    """

    contraction: float
    tau: float
    ok: bool
    failing_index: int | None
    eps_floor: float


# ---------------------------------------------------------------------------
# policy constructors


def uniform_profile(game: StochasticGame) -> PolicyProfile:
    return PolicyProfile(
        tuple(np.full((game.n_states, m), 1.0 / m) for m in game.n_actions)
    )


def random_profile(game, rng, margin: float = 0.0) -> PolicyProfile:
    """Random policy profile; margin blends toward uniform so that every
    action keeps probability at least margin / n_actions. rng is a seed or
    a Generator."""
    rng = _generator(rng)
    blocks = []
    for m in game.n_actions:
        raw = rng.dirichlet(np.ones(m), size=game.n_states)
        if margin:
            raw = (1.0 - margin) * raw + margin / m
        blocks.append(raw)
    return PolicyProfile(tuple(blocks))


def deterministic_profile(game: StochasticGame, actions) -> PolicyProfile:
    """Pure profile; actions[i][s] is the action player i takes in state s."""
    blocks = []
    for i, m in enumerate(game.n_actions):
        block = np.zeros((game.n_states, m))
        for s in range(game.n_states):
            block[s, _count(f"actions[{i}][{s}]", actions[i][s], 0, m - 1)] = 1.0
        blocks.append(block)
    return PolicyProfile(tuple(blocks))


# ---------------------------------------------------------------------------
# induced chain


def _check_compatible(game: StochasticGame, blocks) -> None:
    """Refuse policy blocks (each (..., states, actions)) that do not fit the game."""
    if len(blocks) != game.n_players:
        raise DimensionError(f"policy has {len(blocks)} players, game has {game.n_players}")
    for i, (block, m) in enumerate(zip(blocks, game.n_actions)):
        if block.shape[-2:] != (game.n_states, m):
            raise DimensionError(
                f"player {i} policy shape {block.shape} != {(game.n_states, m)}"
            )


def joint_weight_matrix(blocks) -> np.ndarray:
    """(..., n_states, n_joint) probabilities of every joint action per state.

    blocks[i] is player i's (..., n_states, m_i) policy block; leading axes
    index a stack of profiles. The product starts from the first block, so
    a stack whose profile axis is innermost in memory keeps it innermost.
    """
    w = blocks[0]
    for block in blocks[1:]:
        w = (w[..., :, None] * block[..., None, :]).reshape(
            block.shape[:-1] + (w.shape[-1] * block.shape[-1],)
        )
    return w


def induced_transition_matrix(game: StochasticGame, policy) -> np.ndarray:
    """State transition matrix of the chain induced by a profile.

    policy is a PolicyProfile or the (..., n_states, n_joint) joint-action
    weights joint_weight_matrix returns, whose leading axes index a stack
    of profiles and of the result. Row s is the joint-action-probability-
    weighted mixture of the raw transition rows at s; rows sum to one
    within 1e-12 by construction.
    """
    if isinstance(policy, PolicyProfile):
        _check_compatible(game, policy.probs)
        w = joint_weight_matrix(policy.probs)
    else:
        w = np.asarray(policy, dtype=float)
        if w.shape[-2:] != (game.n_states, game.n_joint):
            raise DimensionError(
                f"joint weights shape {w.shape} != (..., {game.n_states}, {game.n_joint})"
            )
    return np.einsum("...sj,sjt->...st", w, game.transitions)


def _at_slice(message: str, k) -> ErgodicityError:
    """An ErgodicityError about slice k of a stack; slice_index records k."""
    exc = ErgodicityError(message)
    exc.slice_index = int(k)
    return exc


def _slicewise(fn, check: str, *stacks):
    """fn(*stacks), with a LinAlgError turned into an ErgodicityError that
    names the check, with the first slice fn fails on alone as its
    slice_index (none if every slice passes alone)."""
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        for k in range(len(stacks[0])):
            try:
                fn(*(s[k : k + 1] for s in stacks))
            except np.linalg.LinAlgError as exc:
                raise _at_slice(f"ergodicity check failed: {check} ({exc})", k) from exc
        raise ErgodicityError(f"ergodicity check failed: {check}") from None


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of an ergodic row-stochastic matrix.

    P is one (S, S) matrix or a (B, S, S) stack, and the result has shape
    (S,) or (B, S); a 2-d P is the stack of one. The unit-circle eigenvalue
    count screens for reducible or periodic chains. It runs only on slices
    whose Doeblin coefficient alpha = sum_t min_s P[s, t] is at most
    2 * _UNIT_EIG_TOL: every eigenvalue of P but the unit one has modulus at
    most 1 - alpha, so a slice with a larger alpha (a column positive in
    every row) passes the count, with one tolerance of margin for rounding.
    Then one stacked solve of the balance equations, with their last row
    replaced by the normalization, gives every distribution. Raises
    ErgodicityError when a chain is not ergodic; a singular solve, or a
    solution whose fixed-point residual exceeds STATIONARY_TOL, is reported
    the same way. The text names the failing check and reads as the failing
    slice's own error alone; its slice_index is that slice's position.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim not in (2, 3) or P.shape[-1] != P.shape[-2]:
        raise DimensionError(f"transition matrix must be square, got {P.shape}")
    stack = P.reshape((-1,) + P.shape[-2:])
    n = stack.shape[1]

    # each check is one ufunc reduction over the whole stack (a NaN fails
    # it), and the failing slice is located only on failure
    rows_off = np.abs(np.add.reduce(stack, axis=2) - 1.0)
    if not (
        np.maximum.reduce(rows_off, axis=None, initial=0.0) <= 1e-9
        and np.minimum.reduce(stack, axis=None, initial=0.0) >= -ROW_SUM_TOL
    ):
        ok = (rows_off <= 1e-9).all(axis=1) & (stack >= -ROW_SUM_TOL).all(axis=(1, 2))
        where = f" at slice {np.argmin(ok)}" if P.ndim == 3 else ""
        raise DomainError(f"matrix is not row-stochastic{where}")

    # the Doeblin screen: only these slices are counted, and counted slice k
    # is slice doubtful[k] of the stack
    alpha = np.add.reduce(np.minimum.reduce(stack, axis=1), axis=1)
    if not np.minimum.reduce(alpha, initial=1.0) > 2 * _UNIT_EIG_TOL:
        doubtful = np.flatnonzero(alpha <= 2 * _UNIT_EIG_TOL)
        try:
            eigvals = _slicewise(np.linalg.eigvals, "eigenvalue computation failed", stack[doubtful])
        except ErgodicityError as exc:
            if hasattr(exc, "slice_index"):
                exc.slice_index = int(doubtful[exc.slice_index])
            raise
        n_unit = np.sum(np.abs(eigvals) > 1.0 - _UNIT_EIG_TOL, axis=1)
        if not (n_unit == 1).all():
            k = np.argmin(n_unit == 1)
            raise _at_slice(
                f"ergodicity check failed: unit-circle eigenvalue count "
                f"{n_unit[k]} != 1 (chain reducible or periodic)",
                doubtful[k],
            )

    A = np.swapaxes(stack, 1, 2) - np.eye(n)
    A[:, -1, :] = 1.0
    b = np.zeros((len(A), n, 1))
    b[:, -1] = 1.0
    p = _slicewise(np.linalg.solve, "singular balance system", A, b)
    p = np.maximum(p[:, :, 0], 0.0)
    total = np.add.reduce(p, axis=1, keepdims=True)
    if not np.minimum.reduce(total, axis=None, initial=1.0) > 0:
        k = np.argmin(total[:, 0] > 0)
        raise _at_slice("ergodicity check failed: linear solve degenerate", k)
    p = p / total
    residual = np.add.reduce(np.abs(np.matmul(p[:, None, :], stack)[:, 0] - p), axis=1)
    if not np.maximum.reduce(residual, initial=0.0) <= STATIONARY_TOL:
        k = np.argmin(residual <= STATIONARY_TOL)
        raise _at_slice(
            f"ergodicity check failed: fixed-point residual {residual[k]:.3e} "
            f"> {STATIONARY_TOL}",
            k,
        )
    return p.reshape(P.shape[:-1])


def dobrushin_coefficient(P: np.ndarray) -> float:
    """Half the maximum l1 distance between two rows of P.

    Coefficients below 1e-12 are snapped to zero so that chains whose rows
    are identical up to roundoff report instant mixing.
    """
    P = np.asarray(P, dtype=float)
    diffs = np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)
    c = float(diffs.max() / 2.0)
    return 0.0 if c < 1e-12 else c


def analyze_chain(game: StochasticGame, policy) -> tuple[np.ndarray, np.ndarray]:
    """(P, p): the induced chain of a profile or of joint weights (as
    induced_transition_matrix takes them) and its stationary law; the
    chain step of the value core, a function of its own only because
    perfbench's tracer times it."""
    P = induced_transition_matrix(game, policy)
    return P, stationary_distribution(P)


def certify_mixing(game: StochasticGame, sample_policies) -> MixingCertificate:
    """Worst-case Dobrushin contraction over a finite sample of policies.

    Returns the maximum coefficient c over the sample and the implied mixing
    constant -1 / log c; a coefficient of 1 for any sample is reported as a
    failure (the index of the first offending policy is recorded).
    """
    policies = list(sample_policies)
    if not policies:
        raise DomainError("certify_mixing needs a non-empty policy sample")
    worst = 0.0
    failing = None
    for k, policy in enumerate(policies):
        c = dobrushin_coefficient(induced_transition_matrix(game, policy))
        worst = max(worst, c)
        if c >= 1.0 - 1e-15 and failing is None:
            failing = k
    ok = failing is None
    return MixingCertificate(
        contraction=worst,
        tau=(-1.0 / math.log(worst) if worst > 0.0 else 0.0) if ok else math.inf,
        ok=ok,
        failing_index=failing,
        eps_floor=float(game.transitions.min()),
    )


def certification_sample(game, rng=None):
    """Uniform profile, pure-profile corners (capped), and _RANDOM_PROFILES
    random draws."""
    rng = _generator(rng)
    samples = [uniform_profile(game)]
    n_corners = 1
    for m in game.n_actions:
        n_corners *= m ** game.n_states
    if n_corners <= _CORNER_CAP:
        per_player = [
            list(product(range(m), repeat=game.n_states)) for m in game.n_actions
        ]
        for combo in product(*per_player):
            actions = [[combo[i][s] for s in range(game.n_states)] for i in range(game.n_players)]
            samples.append(deterministic_profile(game, actions))
    else:
        for _ in range(_CORNER_CAP // 2):
            actions = [
                rng.integers(0, m, size=game.n_states) for m in game.n_actions
            ]
            samples.append(deterministic_profile(game, actions))
    for _ in range(_RANDOM_PROFILES):
        samples.append(random_profile(game, rng))
    return samples


# ---------------------------------------------------------------------------
# simulation


def _walk(pols, trans_cols, strides, starts, windows, trace):
    """Play windows of stages, window r from state starts[r] under policy
    pols[r].

    pols[r][i][s] is player i's action CDF at state s and trans_cols[s][j]
    the next-state CDF after joint action j, as lists of all but the last
    column. Each row of a window holds one uniform per player, read against
    that player's CDF, then one for the next state, as Python floats; an
    action is the count of CDF columns <= u. Unless trace is None, every
    stage's state and joint action are appended to the lists trace[0] and
    trace[1]. Returns one (state, joint action, next state) tuple per
    window, for its last stage.
    """
    players = range(len(strides))
    ends = []
    for pol, s, rows in zip(pols, starts, windows):
        for row in rows:
            joint = 0
            for i in players:
                joint += strides[i] * bisect_right(pol[i][s], row[i])
            if trace is not None:
                trace[0].append(s)
                trace[1].append(joint)
            last, s = s, bisect_right(trans_cols[s][joint], row[-1])
        ends.append((last, joint, s))
    return ends


def _stage_maps(pol_cols, flat_cols, strides, u):
    """Every stage's joint action and next state from every state.

    u holds the uniforms of L stages as (n + 1, rows, L) columns, one per
    player and the last for the next state, each row's L stages contiguous:
    one of _window_ends's backward chunks of a window. pol_cols is as in
    _window_ends and flat_cols the game's (S - 1, S * J)
    transposed next-state CDF columns but the last. Returns two (rows, S, L)
    intp arrays: the flat index s * J + joint action of each stage's
    transition row and the next state. A player's action is the count of
    its CDF columns <= u, all but the last column, as in _walk; the next
    state is the same count over the transition row.
    """
    n_states = pol_cols[0].shape[1]
    n_joint = flat_cols.shape[1] // n_states
    at = np.empty((u.shape[1], n_states, u.shape[2]), dtype=np.intp)
    at[...] = np.arange(0, n_states * n_joint, n_joint)[:, None]
    below = np.empty(at.shape, dtype=bool)
    for i, cols in enumerate(pol_cols):
        column = u[i][:, None]
        for k in range(cols.shape[-1]):
            np.less_equal(cols[..., k, None], column, out=below)
            at += below if strides[i] == 1 else strides[i] * below
    after = np.zeros(at.shape, dtype=np.intp)
    column = u[-1][:, None]
    for col in flat_cols:
        np.less_equal(col.take(at), column, out=below)
        after += below
    return at, after


def _follow(maps):
    """The state after all L stages of maps, a (rows, S, L) array of each
    stage's next state, from every (row, state) before the first: pointer
    doubling, log2(L) rounds of integer gathers."""
    rows, n_states, stages = maps.shape
    width = stages + 1
    # node (r, s, h) is index (r * S + s) * width + h and points to the node
    # of its next state one stage on; the end column points to itself
    node = np.arange(rows * n_states * width).reshape(rows, n_states, width)
    jump = np.empty_like(node)
    jump[..., :-1] = maps * width + node[:, :1, 1:]
    jump[..., -1] = node[..., -1]
    for _ in range((stages - 1).bit_length()):
        jump = jump.take(jump)
    return jump[..., 0] // width % n_states


def _step_rows(pol_cols, trans_cols, strides, state, u):
    """_window_ends played one stage at a time for all rows at once, from
    each row's own state only: one Python step per stage, but no stage is
    played from every state."""
    row = np.arange(len(u))
    for stage in u.transpose(1, 0, 2):
        joint = np.zeros(len(u), dtype=int)
        for i, cols in enumerate(pol_cols):
            joint += strides[i] * (cols[row, state] <= stage[:, i, None]).sum(axis=1)
        last, state = (state, joint), (trans_cols[state, joint] <= stage[:, -1:]).sum(axis=1)
    return *last, state


# largest (rows, H + 1, players + 1) float array of window uniforms, rows
# being a run's seeds or horizon_bias_check's draws, and rollout's stages
# one such row; all three refuse more
MAX_WINDOW_BYTES = 1 << 30


def _cap_window(game: StochasticGame, rows: int, horizon: int, error: type, what: str) -> None:
    """Raise error, naming the windows as what, when rows windows of horizon
    + 1 stages need more than MAX_WINDOW_BYTES of float uniforms: one per
    player and one for the next state at every stage."""
    size = rows * (horizon + 1) * (game.n_players + 1) * 8
    if size > MAX_WINDOW_BYTES:
        raise error(f"{what} need {size} bytes of uniforms, over the {MAX_WINDOW_BYTES}-byte cap")


def _count(name: str, value, lo: int, hi) -> int:
    """The one integer door: value through operator.index as an int from lo
    to hi (None: no upper end; an int compares with a float hi exactly), or
    DomainError naming the argument and the range. It shows a non-integer
    value but no int, since str() of an int past 4300 digits raises."""
    try:
        n = operator.index(value)
    except TypeError:
        name = f"{name}={value!r}"
    else:
        if lo <= n and (hi is None or n <= hi):
            return n
    allowed = f"of at least {lo}" if hi is None else f"from {lo} to {hi}"
    raise DomainError(f"{name}: need an integer {allowed}")


def _generator(rng) -> np.random.Generator:
    """rng as a Generator: one passes through; None or a seed (via _count) makes one."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(None if rng is None else _count("rng", rng, 0, None))


def _window_ends(game, pol_cols, starts, u):
    """The last stage of one window per row: the only way a window is played.

    pol_cols[i] is player i's (rows, S, m_i - 1) action-CDF columns, all but
    the last, of each row's profile; starts the rows' start states, as
    Python ints; u the (rows, H + 1, n + 1) uniforms, one row of n + 1 per
    stage. The game's _stage_tables give the rest. Fewer than
    _KERNEL_STAGE_ROWS stage-rows rows * (H + 1) are played by one scalar
    _walk over every row. Otherwise stages are played from every state at
    once by _stage_maps, from u transposed once into contiguous
    (n + 1, rows, H + 1) columns, in chunks backward from stage H: the
    first holds the last _SUFFIX_STAGES stage maps and stage H, and _follow
    gives ends[r, s], the state at stage H from state s at the chunk's
    start; each earlier chunk of at most _WINDOW_CHUNK cells is composed
    into ends by one gather. Once every row's ends agree over all states the
    stages before cannot change the end state, and no earlier chunk is
    played; otherwise the chunks reach stage 0, where the start states are
    applied. Many rows of a many-state game are instead stepped one stage
    at a time (_step_rows). All three give the same bits. Returns the
    (rows, n_players) payoffs of the last stage and the states after it, as
    a list of Python ints.
    """
    strides, trans_cols, flat_cols, trans_lists, rewards, reward_lists = game._stage_tables
    rows, n_states = len(u), game.n_states
    if rows * u.shape[1] < _KERNEL_STAGE_ROWS:
        pols = zip(*[cols.tolist() for cols in pol_cols])
        ends = _walk(pols, trans_lists, strides, starts, u.tolist(), None)
        return np.array([reward_lists[s][j] for s, j, _ in ends]), [s for _, _, s in ends]
    row, state = np.arange(rows), np.asarray(starts)
    columns = trans_cols.shape[2] + sum(cols.shape[-1] for cols in pol_cols)
    if rows * n_states * columns > _STAGE_MAP_CELLS:
        state, joint, after = _step_rows(pol_cols, trans_cols, strides, state, u)
        return rewards[state, joint], after.tolist()
    u = np.ascontiguousarray(u.transpose(2, 0, 1))
    horizon = u.shape[2] - 1
    step = max(1, _WINDOW_CHUNK // (rows * n_states))
    lo = max(0, horizon - min(step, _SUFFIX_STAGES))
    at, maps = _stage_maps(pol_cols, flat_cols, strides, u[..., lo:])
    # ends[r, s]: the state at stage H from state s at stage lo
    ends = _follow(maps[..., :-1])
    while lo and not (ends == ends[:, :1]).all():
        hi, lo = lo, max(0, lo - step)
        before = _follow(_stage_maps(pol_cols, flat_cols, strides, u[..., lo:hi])[1])
        ends = np.take_along_axis(ends, before, axis=1)
    state = ends[row, state]
    joint = at[row, state, -1] - state * game.n_joint
    return rewards[state, joint], maps[row, state, -1].tolist()


def rollout(game, policy, start_state: int, horizon: int, rng):
    """Simulate `horizon` stages; returns (states, actions, rewards) arrays.

    states has shape (horizon,), actions (horizon, n_players) and rewards
    (horizon, n_players). Deterministic given rng, a seed or a Generator,
    which is read once for a (horizon, n_players + 1) array of uniforms; a
    horizon whose uniforms would take more than MAX_WINDOW_BYTES is refused
    with DomainError.
    """
    _check_compatible(game, policy.probs)
    start_state = _count("start_state", start_state, 0, game.n_states - 1)
    horizon = _count("horizon", horizon, 1, sys.maxsize)
    _cap_window(game, 1, horizon - 1, DomainError, f"{horizon} stages")

    pol_cols = [np.cumsum(block, axis=1)[:, :-1].tolist() for block in policy.probs]
    u = _generator(rng).random((horizon, game.n_players + 1))
    # Python floats a chunk of rows at a time bound a long rollout's memory
    rows = (row for lo in range(0, horizon, 4096) for row in u[lo:lo + 4096].tolist())
    strides, _, _, trans_lists, rewards, _ = game._stage_tables
    states, joints = [], []
    _walk([pol_cols], trans_lists, strides, [start_state], [rows], (states, joints))
    states, joints = np.array(states), np.array(joints)
    return states, game.action_table[joints], rewards[states, joints]


# ---------------------------------------------------------------------------
# file format


def game_to_dict(game: StochasticGame) -> dict:
    out = {
        "n_states": game.n_states,
        "actions": list(game.n_actions),
        "rewards": game.rewards.tolist(),
        "transitions": game.transitions.tolist(),
    }
    if game.meta:
        out["meta"] = _thawed(game.meta)
    return out


def game_from_dict(data: dict) -> StochasticGame:
    try:
        n_states = int(data["n_states"])
        actions = tuple(int(m) for m in data["actions"])
        rewards = np.asarray(data["rewards"], dtype=float)
        transitions = np.asarray(data["transitions"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(1e400)
        raise GameFormatError(f"malformed game document: {exc}") from exc
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise GameFormatError("meta must be an object")
    return StochasticGame(n_states, actions, rewards, transitions, meta)


def save_game(game: StochasticGame, path) -> None:
    with open(path, "w") as fh:
        json.dump(game_to_dict(game), fh, indent=1)
        fh.write("\n")


def _read_json(path, error, message: str):
    """The JSON document at path. Bad JSON or UTF-8, too deep a nesting or
    too long an int raises error(f"{message}: <the decoder's text>")."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{message}: {exc}") from exc


def load_game(path) -> StochasticGame:
    return game_from_dict(_read_json(path, GameFormatError, "not valid UTF-8 JSON"))


def game_hash(game: StochasticGame) -> str:
    """SHA-256 hex digest of the game's document, game_to_dict(game) as JSON
    with sorted keys. It is computed once per game and kept: the game's
    arrays and meta are read-only."""
    return game._digest


def policy_from_dict(data: dict) -> PolicyProfile:
    try:
        blocks = tuple(np.asarray(b, dtype=float) for b in data["probs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GameFormatError(f"malformed policy document: {exc}") from exc
    return PolicyProfile(blocks)


def load_policy(path) -> PolicyProfile:
    return policy_from_dict(_read_json(path, GameFormatError, "not valid UTF-8 JSON"))


def _profile_arg(game: StochasticGame, value) -> PolicyProfile | None:
    """The profile a run input names (--policy, --ref, --init-policy, a sweep
    config's ref): None for None, uniform for "uniform", else a policy file."""
    if value is None:
        return None
    return uniform_profile(game) if value == "uniform" else load_policy(value)
