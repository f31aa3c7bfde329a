"""Regularizers on per-state simplices, mirror maps, Fenchel couplings.

Two regularizer kinds are supported: negative entropy (default, mirror map
is the per-state softmax) and the squared Euclidean norm (mirror map is the
exact sort-based projection onto each state's simplex). Both are 1-strongly
convex in the Euclidean norm on the product of simplices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .games import PolicyProfile

ENTROPY = "entropy"
EUCLIDEAN = "euclidean"
KINDS = (ENTROPY, EUCLIDEAN)


@dataclass(frozen=True)
class Regularizer:
    """Per-player regularizer; same kind for every player, and both kinds
    are 1-strongly convex, so the modulus is a constant."""

    kind: str
    modulus = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown regularizer kind {self.kind!r}; use {KINDS}")

    def block_value(self, block: np.ndarray) -> float:
        """Regularizer value of one player's (states x actions) policy block."""
        block = np.asarray(block, dtype=float)
        if self.kind == ENTROPY:
            if (block < 0.0).any():
                raise DomainError("entropy value undefined for negative entries")
            # libm's log, 0 log 0 = 0, summed in block's layout: xlogy's bits
            terms = np.empty_like(block)
            terms.flat = [v * math.log(v) if v else 0.0 for v in block.ravel().tolist()]
            return float(terms.sum())
        return 0.5 * float(np.sum(block * block))

    def value(self, policy: PolicyProfile) -> float:
        return sum(self.block_value(b) for b in policy.probs)

    def block_gradient(self, block: np.ndarray) -> np.ndarray:
        """Gradient of the block value; entropy kind requires interior input."""
        block = np.asarray(block, dtype=float)
        if self.kind == ENTROPY:
            if (block <= 0.0).any():
                raise DomainError("entropy gradient undefined on the boundary")
            return 1.0 + np.log(block)
        return block


def make_regularizer(name: str) -> Regularizer:
    return Regularizer(name)


@dataclass(frozen=True)
class FenchelReport:
    """Fenchel coupling between a profile and a dual score.

    bregman is the divergence to the mirrored point and is only defined when
    that point is interior; bregman_defined records this.
    """

    value: float
    conjugate: float
    mirrored: PolicyProfile
    bregman: float | None
    bregman_defined: bool


@dataclass(frozen=True)
class BoundCheck:
    """lhs <= rhs checked to a tolerance; holds is the verdict."""

    lhs: float
    rhs: float
    holds: bool


# ---------------------------------------------------------------------------
# mirror maps


def softmax_rows(y: np.ndarray) -> np.ndarray:
    # the ufunc reductions behind y.max and e.sum, called directly
    shifted = y - np.maximum.reduce(y, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=1, keepdims=True)


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of each row onto the probability simplex.

    Sort-based: find the largest support size k with threshold
    (cumsum - 1) / k below the k-th sorted value, then clip.
    """
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


def _map_block(reg: Regularizer, y: np.ndarray) -> np.ndarray:
    if not np.logical_and.reduce(np.isfinite(y), axis=None):
        raise DomainError("dual scores must be finite")
    if reg.kind == ENTROPY:
        return softmax_rows(y)
    return project_simplex(y)


def mirror_map(reg: Regularizer, scores) -> PolicyProfile:
    """Map dual scores to the feasible policy profile they select.

    Entropy kind gives the per-state softmax (logit choice); Euclidean kind
    gives the per-state simplex projection.
    """
    return PolicyProfile(tuple(_map_block(reg, np.asarray(y, float)) for y in scores))


def _conjugates(reg: Regularizer, y: np.ndarray) -> np.ndarray:
    """Conjugate of every (states x actions) block of a (..., states,
    actions) stack of scores, each with the bits of its block alone."""
    if reg.kind == ENTROPY:
        # max-shifted log-sum-exp per row; the maxima leave the sum and enter
        # as log(count), so a row with one maximum is top + log1p(rest)
        top = y.max(axis=-1, keepdims=True)
        is_top = y == top
        rest = np.where(is_top, 0.0, np.exp(y - top)).sum(axis=-1)
        count = is_top.sum(axis=-1)
        return (np.log1p(rest / count) + np.log(count) + top[..., 0]).sum(axis=-1)
    q = project_simplex(y.reshape(-1, y.shape[-1])).reshape(y.shape)
    return (y * q).sum(axis=(-2, -1)) - 0.5 * (q * q).sum(axis=(-2, -1))


def conjugate(reg: Regularizer, scores) -> float:
    """Convex conjugate of the aggregate regularizer at the given scores."""
    return sum(float(_conjugates(reg, np.asarray(y, float))) for y in scores)


# ---------------------------------------------------------------------------
# couplings


def _coupling_terms(reg: Regularizer, h_p, p: np.ndarray, y: np.ndarray):
    """Couplings h(p) + h*(y) - <y, p> of a (..., states, actions) stack of
    float scores y against policy blocks p that broadcast against it, given
    h_p = h(p), which broadcasts against the stack's leading axes; and the
    conjugates h*(y). Each entry has the bits of its block alone."""
    conj = _conjugates(reg, y)
    return h_p + conj - (y * p).sum(axis=(-2, -1)), conj


def fenchel_coupling(reg: Regularizer, policy: PolicyProfile, scores) -> FenchelReport:
    """F(p, y) = h(p) + h*(y) - <y, p>, with the Bregman cross-check.

    The divergence D(p, Q(y)) is returned whenever the mirrored point is
    interior; for the entropy kind F equals the per-state KL divergence to
    the mirrored point.
    """
    scores = [np.asarray(y, float) for y in scores]
    terms = [
        _coupling_terms(reg, reg.block_value(p), p, y) for p, y in zip(policy.probs, scores)
    ]
    per_player = np.array([float(f) for f, _ in terms])
    mirrored = mirror_map(reg, scores)
    interior = all((b > 0.0).all() for b in mirrored.probs)
    bregman = None
    if interior:
        bregman = 0.0
        for p, q in zip(policy.probs, mirrored.probs):
            grad = reg.block_gradient(q)
            bregman += (
                reg.block_value(p) - reg.block_value(q) - float(np.sum(grad * (p - q)))
            )
    return FenchelReport(
        value=float(per_player.sum()),
        conjugate=sum(float(c) for _, c in terms),
        mirrored=mirrored,
        bregman=bregman,
        bregman_defined=interior,
    )


def fenchel_step_bound_check(
    reg: Regularizer, policy: PolicyProfile, scores, new_scores
) -> BoundCheck:
    """Check the one-step coupling bound
    F(p, y') <= F(p, y) + <y' - y, Q(y) - p> + ||y' - y||^2 / (2 K), to 1e-9."""
    scores = [np.asarray(y, float) for y in scores]
    new_scores = [np.asarray(y, float) for y in new_scores]
    before = fenchel_coupling(reg, policy, scores)
    after = fenchel_coupling(reg, policy, new_scores)
    cross = sum(
        float(np.sum((y2 - y1) * (q - p)))
        for y1, y2, q, p in zip(scores, new_scores, before.mirrored.probs, policy.probs)
    )
    sq = sum(float(np.sum((y2 - y1) ** 2)) for y1, y2 in zip(scores, new_scores))
    rhs = before.value + cross + sq / (2.0 * reg.modulus)
    return BoundCheck(after.value, rhs, after.value <= rhs + 1e-9)
