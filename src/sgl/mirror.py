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
# from max|y| * m = 2**12 on, the projection's cumulative sums carry 2**12
# ulps of 1, near ROW_SUM_TOL, so such a row is first shifted by its own max
SHIFT_GATE = 4096.0
# up to max|y| * S * m = SCORE_LIMIT no map, conjugate or coupling of an (S x m) block overflows
SCORE_LIMIT = float(np.finfo(float).max) / 2


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
    """Softmax over the last axis of a float y of any shape, in one temporary."""
    # the ufunc reductions behind y.max and e.sum, called directly
    e = y - np.maximum.reduce(y, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex of each row
    of y, a vector, a matrix or a stack of them; a vector comes back as one
    row.

    Sort-based: find the largest support size k with threshold
    (cumsum - 1) / k below the k-th sorted value, then clip. The ufuncs
    behind np.cumsum, np.argmax and np.clip are called directly.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    rows = y.reshape(-1, y.shape[-1])
    m = rows.shape[1]
    sorted_desc = -np.sort(-rows, axis=1)
    theta = (np.add.accumulate(sorted_desc, axis=1) - 1.0) / np.arange(1, m + 1)
    ok = sorted_desc - theta > 0
    k = m - 1 - ok[:, ::-1].argmax(axis=1)   # last True per row
    row_theta = theta[np.arange(len(rows)), k]
    return np.maximum(rows - row_theta[:, None], 0.0).reshape(y.shape)


def _score_top(y: np.ndarray) -> np.ndarray:
    """y, a (..., S, m) stack of scores, refused with DomainError when
    max|y| * S * m passes SCORE_LIMIT, the domain of the maps and conjugates."""
    top = float(np.maximum.reduce(np.abs(y), axis=None, initial=0.0))
    if not top * math.prod(y.shape[-2:]) <= SCORE_LIMIT:  # NaN too
        raise DomainError(f"dual scores must be finite, with max|y| * S * m <= {SCORE_LIMIT:.6g}")
    return y


def _map_block(reg: Regularizer, y: np.ndarray) -> np.ndarray:
    """Mirror map of a (..., S, m) float stack of scores, unchecked: y comes
    through _score_top, or within a bound like run_batch's loop's."""
    if reg.kind == ENTROPY:
        return softmax_rows(y)
    top = np.maximum.reduce(np.abs(y), axis=None, initial=0.0)
    if top >= SHIFT_GATE / y.shape[-1]:  # the projection is the same along the ones vector
        # each row is shifted on its own max|y|, so it has its bits in any stack
        rows = np.maximum.reduce(np.abs(y), axis=-1, keepdims=True) >= SHIFT_GATE / y.shape[-1]
        y = np.where(rows, y - np.maximum.reduce(y, axis=-1, keepdims=True), y)
    return project_simplex(y)


def mirror_map(reg: Regularizer, scores) -> PolicyProfile:
    """Map dual scores to the feasible policy profile they select.

    Entropy kind gives the per-state softmax (logit choice); Euclidean kind
    gives the per-state simplex projection.
    """
    return PolicyProfile(tuple(_map_block(reg, _score_top(np.asarray(y, float))) for y in scores))


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
    q = _map_block(reg, _score_top(y))
    return (y * q).sum(axis=(-2, -1)) - 0.5 * (q * q).sum(axis=(-2, -1))


def conjugate(reg: Regularizer, scores) -> float:
    """Convex conjugate of the aggregate regularizer at the given scores."""
    scores = [np.asarray(y, float) for y in scores]
    for y in scores:
        _score_top(y)
    return sum(float(_conjugates(reg, y)) for y in scores)


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
    mirrored = mirror_map(reg, scores)  # refuses scores outside SCORE_LIMIT first
    terms = [
        _coupling_terms(reg, reg.block_value(p), p, y) for p, y in zip(policy.probs, scores)
    ]
    per_player = np.array([float(f) for f, _ in terms])
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
