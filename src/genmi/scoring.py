"""Scoring rules over pmf actions and the proper loss built from a concave core.

A scoring rule assigns a gain or loss to announcing the pmf q when the
outcome is x.  Each rule carries its pointwise-optimal responder (the map
from a belief to the best announcement) so Bayes-optimal behaviour never
has to be re-derived numerically.  Scores may be -inf or +inf (log-type
rules at zero coordinates); expectations give zero-probability outcomes
zero weight, matching the 0 * log 0 = 0 convention.

`loss_from_core` implements the generic construction that turns any
concave core F with subgradient z into a proper loss

    l_F(x, q) = F(q) + z(q) . (1_x - q),

whose minimal expected value under belief p recovers F(p) at q = p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entropy import _batched
from .errors import DimensionMismatch, DomainError, NonFinite
from .simplex import Pmf, _checked_order, _freeze, alpha_tilt

#: Interior shift applied to q before evaluating core gradients.
GRAD_MIX = 1e-12


@dataclass(frozen=True)
class ScoringRule:
    """A gain or loss over pmf announcements, with its optimal responder.

    `c_of_g` is the sign-bearing constant used by multiplicative leakage;
    it is set only for the rules whose constant the literature fixes.
    """

    name: str
    kind: str  # "gain" or "loss"
    score: Callable[[int, np.ndarray], float]
    responder: Callable[[np.ndarray], np.ndarray]
    c_of_g: float | None = None

    def __post_init__(self):
        if self.kind not in ("gain", "loss"):
            raise DomainError(f"rule kind must be 'gain' or 'loss', got {self.kind!r}")


@dataclass(frozen=True)
class GainMatrix:
    """Utility (or cost) per state-action pair over a finite action set."""

    values: np.ndarray
    kind: str = "gain"

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatch("gain matrix must be a non-empty 2-d matrix")
        if not np.all(np.isfinite(v)):
            raise NonFinite("gain matrix entries must be finite")
        if self.kind not in ("gain", "loss"):
            raise DomainError(f"matrix kind must be 'gain' or 'loss', got {self.kind!r}")
        object.__setattr__(self, "values", v)

    @property
    def nx(self) -> int:
        return self.values.shape[0]


def identity_gain(m: int) -> GainMatrix:
    """0-1 utility for point estimation: guessing the state exactly pays 1."""
    return GainMatrix(np.eye(m), kind="gain")


def expected_score(rule: ScoringRule, p: Pmf, q: Pmf) -> float:
    """sum_x p(x) score(x, q), with zero-probability outcomes ignored."""
    if len(p) != len(q):
        raise DimensionMismatch("belief and announcement live on different alphabets")
    total = 0.0
    for x in p.support:
        total += p[int(x)] * rule.score(int(x), q.probs)
    return total


def optimal_response(rule: ScoringRule, belief: Pmf) -> Pmf:
    """The announcement the rule's responder picks for this belief."""
    return Pmf(rule.responder(belief.probs))


def loss_from_core(
    F: Callable[[np.ndarray], np.ndarray | float],
    grad_f: Callable[[np.ndarray], np.ndarray],
    q: Pmf | np.ndarray,
) -> np.ndarray:
    """Per-outcome values of the proper loss F(q) + z . (1_x - q), for one
    pmf q or each column of a (|X|, k) stack, in one call of F and of grad_f
    (UnsupportedSpec if either is not batched as `EntropyPair` asks).

    The subgradient z is taken at q nudged to the simplex interior
    (`_interior`), since gradients may blow up at the boundary; F and the
    inner product z . q are taken at q itself.  So the expected loss under
    q is F(q) whatever z is, and the generic functional at the response
    step equals the mutual information up to rounding, at priors on the
    boundary too.  The mixing is not negligible everywhere: where q is 0,
    an order-a gradient q^(a-1) with a < 1 gives a large finite loss
    instead of an infinite one.
    """
    qv = q.probs if isinstance(q, Pmf) else np.asarray(q, dtype=np.float64)
    z = _batched("loss_from_core", "grad_f", grad_f, _interior(qv), qv.shape)
    out = _batched("loss_from_core", "F", F, qv, qv.shape[1:]) + z - (z * qv).sum(axis=0)
    if not np.all(np.isfinite(out)):
        raise NonFinite("core gradient is not finite after interior mixing")
    return out


def _interior(q: np.ndarray) -> np.ndarray:
    """Each column of q mixed with the uniform pmf at weight GRAD_MIX."""
    return (1.0 - GRAD_MIX) * q + GRAD_MIX / q.shape[0]


# ---------------------------------------------------------------------------
# The standard rule catalog
# ---------------------------------------------------------------------------


def log_score_rule() -> ScoringRule:
    def score(x: int, q: np.ndarray) -> float:
        return math.log(q[x]) if q[x] > 0.0 else -math.inf

    return ScoringRule("log-score", "gain", score, lambda p: p)


def log_loss_rule() -> ScoringRule:
    """Loss -log q(x): the log score subtracted from 0, with its responder."""
    return _loss("log-loss", 0.0, log_score_rule())


def _loss(name: str, const: float, gain: ScoringRule) -> ScoringRule:
    """The loss const - gain score, which the gain rule's responder minimizes."""
    return ScoringRule(name, "loss", lambda x, q: const - gain.score(x, q), gain.responder)


def pseudo_spherical_rule(alpha: float) -> ScoringRule:
    """Gain (1/(a-1)) (q(x)/||q||_a)^(a-1), scaled to cover a in (0,1) too."""
    a = _checked_order(alpha)

    def score(x: int, q: np.ndarray) -> float:
        norm = float(np.sum(q ** a) ** (1.0 / a))
        r = q[x] / norm
        if r == 0.0 and a < 1.0:
            return -math.inf
        return (1.0 / (a - 1.0)) * r ** (a - 1.0)

    return ScoringRule(
        "pseudo-spherical", "gain", score, lambda p: p,
        c_of_g=a / (a - 1.0),
    )


def power_rule(alpha: float) -> ScoringRule:
    """Gain (a/(a-1)) q(x)^(a-1) - ||q||_a^a (power / Tsallis score)."""
    a = _checked_order(alpha)

    def score(x: int, q: np.ndarray) -> float:
        norm_a = float(np.sum(q ** a))
        if q[x] == 0.0 and a < 1.0:
            return -math.inf
        return (a / (a - 1.0)) * q[x] ** (a - 1.0) - norm_a

    return ScoringRule(
        "power", "gain", score, lambda p: p,
        c_of_g=1.0 / (a - 1.0),
    )


def alpha_loss_rule(alpha: float) -> ScoringRule:
    """Loss (a/(a-1)) (1 - q(x)^((a-1)/a)): the alpha score subtracted from
    a/(a-1), so its optimal response is the same tilt, not the belief."""
    a = _checked_order(alpha)
    return _loss("alpha-loss", a / (a - 1.0), alpha_score_rule(a))


def alpha_score_rule(alpha: float) -> ScoringRule:
    """Gain (a/(a-1)) q(x)^((a-1)/a); optimal response is the tilt, not the belief."""
    a = _checked_order(alpha)

    def score(x: int, q: np.ndarray) -> float:
        if q[x] == 0.0 and a < 1.0:
            return -math.inf
        return (a / (a - 1.0)) * q[x] ** ((a - 1.0) / a)

    return ScoringRule(
        "alpha-score", "gain", score,
        lambda p: alpha_tilt(Pmf(p), a).probs,
        c_of_g=a / (a - 1.0),
    )
