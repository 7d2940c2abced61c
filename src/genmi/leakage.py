"""Decision-theoretic leakage: Bayes values, additive and multiplicative gains.

Additive leakage (EVSI) is the increase in the decision maker's optimal
expected gain from observing the channel output (for losses, the
reduction in optimal risk).  Multiplicative leakage scales the log-ratio
of the with-observation and without-observation optima by a sign-bearing
constant c; it is defined only when the optimal values involved share a
single sign.

A finite action set needs no posterior: the optimum after output y,
weighted by p_Y(y), is the best action's entry of the joint column
p(x) W(y|x) times the gain matrix, so the posterior value is one product
and one max (or min) per output, summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, MixedSign, ZeroDenominator
from .scoring import GainMatrix, ScoringRule, expected_score, optimal_response
from .simplex import Channel, Pmf, _joint, posterior


@dataclass(frozen=True)
class LeakageReport:
    """Optimal values without and with the observation, and their gaps.

    `additive` is oriented so that more informative channels score higher
    (gain increase, or risk reduction).  The multiplicative leakage is
    `mevsi_scoring` or `mevsi_matrix`, which raise where it is undefined.
    """

    prior_value: float
    posterior_value: float
    additive: float


def _report(kind: str, prior: float, _per_y, post: float) -> LeakageReport:
    """The report of a (prior, per-output, posterior) optimum triple: the
    additive leakage is post - prior for a gain, prior - post for a loss."""
    additive = post - prior if kind == "gain" else prior - post
    return LeakageReport(prior_value=prior, posterior_value=post, additive=additive)


def evsi(m: GainMatrix, p_x: Pmf, w: Channel) -> LeakageReport:
    """Additive value of observing the output, for a finite action set."""
    return _report(m.kind, *_matrix_values(m, p_x, w))


def _matrix_values(m: GainMatrix, p_x: Pmf, w: Channel):
    """Prior optimum, the p_Y-weighted optimum after each output (0 for an
    output without mass) and their sum, for a finite action set."""
    if m.nx != len(p_x):
        raise DimensionMismatch("gain matrix rows must match the prior alphabet")
    best = np.max if m.kind == "gain" else np.min
    per_y = best(_joint(p_x, w).T @ m.values, axis=-1)
    return float(best(p_x.probs @ m.values)), per_y, float(per_y.sum())


def _scoring_values(rule: ScoringRule, p_x: Pmf, w: Channel):
    """Prior optimum, per-output optima, and the averaged posterior optimum."""
    prior = expected_score(rule, p_x, optimal_response(rule, p_x))
    post = posterior(p_x, w)
    per_y = []
    for col in post.cols.T:
        belief = Pmf(col)
        per_y.append(expected_score(rule, belief, optimal_response(rule, belief)))
    return prior, per_y, float(post.p_y[post.support] @ per_y)


def evsi_scoring(rule: ScoringRule, p_x: Pmf, w: Channel) -> LeakageReport:
    """Additive value of the observation over the pmf action space."""
    return _report(rule.kind, *_scoring_values(rule, p_x, w))


def mevsi_scoring(rule: ScoringRule, p_x: Pmf, w: Channel) -> float:
    """Multiplicative leakage c * log(posterior optimum / prior optimum).

    The sign condition is checked empirically on this instance: the prior
    optimum and every per-output optimum must not take both signs.
    """
    if rule.c_of_g is None:
        raise DomainError(f"rule {rule.name!r} declares no multiplicative constant")
    return _log_ratio(rule.c_of_g, *_scoring_values(rule, p_x, w))


def mevsi_matrix(m: GainMatrix, p_x: Pmf, w: Channel, c: float | None = None) -> float:
    """Multiplicative leakage for a finite action set.

    The matrix must be one-signed; c defaults to that sign (+1 or -1) and,
    if supplied, must match it.
    """
    vals = m.values
    nonneg = bool(np.all(vals >= 0.0))
    nonpos = bool(np.all(vals <= 0.0))
    if not (nonneg or nonpos):
        raise MixedSign("gain matrix takes both signs; multiplicative leakage undefined")
    sign = 1.0 if nonneg else -1.0
    if c is None:
        c = sign
    elif c * sign <= 0.0:
        raise DomainError(f"constant c = {c:g} must share the matrix sign {sign:+g}")
    return _log_ratio(c, *_matrix_values(m, p_x, w))


def _log_ratio(c: float, prior: float, per_y_values, posterior_value: float) -> float:
    """c * log(posterior_value / prior), where the prior optimum and the
    per-output optima (plain, or weighted by p_Y as a finite action set's
    are) must not take both signs; a zero, as an output without mass
    gives, takes neither."""
    vals = np.append(per_y_values, prior)
    if (vals > 0.0).any() and (vals < 0.0).any():
        raise MixedSign("optimal values take both signs on this instance")
    if prior == 0.0:
        raise ZeroDenominator("prior optimal value is zero; ratio undefined")
    ratio = posterior_value / prior
    if ratio <= 0.0:
        return -math.inf if c > 0 else math.inf
    return c * math.log(ratio)
