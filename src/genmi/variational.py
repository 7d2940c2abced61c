"""Two-argument functionals whose inner maximum recovers mutual information.

For a measure (eta, F) with proper core loss l_F, the functional

    G(p, q) = eta(F(p)) - eta( E_{X,Y}[ l_F(X, q(X|Y)) ] )

satisfies max_q G(p, q) = I(p, W), with the maximum at q = posterior.
Besides the generic form, closed algebraic forms are provided for the
Shannon measure, two equivalent Arimoto forms (the second tilts the
response columns), the Hayashi measure, and the Fehr-Berens measure.
The first Arimoto form is the one historical exception whose inner
maximizer is the tilted posterior rather than the posterior itself.

Each kind's loss is written once, in `_loss_cells`, as a table of
l(x, q(.|y)) over the cells of q.  Evaluation sums joint * loss over the
cells with joint mass; the prior step sums w * loss over each input's
outputs, so that the expectation term is E = p . c; both then go through
`_outer_value`, which holds each kind's outer expression.

Conventions: a response that puts zero mass where the joint has positive
mass drives the functional to -inf (the log-loss convention): the loss is
+inf there, so the expectation is too.  Evaluation never raises for such
responses, it returns the -inf sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import (
    EntropyPair,
    arimoto_pair,
    fehr_berens_pair,
    hayashi_pair,
    shannon_pair,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    NonFinite,
    UnsupportedSpec,
)
from .scoring import GRAD_MIX, loss_from_core
from .simplex import Channel, Pmf

_CLOSED_FORM_KINDS = ("shannon", "arimoto_a1", "arimoto_a2")


@dataclass(frozen=True)
class QFamily:
    """One response distribution over X per channel output, as columns."""

    cols: np.ndarray  # shape (|X|, |Y|)

    def __post_init__(self):
        c = np.ascontiguousarray(self.cols, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
            raise DimensionMismatch("response family must be a non-empty matrix")
        if not np.all(np.isfinite(c)) or np.any(c < 0.0):
            raise NonFinite("response columns must be finite and non-negative")
        sums = c.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise DomainError("every response column must sum to 1 within 1e-9")
        c.flags.writeable = False
        object.__setattr__(self, "cols", c)

    @property
    def nx(self) -> int:
        return self.cols.shape[0]

    @property
    def ny(self) -> int:
        return self.cols.shape[1]

    @staticmethod
    def from_columns(columns) -> "QFamily":
        return QFamily(np.column_stack([c.probs if isinstance(c, Pmf) else c for c in columns]))


@dataclass(frozen=True)
class FunctionalSpec:
    """Selects which functional to evaluate and which updates apply.

    `pair` is the matching entropy measure; it powers the generic
    evaluation path and lets callers cross-check against the direct
    mutual-information computation.
    """

    kind: str  # shannon | arimoto_a1 | arimoto_a2 | hayashi | fb | generic
    pair: EntropyPair
    alpha: float | None = None

    @property
    def has_closed_p_step(self) -> bool:
        return self.kind in _CLOSED_FORM_KINDS


def shannon_spec() -> FunctionalSpec:
    return FunctionalSpec(kind="shannon", pair=shannon_pair())


def arimoto_a1_spec(alpha: float) -> FunctionalSpec:
    return FunctionalSpec(kind="arimoto_a1", pair=arimoto_pair(alpha), alpha=float(alpha))


def arimoto_a2_spec(alpha: float) -> FunctionalSpec:
    return FunctionalSpec(kind="arimoto_a2", pair=arimoto_pair(alpha), alpha=float(alpha))


def hayashi_spec(alpha: float) -> FunctionalSpec:
    return FunctionalSpec(kind="hayashi", pair=hayashi_pair(alpha), alpha=float(alpha))


def fb_spec(alpha: float) -> FunctionalSpec:
    return FunctionalSpec(kind="fb", pair=fehr_berens_pair(alpha), alpha=float(alpha))


def generic_spec(pair: EntropyPair) -> FunctionalSpec:
    """Generic functional for any core-concave measure (its l_F is proper)."""
    return FunctionalSpec(kind="generic", pair=pair, alpha=pair.alpha)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_functional(spec: FunctionalSpec, p_x: Pmf, w: Channel, q: QFamily) -> float:
    """Value of the functional at (p_x, q) for the given channel."""
    if len(p_x) != w.nx:
        raise DimensionMismatch("prior and channel input alphabets differ")
    if q.nx != w.nx or q.ny != w.ny:
        raise DimensionMismatch("response family shape must match the channel")
    return _eval(spec, p_x.probs, w.rows, q.cols)


def _eval(spec: FunctionalSpec, p: np.ndarray, w: np.ndarray, q: np.ndarray) -> float:
    # only cells with joint mass count: p(x) w(y|x) may underflow to 0 where
    # q(x|y) = 0 too, and such a cell must not turn the sum into inf
    joint = p[:, None] * w
    mask = joint > 0.0
    cells = _loss_cells(spec, q, mask.any(axis=0))
    return _outer_value(spec, p, float(np.sum(joint[mask] * cells[mask])))


def _loss_cells(spec: FunctionalSpec, q: np.ndarray, used: np.ndarray) -> np.ndarray:
    """The loss l(x, q(.|y)) at every cell (x, y) of the response family q.

    Log-type losses are +inf where q is 0.  `used` marks the columns the
    caller reads; the generic kind builds only those (and leaves 0 in the
    rest), every other kind builds all of them.
    """
    kind, a = spec.kind, spec.alpha
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if kind == "shannon":
            return -np.log(q)
        if kind == "arimoto_a1":
            return q ** ((a - 1.0) / a)
        if kind == "arimoto_a2":
            return (q / np.sum(q ** a, axis=0) ** (1.0 / a)) ** (a - 1.0)
        if kind == "hayashi":
            return a * q ** (a - 1.0) - (a - 1.0) * np.sum(q ** a, axis=0)
        if kind == "fb":
            col_sum = np.sum(q ** a, axis=0)
            head = (1.0 / (a - 1.0)) * col_sum ** (1.0 / (a - 1.0))
            scale = (a / (a - 1.0)) * col_sum ** ((2.0 - a) / (a - 1.0))
            return head - scale * q ** (a - 1.0)
    if kind == "generic":
        pair = spec.pair
        cells = np.zeros_like(q)
        for y in np.flatnonzero(used):
            cells[:, y] = loss_from_core(pair.F, pair.grad_f, q[:, y])
        return cells
    raise UnsupportedSpec(f"unknown functional kind {kind!r}")


def _outer_value(spec: FunctionalSpec, p: np.ndarray, e: float) -> float:
    """G from the prior and the expectation term e; -inf where e leaves the
    domain of the outer map.  Shannon goes through its pair, with e the
    expected log loss."""
    a = spec.alpha
    if spec.kind in ("arimoto_a1", "arimoto_a2"):
        return _log_ratio_value(a / (a - 1.0), e, _norm(p, a))
    if spec.kind == "hayashi":
        return _log_ratio_value(1.0 / (a - 1.0), e, float((p ** a).sum()))
    if spec.kind == "fb":
        if not -e > 0.0:
            return -math.inf
        return math.log(-e) - (a / (a - 1.0)) * math.log(_norm(p, a))
    pair = spec.pair
    head = pair.eta_checked(pair.F(p))
    lo, hi = pair.eta_domain
    if not lo < e < hi:
        return -math.inf
    return head - float(pair.eta(e))


def _norm(p: np.ndarray, a: float) -> float:
    return float((p ** a).sum() ** (1.0 / a))


def _log_ratio_value(coef: float, e: float, den: float) -> float:
    """coef * (log e - log den) with the -inf convention at both bad ends."""
    if not (0.0 < e < math.inf):
        return -math.inf
    return coef * (math.log(e) - math.log(den))


# ---------------------------------------------------------------------------
# Alternating-maximization steps
# ---------------------------------------------------------------------------


def q_step(spec: FunctionalSpec, p_x: Pmf, w: Channel) -> QFamily:
    """The exact inner maximizer over response families for fixed p_x.

    Posterior columns for every functional except the first Arimoto form,
    whose maximizer tilts the posterior by the order.  Outputs with zero
    marginal mass never enter any expectation; their columns are set to
    p_x to keep the family total.
    """
    if len(p_x) != w.nx:
        raise DimensionMismatch("prior and channel input alphabets differ")
    return QFamily(_q_cols(spec.kind, spec.alpha, p_x.probs, w.rows))


def _q_cols(kind: str, a: float | None, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Columns of `q_step` on bare arrays.  For a pmf p, each column is a
    non-negative column over its own sum, or p, so it passes QFamily's checks."""
    cells = p[:, None] * w
    if kind == "arimoto_a1":
        cells = cells ** a
    col_mass = cells.sum(axis=0)
    return np.where(col_mass > 0.0, cells / np.where(col_mass > 0.0, col_mass, 1.0), p[:, None])


def p_step_closed(spec: FunctionalSpec, w: Channel, q: QFamily) -> Pmf:
    """Exact outer maximizer over priors for fixed q, where a formula exists.

    shannon:  p(x) proportional to prod_y q(x|y)^w(y|x)
    arimoto:  p(x) proportional to (sum_y w(y|x) q(x|y)^((a-1)/a))^(1/(a-1)),
              with q replaced by its column tilts for the second form.
    Computed in log domain so that extreme orders stay stable.
    """
    if q.nx != w.nx or q.ny != w.ny:
        raise DimensionMismatch("response family shape must match the channel")
    if spec.kind not in _CLOSED_FORM_KINDS:
        raise UnsupportedSpec(f"no closed-form prior update for {spec.kind!r}")
    return Pmf(_p_closed(spec.kind, spec.alpha, w.rows, q.cols, w.rows > 0.0))


def _p_closed(kind: str, a: float | None, w, qc, pos) -> np.ndarray:
    """The prior of `p_step_closed` on bare arrays; `pos` is `w > 0`, and cells
    where w is 0 add exactly 0.  After the two NonFinite guards the result is
    exp(<= 0) over a sum >= exp(0) = 1, so it passes Pmf's checks."""
    if kind == "arimoto_a2":
        qc = qc ** a
        qc = qc / qc.sum(axis=0, keepdims=True)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if kind == "shannon":
            log_p = np.where(pos, w * np.log(qc), 0.0).sum(axis=1)
        else:
            terms = np.where(pos, w * qc ** ((a - 1.0) / a), 0.0)
            log_p = np.log(terms.sum(axis=1)) / (a - 1.0)

    top = log_p.max()
    if not np.isfinite(top):
        raise NonFinite("prior update collapsed; response family degenerate")
    p = np.exp(log_p - top)
    total = p.sum()
    if not total > 0.0:
        raise NonFinite("prior update collapsed to zero mass")
    return p / total


def p_step_numeric(
    spec: FunctionalSpec,
    w: Channel,
    q: QFamily,
    p_init: Pmf,
    iters: int = 200,
    step: float = 0.5,
) -> Pmf:
    """Ascent on the prior by safeguarded exponentiated-gradient steps.

    For fixed q the expectation term of G is linear in the prior,
    E = sum_x p(x) c_x(q), so the gradient of p -> G(p, q) has a closed
    form.  Each round takes it, then halves the step until the objective
    does not decrease; iteration stops after `iters` rounds or when a
    round gains less than 1e-12.  The start must be strictly interior;
    a coordinate may reach 0 along the way and then stays 0.
    """
    if len(p_init) != w.nx:
        raise DimensionMismatch("initial prior and channel input alphabets differ")
    if q.nx != w.nx or q.ny != w.ny:
        raise DimensionMismatch("response family shape must match the channel")
    if np.any(p_init.probs <= 0.0):
        raise DomainError("numeric prior update needs a strictly interior start")
    _check_numeric_settings(iters, step)
    return Pmf(_p_numeric(spec, w.rows, q.cols, p_init.probs, iters, step))


def _check_numeric_settings(iters: int, step: float) -> None:
    """Reject ascent settings that would leave the prior where it is."""
    if not iters >= 1:
        raise DomainError(f"numeric ascent needs at least 1 round per prior step, got {iters!r}")
    if not 0.0 < step < math.inf:
        raise DomainError(f"numeric ascent step must be finite and positive, got {step!r}")


def _p_numeric(spec: FunctionalSpec, w, qc, p, iters: int, step: float) -> np.ndarray:
    """The prior of `p_step_numeric` on bare arrays, from any pmf p.  Every
    accepted trial is p times positive weights (0 where the gradient is -inf)
    over their sum, so the result passes Pmf's checks and zeros stay 0."""
    value, grad = _prior_objective(spec, w, qc)
    f = value(p)
    for _ in range(iters):
        g = grad(p)
        top = g.max()
        if not math.isfinite(top):
            break  # no usable direction: every input left is -inf-bad, or E is degenerate
        size = step
        cand, f_cand = p, f
        while size >= 1e-12:
            trial = p * np.exp(size * (g - top))
            trial = trial / trial.sum()
            f_trial = value(trial)
            if f_trial >= f:
                cand, f_cand = trial, f_trial
                break
            size *= 0.5
        if f_cand <= f + 1e-12:
            p, f = cand, f_cand
            break
        p, f = cand, f_cand
    return p


def _prior_objective(spec: FunctionalSpec, w: np.ndarray, q: np.ndarray):
    """`value(p)` and `grad(p)` of p -> G(p, q) for fixed q, each O(|X|).

    With E = p . c and s = sum_x p(x)^a, the gradients are, up to a
    constant common to all inputs (which the ascent step ignores):

        shannon    -c - log p          (c is the expected log loss)
        arimoto    (a/(a-1)) (c/E - p^(a-1)/s)
        hayashi    (1/(a-1)) (c/E - a p^(a-1)/s)
        fb         c/E - (a/(a-1)) p^(a-1)/s
        generic    eta'(F(p)) grad F(p) - eta'(E) c

    The gradient is -inf off the support and on inputs whose c is
    infinite (G is -inf while they keep mass), so a step empties them.
    """
    kind, a, pair = spec.kind, spec.alpha, spec.pair
    c, bad = _input_coeffs(spec, w, q)
    keep, any_bad = ~bad, bool(bad.any())

    def value(p: np.ndarray) -> float:
        if any_bad and (bad & (p > 0.0)).any():
            return -math.inf
        return _outer_value(spec, p, float(p.dot(c)))

    def grad(p: np.ndarray) -> np.ndarray:
        e = float(p.dot(c))
        with np.errstate(divide="ignore", invalid="ignore"):
            if kind == "shannon":
                g = -c - np.log(p)
            elif kind == "generic":
                z = pair.grad_f((1.0 - GRAD_MIX) * p + GRAD_MIX / p.size)
                g = _eta_slope(pair, pair.F(p)) * z - _eta_slope(pair, e) * c
            else:
                t = p ** (a - 1.0)
                t = t / (t * p).sum()
                if kind == "hayashi":
                    g = (c / e - a * t) / (a - 1.0)
                elif kind == "fb":
                    g = c / e - (a / (a - 1.0)) * t
                else:
                    g = (a / (a - 1.0)) * (c / e - t)
        return np.where((p > 0.0) & keep, g, -math.inf)

    return value, grad


def _input_coeffs(spec: FunctionalSpec, w: np.ndarray, q: np.ndarray):
    """Per-input coefficients c of the expectation term, E = p . c, with the
    inputs whose coefficient is infinite flagged (and their c set to 0).
    c_x sums w(y|x) times the loss at q over the outputs with w(y|x) > 0."""
    pos = w > 0.0
    cells = _loss_cells(spec, q, pos.any(axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.where(pos, w * cells, 0.0).sum(axis=1)
    bad = ~np.isfinite(c)
    return np.where(bad, 0.0, c), bad


def _eta_slope(pair: EntropyPair, t: float) -> float:
    """eta'(t) by a central difference that stays inside eta's domain."""
    lo, hi = pair.eta_domain
    h = min(1e-6 * (abs(t) or 1.0), 0.5 * (t - lo), 0.5 * (hi - t))
    return (pair.eta(t + h) - pair.eta(t - h)) / (2.0 * h)
