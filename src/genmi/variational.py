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
l(x, q(.|y)) over the cells of q, signed like its pair's core.
Evaluation sums joint * loss over the cells with joint mass; the prior
steps sum w * loss over each input's outputs into the coefficients c,
so that the expectation term is E = p . c.  The rest comes from the
pair, the same for every kind: G = eta(F(p)) - eta(E) in `_outer_value`,
and its prior gradient eta'(F(p)) grad F(p) - eta'(E) c.

Both maximization steps are exact for every built-in kind: the response
step is the (tilted) posterior, and the prior step is a function of c --
a formula for Shannon and Arimoto (Blahut 1972; Arimoto 1972), and for
Hayashi and Fehr-Berens, whose G(., q) is quasi-concave, the KKT point
found by a scalar root find.  The generic kind, and any solve that asks
for it, takes safeguarded exponentiated-gradient steps instead.

Conventions: a response that puts zero mass where the joint has positive
mass drives the functional to -inf (the log-loss convention): the loss is
+inf there, so the expectation is too.  Evaluation never raises for such
responses, it returns the -inf sentinel.
"""

from __future__ import annotations

import math
import numbers
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

#: The built-in kinds, each with the measure (pair name) its formulas are for.
_CLOSED_FORM_KINDS = {"shannon": "shannon", "arimoto_a1": "arimoto", "arimoto_a2": "arimoto",
                      "hayashi": "hayashi", "fb": "fehr-berens"}

#: Floating-point conditions the kernels meet on purpose (log 0, 0 * inf,
#: overflow to inf); their callers hold one `np.errstate(**_QUIET)`.
_QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


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


@dataclass(frozen=True)
class FunctionalSpec:
    """Selects which functional to evaluate and which updates apply.

    `pair` is the entropy measure: G and its gradient come from it, and
    it lets callers cross-check against the direct mutual-information
    computation.  The order is the pair's.  A built-in kind's loss and
    exact steps are written for one measure, so it takes only that
    measure's pair (UnsupportedSpec otherwise); the generic kind takes any.
    """

    kind: str  # shannon | arimoto_a1 | arimoto_a2 | hayashi | fb | generic
    pair: EntropyPair

    def __post_init__(self):
        # the pair's name up to its order, and an order for all but Shannon
        measure, name = _CLOSED_FORM_KINDS.get(self.kind), self.pair.name
        own = (name.partition("(")[0], self.pair.alpha is None) == (measure, measure == "shannon")
        if self.kind != "generic" and not own:
            raise UnsupportedSpec(f"no functional kind {self.kind!r} for the pair {name}")

    @property
    def alpha(self) -> float | None:
        return self.pair.alpha

    @property
    def has_closed_p_step(self) -> bool:
        return self.kind in _CLOSED_FORM_KINDS


def shannon_spec() -> FunctionalSpec:
    return FunctionalSpec(kind="shannon", pair=shannon_pair())


def arimoto_a1_spec(alpha: float) -> FunctionalSpec:
    return FunctionalSpec(kind="arimoto_a1", pair=arimoto_pair(alpha))


def arimoto_a2_spec(alpha: float) -> FunctionalSpec:
    return FunctionalSpec(kind="arimoto_a2", pair=arimoto_pair(alpha))


def hayashi_spec(alpha: float) -> FunctionalSpec:
    return FunctionalSpec(kind="hayashi", pair=hayashi_pair(alpha))


def fb_spec(alpha: float) -> FunctionalSpec:
    return FunctionalSpec(kind="fb", pair=fehr_berens_pair(alpha))


def generic_spec(pair: EntropyPair) -> FunctionalSpec:
    """Generic functional for any core-concave measure (its l_F is proper)."""
    return FunctionalSpec(kind="generic", pair=pair)


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
    joint = p[:, None] * w
    with np.errstate(**_QUIET):
        e = _expectation(joint, _loss_cells(spec, q, (joint > 0.0).any(axis=0)))
    return _outer_value(spec, p, e)


def _expectation(joint: np.ndarray, cells: np.ndarray) -> float:
    """The expectation term: joint * loss summed over the cells with joint
    mass.  p(x) w(y|x) may underflow to 0 where q(x|y) = 0 too, and such a
    cell must not turn the sum into inf.  The caller holds
    `np.errstate(**_QUIET)`."""
    return float((joint * cells)[joint > 0.0].sum())


def _loss_cells(spec: FunctionalSpec, q: np.ndarray, used: np.ndarray) -> np.ndarray:
    """The loss l(x, q(.|y)) at every cell (x, y) of the response family q,
    signed like the pair's core (negated above order 1 for the order-a
    measures): the pair's l_F, or for the first Arimoto form a loss whose
    expectation falls in eta's domain.

    Log-type losses are +inf where q is 0.  `used` marks the columns the
    caller reads; the generic kind builds only those (and leaves 0 in the
    rest), every other kind builds all of them.  The caller holds
    `np.errstate(**_QUIET)`.
    """
    kind, a = spec.kind, spec.alpha
    if kind == "shannon":
        return -np.log(q)
    if kind == "generic":
        pair = spec.pair
        cells = np.zeros_like(q)
        for y in np.flatnonzero(used):
            cells[:, y] = loss_from_core(pair.F, pair.grad_f, q[:, y])
        return cells
    if kind == "fb":
        col_sum = (q ** a).sum(axis=0)
        head = (1.0 / (a - 1.0)) * col_sum ** (1.0 / (a - 1.0))
        scale = (a / (a - 1.0)) * col_sum ** ((2.0 - a) / (a - 1.0))
        return head - scale * q ** (a - 1.0)
    if kind == "arimoto_a1":
        cells = q ** ((a - 1.0) / a)
    elif kind == "arimoto_a2":
        cells = (q / (q ** a).sum(axis=0) ** (1.0 / a)) ** (a - 1.0)
    else:  # hayashi
        cells = a * q ** (a - 1.0) - (a - 1.0) * (q ** a).sum(axis=0)
    return cells if a < 1.0 else -cells  # the pair's sign


def _outer_value(spec: FunctionalSpec, p: np.ndarray, e: float) -> float:
    """G = eta(F(p)) - eta(e) from the prior and the expectation term e;
    -inf where e leaves eta's domain."""
    pair = spec.pair
    head = pair.eta_checked(pair.F(p))
    lo, hi = pair.eta_domain
    if not lo < e < hi:
        return -math.inf
    return head - float(pair.eta(e))


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
    p = p_x.probs
    return QFamily(_q_cols(spec.kind, spec.alpha, p, p[:, None] * w.rows))


def _q_cols(kind: str, a: float | None, p: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """Columns of `q_step` on bare arrays, from the prior and the joint
    p(x) w(y|x).  For a pmf p, each column is a non-negative column over its
    own sum, or p, so it passes QFamily's checks."""
    cells = joint ** a if kind == "arimoto_a1" else joint
    col_mass = cells.sum(axis=0)
    has_mass = col_mass > 0.0
    return np.where(has_mass, cells / np.where(has_mass, col_mass, 1.0), p[:, None])


def p_step_closed(spec: FunctionalSpec, w: Channel, q: QFamily) -> Pmf:
    """Exact outer maximizer over priors for fixed q, for every built-in kind.

    With c the per-input coefficients of the expectation term, E = p . c:

    shannon:  p(x) proportional to exp(-c_x)  (= prod_y q(x|y)^w(y|x))
    arimoto:  p(x) proportional to (+-c_x)^(1/(a-1)), the sign undoing
              the pair's (c_x = +-sum_y w(y|x) q(x|y)^((a-1)/a), with q
              replaced by its column tilts for the second form)
    hayashi, fehr-berens:  the KKT point of `_p_kkt`, by a scalar root find.

    UnsupportedSpec for the generic kind, which has no such step.
    """
    if q.nx != w.nx or q.ny != w.ny:
        raise DimensionMismatch("response family shape must match the channel")
    if spec.kind not in _CLOSED_FORM_KINDS:
        raise UnsupportedSpec(f"no closed-form prior update for {spec.kind!r}")
    c = _input_coeffs(spec, w.rows, q.cols)
    with np.errstate(**_QUIET):
        return Pmf(_p_exact(spec, c))


def _p_exact(spec: FunctionalSpec, c: np.ndarray) -> np.ndarray:
    """The prior of `p_step_closed` from the coefficients c (+inf where an
    input's loss is).  After the NonFinite guards the result is exp(<= 0)
    over a sum >= exp(0) = 1, or `_p_kkt`'s weights over their sum, so it
    passes Pmf's checks.  The caller holds `np.errstate(**_QUIET)`."""
    kind, a = spec.kind, spec.alpha
    if kind == "shannon":
        log_p = -c
    elif kind in ("hayashi", "fb"):
        return _p_kkt(kind, a, c)
    else:
        log_p = np.log(c if a < 1.0 else -c) / (a - 1.0)

    top = log_p.max()
    if not math.isfinite(top):
        raise NonFinite("prior update collapsed; response family degenerate")
    p = np.exp(log_p - top)
    total = p.sum()
    if not total > 0.0:
        raise NonFinite("prior update collapsed to zero mass")
    return p / total


def _p_kkt(kind: str, a: float, c: np.ndarray) -> np.ndarray:
    """The maximizer of G(., q) for Hayashi and Fehr-Berens.

    With s = sum_x p(x)^a, G is a monotone map of +-E/s (Hayashi, the sign
    undoing the pair's) or of -E/s^(1/a) (Fehr-Berens): a ratio of a linear
    term to a convex one, or of a concave term to a linear one.  So G(., q)
    is quasi-concave, and a KKT point is its maximum (Arrow & Enthoven
    1961).  Stationarity gives

        p(x) proportional to (h_x + k t)_+^(1/(a-1)),   t = p . h,

    with h = +-c, k = a - 1 and t = +-E for Hayashi, and h = (1 - a) c,
    k = 1/(a - 1) and t = (1 - a) E for Fehr-Berens.  The scalar t is the
    root of f(t) = p(t) . h - t, which is positive at 0 and not positive
    at the other end of the bracket: max h where k > 0 (a > 1), and
    min h / (-k) where k < 0 (Hayashi with a < 1, where every input keeps
    mass).  f falls with slope <= -1 (the slope of p(t) . h is k/(a-1) > 0
    times the covariance under p(t) of h and 1/(h + k t), which is <= 0),
    so the root is unique.  Hayashi inputs with a < 1 and infinite c get
    no mass; any other non-finite c, or an empty bracket, raises
    NonFinite.
    """
    inf = c == math.inf
    if kind == "hayashi" and a < 1.0 and inf.any() and not inf.all():
        p = np.zeros_like(c)
        p[~inf] = _p_kkt(kind, a, c[~inf])
        return p
    if not np.all(np.isfinite(c)):
        _no_root(kind, a, c)
    if kind == "hayashi":
        h, k = (c if a < 1.0 else -c), a - 1.0
    else:
        h, k = (1.0 - a) * c, 1.0 / (a - 1.0)
    g = 1.0 / (a - 1.0)
    # the largest base (k > 0) or the smallest (k < 0) is h_ref + k t
    h_ref = float(h.max()) if k > 0.0 else float(h.min())
    hi = h_ref / abs(k) if k < 0.0 else h_ref
    if not 0.0 < hi < math.inf:
        _no_root(kind, a, c)

    def f(t: float):
        """(f(t), u, sum u) with p(t) = u / sum u, u scaled to at most 1."""
        ref = h_ref + k * t
        if not ref > 0.0:  # k < 0 and t at the end of the bracket
            u = (h == h_ref).astype(np.float64)
        else:
            u = (np.maximum(h + k * t, 0.0) * (1.0 / ref)) ** g
        s = float(u.sum())
        return float(u.dot(h)) / s - t, u, s

    lo, top = f(0.0), f(hi)
    if not lo[0] > 0.0:
        _no_root(kind, a, c)
    if top[0] >= 0.0:  # f(hi) <= 0 holds exactly; this is the root, rounded
        return top[1] / top[2]
    # as f falls with slope <= -1, |f| <= tol puts t within tol of the root
    tol = 8.0 * math.ulp(hi)
    (_, f_lo, u_lo, s_lo), (_, f_hi, u_hi, s_hi) = _bracketed_root(
        f, (0.0, *lo), (hi, *top), tol)
    if f_lo == f_hi:
        return u_lo / s_lo
    # f may jump between adjacent floats (inputs entering with bases near 0
    # and a small exponent 1/(a-1)): take the point of the chord where f is 0
    return (f_lo * (u_hi / s_hi) - f_hi * (u_lo / s_lo)) / (f_lo - f_hi)


def _bracketed_root(f, lo, hi, tol: float):
    """The root of f on a bracket with f > 0 at its low end and f < 0 at
    its high end; `f(t)` and the ends are tuples (f(t), ...), the ends led
    by t.  Returns the ends once they are adjacent floats, or the first
    evaluation with |f| <= tol as both ends.

    Dekker's method, the core of Brent's: a secant step through the two
    latest points where it lands inside the bracket, and a bisection where
    it does not or where two steps have not halved |f|.
    """
    old, new = (lo, hi) if abs(lo[1]) > abs(hi[1]) else (hi, lo)
    f_old, f_new = math.inf, math.inf
    while True:
        width = hi[0] - lo[0]
        mid = lo[0] + 0.5 * width
        if not lo[0] < mid < hi[0]:
            return lo, hi
        slope = (new[1] - old[1]) / (new[0] - old[0])
        t = new[0] - new[1] / slope if slope < 0.0 else mid
        if f_new > 0.5 * f_old or not lo[0] < t < hi[0]:
            t = mid
        old, new = new, (t, *f(t))
        if abs(new[1]) <= tol:
            return new, new
        f_old, f_new = f_new, abs(new[1])
        if new[1] > 0.0:
            lo = new
        else:
            hi = new


def _no_root(kind: str, a: float, c: np.ndarray):
    raise NonFinite(
        f"exact prior step ({kind}, order {a:g}): no root of the KKT equation "
        f"for the input coefficients c = {np.array2string(c, precision=6)}"
    )


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
    a coordinate may reach 0 along the way and then stays 0.  This is the
    prior step of the generic kind; for the built-in kinds it is an
    independent cross-check of `p_step_closed`.
    """
    if len(p_init) != w.nx:
        raise DimensionMismatch("initial prior and channel input alphabets differ")
    if q.nx != w.nx or q.ny != w.ny:
        raise DimensionMismatch("response family shape must match the channel")
    if np.any(p_init.probs <= 0.0):
        raise DomainError("numeric prior update needs a strictly interior start")
    _check_numeric_settings(iters, step)
    c = _input_coeffs(spec, w.rows, q.cols)
    return Pmf(_p_numeric(spec, c, p_init.probs, iters, step))


def _check_numeric_settings(iters: int, step: float) -> None:
    """Reject ascent settings that would leave the prior where it is, and a
    round count that is not an integer."""
    _check_count("numeric ascent rounds per prior step", iters)
    if not 0.0 < step < math.inf:
        raise DomainError(f"numeric ascent step must be finite and positive, got {step!r}")


def _check_count(what: str, n) -> None:
    """DomainError unless n is an integer of at least 1."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise DomainError(f"{what} must be an integer of at least 1, got {n!r}")


def _p_numeric(spec: FunctionalSpec, c: np.ndarray, p, iters: int, step: float) -> np.ndarray:
    """The prior of `p_step_numeric` on bare arrays, from the coefficients c
    and any pmf p.  Every accepted trial is p times positive weights (0 where
    the gradient is -inf) over their sum, so the result passes Pmf's checks
    and zeros stay 0."""
    value, grad = _prior_objective(spec, c)
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


def _prior_objective(spec: FunctionalSpec, c: np.ndarray):
    """`value(p)` and `grad(p)` of p -> G(p, q) for fixed q, each O(|X|),
    from the coefficients c of E = p . c (`_input_coeffs`).

    For every kind the gradient is eta'(F(p)) grad F(p) - eta'(E) c, from
    the pair's grad_f (at p nudged to the interior, as in `loss_from_core`)
    and eta' by a central difference.  The ascent step ignores a constant
    common to all inputs, such as the -1 in Shannon's grad F.

    The gradient is -inf off the support and on inputs whose c is
    infinite (G is -inf while they keep mass), so a step empties them.
    """
    pair = spec.pair
    bad = ~np.isfinite(c)
    c = np.where(bad, 0.0, c)
    keep, any_bad = ~bad, bool(bad.any())

    def value(p: np.ndarray) -> float:
        if any_bad and (bad & (p > 0.0)).any():
            return -math.inf
        return _outer_value(spec, p, float(p.dot(c)))

    def grad(p: np.ndarray) -> np.ndarray:
        e = float(p.dot(c))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = pair.grad_f((1.0 - GRAD_MIX) * p + GRAD_MIX / p.size)
            g = _eta_slope(pair, pair.F(p)) * z - _eta_slope(pair, e) * c
        return np.where((p > 0.0) & keep, g, -math.inf)

    return value, grad


def _input_coeffs(spec: FunctionalSpec, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-input coefficients c of the expectation term, E = p . c, for the
    response family q; +inf on an input whose loss is +inf on one of its
    outputs."""
    pos = w > 0.0
    with np.errstate(**_QUIET):
        return _coeffs(w, pos, _loss_cells(spec, q, pos.any(axis=0)))


def _coeffs(w: np.ndarray, pos: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """c_x: w(y|x) times the loss cell, summed over the outputs with
    w(y|x) > 0.  The caller holds `np.errstate(**_QUIET)`."""
    return np.where(pos, w * cells, 0.0).sum(axis=1)


def _eta_slope(pair: EntropyPair, t: float) -> float:
    """eta'(t) by a central difference that stays inside eta's domain."""
    lo, hi = pair.eta_domain
    h = min(1e-6 * (abs(t) or 1.0), 0.5 * (t - lo), 0.5 * (hi - t))
    return (pair.eta(t + h) - pair.eta(t - h)) / (2.0 * h)
