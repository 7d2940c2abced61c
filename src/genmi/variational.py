"""Two-argument functionals whose inner maximum recovers mutual information.

For a measure (eta, F) with proper core loss l_F, the functional

    G(p, q) = eta(F(p)) - eta( E_{X,Y}[ l_F(X, q(X|Y)) ] )

satisfies max_q G(p, q) = I(p, W), with the maximum at q = posterior.
Besides the generic form, closed algebraic forms are provided for the
Shannon measure and for the order-a power family of `entropy`, whose
core is F(p) = sign (sum_x p(x)^a)^beta with sign = +1 below order 1
and -1 above: two equivalent Arimoto forms, the Hayashi measure, and
the Fehr-Berens measure.  The first Arimoto form is the one historical
exception whose inner maximizer tilts the posterior by the order; every
other kind's, the second Arimoto form included, is the posterior itself.

Each kind's loss is written once, in `_loss_cells`, as a table of
l(x, q(.|y)) over the cells of q, signed like its pair's core.  For the
family it is one formula in the measure's row (beta, b = a beta), read
from the pair's `row`: the proper loss sign s^(beta-1) ((1-b) s + b q^(a-1)),
with s the power sum of the column.
Evaluation sums joint * loss over the cells with joint mass; the prior
steps sum w * loss over each input's outputs into the coefficients c,
so that the expectation term is E = p . c.  The rest comes from the
pair, the same for every kind: G = eta(F(p)) - eta(E) in `_outer_value`,
and its prior gradient eta'(F(p)) grad F(p) - eta'(E) c.  The table
serves any response family.  At the response step itself every cell
factors through p, and for the built-in kinds `_coeff_kernel` reads c
and E from two matrix-vector products instead; the solver's exact
steps use it.

Both maximization steps are exact for every built-in kind: the response
step is the (tilted) posterior, and the prior step is a function of c --
a formula for Shannon (Blahut 1972), and for the family, whose G(., q)
is quasi-concave, the KKT point p(x) proportional to
(sign c_x + (b-1) t)_+^(1/(a-1)): a scalar root find for t, or none for
Arimoto, where b = 1 (Arimoto 1972).  The generic kind, the solver's
one numeric route, takes safeguarded exponentiated-gradient steps
instead.

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
    _TINY,
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
from .scoring import _interior, loss_from_core
from .simplex import Channel, Pmf, _freeze, _order_text, _scaled_power

#: The built-in kinds, each with the measure (its pair's `row[0]`) its formulas are for.
_CLOSED_FORM_KINDS = {"shannon": "shannon", "arimoto_a1": "arimoto", "arimoto_a2": "arimoto",
                      "hayashi": "hayashi", "fb": "fehr-berens"}

#: Floating-point conditions the kernels meet on purpose (log 0, 0 * inf,
#: overflow to inf); their callers hold one `np.errstate(**_QUIET)`.
_QUIET = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}

#: The numeric prior ascent (`_p_numeric`): at most this many rounds per
#: prior step, each round's step size starting at _NUMERIC_STEP.
_NUMERIC_ROUNDS, _NUMERIC_STEP = 200, 0.5


@dataclass(frozen=True)
class QFamily:
    """One response distribution over X per channel output, as columns."""

    cols: np.ndarray  # shape (|X|, |Y|)

    def __post_init__(self):
        c = _freeze(self.cols)
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
            raise DimensionMismatch("response family must be a non-empty matrix")
        if not np.all(np.isfinite(c)) or np.any(c < 0.0):
            raise NonFinite("response columns must be finite and non-negative")
        sums = c.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise DomainError("every response column must sum to 1 within 1e-9")
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
    exact steps are written for one measure and read its row from the
    pair, so it takes only a pair whose `row` names that measure
    (UnsupportedSpec otherwise, a custom pair included); the generic kind
    takes any.
    """

    kind: str  # shannon | arimoto_a1 | arimoto_a2 | hayashi | fb | generic
    pair: EntropyPair

    def __post_init__(self):
        row, name = self.pair.row, self.pair.name
        if self.kind != "generic" and (row is None or row[0] != _CLOSED_FORM_KINDS.get(self.kind)):
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
        e = _expectation(joint, _loss_cells(spec, q))
    return _outer_value(spec, p, e)


def _expectation(joint: np.ndarray, cells: np.ndarray) -> float:
    """The expectation term: joint * loss summed over the cells with joint
    mass.  p(x) w(y|x) may underflow to 0 where q(x|y) = 0 too, and such a
    cell must not turn the sum into inf.  The caller holds
    `np.errstate(**_QUIET)`."""
    return float((joint * cells)[joint > 0.0].sum())


def _loss_cells(spec: FunctionalSpec, q: np.ndarray) -> np.ndarray:
    """The loss l(x, q(.|y)) at every cell (x, y) of the response family q,
    signed like the pair's core (negated above order 1 for the order-a
    measures): the pair's l_F, or for the first Arimoto form a loss whose
    expectation falls in eta's domain.  For the order-a family, l_F is
    F(q) + grad F(q) . (1_x - q) = sign s^(beta-1) ((1-b) s + b q^(a-1)),
    s the column's power sum.

    The generic kind's table is one `loss_from_core` call, so its pair's
    F and grad_f must be batched (UnsupportedSpec otherwise).  The built-in
    kinds skip its interior mixing: Shannon's -log q is +inf where q is 0,
    and above order 1 a family cell's q-term is exactly 0 there (an
    Arimoto cell exactly 0, as its exact prior step needs).  The caller
    holds `np.errstate(**_QUIET)`.
    """
    kind, a = spec.kind, spec.alpha
    if kind == "shannon":
        return -np.log(q)
    if kind == "generic":
        return loss_from_core(spec.pair.F, spec.pair.grad_f, q)
    _, sign, beta, b = spec.pair.row
    if kind == "arimoto_a1":
        return sign * q ** ((a - 1.0) / a)
    s = (q ** a).sum(axis=0)  # the power sum of each column
    return sign * s ** (beta - 1.0) * ((1.0 - b) * s + b * q ** (a - 1.0))


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
    own sum, or p, so it passes QFamily's checks.  A tilted column is taken
    over its largest cell before the power, so that it cannot underflow to 0."""
    cells = _scaled_power(joint, a) if kind == "arimoto_a1" else joint
    col_mass = cells.sum(axis=0)
    has_mass = col_mass > 0.0
    return np.where(has_mass, cells / np.where(has_mass, col_mass, 1.0), p[:, None])


def p_step_closed(spec: FunctionalSpec, w: Channel, q: QFamily) -> Pmf:
    """Exact outer maximizer over priors for fixed q, for every built-in kind.

    With c the per-input coefficients of the expectation term, E = p . c,
    the prior is proportional to exp(-c_x) for Shannon (= prod_y
    q(x|y)^w(y|x)), and for the order-a family to the KKT point
    (sign c_x + (b-1) t)_+^(1/(a-1)) of `_p_kkt`; t drops out for
    Arimoto, where b = 1.  A Shannon or Arimoto mass below the smallest
    normal float (about 2.2e-308) becomes 0.

    UnsupportedSpec for the generic kind, which has no such step.
    """
    if q.nx != w.nx or q.ny != w.ny:
        raise DimensionMismatch("response family shape must match the channel")
    if spec.kind not in _CLOSED_FORM_KINDS:
        raise UnsupportedSpec(f"no closed-form prior update for {spec.kind!r}")
    c = _input_coeffs(spec, w.rows, q.cols)
    with np.errstate(**_QUIET):
        return Pmf(_exact_step(spec)(c))


def _exact_step(spec: FunctionalSpec):
    """`step(c)` -> the prior of `p_step_closed` from the coefficients c
    (+inf where an input's loss is), with the pair's row read once.

    Shannon's prior is proportional to exp(-c).  For the order-a family it
    is `_p_kkt`'s point from h = sign c and k = b - 1; Arimoto is the case
    b = 1, where k = 0 and the point is (sign c)^(1/(a-1)) in closed form.
    After the NonFinite guard the result is exp(<= 0) over a sum >= exp(0)
    = 1, or `_p_kkt`'s weights over their sum, so it passes Pmf's checks.
    For Shannon and Arimoto every mass below the smallest normal float
    (_TINY, about 2.2e-308) then becomes 0.
    The caller holds `np.errstate(**_QUIET)`.
    """
    kind, a = spec.kind, spec.alpha
    _, sign, _, b = spec.pair.row
    if b != 1.0:  # Hayashi, Fehr-Berens (Shannon and Arimoto have b = 1)
        return lambda c: _p_kkt(kind, a, c if sign > 0.0 else -c, b - 1.0)

    def step(c: np.ndarray) -> np.ndarray:
        log_p = -c if kind == "shannon" else np.log(c if sign > 0.0 else -c) / (a - 1.0)
        top = log_p.max()
        if not math.isfinite(top):
            _step_failed(kind, a, c, "prior update collapsed, no input has a finite weight,")
        p = np.exp(log_p - top)
        p /= p.sum()
        p[p < _TINY] = 0.0
        return p

    return step


def _p_kkt(kind: str, a: float, h: np.ndarray, k: float) -> np.ndarray:
    """The maximizer of G(., q) for an order-a measure with b != 1
    (Hayashi, Fehr-Berens), from h = sign c and k = b - 1.

    With t = p . h (= sign E), G = kappa b log(||p||_a / t^(1/b)).  Below
    order 1, ||p||_a is concave and t^(1/b) convex (b < 1); above, the
    reverse (b > 1), and kappa b < 0.  So G(., q) is a monotone map of a
    ratio of a positive concave term to a positive convex one: it is
    quasi-concave, and a KKT point is its maximum (Arrow & Enthoven
    1961).  Stationarity gives

        p(x) proportional to (h_x + k t)_+^(1/(a-1)),   t = p . h.

    The scalar t is the root of f(t) = p(t) . h - t, which is positive at
    0 and not positive at the other end of the bracket: max h where k > 0
    (a > 1), and min h / (-k) where k < 0 (a < 1, where every input keeps
    mass).  f falls with slope <= -1 (the slope of p(t) . h is k/(a-1) > 0
    times the covariance under p(t) of h and 1/(h + k t), which is <= 0),
    so the root is unique.  Below order 1, inputs with infinite h get no
    mass; any other non-finite h, or an empty bracket, raises NonFinite
    naming c = sign h.
    """
    inf = h == math.inf
    if a < 1.0 and inf.any() and not inf.all():
        p = np.zeros_like(h)
        p[~inf] = _p_kkt(kind, a, h[~inf], k)
        return p

    def fail():
        _step_failed(kind, a, h if a < 1.0 else -h, "no root of the KKT equation")

    if not np.all(np.isfinite(h)):
        fail()
    g = 1.0 / (a - 1.0)
    # the largest base (k > 0) or the smallest (k < 0) is h_ref + k t
    h_ref = float(h.max()) if k > 0.0 else float(h.min())
    hi = h_ref / abs(k) if k < 0.0 else h_ref
    if not 0.0 < hi < math.inf:
        fail()

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
        fail()
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


def _step_failed(kind: str, a: float | None, c: np.ndarray, why: str):
    order = "" if a is None else f", order {_order_text(a)}"
    raise NonFinite(
        f"exact prior step ({kind}{order}): {why} "
        f"for the input coefficients c = {np.array2string(c, precision=6)}"
    )


def p_step_numeric(spec: FunctionalSpec, w: Channel, q: QFamily, p_init: Pmf) -> Pmf:
    """Ascent on the prior by safeguarded exponentiated-gradient steps.

    For fixed q the expectation term of G is linear in the prior,
    E = sum_x p(x) c_x(q), so the gradient of p -> G(p, q) has a closed
    form.  Each round takes it, then halves the step (from _NUMERIC_STEP)
    until the objective does not decrease; iteration stops after
    _NUMERIC_ROUNDS rounds or when a round gains less than 1e-12.  The
    start must be strictly interior; a coordinate may reach 0 along the
    way and then stays 0.  This is the prior step of the generic kind;
    UnsupportedSpec for a built-in kind, whose step is `p_step_closed`.
    NonFinite if G is still -inf where the ascent ends: every input left
    has infinite loss, or E lies outside eta's domain.
    """
    if spec.has_closed_p_step:
        raise UnsupportedSpec(f"no numeric prior update for {spec.kind!r}; it has an exact one")
    if len(p_init) != w.nx:
        raise DimensionMismatch("initial prior and channel input alphabets differ")
    if q.nx != w.nx or q.ny != w.ny:
        raise DimensionMismatch("response family shape must match the channel")
    if np.any(p_init.probs <= 0.0):
        raise DomainError("numeric prior update needs a strictly interior start")
    c = _input_coeffs(spec, w.rows, q.cols)
    return Pmf(_p_numeric(spec, c, p_init.probs))


def _p_numeric(spec: FunctionalSpec, c: np.ndarray, p, rounds=_NUMERIC_ROUNDS) -> np.ndarray:
    """The prior of `p_step_numeric` on bare arrays, from the coefficients c
    and any pmf p, in at most `rounds` rounds.  Every accepted trial is p
    times positive weights (0 where the gradient is -inf) over their sum, so
    the result passes Pmf's checks and zeros stay 0."""
    value, grad = _prior_objective(spec, c)
    f = value(p)
    for _ in range(rounds):
        g = grad(p)
        top = g.max()
        if not math.isfinite(top):
            break  # no usable direction: every input left is -inf-bad, or E is degenerate
        size = _NUMERIC_STEP
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
    if f == -math.inf:  # every trial tied with it: returning p would pass off G = -inf
        fin = np.isfinite(c)
        lost = np.flatnonzero(~fin & (p > 0.0))
        why = (f"inputs {lost.tolist()} have mass and infinite loss" if lost.size else
               f"E = p . c = {float(p[fin] @ c[fin]):g} lies outside eta's domain "
               f"{spec.pair.eta_domain}")
        raise NonFinite(f"numeric prior step ({spec.pair.name}): G is -inf at the end, as {why}")
    return p


def _prior_objective(spec: FunctionalSpec, c: np.ndarray):
    """`value(p)` and `grad(p)` of p -> G(p, q) for fixed q, each O(|X|),
    from the coefficients c of E = p . c (`_input_coeffs`).

    For every kind the gradient is eta'(F(p)) grad F(p) - eta'(E) c, from
    the pair's grad_f (at p nudged to the interior, as in `loss_from_core`)
    and eta_slope.  The ascent step ignores a constant common to all
    inputs, such as the -1 in Shannon's grad F.

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
        e = p.dot(c)  # a numpy float: eta_slope(0.0) is inf, not ZeroDivisionError
        with np.errstate(divide="ignore", invalid="ignore"):
            z = pair.grad_f(_interior(p))
            g = pair.eta_slope(pair.F(p)) * z - pair.eta_slope(e) * c
        return np.where((p > 0.0) & keep, g, -math.inf)

    return value, grad


def _input_coeffs(spec: FunctionalSpec, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-input coefficients c of the expectation term, E = p . c, for the
    response family q; +inf on an input whose loss is +inf on one of its
    outputs."""
    with np.errstate(**_QUIET):
        return _coeffs(w, w > 0.0, _loss_cells(spec, q))


def _coeffs(w: np.ndarray, pos: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """c_x: w(y|x) times the loss cell, summed over the outputs with
    w(y|x) > 0.  The caller holds `np.errstate(**_QUIET)`."""
    return np.where(pos, w * cells, 0.0).sum(axis=1)


def _table_coeffs(spec: FunctionalSpec, w: np.ndarray):
    """`coeffs(p)` -> (c, E) at q = q_step(p), for any kind, from the
    loss-cell table: the response columns, one loss per cell, c summed
    over each input's outputs and E over the cells with joint mass (as
    `eval_functional` does).  The caller holds `np.errstate(**_QUIET)`."""
    kind, a = spec.kind, spec.alpha
    pos = w > 0.0

    def coeffs(p: np.ndarray):
        joint = p[:, None] * w
        cells = _loss_cells(spec, _q_cols(kind, a, p, joint))
        return _coeffs(w, pos, cells), _expectation(joint, cells)

    return coeffs


def _coeff_kernel(spec: FunctionalSpec, w: np.ndarray):
    """`coeffs(p)` -> (c, E) at q = q_step(p) for a built-in kind, as
    `_table_coeffs` gives them, from r = pW and s = p^a W^a.

    At the (tilted) posterior every loss cell factors through p, r, s and
    the fixed matrices W and W^a, so c takes no table: r and s, then one
    product back through W or W^a per term (Blahut 1972; Arimoto 1972).
    For Shannon, c = -log p - sum_y w log w + W log r.  For the order-a
    family, with the measure's row (beta, b) and the core's sign,

        c = sign ((1-b) W sigma^beta + b p^(a-1) * W^a (r^(1-a) sigma^(beta-1))),

    with sigma = s r^(-a), the order-a power sum of each posterior column.
    Arimoto (both forms) is b = 1, where r cancels:
    c = sign p^(a-1) * W^a s^((1-a)/a).
    An input with p(x) = 0 gets the table's coefficient: +inf for Shannon
    and below order 1, the terms without p^(a-1) above it.  E = p . c over
    the inputs with mass.  All-zero columns of W enter neither.  Where an
    output column's r or s is below the smallest normal float (no input
    with mass reaches it, or its power underflows), the factored form
    loses the column, and that call reads c and E from the table instead.
    The caller holds `np.errstate(**_QUIET)`.
    """
    table = _table_coeffs(spec, w)
    kind, a = spec.kind, spec.alpha
    w = np.ascontiguousarray(w[:, w.any(axis=0)])

    if kind == "shannon":
        wlogw = np.where(w > 0.0, w * np.log(w), 0.0).sum(axis=1)

        def coeffs(p: np.ndarray):
            r = p @ w
            if not r.min() >= _TINY:
                return table(p)
            c = w @ np.log(r) - wlogw - np.log(p)
            return c, _expected(p, c)

        return coeffs

    wa = w ** a
    _, sign, beta, b = spec.pair.row

    if b == 1.0:  # Arimoto, both forms: r cancels
        def coeffs(p: np.ndarray):
            s = p ** a @ wa
            if not s.min() >= _TINY:
                return table(p)
            c = (sign * p ** (a - 1.0)) * (wa @ s ** ((1.0 - a) / a))
            return c, _expected(p, c)

        return coeffs

    def coeffs(p: np.ndarray):
        r, s = p @ w, p ** a @ wa
        if not min(r.min(), s.min()) >= _TINY:
            return table(p)
        r1a = r ** (1.0 - a)
        sigma = s * r1a / r
        sb1 = sigma ** (beta - 1.0)
        c = sign * ((1.0 - b) * (w @ (sb1 * sigma)) + b * p ** (a - 1.0) * (wa @ (r1a * sb1)))
        return c, _expected(p, c)

    return coeffs


def _expected(p: np.ndarray, c: np.ndarray) -> float:
    """E = p . c over the inputs with mass (c may be +inf where p is 0)."""
    e = float(p @ c)
    if math.isfinite(e):
        return e
    has = p > 0.0
    return float(p[has] @ c[has])
