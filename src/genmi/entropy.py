"""Core-concave entropy measures and the mutual informations they induce.

A measure is a pair (eta, F): a concave core F on the simplex and a
strictly increasing outer map eta on F's range.  The unconditional
entropy is eta(F(p)); the conditional entropy averages F over the
posteriors *inside* eta; mutual information is their difference.  All
values are in nats.

Besides shannon, eta(t) = t with F(p) = -sum p log p, three order-a
measures are provided, all of one power family:

    F(p) = sign (sum_x p(x)^a)^beta,    eta(t) = kappa log(sign t),

with sign = +1 below order 1 and -1 above, so that the core stays
concave.  A measure is one row (beta, b, kappa) of `_POWER_ROWS`, with
b = a beta, so that grad F(p) = sign b (sum_x p(x)^a)^(beta-1) p^(a-1).
Arimoto's core is the a-norm, Hayashi's the power sum itself, and
Fehr-Berens is defined above order 1 only.  kappa beta = 1/(1-a) in
every row, so all three report the same unconditional value (the
order-a entropy) while their conditional versions differ.

The built-in cores and their gradients reduce over axis 0, so one call
evaluates a pmf or a stack of pmf columns of any trailing shape, and their
outer maps act elementwise; the oracle and the generic loss table rely on it.

Each built-in pair also carries its posterior average: for prior columns
P and a channel W, sum_y p_Y(y) F(p_{X|Y=y}) without forming a posterior.
It factors through the output marginal r = pW and s = p^a W^a (Blahut
1972; Arimoto 1972).  For Shannon it is H(X) + H(Y|X) - H(Y).  For the
family it is

    sign sum_{y: r_y > 0} r_y sigma_y^beta,    sigma_y = s_y / r_y^a,

sigma_y being the power sum of the posterior at y, which lies between 1
and |X|^(1-a): no term can overflow, even where beta or 1 - b = -beta
is large, as for Fehr-Berens near order 1.  For Arimoto (b = 1) a term
is s_y^beta.  Where some s_y with r_y > 0 is below the smallest normal
float, the factored form loses that output, and the call averages F over
the posterior columns instead (`_posterior_average`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadAlpha, DomainError, UnsupportedSpec
from .simplex import Channel, Pmf, _checked_order, _order_text, posterior


@dataclass(frozen=True)
class EntropyPair:
    """A concave core with its gradient and a strictly increasing outer map.

    `F` takes an array whose axis 0 runs over the alphabet and reduces over
    that axis: a pmf gives one value, a matrix of pmf columns one value per
    column, and so on for any trailing shape.  `grad_f`, a subgradient of F
    guaranteed on the simplex interior only, is batched alike: a matrix of
    pmf columns gives the matrix of their gradients.  `eta` acts elementwise
    on arrays as well as on floats.  The conditional entropy, the capacity
    oracle and the generic loss table (`scoring.loss_from_core`) call them
    that way and raise UnsupportedSpec for a pair whose maps do not.
    `eta_domain` is the open interval of arguments eta accepts; feeding it
    a value outside raises DomainError rather than silently flipping signs.
    `eta_slope` is eta's derivative; with grad_f it gives the prior gradient
    of the variational functional, so a custom pair supplies it too.

    `row` is the measure's identity, (measure name, sign, beta, b) in the
    notation of the module docstring, set by the built-in constructors only
    (Shannon's is ("shannon", 1, 1, 1), the family's order-1 limit).  It is
    no constructor argument: a custom pair, or a `dataclasses.replace` copy,
    has None whatever its name, and only the generic functional takes it.

    `posterior_average(P, W, core=None, work=None)` is set the same way,
    from the constants F is built from, and is None on every other pair.
    For prior columns P (|X|, N) and a channel matrix W (|X|, |Y|) it
    gives, for each column p, sum_y p_Y(y) F(p_{X|Y=y}) over the outputs
    with mass, without forming the posteriors (see the module docstring);
    the capacity oracle reads it.  `core` is F(P) where the caller has it
    (Shannon's average adds H(X) and then does not take it again), and
    `work` is a flat buffer of at least |X| |Y| N floats for the posterior
    columns, should the call fall back to them.
    """

    name: str
    F: Callable[[np.ndarray], np.ndarray | float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    eta: Callable[[np.ndarray | float], np.ndarray | float]
    eta_slope: Callable[[float], float]
    eta_domain: tuple[float, float]
    alpha: float | None = None
    row: tuple[str, float, float, float] | None = field(
        default=None, init=False, compare=False, repr=False)
    posterior_average: Callable[..., np.ndarray] | None = field(
        default=None, init=False, compare=False, repr=False)

    def eta_checked(self, t: float) -> float:
        lo, hi = self.eta_domain
        if not lo < t < hi:
            raise DomainError(
                f"{self.name}: core value {t:g} outside eta domain ({lo:g}, {hi:g})"
            )
        return float(self.eta(t))


@dataclass(frozen=True)
class MiReport:
    """Unconditional entropy, conditional entropy, and their difference."""

    h_x: float
    h_x_given_y: float
    mi: float


def _shannon_core(p: np.ndarray):
    # one full-size temporary, not three: the oracle calls this on blocks
    # of output marginals, and each freed one can make glibc's malloc give
    # the heap back and fault it in again on the next block
    terms = np.where(p > 0.0, p, 1.0)
    np.log(terms, out=terms)
    terms *= p
    return -terms.sum(axis=0)


def _shannon_average(p: np.ndarray, w: np.ndarray, core=None, work=None) -> np.ndarray:
    """H(X) + H(Y|X) - H(Y) at each prior column, with `core` as H(X)
    where given: the joint's entropy less the output's, which is the
    output-weighted posterior entropy.  It forms no posterior, so `work`
    goes unused."""
    if core is None:
        core = _shannon_core(p)
    return core + (_shannon_core(w.T) @ p - _shannon_core(w.T @ p))


def _built_in(pair: EntropyPair, row: tuple, average) -> EntropyPair:
    """`pair` with its measure's row and posterior average set: the one
    place either is written."""
    object.__setattr__(pair, "row", row)
    object.__setattr__(pair, "posterior_average", average)
    return pair


def shannon_pair() -> EntropyPair:
    return _built_in(EntropyPair(
        name="shannon",
        F=_shannon_core,
        grad_f=lambda p: -np.log(p) - 1.0,
        eta=lambda t: t,
        eta_slope=lambda t: 1.0,
        eta_domain=(-np.inf, np.inf),
    ), ("shannon", 1.0, 1.0, 1.0), _shannon_average)


#: The smallest normal float.  A power sum s_y below it has lost digits,
#: and the posterior average takes the posterior columns instead.  The
#: solver's exact steps set every prior mass below it to 0
#: (`variational._exact_step`): sub-normal masses are worth nothing to the
#: objective but slow every product they enter, `p @ w` about tenfold.
_TINY = np.finfo(np.float64).tiny

#: The row (beta, b, kappa) of each order-a measure, as a function of the
#: order (see the module docstring); b is written out, as a * beta rounds.
_POWER_ROWS = {
    "arimoto": lambda a: (1.0 / a, 1.0, a / (1.0 - a)),
    "hayashi": lambda a: (1.0, a, 1.0 / (1.0 - a)),
    "fehr-berens": lambda a: (1.0 / (a - 1.0), a / (a - 1.0), -1.0),
}


def _power_pair(measure: str, alpha: float) -> EntropyPair:
    """The pair of an order-a power measure, from its row in `_POWER_ROWS`."""
    a = _checked_order(alpha)
    beta, b, kappa = _POWER_ROWS[measure](a)
    sign = 1.0 if a < 1.0 else -1.0

    def F(p: np.ndarray):
        return sign * (p ** a).sum(axis=0) ** beta

    def grad_f(p: np.ndarray) -> np.ndarray:
        return sign * b * (p ** a).sum(axis=0) ** (beta - 1.0) * p ** (a - 1.0)

    # above order 1 s_y <= r_y^a, so an r_y > 0 below this floor has
    # s_y < _TINY: the call falls back without forming s
    r_floor = _TINY ** (1.0 / a) if a > 1.0 else 0.0

    def average(p: np.ndarray, w: np.ndarray, core=None, work=None) -> np.ndarray:
        r = w.T @ p
        if r.min() < r_floor and np.any((r < r_floor) & (r > 0.0)):
            return _posterior_average(F, p, w, work)
        s = (w ** a).T @ p ** a
        if not s.min() >= _TINY:
            if np.any((s < _TINY) & (r > 0.0)):
                return _posterior_average(F, p, w, work)
            r = np.where(r > 0.0, r, 1.0)  # an output without mass has s = 0
        if b == 1.0:  # Arimoto: r_y sigma_y^beta = s_y^beta
            terms = s ** beta
        else:  # r_y sigma_y^beta; r^a >= s >= _TINY above order 1
            terms = s
            terms /= r ** a
            if beta != 1.0:
                terms **= beta
            terms *= r
        return sign * terms.sum(axis=0)

    return _built_in(EntropyPair(
        name=f"{measure}({_order_text(a)})",
        F=F,
        grad_f=grad_f,
        eta=lambda t: kappa * np.log(sign * t),
        eta_slope=lambda t: kappa / t,
        eta_domain=(0.0, np.inf) if a < 1.0 else (-np.inf, 0.0),
        alpha=a,
    ), (measure, sign, beta, b), average)


def arimoto_pair(alpha: float) -> EntropyPair:
    """Core +-||p||_a with outer map (a/(1-a)) log(+-t)."""
    return _power_pair("arimoto", alpha)


def hayashi_pair(alpha: float) -> EntropyPair:
    """Core +-||p||_a^a with outer map (1/(1-a)) log(+-t)."""
    return _power_pair("hayashi", alpha)


def fehr_berens_pair(alpha: float) -> EntropyPair:
    """Core -||p||_a^(a/(a-1)) with outer map -log(-t); requires a > 1."""
    a = _checked_order(alpha)
    if a < 1.0:
        raise BadAlpha(f"fehr-berens requires order > 1, got {a!r}")
    return _power_pair("fehr-berens", alpha)


def entropy(pair: EntropyPair, p: Pmf) -> float:
    """Unconditional entropy eta(F(p))."""
    return pair.eta_checked(pair.F(p.probs))


def conditional_entropy(pair: EntropyPair, p_x: Pmf, w: Channel) -> float:
    """Posterior-averaged entropy eta( sum_y p_Y(y) F(p_{X|Y=y}) ).

    F runs once, on the matrix of posterior columns.  Outputs with zero
    marginal mass have no column and contribute nothing to the average.
    """
    post = posterior(p_x, w)
    f_cols = _core_values(pair, post.cols)
    return pair.eta_checked(float(np.sum(post.p_y[post.support] * f_cols)))


def _posterior_average(F, p: np.ndarray, w: np.ndarray,
                       work: np.ndarray | None = None) -> np.ndarray:
    """sum_y p_Y(y) F(p_{X|Y=y}) for prior columns p (|X|, N), with F run
    once on the (|X|, |Y|, N) block of posterior columns, the N priors on
    the last, contiguous axis so that every elementwise pass runs long
    inner loops however few the outputs.  Outputs with no mass get no
    weight.  The block is written into `work`, a flat array of at least
    |X| |Y| N floats, where given."""
    p_y = w.T @ p  # (ny, N)
    shape = w.shape + p.shape[1:]
    out = None if work is None else work[: math.prod(shape)].reshape(shape)
    cols = np.multiply(p[:, None, :], w[:, :, None], out=out)
    cols /= np.where(p_y > 0.0, p_y, 1.0)  # posterior columns, 0 where p_y = 0
    return np.where(p_y > 0.0, p_y * F(cols), 0.0).sum(axis=0)


def mutual_information(pair: EntropyPair, p_x: Pmf, w: Channel) -> MiReport:
    """Both entropies and their difference for (p_x, w) under the measure."""
    h_x = entropy(pair, p_x)
    h_xy = conditional_entropy(pair, p_x, w)
    return MiReport(h_x=h_x, h_x_given_y=h_xy, mi=h_x - h_xy)


def _core_values(pair: EntropyPair, cols: np.ndarray) -> np.ndarray:
    """F of every column of `cols` (axis 0 over the alphabet), in one call."""
    return _batched(pair.name, "F", pair.F, cols, cols.shape[1:])


def _eta_values(pair: EntropyPair, t: np.ndarray) -> np.ndarray:
    """eta of every element of `t`, in one call and without the domain check."""
    return _batched(pair.name, "eta", pair.eta, t, t.shape)


def _batched(who: str, name: str, fn, arg: np.ndarray, shape) -> np.ndarray:
    """fn(arg) as a float array of the given shape, or UnsupportedSpec naming
    `who` when the map breaks the batched contract of EntropyPair."""
    try:
        out = np.asarray(fn(arg), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise UnsupportedSpec(f"{who}: {name} does not accept arrays ({exc})") from exc
    if out.shape != tuple(shape):
        raise UnsupportedSpec(
            f"{who}: {name} gave shape {out.shape} on input of shape {arg.shape}, "
            f"expected {tuple(shape)}, as EntropyPair's batched contract asks"
        )
    return out
