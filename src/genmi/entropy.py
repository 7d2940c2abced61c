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

The built-in cores reduce over axis 0, so one call evaluates a pmf or a
stack of pmf columns of any trailing shape, and their outer maps act
elementwise; the conditional entropy and the capacity oracle rely on both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadAlpha, DomainError, UnsupportedSpec
from .simplex import Channel, Pmf, _checked_order, posterior


@dataclass(frozen=True)
class EntropyPair:
    """A concave core with its gradient and a strictly increasing outer map.

    `F` takes an array whose axis 0 runs over the alphabet and reduces over
    that axis: a pmf gives one value, a matrix of pmf columns one value per
    column, and so on for any trailing shape.  `eta` acts elementwise on
    arrays as well as on floats.  The conditional entropy and the capacity
    oracle call them that way and raise UnsupportedSpec for a pair whose F
    or eta does not return one value per column or element.
    `eta_domain` is the open interval of arguments eta accepts; feeding it
    a value outside raises DomainError rather than silently flipping signs.
    `grad_f` is a subgradient of F, guaranteed on the simplex interior only.
    `eta_slope` is eta's derivative; with grad_f it gives the prior gradient
    of the variational functional, so a custom pair supplies it too.

    `row` is the measure's identity, (measure name, sign, beta, b) in the
    notation of the module docstring, set by the built-in constructors only
    (Shannon's is ("shannon", 1, 1, 1), the family's order-1 limit).  It is
    no constructor argument: a custom pair, or a `dataclasses.replace` copy,
    has None whatever its name, and only the generic functional takes it.
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
    # one full-size temporary, not three: the oracle calls this on
    # 0.5 MB posterior blocks, and each freed one can make glibc's malloc
    # give the heap back and fault it in again on the next block
    terms = np.where(p > 0.0, p, 1.0)
    np.log(terms, out=terms)
    terms *= p
    return -terms.sum(axis=0)


def _built_in(pair: EntropyPair, *row) -> EntropyPair:
    """`pair` with its measure's row set: the one place a row is written."""
    object.__setattr__(pair, "row", row)
    return pair


def shannon_pair() -> EntropyPair:
    return _built_in(EntropyPair(
        name="shannon",
        F=_shannon_core,
        grad_f=lambda p: -np.log(p) - 1.0,
        eta=lambda t: t,
        eta_slope=lambda t: 1.0,
        eta_domain=(-np.inf, np.inf),
    ), "shannon", 1.0, 1.0, 1.0)


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

    if beta == 1.0:  # Hayashi, Fehr-Berens at order 2: no `** 1.0` pass
        def F(p: np.ndarray):
            return sign * (p ** a).sum(axis=0)
    else:
        def F(p: np.ndarray):
            return sign * (p ** a).sum(axis=0) ** beta

    def grad_f(p: np.ndarray) -> np.ndarray:
        return sign * b * (p ** a).sum() ** (beta - 1.0) * p ** (a - 1.0)

    return _built_in(EntropyPair(
        name=f"{measure}({a:g})",
        F=F,
        grad_f=grad_f,
        eta=lambda t: kappa * np.log(sign * t),
        eta_slope=lambda t: kappa / t,
        eta_domain=(0.0, np.inf) if a < 1.0 else (-np.inf, 0.0),
        alpha=a,
    ), measure, sign, beta, b)


def arimoto_pair(alpha: float) -> EntropyPair:
    """Core +-||p||_a with outer map (a/(1-a)) log(+-t)."""
    return _power_pair("arimoto", alpha)


def hayashi_pair(alpha: float) -> EntropyPair:
    """Core +-||p||_a^a with outer map (1/(1-a)) log(+-t)."""
    return _power_pair("hayashi", alpha)


def fehr_berens_pair(alpha: float) -> EntropyPair:
    """Core -||p||_a^(a/(a-1)) with outer map -log(-t); requires a > 1."""
    if _checked_order(alpha) < 1.0:
        raise BadAlpha(f"fehr-berens requires order > 1, got {alpha:g}")
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


def mutual_information(pair: EntropyPair, p_x: Pmf, w: Channel) -> MiReport:
    """Both entropies and their difference for (p_x, w) under the measure."""
    h_x = entropy(pair, p_x)
    h_xy = conditional_entropy(pair, p_x, w)
    return MiReport(h_x=h_x, h_x_given_y=h_xy, mi=h_x - h_xy)


def _core_values(pair: EntropyPair, cols: np.ndarray) -> np.ndarray:
    """F of every column of `cols` (axis 0 over the alphabet), in one call."""
    return _batched(pair, "F", pair.F, cols, cols.shape[1:])


def _eta_values(pair: EntropyPair, t: np.ndarray) -> np.ndarray:
    """eta of every element of `t`, in one call and without the domain check."""
    return _batched(pair, "eta", pair.eta, t, t.shape)


def _batched(pair: EntropyPair, name: str, fn, arg: np.ndarray, shape) -> np.ndarray:
    """fn(arg) as a float array of the given shape, or UnsupportedSpec when
    the pair's map does not follow the batched contract of EntropyPair."""
    try:
        out = np.asarray(fn(arg), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise UnsupportedSpec(f"{pair.name}: {name} does not accept arrays ({exc})") from exc
    if out.shape != tuple(shape):
        raise UnsupportedSpec(
            f"{pair.name}: {name} gave shape {out.shape} on input of shape {arg.shape}, "
            f"expected {tuple(shape)}; F must reduce over axis 0 and eta act elementwise"
        )
    return out


def shannon_mi(p_x: Pmf, w: Channel) -> float:
    return mutual_information(shannon_pair(), p_x, w).mi


def arimoto_mi(alpha: float, p_x: Pmf, w: Channel) -> float:
    return mutual_information(arimoto_pair(alpha), p_x, w).mi


def hayashi_mi(alpha: float, p_x: Pmf, w: Channel) -> float:
    return mutual_information(hayashi_pair(alpha), p_x, w).mi


def fehr_berens_mi(alpha: float, p_x: Pmf, w: Channel) -> float:
    return mutual_information(fehr_berens_pair(alpha), p_x, w).mi
