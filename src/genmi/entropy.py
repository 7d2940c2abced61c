"""Core-concave entropy measures and the mutual informations they induce.

A measure is a pair (eta, F): a concave core F on the simplex and a
strictly increasing outer map eta on F's range.  The unconditional
entropy is eta(F(p)); the conditional entropy averages F over the
posteriors *inside* eta; mutual information is their difference.  All
values are in nats.

Four concrete measures are provided:

    shannon        eta(t) = t,                F(p) = -sum p log p
    arimoto(a)     eta(t) = a/(1-a) log(+-t), F(p) = +-||p||_a
    hayashi(a)     eta(t) = 1/(1-a) log(+-t), F(p) = +-||p||_a^a
    fehr_berens(a) eta(t) = -log(-t),         F(p) = -||p||_a^(a/(a-1)),  a > 1

For orders a > 1 the core is stored negated so that it stays concave and
eta reads log(-t); the outer maps undo the sign, so all three order-a
measures report the same unconditional value (the order-a entropy) while
their conditional versions differ.

The built-in cores reduce over axis 0, so one call evaluates a pmf or a
stack of pmf columns of any trailing shape, and their outer maps act
elementwise; the conditional entropy and the capacity oracle rely on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadAlpha, DimensionMismatch, DomainError, UnsupportedSpec
from .simplex import Channel, Pmf


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
    """

    name: str
    F: Callable[[np.ndarray], np.ndarray | float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    eta: Callable[[np.ndarray | float], np.ndarray | float]
    eta_domain: tuple[float, float]
    alpha: float | None = None

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
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0.0, p * np.log(p), 0.0).sum(axis=0)


def shannon_pair() -> EntropyPair:
    return EntropyPair(
        name="shannon",
        F=_shannon_core,
        grad_f=lambda p: -np.log(p) - 1.0,
        eta=lambda t: t,
        eta_domain=(-np.inf, np.inf),
    )


def arimoto_pair(alpha: float) -> EntropyPair:
    """Core +-||p||_a with outer map (a/(1-a)) log(+-t)."""
    _check_order(alpha)
    a = float(alpha)
    sign = 1.0 if a < 1.0 else -1.0
    k = a / (1.0 - a)

    def F(p: np.ndarray):
        return sign * (p ** a).sum(axis=0) ** (1.0 / a)

    def grad_f(p: np.ndarray) -> np.ndarray:
        norm = (p ** a).sum() ** (1.0 / a)
        return sign * norm ** (1.0 - a) * p ** (a - 1.0)

    return EntropyPair(
        name=f"arimoto({a:g})",
        F=F,
        grad_f=grad_f,
        eta=lambda t: k * np.log(sign * t),
        eta_domain=(0.0, np.inf) if a < 1.0 else (-np.inf, 0.0),
        alpha=a,
    )


def hayashi_pair(alpha: float) -> EntropyPair:
    """Core +-||p||_a^a with outer map (1/(1-a)) log(+-t)."""
    _check_order(alpha)
    a = float(alpha)
    sign = 1.0 if a < 1.0 else -1.0
    k = 1.0 / (1.0 - a)

    return EntropyPair(
        name=f"hayashi({a:g})",
        F=lambda p: sign * (p ** a).sum(axis=0),
        grad_f=lambda p: sign * a * p ** (a - 1.0),
        eta=lambda t: k * np.log(sign * t),
        eta_domain=(0.0, np.inf) if a < 1.0 else (-np.inf, 0.0),
        alpha=a,
    )


def fehr_berens_pair(alpha: float) -> EntropyPair:
    """Core -||p||_a^(a/(a-1)) with outer map -log(-t); requires a > 1."""
    _check_order(alpha)
    if alpha <= 1.0:
        raise BadAlpha(f"fehr-berens requires order > 1, got {alpha:g}")
    a = float(alpha)

    def F(p: np.ndarray):
        return -(p ** a).sum(axis=0) ** (1.0 / (a - 1.0))

    def grad_f(p: np.ndarray) -> np.ndarray:
        s = (p ** a).sum()
        return -(a / (a - 1.0)) * s ** ((2.0 - a) / (a - 1.0)) * p ** (a - 1.0)

    return EntropyPair(
        name=f"fehr-berens({a:g})",
        F=F,
        grad_f=grad_f,
        eta=lambda t: -np.log(-t),
        eta_domain=(-np.inf, 0.0),
        alpha=a,
    )


def entropy(pair: EntropyPair, p: Pmf) -> float:
    """Unconditional entropy eta(F(p))."""
    return pair.eta_checked(pair.F(p.probs))


def conditional_entropy(pair: EntropyPair, p_x: Pmf, w: Channel) -> float:
    """Posterior-averaged entropy eta( sum_y p_Y(y) F(p_{X|Y=y}) ).

    F runs once, on the matrix of posterior columns.  Outputs with zero
    marginal mass have no column and contribute nothing to the average.
    """
    if len(p_x) != w.nx:
        raise DimensionMismatch(f"prior has {len(p_x)} entries, channel has {w.nx} rows")
    cells = p_x.probs[:, None] * w.rows
    p_y = cells.sum(axis=0)
    sup = p_y > 0.0
    f_cols = _core_values(pair, cells[:, sup] / p_y[sup])
    return pair.eta_checked(float(np.sum(p_y[sup] * f_cols)))


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


def _check_order(alpha: float) -> None:
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise BadAlpha(f"order must be a finite positive real, got {alpha!r}")
    if alpha == 1.0:
        raise BadAlpha("order 1 is not accepted; use the shannon measure explicitly")
