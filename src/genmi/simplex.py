"""Finite probability distributions, channels, posteriors, and tilts.

All containers are immutable (frozen dataclasses over read-only
arrays) and every operation is a pure function, so objects can be shared
freely across threads.  Conventions used throughout the package:

- 0 * log 0 = 0 and 0**a = 0 for every a > 0,
- posteriors are only defined on outputs with positive marginal mass;
  unsupported outputs carry zero weight in every expectation over Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZero,
    BadAlpha,
    DimensionMismatch,
    DomainError,
    NegativeMass,
    NonFinite,
)

#: Absolute slack for "sums to one" checks.
SUM_TOL = 1e-9

#: Entries above this (negative) threshold are clamped to zero on input.
CLAMP_TOL = -1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Pmf:
    """Probability vector on a finite alphabet of size m >= 1."""

    probs: np.ndarray

    def __post_init__(self):
        p = _freeze(np.atleast_1d(self.probs))
        if p.ndim != 1 or p.size < 1:
            raise DimensionMismatch("a pmf must be a non-empty vector")
        if not np.all(np.isfinite(p)):
            raise NonFinite("pmf entries must be finite")
        if np.any(p < 0.0) or np.any(p > 1.0 + SUM_TOL):
            raise DomainError("pmf entries must lie in [0, 1]")
        if abs(float(p.sum()) - 1.0) > SUM_TOL:
            raise DomainError("pmf entries must sum to 1 within 1e-9")
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    @property
    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self.probs > 0.0)


@dataclass(frozen=True)
class Channel:
    """Row-stochastic matrix; row x is the output distribution given input x."""

    rows: np.ndarray

    def __post_init__(self):
        w = _freeze(np.atleast_2d(self.rows))
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise DimensionMismatch("a channel must be a non-empty matrix")
        for x in np.flatnonzero(~_pmf_rows(w)):
            Pmf(w[x])  # raises the first bad row's own error
        object.__setattr__(self, "rows", w)

    @property
    def nx(self) -> int:
        return self.rows.shape[0]

    @property
    def ny(self) -> int:
        return self.rows.shape[1]

    def compose(self, other: "Channel") -> "Channel":
        """Cascade: the X -> Z channel obtained by feeding Y into `other`."""
        if self.ny != other.nx:
            raise DimensionMismatch(
                f"cannot compose {self.ny}-output channel with {other.nx}-input channel"
            )
        return Channel(self.rows @ other.rows)


@dataclass(frozen=True)
class Posterior:
    """Output marginal plus the posterior columns of the supported outputs.

    All three fields are read-only arrays.  `p_y` is the output marginal
    p_x @ w over all |Y| outputs, as computed (not renormalized);
    `support` holds the indices y with p_y[y] > 0, in increasing order;
    `cols` is the |X| x |support| matrix whose column j is the distribution
    of X given Y = support[j].  Outputs with zero mass have no column.
    """

    p_y: np.ndarray
    cols: np.ndarray
    support: np.ndarray


def make_pmf(values) -> Pmf:
    """Sanitize a vector into a Pmf.

    Entries in [-1e-12, 0) are clamped to zero (file round-trip noise);
    anything more negative is rejected.  The result is renormalized.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise DimensionMismatch("cannot build a pmf from an empty vector")
    if not np.all(np.isfinite(v)):
        raise NonFinite("pmf input contains NaN or infinity")
    if np.any(v < CLAMP_TOL):
        raise NegativeMass(f"pmf input has entry {v.min():g} below {CLAMP_TOL:g}")
    v = np.where(v < 0.0, 0.0, v)
    total = float(v.sum())
    if total <= 1e-15:
        raise AllZero("pmf input sums to (numerically) zero")
    # skipping the division when the sum is already 1 up to float noise
    # makes sanitation exactly idempotent
    if abs(total - 1.0) > 1e-12:
        v = v / total
    return Pmf(v)


def make_channel(rows) -> Channel:
    """Sanitize a matrix into a Channel: make_pmf on every row, all rows at once."""
    w = np.asarray(rows, dtype=np.float64)
    if w.ndim != 2:
        raise DimensionMismatch("a channel must be a 2-d matrix")
    v = np.where(w < 0.0, 0.0, w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # rows rejected below
        total = v.sum(axis=1)
        v = np.where(np.abs(total - 1.0)[:, None] > 1e-12, v / total[:, None], v)
    ok = np.isfinite(w).all(axis=1) & (w >= CLAMP_TOL).all(axis=1) & (total > 1e-15)
    for x in np.flatnonzero(~(ok & _pmf_rows(v))):
        make_pmf(w[x])  # raises the first bad row's own error
    return Channel(v)


def _pmf_rows(w: np.ndarray) -> np.ndarray:
    """Which rows of a matrix pass Pmf's checks."""
    with np.errstate(invalid="ignore", over="ignore"):  # sums of rows that fail anyway
        off = np.abs(w.sum(axis=1) - 1.0)
    in_range = (w >= 0.0) & (w <= 1.0 + SUM_TOL)
    return np.isfinite(w).all(axis=1) & in_range.all(axis=1) & (off <= SUM_TOL)


def uniform(m: int) -> Pmf:
    return Pmf(np.full(m, 1.0 / m))


def posterior(p_x: Pmf, w: Channel) -> Posterior:
    """Bayes inversion of (p_x, w): output marginal and posterior columns."""
    if len(p_x) != w.nx:
        raise DimensionMismatch(f"prior has {len(p_x)} entries, channel has {w.nx} rows")
    cells = p_x.probs[:, None] * w.rows
    p_y = cells.sum(axis=0)
    support = np.flatnonzero(p_y > 0.0)
    support.flags.writeable = False
    return Posterior(p_y=_freeze(p_y), cols=_freeze(cells[:, support] / p_y[support]),
                     support=support)


def alpha_tilt(p: Pmf, alpha: float) -> Pmf:
    """Tilted distribution p(x)**alpha, renormalized; alpha = 1 is the identity."""
    _check_alpha(alpha)
    w = p.probs ** alpha
    total = float(w.sum())
    if total <= 0.0 or not np.isfinite(total):
        raise NonFinite("tilt has no finite positive mass")
    return Pmf(w / total)


def _check_alpha(alpha: float) -> None:
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise BadAlpha(f"order must be a finite positive real, got {alpha!r}")


def _checked_order(alpha: float) -> float:
    """The order of an order-a measure or rule as a float: finite, positive
    and not 1 (order 1 is the Shannon measure and the log rules)."""
    _check_alpha(alpha)
    if alpha == 1.0:
        raise BadAlpha("order 1 is not accepted; use the shannon measure or a log rule")
    return float(alpha)
