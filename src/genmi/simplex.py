"""Finite probability distributions, channels, posteriors, and tilts.

All containers are immutable (frozen dataclasses over read-only
arrays) and every operation is a pure function, so objects can be shared
freely across threads.  A constructor copies a writable input array
(`_freeze`), so the caller's array stays writable and cannot change the
container; a read-only one is shared.  Conventions used throughout the
package:

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


def _freeze(a) -> np.ndarray:
    """`a` as a read-only C-contiguous float64 array of one dimension or
    more.  A writable array the result would alias is copied first, so
    freezing never locks the caller's array or lets it change the result;
    a read-only one, such as a library container's own, is shared."""
    v = np.ascontiguousarray(a, dtype=np.float64)
    if v.flags.writeable and (v is a or v.base is not None):
        v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class Pmf:
    """Probability vector on a finite alphabet of size m >= 1."""

    probs: np.ndarray

    def __post_init__(self):
        p = _freeze(self.probs)
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
        w = np.atleast_2d(_freeze(self.rows))
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


def _joint(p_x: Pmf, w: Channel) -> np.ndarray:
    """The |X| x |Y| joint p_x(x) w(y|x) of a prior and a channel."""
    if len(p_x) != w.nx:
        raise DimensionMismatch(f"prior has {len(p_x)} entries, channel has {w.nx} rows")
    return p_x.probs[:, None] * w.rows


def posterior(p_x: Pmf, w: Channel) -> Posterior:
    """Bayes inversion of (p_x, w): output marginal and posterior columns."""
    cells = _joint(p_x, w)
    p_y = cells.sum(axis=0)
    support = np.flatnonzero(p_y > 0.0)
    cols = cells[:, support] / p_y[support]
    for made_here in (p_y, cols, support):  # frozen in place: nobody else holds them
        made_here.flags.writeable = False
    return Posterior(p_y=p_y, cols=cols, support=support)


def alpha_tilt(p: Pmf, alpha: float) -> Pmf:
    """Tilted distribution p(x)**alpha, renormalized; alpha = 1 is the identity.
    The powers are taken over p's largest entry (`_scaled_power`), so that
    no order underflows them all to 0."""
    _check_alpha(alpha)
    w = _scaled_power(p.probs, alpha)
    return Pmf(w / w.sum())


def _scaled_power(cells: np.ndarray, a: float) -> np.ndarray:
    """(cells / top) ** a with top the largest entry of each column (axis
    0): every column with mass keeps a largest entry of 1, whatever the
    order, where cells ** a may underflow to 0 throughout.  All-zero
    columns stay 0."""
    top = cells.max(axis=0)
    return (cells / np.where(top > 0.0, top, 1.0)) ** a


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


def _order_text(a: float) -> str:
    """The order as its shortest round-trip text without a trailing `.0`:
    2.0 prints as 2 and 0.99999999 as itself, never rounded to 1."""
    return repr(float(a)).removesuffix(".0")
