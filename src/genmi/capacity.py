"""Alternating-maximization capacity solver and its brute-force oracle.

The solver alternates exact inner maximization over response families
with outer maximization over priors, tracking the objective after each
full round.  The outer step is exact for every built-in measure (a
closed form for Shannon and Arimoto, a root-found KKT point for Hayashi
and Fehr-Berens); the generic functional, or a solve with
`force_numeric`, takes a safeguarded exponentiated-gradient ascent on
the analytic gradient instead.  Each iteration builds one loss-cell
table, from which it reads both the objective and the coefficients of
the next prior step.  It stops when the objective gain drops below the
threshold or the iteration budget runs out; because both half-steps are
maximizations, the trace can never properly decrease -- a decrease
beyond 1e-8 is reported as an internal bug.

Inputs are validated at the edges of `solve`: on entry, where the start
must be strictly interior, and in the Pmf it returns.  In between, the
loop runs the array kernels of the steps, whose outputs meet those
checks by construction.  Iterates may reach the simplex boundary:
capacity-achieving priors often give some inputs no mass, and an input
the numeric ascent empties stays empty.

The oracle maximizes the mutual information itself over a simplex grid
(with golden-section refinement for binary inputs).  It shares only the
entropy kernel -- the measure's F and eta -- and touches none of the
functional or update code, so it catches errors anywhere in that chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _core_values, _eta_values
from .errors import Diverged, DimensionMismatch, DomainError, TooLarge
from .simplex import Channel, Pmf, uniform
from .variational import (
    _QUIET,
    FunctionalSpec,
    _check_count,
    _check_numeric_settings,
    _coeffs,
    _expectation,
    _loss_cells,
    _outer_value,
    _p_exact,
    _p_numeric,
    _q_cols,
)

#: Largest simplex grid the oracle will enumerate.
MAX_GRID_POINTS = 20_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Measure selection plus stopping and inner-solver knobs.

    `epsilon` is the absolute objective-gain threshold (must lie in
    (0, 1)); `relative` switches to |gain| / max(1, |value|) as an
    opt-in.  Every built-in measure has an exact prior step;
    `force_numeric` routes it through the numeric ascent instead (an
    independent cross-check).  `numeric_*` only matter for that ascent
    -- the generic functional's prior step, or a forced one -- but must
    be usable for all (an integer count of rounds, at least 1, and a
    finite positive step).  `max_iter` is an integer of at least 1 too.
    Each setting out of range raises DomainError.
    """

    spec: FunctionalSpec
    epsilon: float = 1e-10
    max_iter: int = 10000
    p0: Pmf | None = None
    numeric_step: float = 0.5
    numeric_iters: int = 200
    force_numeric: bool = False
    relative: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        _check_count("max_iter", self.max_iter)
        _check_numeric_settings(self.numeric_iters, self.numeric_step)


@dataclass(frozen=True)
class SolveResult:
    capacity: float
    argmax_p: Pmf
    iterations: int
    trace: tuple[float, ...]
    converged: bool


def solve(cfg: SolverConfig, w: Channel) -> SolveResult:
    """Run the alternating maximization on the channel.

    Starts from cfg.p0 (uniform by default, which must be strictly
    interior), takes the exact response step, then loops prior step /
    response step until the objective stalls within epsilon.
    """
    spec = cfg.spec
    p_x = cfg.p0 if cfg.p0 is not None else uniform(w.nx)
    if len(p_x) != w.nx:
        raise DimensionMismatch("initial prior and channel input alphabets differ")
    if np.any(p_x.probs <= 0.0):
        raise DomainError("initial prior must be strictly positive")

    exact = spec.has_closed_p_step and not cfg.force_numeric
    kind, a, wm = spec.kind, spec.alpha, w.rows
    pos = wm > 0.0
    used = pos.any(axis=0)

    def table(p):
        """The response step at p, its loss-cell table and the objective."""
        joint = p[:, None] * wm
        cells = _loss_cells(spec, _q_cols(kind, a, p, joint), used)
        return cells, _outer_value(spec, p, _expectation(joint, cells))

    converged = False
    with np.errstate(**_QUIET):
        p = p_x.probs
        cells, value = table(p)
        trace = [value]
        for _ in range(cfg.max_iter):
            c = _coeffs(wm, pos, cells)
            if exact:
                p = _p_exact(spec, c)
            else:
                p = _p_numeric(spec, c, p, cfg.numeric_iters, cfg.numeric_step)
            cells, value = table(p)
            if value < trace[-1] - 1e-8:
                raise Diverged(
                    f"objective decreased from {trace[-1]:.12g} to {value:.12g}"
                )
            gain = abs(value - trace[-1])
            trace.append(value)
            if cfg.relative:
                gain = gain / max(1.0, abs(value))
            if gain < cfg.epsilon:
                converged = True
                break

    return SolveResult(
        capacity=trace[-1],
        argmax_p=Pmf(p),
        iterations=len(trace) - 1,
        trace=tuple(trace),
        converged=converged,
    )


def convergence_trace(result: SolveResult) -> list[tuple[int, float, float | None]]:
    """Rows (k, objective, gain) for export; the first gain is undefined."""
    rows: list[tuple[int, float, float | None]] = []
    prev: float | None = None
    for k, value in enumerate(result.trace):
        rows.append((k, value, None if prev is None else value - prev))
        prev = value
    return rows


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_capacity(spec: FunctionalSpec, w: Channel, resolution: float) -> float:
    """Grid-search maximum of the mutual information over priors."""
    value, _ = brute_force_search(spec, w, resolution)
    return value


def brute_force_search(
    spec: FunctionalSpec, w: Channel, resolution: float
) -> tuple[float, Pmf]:
    """Grid-search maximum and its location.

    Enumerates all priors with entries on a grid of the given resolution,
    evaluates the measure's mutual information at each (a block of grid
    points at a time through the measure's own F and eta, never through
    the functional), and for binary inputs refines the best grid cell by
    golden-section search.
    """
    m = w.nx
    if m > 4:
        raise TooLarge(f"oracle handles at most 4 input symbols, got {m}")
    if not 1e-4 <= resolution <= 1e-1:
        raise DomainError(f"resolution must lie in [1e-4, 1e-1], got {resolution!r}")

    steps = max(1, round(1.0 / resolution))
    count = math.comb(steps + m - 1, m - 1)
    if count > MAX_GRID_POINTS:
        raise TooLarge(
            f"grid of {count} points exceeds the oracle limit of {MAX_GRID_POINTS}"
        )

    best_val = -math.inf
    best_p: np.ndarray | None = None
    for chunk in _grid_chunks(m, steps, chunk_rows=250_000):
        vals = _batch_mi(spec, chunk, w.rows)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_p = chunk[i].copy()

    if m == 2:
        t_best = best_p[0]
        lo = max(0.0, t_best - 1.0 / steps)
        hi = min(1.0, t_best + 1.0 / steps)
        t_ref, v_ref = _golden_max(
            lambda t: float(_batch_mi(spec, np.array([[t, 1.0 - t]]), w.rows)[0]),
            lo,
            hi,
        )
        if v_ref > best_val:
            best_val = v_ref
            best_p = np.array([t_ref, 1.0 - t_ref])

    return best_val, Pmf(best_p)


def _grid_chunks(m: int, steps: int, chunk_rows: int):
    """Yield blocks of simplex grid points (rows sum to 1) in lexicographic order.

    Each of the first m-1 coordinates splits every row into one per count
    0..rest (stars and bars); the last coordinate takes what is left.
    """
    rest = np.array([steps])
    cols: list[np.ndarray] = []
    for _ in range(m - 1):
        counts = rest + 1
        k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = [np.repeat(c, counts) for c in cols] + [k]
        rest = np.repeat(rest, counts) - k
    grid = np.column_stack(cols + [rest]).astype(np.float64) / steps
    for i in range(0, grid.shape[0], chunk_rows):
        yield grid[i : i + chunk_rows]


def _batch_mi(spec: FunctionalSpec, priors: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mutual information of the spec's measure at a batch of priors (rows).

    eta(F(p)) - eta(sum_y p_Y(y) F(p_{X|Y=y})) for every row at once: the
    pair's F reduces over axis 0, so the priors go in transposed and the
    posterior columns as one (|X|, N, |Y|) block; outputs with no mass get
    no weight.  UnsupportedSpec if the pair is not batched.
    """
    pair = spec.pair
    p_y = priors @ w  # (N, ny)
    cols = priors.T[:, :, None] * w[:, None, :]  # (nx, N, ny)
    cols /= np.where(p_y > 0.0, p_y, 1.0)  # posterior columns, 0 where p_y = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        avg = np.where(p_y > 0.0, p_y * _core_values(pair, cols), 0.0).sum(axis=1)
        return _eta_values(pair, _core_values(pair, priors.T)) - _eta_values(pair, avg)


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] down to width 1e-12."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    b = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fb, fd = f(b), f(d)
    while hi - lo > 1e-12:
        if fb > fd:
            hi, d, fd = d, b, fb
            b = hi - inv_phi * (hi - lo)
            fb = f(b)
        else:
            lo, b, fb = b, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    t = 0.5 * (lo + hi)
    return t, f(t)
