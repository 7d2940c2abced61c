"""Alternating-maximization capacity solver and its brute-force oracle.

The solver alternates exact inner maximization over response families
with outer maximization over priors, tracking the objective after each
full round.  The outer step is exact for every built-in measure (a
closed form for Shannon and Arimoto, a root-found KKT point for Hayashi
and Fehr-Berens); only the generic functional takes a safeguarded
exponentiated-gradient ascent on the analytic gradient instead, with a
fixed round budget and step size and no setting of its own.  Solving
`generic_spec(spec.pair)` cross-checks a built-in measure's exact step.
Below order 1 that ascent can stop short of the capacity while the loop
reports convergence.  Each iteration reads
the objective and the coefficients of the next prior step together: for
an exact step from matrix-vector products at the posterior (the
Blahut-Arimoto form, `variational._coeff_kernel`), otherwise from one
loss-cell table.

The plain alternation converges linearly.  So each prior step t = T(p),
exact or numeric, is followed by an extrapolated trial x proportional
to t (t/p)^(mu-1) over t's support (Matz & Duhamel 2004; Varadhan &
Roland 2008), kept only if its objective is at least t's and it empties
no input that t keeps.  mu starts at _MU_GROW, grows by _MU_GROW on
each kept trial up to _MU_MAX, and is cut by _MU_CUT on each rejected
one down to 1, where x is t itself and no trial is taken; log-ratios
within _RATIO_TIE of the largest count as tied with it.  So an
iteration is an outer round of up to two kernel calls, and its trace
value is the better of t and x.

It stops when the objective gain drops below the threshold or the
iteration budget runs out; because the half-steps are maximizations and
a trial is kept only where it is no worse, the trace can never properly
decrease -- a decrease beyond 1e-8 is reported as an internal bug.  For
the Shannon and Arimoto measures, by either route, the result also
carries the dual gap at the returned prior, a certified bound on how far
the capacity can lie above it.  At an extrapolated prior that bound can
be looser than at the plain step's (8.8e-6 against 1.4e-6 for Shannon on
random-channel 64x64 seed 1), although the capacity there is no lower.

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
It streams the grid in blocks of _BLOCK_CELLS cells and never builds it
whole, so its memory stays a few MB for any number of inputs; the only
limit on its size is MAX_GRID_POINTS, a bound on its time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .entropy import _core_values, _eta_values
from .errors import Diverged, DimensionMismatch, DomainError, TooLarge
from .simplex import Channel, Pmf, uniform
from .variational import (
    _QUIET,
    FunctionalSpec,
    _coeff_kernel,
    _exact_step,
    _outer_value,
    _p_numeric,
    _table_coeffs,
)

#: Largest simplex grid the oracle will enumerate: a bound on its time,
#: since its memory does not grow with the grid (a few seconds at m = 5).
MAX_GRID_POINTS = 20_000_000
#: Cells (grid points x |X| x |Y|) in one oracle block, so that the
#: (|X|, |Y|, rows) posterior block of `_batch_mi` and its temporaries
#: stay a few 0.5 MB arrays whatever the channel's or the grid's size:
#: the grid itself is built one block at a time (`_grid_chunks`).  On the
#: bench's oracle grids blocks of 2^14 or 2^20 cells run ~25 % slower.
_BLOCK_CELLS = 2 ** 16

#: The exponent mu of the extrapolated trial after each prior step: it
#: starts at _MU_GROW, grows by _MU_GROW on a kept trial, up to _MU_MAX,
#: and is cut by _MU_CUT on a rejected one, down to 1.
_MU_GROW, _MU_CUT, _MU_MAX = 1.5, 3.0, 256.0
#: Log-ratios this close to the largest are rounding ties (`_extrapolated`).
_RATIO_TIE = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Measure selection plus stopping settings.

    `epsilon` is the absolute objective-gain threshold (must lie in
    (0, 1)); `relative` switches to |gain| / max(1, |value|) as an
    opt-in.  `max_iter` is an integer of at least 1.  Each setting out of
    range raises DomainError.  The spec's kind picks the prior step: the
    exact one for every built-in kind, the numeric ascent for the generic
    kind, whose rounds and step size are fixed
    (`variational._NUMERIC_ROUNDS`, `_NUMERIC_STEP`).
    """

    spec: FunctionalSpec
    epsilon: float = 1e-10
    max_iter: int = 10000
    p0: Pmf | None = None
    relative: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise DomainError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class SolveResult:
    capacity: float
    argmax_p: Pmf
    iterations: int
    trace: tuple[float, ...]
    converged: bool
    #: The dual bound less the capacity at argmax_p (`_dual_radius`):
    #: capacity is at most `capacity + gap`.  None where no bound is known.
    gap: float | None = None


def solve(cfg: SolverConfig, w: Channel) -> SolveResult:
    """Run the alternating maximization on the channel.

    Starts from cfg.p0 (uniform by default, which must be strictly
    interior), takes the exact response step, then loops prior step /
    response step until the objective stalls within epsilon.  After each
    prior step, exact or numeric, the round also tries the extrapolated
    prior of `_extrapolated` and keeps the better of the two, so
    `iterations` counts rounds of up to two kernel calls; `gap` may be
    looser at an extrapolated prior than at a plain one.
    """
    spec = cfg.spec
    p_x = cfg.p0 if cfg.p0 is not None else uniform(w.nx)
    if len(p_x) != w.nx:
        raise DimensionMismatch("initial prior and channel input alphabets differ")
    if np.any(p_x.probs <= 0.0):
        raise DomainError("initial prior must be strictly positive")

    exact = spec.has_closed_p_step
    mu = _MU_GROW  # as after a kept trial at mu = 1
    wm = w.rows
    converged = False
    with np.errstate(**_QUIET):
        # c and E at the response step of p: matrix-vector products for an
        # exact step, the loss-cell table otherwise
        coeffs = (_coeff_kernel if exact else _table_coeffs)(spec, wm)
        p_exact = _exact_step(spec) if exact else None
        p = p_x.probs
        c, e = coeffs(p)
        trace = [_outer_value(spec, p, e)]
        for _ in range(cfg.max_iter):
            t = p_exact(c) if exact else _p_numeric(spec, c, p)
            c, e = coeffs(t)
            value = _outer_value(spec, t, e)
            # at mu = 1 the trial is t itself: kept without a kernel call
            kept = mu == 1.0
            x = None if kept else _extrapolated(p, t, mu)
            if x is not None:
                c_x, e_x = coeffs(x)
                value_x = _outer_value(spec, x, e_x)
                kept = value_x >= value
                if kept:
                    t, c, e, value = x, c_x, e_x, value_x
            mu = min(mu * _MU_GROW, _MU_MAX) if kept else max(mu / _MU_CUT, 1.0)
            p = t
            if value < trace[-1] - 1e-8:
                raise Diverged(f"iteration {len(trace)}: objective decreased "
                               f"from {trace[-1]:.12g} to {value:.12g}")
            gain = abs(value - trace[-1])
            trace.append(value)
            if cfg.relative:
                gain = gain / max(1.0, abs(value))
            if gain < cfg.epsilon:
                converged = True
                break
        radius = _dual_radius(spec, wm, p)

    return SolveResult(
        capacity=trace[-1],
        argmax_p=Pmf(p),
        iterations=len(trace) - 1,
        trace=tuple(trace),
        converged=converged,
        gap=None if radius is None else radius - trace[-1],
    )


def _extrapolated(p: np.ndarray, t: np.ndarray, mu: float) -> np.ndarray | None:
    """The trial x proportional to t (t/p)^(mu-1) over t's support, formed
    in log space; None where it empties an input that t keeps.

    Log-ratios log(t/p) within _RATIO_TIE of the largest count as equal to
    it.  Inputs the channel treats alike (a symmetric channel's) have equal
    ratios up to rounding, and a trial would otherwise scale that rounding
    by mu - 1 round after round: 1e-16 grows to 1e-9 in twelve rounds.  The
    caller holds `np.errstate(**_QUIET)`.
    """
    keep = t > 0.0
    log_t = np.log(t)
    ratio = np.where(keep, log_t - np.log(p), -math.inf)
    top = ratio.max()
    ratio = np.where(ratio >= top - _RATIO_TIE, top, ratio)
    log_x = log_t + (mu - 1.0) * (ratio - top)
    x = np.exp(log_x - log_x.max())
    x = x / x.sum()
    return x if np.all(x[keep] > 0.0) else None


def _dual_radius(spec: FunctionalSpec, w: np.ndarray, p: np.ndarray) -> float | None:
    """An upper bound on the capacity read from the prior p, where a dual
    bound is known: max_x D(W_x || pW) for Shannon (Arimoto 1972), and
    for Arimoto max_x D_a(W_x || Q) with Q proportional to (p^a W^a)^(1/a)
    (Csiszar 1995), the order-a Renyi divergence
    D_a(P || Q) = log(sum_y P^a Q^(1-a)) / (a - 1).  The measure is read
    from the pair's row, whatever the kind; None for the other measures and
    for a custom pair.  +inf if some input reaches an output Q gives no
    mass.  The caller holds `np.errstate(**_QUIET)`."""
    measure = spec.pair.row[0] if spec.pair.row else None
    pos = w > 0.0
    if measure == "shannon":
        return float(np.where(pos, w * np.log(w / (p @ w)), 0.0).sum(axis=1).max())
    if measure != "arimoto":
        return None
    a = spec.alpha
    q = (p ** a @ w ** a) ** (1.0 / a)
    q = q / q.sum()
    terms = np.where(pos, w ** a * q ** (1.0 - a), 0.0).sum(axis=1)
    return float((np.log(terms) / (a - 1.0)).max())


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
    golden-section search.  Any number of inputs is accepted; TooLarge if
    the grid has more than MAX_GRID_POINTS points.
    """
    m = w.nx
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
    chunk_rows = max(1, _BLOCK_CELLS // (m * w.ny))
    # one workspace for every block's posterior columns: with a fresh one
    # per block, glibc's malloc gave the heap back after each block and
    # faulted it in again, ~1.5x slower on the bench's oracle grids
    work = np.empty(m * w.ny * chunk_rows)
    for chunk in _grid_chunks(m, steps, chunk_rows):
        vals = _batch_mi(spec, chunk, w.rows, work)
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

    Every block but the last holds exactly chunk_rows points.  The grid is
    never built whole: the blocks are filled from the runs of `_grid_runs`,
    so the memory is O(m (chunk_rows + steps)) whatever the grid's size.
    Each block is the (rows, m) transpose of a fresh (m, rows) array, so
    `_batch_mi` reads every coordinate of its priors as one contiguous run.
    """
    left = math.comb(steps + m - 1, m - 1)
    block, filled = np.empty((m, min(chunk_rows, left))), 0
    for run in _grid_runs(m, steps, chunk_rows):
        done = 0
        while done < run.shape[1]:
            take = min(run.shape[1] - done, block.shape[1] - filled)
            block[:, filled : filled + take] = run[:, done : done + take]
            done += take
            filled += take
            if filled == block.shape[1]:
                block /= steps
                yield block.T
                left -= filled
                block, filled = np.empty((m, min(chunk_rows, left))), 0


def _grid_runs(m: int, steps: int, rows: int):
    """Yield the grid's points as counts summing to `steps`, in lexicographic
    order, as (m, n) integer runs of fewer than rows + steps + 1 points.

    Each point (k_1, ..., k_{m-2}, r) of the grid one dimension down is a
    line of r + 1 points here, (k_1, ..., k_{m-2}, k, r - k) for k = 0..r
    (stars and bars).  The lines are expanded together, in one group per
    block of `rows` points that their first points fall in.
    """
    if m == 1:
        yield np.array([[steps]])
        return
    start = 0
    for lines in _grid_runs(m - 1, steps, rows):
        counts = lines[-1] + 1
        firsts = start + np.cumsum(counts) - counts
        start = int(firsts[-1] + counts[-1])
        cuts = np.flatnonzero(np.diff(firsts // rows)) + 1
        for group in np.split(lines, cuts, axis=1):
            counts = group[-1] + 1
            rep = np.repeat(group, counts, axis=1)
            k = np.arange(rep.shape[1]) - np.repeat(np.cumsum(counts) - counts, counts)
            run = np.empty((m, rep.shape[1]), dtype=rep.dtype)
            run[:-2] = rep[:-1]
            run[-2] = k
            np.subtract(rep[-1], k, out=run[-1])
            yield run


def _batch_mi(
    spec: FunctionalSpec, priors: np.ndarray, w: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray:
    """Mutual information of the spec's measure at a batch of priors (rows).

    eta(F(p)) - eta(sum_y p_Y(y) F(p_{X|Y=y})) for every row at once: the
    pair's F reduces over axis 0, so the priors go in transposed and the
    posterior columns as one (|X|, |Y|, N) block, the N priors on the last,
    contiguous axis so that every elementwise pass runs long inner loops
    however few the outputs; outputs with no mass get no weight.  The
    block is written into `work`, a flat array of at least |X| |Y| N
    floats, where given.  UnsupportedSpec if the pair is not batched.
    """
    pair = spec.pair
    p_t = priors.T  # (nx, N)
    p_y = w.T @ p_t  # (ny, N)
    shape = w.shape + p_t.shape[1:]
    out = None if work is None else work[: math.prod(shape)].reshape(shape)
    cols = np.multiply(p_t[:, None, :], w[:, :, None], out=out)  # (nx, ny, N)
    cols /= np.where(p_y > 0.0, p_y, 1.0)  # posterior columns, 0 where p_y = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        avg = np.where(p_y > 0.0, p_y * _core_values(pair, cols), 0.0).sum(axis=0)
        return _eta_values(pair, _core_values(pair, p_t)) - _eta_values(pair, avg)


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
