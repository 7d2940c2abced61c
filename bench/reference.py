"""Reference formulas the benchmark checks genmi's outputs against.

Written from the definitions with numpy alone.  Nothing here imports
genmi, so a fault in the library cannot hide inside its own check.  All
values are in nats.  For a prior p, a channel W, the joint J = p W (cell
J[x, y] = p[x] W[x, y]) and the output marginal r = pW:

    shannon         I = sum_xy J log(W / r)
    arimoto(a)      I = a/(1-a) [log ||p||_a - log sum_y ||J[:, y]||_a]
    hayashi(a)      I = 1/(1-a) [log sum_x p^a - log sum_y r_y^(1-a) sum_x J[x, y]^a]
    fehr-berens(a)  I = log sum_y r_y ||J[:, y] / r_y||_a^(a/(a-1)) - 1/(a-1) log sum_x p^a

Every evaluator takes a batch of priors, shape (N, m), and returns (N,).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MEASURES = ("shannon", "arimoto", "hayashi", "fehr-berens")

#: Rows evaluated at once, so that (rows, m, ny) temporaries stay small.
_CHUNK = 16_384


def mi(measure: str, alpha: float | None, priors, w) -> np.ndarray:
    """H-mutual information of `measure` at each row of `priors`."""
    p = np.atleast_2d(np.asarray(priors, dtype=np.float64))
    w = np.asarray(w, dtype=np.float64)
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    out = np.empty(p.shape[0])
    for i in range(0, p.shape[0], _CHUNK):
        out[i : i + _CHUNK] = _mi_chunk(measure, alpha, p[i : i + _CHUNK], w)
    return out


def _mi_chunk(measure, a, p, w):
    joint = p[:, :, None] * w[None, :, :]  # (N, m, ny)
    r = p @ w  # (N, ny)
    if measure == "shannon":
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(joint > 0.0, w[None, :, :] / r[:, None, :], 1.0)
        return np.sum(joint * np.log(ratio), axis=(1, 2))
    sum_p = np.sum(p ** a, axis=1)
    col = np.sum(joint ** a, axis=1)  # sum_x J[x, y]^a, (N, ny)
    if measure == "arimoto":
        return (a / (1.0 - a)) * (
            np.log(sum_p) / a - np.log(np.sum(col ** (1.0 / a), axis=1))
        )
    if measure == "hayashi":
        with np.errstate(divide="ignore"):
            avg = np.sum(np.where(r > 0.0, r ** (1.0 - a) * col, 0.0), axis=1)
        return (np.log(sum_p) - np.log(avg)) / (1.0 - a)
    # fehr-berens: r * (col / r^a)^(1/(a-1)) = col^(1/(a-1)) * r^(-1/(a-1))
    with np.errstate(divide="ignore"):
        avg = np.sum(
            np.where(r > 0.0, col ** (1.0 / (a - 1.0)) * r ** (-1.0 / (a - 1.0)), 0.0),
            axis=1,
        )
    return np.log(avg) - np.log(sum_p) / (a - 1.0)


def mi_one(measure: str, alpha: float | None, p, w) -> float:
    return float(mi(measure, alpha, np.asarray(p)[None, :], w)[0])


# ---------------------------------------------------------------------------
# Dual upper bounds on capacity
# ---------------------------------------------------------------------------


def shannon_dual_bound(p, w) -> float:
    """max_x D(W_x || pW), an upper bound on the Shannon capacity for every p
    (Arimoto 1972; Blahut 1972); it meets the capacity at the optimal p."""
    w = np.asarray(w, dtype=np.float64)
    r = np.asarray(p, dtype=np.float64) @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log(w / r[None, :]), 0.0)
    return float(np.max(terms.sum(axis=1)))


def arimoto_dual_bound(alpha: float, p, w) -> float:
    """max_x D_a(W_x || Q) with Q proportional to (sum_x t_x W_x^a)^(1/a), t
    the a-tilt of p.  The Arimoto and Sibson capacities of order a agree and
    equal min_Q max_x D_a(W_x || Q) (Csiszar 1995), so this bounds the
    Arimoto capacity from above for every p."""
    a = float(alpha)
    w = np.asarray(w, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    t = p ** a / np.sum(p ** a)
    q = (t @ w ** a) ** (1.0 / a)
    q = q / q.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w ** a * q[None, :] ** (1.0 - a), 0.0)
    return float(np.max(np.log(terms.sum(axis=1)) / (a - 1.0)))


def dual_bound(measure: str, alpha: float | None, p, w) -> float | None:
    """The dual bound for `measure`, or None where the benchmark has none."""
    if measure == "shannon":
        return shannon_dual_bound(p, w)
    if measure == "arimoto":
        return arimoto_dual_bound(alpha, p, w)
    return None


# ---------------------------------------------------------------------------
# Bayes vulnerability (identity gain)
# ---------------------------------------------------------------------------


def bayes_vulnerability(p) -> float:
    return float(np.max(p))


def posterior_bayes_vulnerability(p, w) -> float:
    """sum_y max_x p_x W[x, y]: the chance of guessing X right after seeing Y."""
    joint = np.asarray(p, dtype=np.float64)[:, None] * np.asarray(w, dtype=np.float64)
    return float(np.sum(joint.max(axis=0)))


# ---------------------------------------------------------------------------
# Simplex grids and a grid-free maximizer
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def compositions(m: int, n: int) -> np.ndarray:
    """All vectors of m non-negative integers summing to n, one per row."""
    if m == 1:
        return np.array([[n]], dtype=np.int64)
    parts = []
    for k in range(n + 1):
        rest = compositions(m - 1, n - k)
        parts.append(np.column_stack([np.full(rest.shape[0], k, dtype=np.int64), rest]))
    out = np.vstack(parts)
    out.flags.writeable = False
    return out


def simplex_grid(m: int, n: int) -> np.ndarray:
    """Every prior whose entries are multiples of 1/n."""
    return compositions(m, n) / n


#: Grid steps of the fine grid, by alphabet size (m <= 4).
FINE_STEPS = {1: 1, 2: 10_000, 3: 400, 4: 100}


def grid_max(measure: str, alpha: float | None, w, n: int | None = None):
    """Largest H-MI over the grid with steps 1/n (the fine grid by default)."""
    w = np.asarray(w, dtype=np.float64)
    m = w.shape[0]
    grid = simplex_grid(m, FINE_STEPS[m] if n is None else n)
    vals = mi(measure, alpha, grid, w)
    i = int(np.argmax(vals))
    return float(vals[i]), grid[i]


def sample_grid(m: int, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` points drawn uniformly from the grid with steps 1/n.

    Stars and bars: m - 1 distinct bar positions among n + m - 1 slots.
    """
    slots = n + m - 1
    bars = np.sort(np.argsort(rng.random((count, slots)), axis=1)[:, : m - 1], axis=1)
    edges = np.column_stack([np.full(count, -1), bars, np.full(count, slots)])
    return (np.diff(edges, axis=1) - 1) / n


def round_to_grid(p, n: int) -> np.ndarray:
    """The grid point with steps 1/n nearest p, by largest remainders."""
    p = np.asarray(p, dtype=np.float64)
    scaled = p * n
    base = np.floor(scaled).astype(np.int64)
    short = n - int(base.sum())
    order = np.argsort(-(scaled - base), kind="stable")
    base[order[:short]] += 1
    return base / n


def maximize(measure: str, alpha: float | None, w, tol: float = 1e-11):
    """Pattern search for the capacity-achieving prior.

    Starts at the best point of a coarse grid and moves mass h between
    pairs of inputs, halving h when no move gains; it shares no code with
    genmi's solver or oracle.  Returns (value, prior).
    """
    w = np.asarray(w, dtype=np.float64)
    m = w.shape[0]
    if m == 1:
        return mi_one(measure, alpha, [1.0], w), np.array([1.0])
    coarse = {2: 1000, 3: 100, 4: 30}[m]
    best, p = grid_max(measure, alpha, w, coarse)
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    h = 1.0 / coarse
    for _ in range(100_000):
        if h <= tol:
            break
        cand = np.repeat(p[None, :], len(pairs), axis=0)
        for k, (i, j) in enumerate(pairs):
            step = min(h, p[j])
            cand[k, i] += step
            cand[k, j] -= step
        vals = mi(measure, alpha, cand, w)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, p = float(vals[k]), cand[k]
        else:
            h *= 0.5
    return best, p

