"""The two workloads: inputs built from the seed, operations, and checks.

A workload is a list of rounds; every round holds the same operations in
the same order, on its own inputs where the inputs are seeded.  A run
cycles through the rounds, so every run attempts whole rounds and the
share of failed operations is the same in every run.

Checks compare against `reference`, which shares no code with genmi.
Channels are re-read from their text by `channel_rows` for the same
reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

#: Distinct rounds of inputs built at set-up; a run cycles through them.
ROUNDS = 4
#: Fewest operations a run attempts, so that p75 has ten samples beyond it.
MIN_OPS = 40
#: Percentile reported as op_tail_ms.
TAIL_PERCENTILE = 75

MI_TOL = 1e-9  # reported value vs reference H-MI at the returned prior
DUAL_TOL = 1e-4  # dual bound minus reported capacity, closed-form solves
GRID_TOL = 1e-6  # fine-grid point above a numeric solve's capacity
ORACLE_TOL = 1e-10  # sampled grid point above the oracle's value
ORACLE_SAMPLES = 2000


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


@dataclass
class Op:
    """One timed call into genmi and the check of what it returned."""

    key: str
    run: Callable[[], object]
    check: Callable[["Op", object], None]
    args: dict
    memo: dict = field(default_factory=dict)
    #: What of the output is kept for the check, taken outside the timing.
    keep: Callable[[object], object] = lambda out: out


@dataclass
class Workload:
    rounds: list[list[Op]]
    warm_up: Callable[[], None]

    def round(self, r: int) -> list[Op]:
        return self.rounds[r % len(self.rounds)]


def _fail(op: Op, what: str) -> None:
    raise CheckFailed(f"{op.key}: {what}")


def channel_rows(text: str) -> np.ndarray:
    """The channel in `random_channel_text` output, read without genmi."""
    rows = np.array(
        [[float(t) for t in line.split()[1:]] for line in text.splitlines() if line.startswith("row ")]
    )
    return rows / rows.sum(axis=1, keepdims=True)


def _channel(g, nx: int, ny: int, seed: int):
    text = g.io.random_channel_text(nx, ny, seed)
    chan, _ = g.io.parse_channel_text(text)
    return chan, text


def _ref_channel(op: Op, chan) -> np.ndarray:
    if "w" not in op.memo:
        w = channel_rows(op.args["text"])
        if chan.rows.shape != w.shape or np.max(np.abs(chan.rows - w)) > 1e-12:
            _fail(op, "parsed channel differs from its text")
        op.memo["w"] = w
    return op.memo["w"]


def _seeds(workload_index: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([workload_index, seed])


def _spec(g, algo: str, alpha: float | None):
    return {
        "shannon": lambda: g.shannon_spec(),
        "a1": lambda: g.arimoto_a1_spec(alpha),
        "a2": lambda: g.arimoto_a2_spec(alpha),
        "hayashi": lambda: g.hayashi_spec(alpha),
        "fb": lambda: g.fb_spec(alpha),
    }[algo]()


_MEASURE = {"shannon": "shannon", "a1": "arimoto", "a2": "arimoto",
            "hayashi": "hayashi", "fb": "fehr-berens"}


# ---------------------------------------------------------------------------
# capacity: solve()
# ---------------------------------------------------------------------------


def _solve_op(g, algo, alpha, nx, ny, ch_seed, tag="", channel=None, p0=None):
    chan, text = channel or _channel(g, nx, ny, ch_seed)
    cfg = g.SolverConfig(spec=_spec(g, algo, alpha), p0=p0)
    start = "" if p0 is None else " from a seeded start"
    return Op(
        key=f"solve {algo}({alpha}) {nx}x{ny} channel-seed {ch_seed}{start}{tag}",
        run=lambda: g.solve(cfg, chan),
        check=_check_solve,
        args={"measure": _MEASURE[algo], "alpha": alpha, "text": text, "chan": chan},
        # not the trace, which would make memory grow with the run's length
        keep=lambda res: (res.capacity, res.argmax_p),
    )


def _check_solve(op: Op, out) -> None:
    a = op.args
    w = _ref_channel(op, a["chan"])
    capacity, argmax_p = out
    p = np.asarray(argmax_p.probs, dtype=np.float64)
    if p.shape != (w.shape[0],) or p.min() < 0.0 or abs(p.sum() - 1.0) > 1e-9:
        _fail(op, "returned prior is not a pmf on the inputs")
    value = ref.mi_one(a["measure"], a["alpha"], p, w)
    if not abs(capacity - value) <= MI_TOL:
        _fail(op, f"capacity {capacity!r} but H-MI at its prior is {value!r}")
    bound = ref.dual_bound(a["measure"], a["alpha"], p, w)
    if bound is not None:
        if not capacity - 1e-12 <= bound <= capacity + DUAL_TOL:
            _fail(op, f"dual bound {bound!r} vs capacity {capacity!r}")
        return
    if "grid" not in op.memo:
        op.memo["grid"] = ref.grid_max(a["measure"], a["alpha"], w)[0]
    if op.memo["grid"] > capacity + GRID_TOL:
        _fail(op, f"fine grid reaches {op.memo['grid']!r} above capacity {capacity!r}")


CLOSED_MEASURES = [("shannon", None), ("a2", 0.5), ("a2", 2.0), ("a1", 0.5)]
CLOSED_SHAPES = [(3, 3), (16, 16), (64, 64), (8, 256), (256, 8)]


def _closed_rounds(g, rng) -> list[list[Op]]:
    """Named channels (random-channel seeds 1 to 4, one per measure), seeded
    starting priors.

    Iteration counts depend on the channel far more than on the start: one
    64x64 Shannon solve took 2,010 to 5,646 iterations over six channel
    draws, but 3,971 to 4,119 over five starts on one channel.  A run
    holds only three or four rounds, so seeded channels would set the
    metrics by the luck of the draw.
    """
    channels = {
        (shape, i): _channel(g, *shape, 1 + i)
        for shape in CLOSED_SHAPES
        for i in range(len(CLOSED_MEASURES))
    }
    # Uniform start, like the CLI: spends the whole 10,000-iteration budget,
    # yet its result is within 5.6e-7 nats of the dual bound.
    budget = _solve_op(g, "a2", 0.5, 3, 3, 1, " (budget)")
    rounds = []
    for _ in range(ROUNDS):
        ops = []
        for nx, ny in CLOSED_SHAPES:
            for i, (algo, alpha) in enumerate(CLOSED_MEASURES):
                p0 = g.make_pmf(0.5 / nx + 0.5 * rng.dirichlet(np.ones(nx)))
                ops.append(_solve_op(g, algo, alpha, nx, ny, 1 + i,
                                     channel=channels[((nx, ny), i)], p0=p0))
        rounds.append(ops + [budget])
    return rounds


#: Fixed numeric solves: (algo, alpha, n, random-channel seed).  These
#: channels are named, not seeded: on seeded 3x3 and 4x4 channels (and on
#: 2x2 for Hayashi 0.5) single solves range from milliseconds to over
#: ten seconds, and some 4x4 channels hit the boundary fault, so a seeded
#: choice would make a run's length and failure share depend on the seed.
NUMERIC_FIXED = [
    ("hayashi", 0.5, 2, 0), ("hayashi", 0.5, 2, 3), ("hayashi", 0.5, 2, 7),
    ("hayashi", 0.5, 3, 0), ("hayashi", 0.5, 3, 10),
    ("hayashi", 2.0, 3, 2), ("hayashi", 2.0, 3, 5), ("hayashi", 2.0, 3, 8),
    ("fb", 2.0, 3, 2), ("fb", 2.0, 3, 5), ("fb", 2.0, 3, 8),
    ("hayashi", 2.0, 4, 0), ("fb", 2.0, 4, 0),
]
#: Fails every time with DomainError (boundary fault in p_step_numeric).
NUMERIC_FAILING = ("fb", 2.0, 4, 3)
#: Seeded 2x2 channels per round for each order-2 measure.
NUMERIC_SEEDED_2X2 = 2


def _numeric_rounds(g, rng) -> list[list[Op]]:
    fixed = [_solve_op(g, algo, a, n, n, s) for algo, a, n, s in NUMERIC_FIXED]
    algo, a, n, s = NUMERIC_FAILING
    fixed.append(_solve_op(g, algo, a, n, n, s, " (known to fail)"))
    rounds = []
    for _ in range(ROUNDS):
        seeded = [
            _solve_op(g, algo, 2.0, 2, 2, int(rng.integers(1 << 62)))
            for algo in ("hayashi", "fb")
            for _ in range(NUMERIC_SEEDED_2X2)
        ]
        rounds.append(seeded + fixed)
    return rounds


# ---------------------------------------------------------------------------
# the grid oracle: brute_force_search()
# ---------------------------------------------------------------------------

ORACLE_MEASURES = [("shannon", None), ("a2", 2.0), ("hayashi", 0.5), ("fb", 2.0)]
#: (inputs, resolution) of the oracle grids.
ORACLE_GRIDS = [(2, 1e-3), (3, 2e-3), (4, 1e-2)]
#: Output alphabet sizes, assigned to (measure, grid) slots in turn.
ORACLE_NY = [16, 9, 13, 11, 3, 8, 6, 4, 2, 5, 3, 4]


def _oracle_op(g, algo, alpha, m, ny, resolution, ch_seed):
    chan, text = _channel(g, m, ny, ch_seed)
    spec = _spec(g, algo, alpha)
    return Op(
        key=f"oracle {algo}({alpha}) {m}x{ny} res {resolution} channel-seed {ch_seed}",
        run=lambda: g.brute_force_search(spec, chan, resolution),
        check=_check_oracle,
        args={"measure": _MEASURE[algo], "alpha": alpha, "text": text, "chan": chan,
              "steps": round(1.0 / resolution), "seed": ch_seed},
    )


def _check_oracle(op: Op, out) -> None:
    a = op.args
    w = _ref_channel(op, a["chan"])
    value, best = out
    p = np.asarray(best.probs, dtype=np.float64)
    at_best = ref.mi_one(a["measure"], a["alpha"], p, w)
    if not abs(value - at_best) <= MI_TOL:
        _fail(op, f"value {value!r} but H-MI at best_p is {at_best!r}")
    if "opt" not in op.memo:
        m, steps = w.shape[0], a["steps"]
        _, p_opt = ref.maximize(a["measure"], a["alpha"], w)
        pts = np.vstack([
            ref.sample_grid(m, steps, ORACLE_SAMPLES, np.random.default_rng(a["seed"] % (1 << 32))),
            ref.round_to_grid(p_opt, steps)[None, :],
        ])
        op.memo["opt"] = (
            ref.dual_bound(a["measure"], a["alpha"], p_opt, w),
            float(ref.mi(a["measure"], a["alpha"], pts, w).max()),
        )
    bound, sampled = op.memo["opt"]
    if bound is not None and value > bound + 1e-12:
        _fail(op, f"value {value!r} above the dual bound {bound!r}")
    if value < sampled - ORACLE_TOL:
        _fail(op, f"value {value!r} below a grid point's {sampled!r}")


def _oracle_rounds(g, rng) -> list[list[Op]]:
    rounds = []
    for _ in range(ROUNDS):
        slots = [(mes, grid) for grid in ORACLE_GRIDS for mes in ORACLE_MEASURES]
        rounds.append([
            _oracle_op(g, algo, alpha, m, ORACLE_NY[i], res, int(rng.integers(1 << 62)))
            for i, ((algo, alpha), (m, res)) in enumerate(slots)
        ])
    return rounds


def capacity(g, seed: int) -> Workload:
    """Both entry points of genmi.capacity in one round: solve() through the
    closed-form prior step (Shannon, Arimoto) and through the
    finite-difference one (Hayashi, Fehr-Berens), then the grid oracle."""
    closed = _closed_rounds(g, _seeds(0, seed))
    numeric = _numeric_rounds(g, _seeds(1, seed))
    grid = _oracle_rounds(g, _seeds(2, seed))
    rounds = [c + n + o for c, n, o in zip(closed, numeric, grid)]
    warm = [_solve_op(g, algo, alpha, 2, 2, 0)
            for algo, alpha in CLOSED_MEASURES + [("hayashi", 2.0), ("fb", 2.0)]]
    warm += [_oracle_op(g, algo, alpha, 3, 3, 1e-1, 0) for algo, alpha in ORACLE_MEASURES]
    return Workload(rounds, lambda: [op.run() for op in warm])


# ---------------------------------------------------------------------------
# evaluate: mutual_information() and the leakages
# ---------------------------------------------------------------------------

EVAL_MEASURES = [("shannon", None), ("arimoto", 0.5), ("arimoto", 2.0),
                 ("hayashi", 0.5), ("hayashi", 2.0), ("fehr-berens", 2.0)]
#: (nx, ny, priors per operation).  Each operation lasts 100 ms or more,
#: and their lengths spread over about 3x (110 to 340 ms here): with
#: equal lengths, p50 and p75 jump whole steps when the machine's speed
#: changes for part of a run; spread out, they move smoothly.
EVAL_SHAPES = [(8, 8, 10), (8, 8, 20), (8, 8, 30), (64, 64, 1), (64, 64, 2),
               (8, 256, 1), (8, 256, 2)]


def _eval_tools(g):
    pair = {"shannon": lambda a: g.shannon_pair(), "arimoto": g.arimoto_pair,
            "hayashi": g.hayashi_pair, "fehr-berens": g.fehr_berens_pair}
    rules = [g.log_score_rule(), g.pseudo_spherical_rule(2.0), g.power_rule(2.0),
             g.alpha_score_rule(2.0)]
    return [pair[m](a) for m, a in EVAL_MEASURES], rules


def _eval_op(g, tools, nx, ny, n_priors, rng):
    pairs, rules = tools
    chan, text = _channel(g, nx, ny, int(rng.integers(1 << 62)))
    priors = [g.make_pmf(rng.dirichlet(np.ones(nx))) for _ in range(n_priors)]
    gain = g.identity_gain(nx)
    multiplicative = [r for r in rules if r.c_of_g is not None]

    def run():
        out = []
        for p in priors:
            out.append((
                [g.mutual_information(pair, p, chan).mi for pair in pairs],
                g.evsi(gain, p, chan).additive,
                g.mevsi_matrix(gain, p, chan),
                [g.evsi_scoring(rule, p, chan).additive for rule in rules],
                {r.name: g.mevsi_scoring(r, p, chan) for r in multiplicative},
            ))
        return out

    return Op(
        key=f"evaluate {nx}x{ny} x{n_priors} priors",
        run=run,
        check=_check_eval,
        args={"text": text, "chan": chan, "priors": [p.probs for p in priors]},
    )


def _close(op: Op, what: str, got: float, want: float) -> None:
    if not abs(got - want) <= MI_TOL:
        _fail(op, f"{what}: {got!r}, reference {want!r}")


def _check_eval(op: Op, out) -> None:
    w = _ref_channel(op, op.args["chan"])
    for p, (mis, bayes_add, bayes_mult, scoring_add, scoring_mult) in zip(op.args["priors"], out):
        want = {m_a: ref.mi_one(*m_a, p, w) for m_a in EVAL_MEASURES}
        for m_a, got in zip(EVAL_MEASURES, mis):
            _close(op, f"{m_a} H-MI", got, want[m_a])
        v_prior = ref.bayes_vulnerability(p)
        v_post = ref.posterior_bayes_vulnerability(p, w)
        _close(op, "identity-gain leakage", bayes_add, v_post - v_prior)
        _close(op, "identity-gain multiplicative leakage", bayes_mult, math.log(v_post / v_prior))
        _close(op, "log-score leakage vs Shannon MI", scoring_add[0], want[("shannon", None)])
        if min(scoring_add) < -1e-12:
            _fail(op, f"negative additive scoring leakage {scoring_add!r}")
        _close(op, "pseudo-spherical(2) multiplicative vs Arimoto(2)",
               scoring_mult["pseudo-spherical"], want[("arimoto", 2.0)])
        _close(op, "alpha-score(2) multiplicative vs Arimoto(2)",
               scoring_mult["alpha-score"], want[("arimoto", 2.0)])
        _close(op, "power(2) multiplicative vs Hayashi(2)",
               scoring_mult["power"], want[("hayashi", 2.0)])


def evaluate(g, seed: int) -> Workload:
    rng = _seeds(3, seed)
    tools = _eval_tools(g)
    rounds = [
        [_eval_op(g, tools, nx, ny, k, rng) for nx, ny, k in EVAL_SHAPES]
        for _ in range(ROUNDS)
    ]
    warm = _eval_op(g, tools, 8, 8, 1, np.random.default_rng(0))
    return Workload(rounds, warm.run)


BUILDERS = {
    "capacity": capacity,
    "evaluate": evaluate,
}
