"""Alternating-maximization solver and the grid oracle."""

import gc
import itertools
import math

import numpy as np
import pytest

from genmi import (
    DomainError,
    EntropyPair,
    SolverConfig,
    TooLarge,
    UnsupportedSpec,
    arimoto_a1_spec,
    arimoto_a2_spec,
    brute_force_capacity,
    brute_force_search,
    conditional_entropy,
    convergence_trace,
    eval_functional,
    fb_spec,
    generic_spec,
    hayashi_spec,
    make_channel,
    make_pmf,
    mutual_information,
    p_step_closed,
    p_step_numeric,
    q_step,
    shannon_pair,
    shannon_spec,
    solve,
    uniform,
)
from genmi import capacity
from genmi.capacity import _batch_mi, _grid_chunks
from genmi.io import parse_channel_text, random_channel_text

from conftest import SCALAR_ONLY_PAIRS, binary_entropy, rand_channel

ALPHAS = (0.5, 2.0, 5.0)


def bsc(eps):
    return make_channel([[1 - eps, eps], [eps, 1 - eps]])


class TestSolveShannon:
    def test_bsc_closed_form(self):
        result = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-12), bsc(0.1))
        assert result.capacity == pytest.approx(math.log(2) - binary_entropy(0.1), abs=1e-10)
        assert result.capacity == pytest.approx(0.368064, abs=1e-6)
        np.testing.assert_allclose(result.argmax_p.probs, [0.5, 0.5], atol=1e-9)
        assert result.converged

    def test_identity_channel(self):
        for m in (2, 3, 4):
            result = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-12),
                           make_channel(np.eye(m)))
            assert result.capacity == pytest.approx(math.log(m), abs=1e-10)
            np.testing.assert_allclose(result.argmax_p.probs, 1 / m, atol=1e-9)

    def test_matches_oracle_on_random_channels(self):
        rng = np.random.default_rng(37)
        spec = shannon_spec()
        for _ in range(10):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            w = rand_channel(rng, m, n)
            got = solve(SolverConfig(spec=spec, epsilon=1e-12), w).capacity
            oracle = brute_force_capacity(spec, w, 2e-3 if m == 3 else 1e-3)
            assert got == pytest.approx(oracle, abs=1e-4)


class TestSolveArimoto:
    def test_a1_a2_agree(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            w = rand_channel(rng, 3, 3)
            for a in ALPHAS:
                c1 = solve(SolverConfig(spec=arimoto_a1_spec(a), epsilon=1e-12), w).capacity
                c2 = solve(SolverConfig(spec=arimoto_a2_spec(a), epsilon=1e-12), w).capacity
                assert c1 == pytest.approx(c2, abs=1e-6)

    def test_identity_channel(self):
        result = solve(SolverConfig(spec=arimoto_a2_spec(2.0), epsilon=1e-12),
                       make_channel(np.eye(2)))
        assert result.capacity == pytest.approx(math.log(2), abs=1e-10)
        np.testing.assert_allclose(result.argmax_p.probs, [0.5, 0.5], atol=1e-9)

    def test_symmetric_channel_uniform_argmax(self):
        w = make_channel([[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]])
        for spec in (shannon_spec(), arimoto_a2_spec(0.5), arimoto_a2_spec(2.0),
                     arimoto_a1_spec(2.0)):
            result = solve(SolverConfig(spec=spec, epsilon=1e-12), w)
            assert np.max(np.abs(result.argmax_p.probs - 1 / 3)) < 1e-4


class TestSolveNumeric:
    def test_hayashi_fb_track_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(4):
            w = rand_channel(rng, 2, 2, floor=0.02)
            for spec in (hayashi_spec(2.0), fb_spec(2.0)):
                result = solve(SolverConfig(spec=spec, epsilon=1e-10, max_iter=5000), w)
                oracle = brute_force_capacity(spec, w, 1e-3)
                start = mutual_information(spec.pair, uniform(2), w).mi
                assert result.capacity >= start - 1e-10
                assert result.capacity <= oracle + 1e-4
                if result.converged:
                    assert result.capacity == pytest.approx(oracle, abs=1e-3)

    def test_forced_numeric_matches_closed_shannon(self):
        rng = np.random.default_rng(47)
        w = rand_channel(rng, 2, 3)
        closed = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-11), w)
        numeric = solve(
            SolverConfig(spec=shannon_spec(), epsilon=1e-11, force_numeric=True,
                         numeric_iters=400),
            w,
        )
        assert numeric.capacity == pytest.approx(closed.capacity, abs=1e-6)


class TestBoundaryOptimaNumeric:
    """Channels whose Hayashi / Fehr-Berens optimum puts (almost) no mass on
    some inputs.  The numeric prior step used to underflow a coordinate to
    0 and then reject its own iterate with DomainError."""

    CASES = [
        (4, 1, "hayashi"), (6, 0, "hayashi"), (6, 4, "fb"), (8, 0, "fb"), (8, 6, "fb"),
        (8, 8, "hayashi"), (8, 8, "fb"), (16, 20260808, "hayashi"),
    ]

    @staticmethod
    def _assert_solved(spec, w):
        result = solve(SolverConfig(spec=spec, max_iter=2000), w)
        assert result.converged
        assert np.all(np.diff(result.trace) >= -1e-8)
        if w.nx == 4:
            assert result.capacity >= brute_force_capacity(spec, w, 1e-2) - 1e-9
        return result

    @pytest.mark.parametrize("n, seed, kind", CASES)
    def test_seeded_square_channels(self, n, seed, kind):
        spec = hayashi_spec(2.0) if kind == "hayashi" else fb_spec(2.0)
        self._assert_solved(spec, make_channel(np.random.default_rng(seed).random((n, n))))

    def test_named_random_channel(self):
        chan, _ = parse_channel_text(random_channel_text(4, 4, 3))
        result = self._assert_solved(fb_spec(2.0), chan)
        assert np.min(result.argmax_p.probs) < 1e-6


class TestExactStepReachesOracle:
    """Hayashi 0.5 channels where the exponentiated-gradient prior step
    stalled below the optimum and still reported convergence (8.3e-4 low
    on 4x4 seed 3, 1.5e-5 low on 3x3 seed 3)."""

    @pytest.mark.parametrize("n, resolution", [(4, 1e-2), (3, 2e-3)])
    def test_named_random_channel(self, n, resolution):
        spec = hayashi_spec(0.5)
        chan, _ = parse_channel_text(random_channel_text(n, n, 3))
        result = solve(SolverConfig(spec=spec), chan)
        assert result.converged
        assert result.capacity >= brute_force_capacity(spec, chan, resolution) - 1e-7


class TestExactStepVsNumeric:
    """The exact prior step against the independent numeric ascent, at
    orders where Hayashi and Fehr-Berens differ (at 2 they coincide)."""

    @pytest.mark.parametrize("spec", [hayashi_spec(0.5), hayashi_spec(1.5), hayashi_spec(3.0),
                                      fb_spec(1.5), fb_spec(3.0)],
                             ids=lambda s: f"{s.kind}-{s.alpha}")
    def test_ends_at_or_above_forced_numeric(self, spec):
        rng = np.random.default_rng(203)
        for m in (3, 4):
            w = rand_channel(rng, m, m)
            exact = solve(SolverConfig(spec=spec), w)
            numeric = solve(SolverConfig(spec=spec, force_numeric=True), w)
            assert exact.converged and numeric.converged
            assert exact.capacity >= numeric.capacity - 1e-9


class TestTraceAndConfig:
    def test_trace_monotone_everywhere(self):
        rng = np.random.default_rng(53)
        specs = [shannon_spec(), arimoto_a1_spec(0.5), arimoto_a2_spec(2.0),
                 hayashi_spec(2.0), fb_spec(2.0)]
        for spec in specs:
            slack = 1e-10 if spec.has_closed_p_step else 1e-8
            for _ in range(5):
                w = rand_channel(rng, 2, 2, floor=0.01)
                result = solve(SolverConfig(spec=spec, epsilon=1e-10, max_iter=2000), w)
                diffs = np.diff(result.trace)
                assert np.all(diffs >= -slack)

    def test_trace_rows(self):
        result = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-10),
                       make_channel([[0.9, 0.1], [0.3, 0.7]]))
        rows = convergence_trace(result)
        assert rows[0][0] == 0 and rows[0][2] is None
        assert all(rows[k][0] == k for k in range(len(rows)))
        assert all(r[2] >= -1e-10 for r in rows[1:])
        assert abs(rows[-1][2]) < 1e-10  # converged: final gain under threshold
        assert len(rows) == result.iterations + 1

    def test_epsilon_validation(self):
        for bad in (0.0, 1.0, -1e-3, 2.0):
            with pytest.raises(DomainError):
                SolverConfig(spec=shannon_spec(), epsilon=bad)
        # an iteration budget is an integer of at least 1
        for bad in (0, -3, 2.5, 3.0, math.nan, "10"):
            with pytest.raises(DomainError):
                SolverConfig(spec=shannon_spec(), max_iter=bad)

    @pytest.mark.parametrize("step,iters", [(0.0, 200), (-1.0, 200), (math.nan, 200),
                                            (math.inf, 200), (0.5, 0), (0.5, -5),
                                            (0.5, 2.5), (0.5, 3.0)])
    def test_numeric_settings_validation(self, step, iters):
        # each of these would leave the prior unchanged (or, for an infinite
        # step, never finish a round), and the run would report convergence;
        # a round count that is no integer would fail inside range()
        with pytest.raises(DomainError):
            SolverConfig(spec=hayashi_spec(2.0), numeric_step=step, numeric_iters=iters)
        w = bsc(0.1)
        with pytest.raises(DomainError):
            p_step_numeric(hayashi_spec(2.0), w, q_step(hayashi_spec(2.0), uniform(2), w),
                           uniform(2), iters=iters, step=step)

    def test_interior_start_required(self):
        cfg = SolverConfig(spec=shannon_spec(), p0=make_pmf([1.0, 0.0]))
        with pytest.raises(DomainError):
            solve(cfg, bsc(0.1))

    def test_nonconvergence_flagged(self):
        w = make_channel([[0.9, 0.1], [0.3, 0.7]])
        result = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-15, max_iter=2), w)
        assert not result.converged
        assert result.iterations == 2

    def test_relative_stopping(self):
        w = make_channel([[0.9, 0.1], [0.3, 0.7]])
        absolute = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-9), w)
        relative = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-9, relative=True), w)
        assert relative.converged
        assert relative.capacity == pytest.approx(absolute.capacity, abs=1e-7)


class TestOracle:
    def test_bsc_closed_form(self):
        val = brute_force_capacity(shannon_spec(), bsc(0.1), 1e-3)
        assert val == pytest.approx(math.log(2) - binary_entropy(0.1), abs=1e-5)

    def test_independent_channel_zero(self):
        w = make_channel([[0.4, 0.6], [0.4, 0.6]])
        for spec in (shannon_spec(), arimoto_a2_spec(2.0), hayashi_spec(0.5)):
            assert brute_force_capacity(spec, w, 1e-2) == pytest.approx(0.0, abs=1e-9)

    def test_matches_solver_for_arimoto(self):
        val = brute_force_capacity(arimoto_a2_spec(2.0), bsc(0.1), 1e-3)
        sol = solve(SolverConfig(spec=arimoto_a2_spec(2.0), epsilon=1e-12), bsc(0.1))
        assert val == pytest.approx(sol.capacity, abs=1e-4)

    def test_best_point_returned(self):
        val, best = brute_force_search(shannon_spec(), bsc(0.25), 1e-3)
        np.testing.assert_allclose(best.probs, [0.5, 0.5], atol=1e-6)
        assert val == pytest.approx(math.log(2) - binary_entropy(0.25), abs=1e-8)

    def test_size_and_resolution_guards(self):
        w5 = make_channel(np.full((5, 2), 0.5))
        with pytest.raises(TooLarge):
            brute_force_capacity(shannon_spec(), w5, 1e-2)
        with pytest.raises(DomainError):
            brute_force_capacity(shannon_spec(), bsc(0.1), 1e-5)
        with pytest.raises(DomainError):
            brute_force_capacity(shannon_spec(), bsc(0.1), 0.5)

    def test_single_input(self):
        val, best = brute_force_search(hayashi_spec(0.5), make_channel([[0.2, 0.8]]), 1e-2)
        assert val == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(best.probs, [1.0])

    def test_three_input_grid(self):
        w = make_channel([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        val = brute_force_capacity(shannon_spec(), w, 1e-2)
        sol = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-12), w)
        assert val == pytest.approx(sol.capacity, abs=1e-4)


def _public_loop(cfg, w):
    """solve()'s loop written over the public, validating steps."""
    spec = cfg.spec
    p = cfg.p0 if cfg.p0 is not None else uniform(w.nx)
    q = q_step(spec, p, w)
    trace = [eval_functional(spec, p, w, q)]
    for _ in range(cfg.max_iter):
        if spec.has_closed_p_step and not cfg.force_numeric:
            p = p_step_closed(spec, w, q)
        else:
            p = p_step_numeric(spec, w, q, p, iters=cfg.numeric_iters, step=cfg.numeric_step)
        q = q_step(spec, p, w)
        trace.append(eval_functional(spec, p, w, q))
        if abs(trace[-1] - trace[-2]) < cfg.epsilon:
            return trace, p, True
    return trace, p, False


class TestSolveMatchesPublicSteps:
    """solve() runs the steps' array kernels; its results must be the same bits."""

    SPECS = (shannon_spec(), arimoto_a1_spec(0.5), arimoto_a1_spec(2.0),
             arimoto_a2_spec(0.5), arimoto_a2_spec(2.0),
             hayashi_spec(0.5), hayashi_spec(3.0), fb_spec(1.5), fb_spec(3.0))

    def _assert_same(self, cfg, w):
        got = solve(cfg, w)
        trace, p, converged = _public_loop(cfg, w)
        assert got.trace == tuple(trace)
        assert got.iterations == len(trace) - 1
        assert got.converged == converged
        assert got.capacity == trace[-1]
        assert got.argmax_p.probs.tobytes() == p.probs.tobytes()
        return got

    def test_seeded_channels(self):
        rng = np.random.default_rng(59)
        for m, n in ((2, 2), (3, 3), (4, 2), (2, 5)):
            w = rand_channel(rng, m, n)
            p0 = make_pmf(rng.random(m) + 0.1)
            for spec in self.SPECS:
                self._assert_same(SolverConfig(spec=spec, max_iter=3000), w)
                self._assert_same(SolverConfig(spec=spec, max_iter=3000, p0=p0), w)

    def test_zero_mass_output_column(self):
        rows = np.random.default_rng(61).random((3, 4))
        rows[:, 1] = 0.0
        rows[0, 2] = rows[2, 3] = 0.0  # zero cells in columns with mass, too
        w = make_channel(rows)
        for spec in self.SPECS:
            self._assert_same(SolverConfig(spec=spec, max_iter=3000), w)

    def test_boundary_optimum(self):
        # the third input is a mixture of the first two: the optimum gives it no mass
        w = make_channel([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        for spec in self.SPECS:
            got = self._assert_same(SolverConfig(spec=spec, epsilon=1e-12, max_iter=5000), w)
            assert got.argmax_p[2] < 1e-3

    def test_budget_exhausted(self):
        w = rand_channel(np.random.default_rng(67), 3, 3)
        for spec in self.SPECS:
            got = self._assert_same(SolverConfig(spec=spec, epsilon=1e-15, max_iter=7), w)
            assert not got.converged

    def test_forced_numeric(self):
        w = rand_channel(np.random.default_rng(71), 2, 3, floor=0.05)
        for spec in (shannon_spec(), arimoto_a2_spec(2.0), hayashi_spec(2.0)):
            cfg = SolverConfig(spec=spec, max_iter=6, numeric_iters=20,
                               force_numeric=spec.has_closed_p_step)
            self._assert_same(cfg, w)


def _lex_grid(m, steps):
    """Simplex grid rows in lexicographic order, built with itertools."""
    rows = [ks + (steps - sum(ks),)
            for ks in itertools.product(range(steps + 1), repeat=m - 1) if sum(ks) <= steps]
    return np.array(rows, dtype=np.float64) / steps


class TestOracleGrid:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_lexicographic_reference(self, m):
        for steps in (1, 2, 5, 13):
            want = _lex_grid(m, steps)
            n = want.shape[0]
            for chunk_rows in (1, 4, 7, n - 1, n, 250_000):
                chunks = list(_grid_chunks(m, steps, chunk_rows))
                assert [c.shape[0] for c in chunks] == [
                    min(chunk_rows, n - i) for i in range(0, n, chunk_rows)
                ]
                assert np.array_equal(np.vstack(chunks), want)

    def test_oracle_leaves_no_cyclic_garbage(self):
        w = rand_channel(np.random.default_rng(73), 4, 3)
        gc.collect()
        gc.disable()
        try:
            brute_force_search(shannon_spec(), w, 1e-2)
            assert gc.collect() == 0
        finally:
            gc.enable()


def zero_mass_column_channel():
    rows = np.random.default_rng(79).random((3, 4))
    rows[:, 1] = 0.0  # no input reaches output 1
    rows[0, 2] = rows[2, 3] = 0.0  # output 3 has no mass when only input 2 does
    return make_channel(rows)


KERNEL_SPECS = [shannon_spec()] + [
    make(a) for a in (0.5, 2.0, 3.0)
    for make in (arimoto_a1_spec, arimoto_a2_spec, hayashi_spec)
] + [fb_spec(2.0), fb_spec(3.0)]


class TestBatchMi:
    """The oracle's batched H-MI is the measure's own mutual information."""

    @pytest.mark.parametrize("spec", KERNEL_SPECS,
                             ids=lambda s: f"{s.kind}-{s.alpha}" if s.alpha else s.kind)
    def test_matches_mutual_information_row_by_row(self, spec):
        rng = np.random.default_rng(83)
        for w in (zero_mass_column_channel(), rand_channel(rng, 3, 3), rand_channel(rng, 3, 5)):
            grid = _lex_grid(3, 6)  # has rows with one and with two exact zeros
            priors = np.vstack([grid, rng.dirichlet(np.ones(3), size=5)])
            got = _batch_mi(spec, priors, w.rows)
            for p, value in zip(priors, got):
                want = mutual_information(spec.pair, make_pmf(p), w).mi
                assert abs(value - want) <= 1e-12

    def test_scalar_only_pair_is_unsupported(self):
        w = zero_mass_column_channel()
        for pair in SCALAR_ONLY_PAIRS:
            with pytest.raises(UnsupportedSpec):
                brute_force_search(generic_spec(pair), w, 1e-1)

    def test_scalar_only_eta_is_unsupported(self):
        pair = shannon_pair()
        scalar_eta = EntropyPair(name="scalar-eta", F=pair.F, grad_f=pair.grad_f,
                                 eta=lambda t: math.log(math.exp(t)),
                                 eta_domain=pair.eta_domain)
        w = zero_mass_column_channel()
        assert conditional_entropy(scalar_eta, uniform(3), w) == pytest.approx(
            conditional_entropy(pair, uniform(3), w), abs=1e-12)
        with pytest.raises(UnsupportedSpec):
            brute_force_search(generic_spec(scalar_eta), w, 1e-1)


FORBIDDEN = {"_eval", "_expectation", "_loss_cells", "_outer_value", "_input_coeffs", "_coeffs",
             "_q_cols", "_p_exact", "_p_kkt", "_bracketed_root", "_p_numeric", "q_step",
             "eval_functional", "p_step_closed", "p_step_numeric", "variational"}


def _names(code):
    """Global and attribute names a code object and its nested code refer to."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names(const)
    return names


def test_oracle_shares_no_functional_or_step_code():
    # the oracle may share the entropy kernel, never the functional or the
    # updates: that independence is what lets it check them
    seen = set()
    todo = [capacity.brute_force_search, capacity._batch_mi]
    while todo:
        fn = todo.pop()
        names = _names(fn.__code__)
        assert not names & FORBIDDEN, (fn.__name__, names & FORBIDDEN)
        for name in names - seen:
            seen.add(name)
            target = getattr(capacity, name, None)
            if getattr(target, "__module__", None) == "genmi.capacity" and hasattr(target, "__code__"):
                todo.append(target)
    assert {"_batch_mi", "_grid_chunks", "_golden_max"} <= seen
