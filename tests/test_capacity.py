"""Alternating-maximization solver and the grid oracle."""

import dataclasses
import gc
import importlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from genmi import (
    Diverged,
    DomainError,
    EntropyPair,
    GenmiError,
    NonFinite,
    SolverConfig,
    TooLarge,
    UnsupportedSpec,
    arimoto_a1_spec,
    arimoto_a2_spec,
    arimoto_pair,
    brute_force_search,
    conditional_entropy,
    eval_functional,
    fb_spec,
    fehr_berens_pair,
    generic_spec,
    hayashi_pair,
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
from genmi import capacity, variational
from genmi.capacity import _batch_mi, _grid_chunks
from genmi.io import parse_channel_text, random_channel_text
from genmi.simplex import posterior

# the module: the package's `entropy` is the function of that name
entropy_module = importlib.import_module("genmi.entropy")

from conftest import SCALAR_ONLY_PAIRS, binary_entropy, rand_channel

ALPHAS = (0.5, 2.0, 5.0)


def bsc(eps):
    return make_channel([[1 - eps, eps], [eps, 1 - eps]])


def zero_mass_column_channel():
    rows = np.random.default_rng(79).random((3, 4))
    rows[:, 1] = 0.0  # no input reaches output 1
    rows[0, 2] = rows[2, 3] = 0.0  # output 3 has no mass when only input 2 does
    return make_channel(rows)


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
            oracle = brute_force_search(spec, w, 2e-3 if m == 3 else 1e-3)[0]
            assert got == pytest.approx(oracle, abs=1e-4)


class TestSolveArimoto:
    def test_a1_a2_agree(self):
        rng = np.random.default_rng(41)
        cases = []
        for _ in range(10):
            w = rand_channel(rng, 3, 3)
            cases += [(w, a) for a in ALPHAS]
        # high orders, where p^a W^a underflows and the tilted posterior with it
        cases += [(_named(64, 64, 1), 100.0), (_named(8, 8, 1), 256.0)]
        for w, a in cases:
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
            # at order 2 the two measures coincide; the other orders tell them apart
            for spec in (hayashi_spec(0.5), hayashi_spec(1.5), hayashi_spec(2.0),
                         hayashi_spec(3.0), fb_spec(1.5), fb_spec(2.0), fb_spec(3.0)):
                result = solve(SolverConfig(spec=spec, epsilon=1e-10, max_iter=5000), w)
                oracle = brute_force_search(spec, w, 1e-3)[0]
                start = mutual_information(spec.pair, uniform(2), w).mi
                assert result.capacity >= start - 1e-10
                assert result.capacity <= oracle + 1e-4
                if result.converged:
                    assert result.capacity == pytest.approx(oracle, abs=1e-3)

    def test_unbatched_pair_is_unsupported(self):
        # the generic loss table calls F and grad_f once on all its columns
        w = rand_channel(np.random.default_rng(53), 3, 4)
        for pair in SCALAR_ONLY_PAIRS:
            with pytest.raises(UnsupportedSpec):
                solve(SolverConfig(spec=generic_spec(pair)), w)

    def test_forced_numeric_matches_closed_shannon(self):
        rng = np.random.default_rng(47)
        w = rand_channel(rng, 2, 3)
        closed = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-11), w)
        numeric = solve(SolverConfig(spec=generic_spec(shannon_pair()), epsilon=1e-11), w)
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
            assert result.capacity >= brute_force_search(spec, w, 1e-2)[0] - 1e-9
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
        assert result.capacity >= brute_force_search(spec, chan, resolution)[0] - 1e-7


class TestExactStepVsNumeric:
    """The exact prior step against the independent numeric ascent of the
    generic functional of the same pair, at orders where Hayashi and
    Fehr-Berens differ (at 2 they coincide)."""

    @pytest.mark.parametrize("spec", [hayashi_spec(0.5), hayashi_spec(1.5), hayashi_spec(3.0),
                                      fb_spec(1.5), fb_spec(3.0)],
                             ids=lambda s: f"{s.kind}-{s.alpha}")
    def test_ends_at_or_above_forced_numeric(self, spec):
        rng = np.random.default_rng(203)
        for m in (3, 4):
            w = rand_channel(rng, m, m)
            exact = solve(SolverConfig(spec=spec), w)
            numeric = solve(SolverConfig(spec=generic_spec(spec.pair)), w)
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

    def test_decrease_is_diverged_naming_iteration_and_values(self, monkeypatch):
        w = make_channel([[0.9, 0.1], [0.3, 0.7]])
        first = solve(SolverConfig(spec=shannon_spec(), max_iter=1), w).capacity
        # a prior step that jumps to a vertex on its second call: I = 0 there
        calls, exact = [], capacity._exact_step(shannon_spec())
        monkeypatch.setattr(capacity, "_exact_step", lambda spec: lambda c: calls.append(1) or (
            exact(c) if len(calls) == 1 else np.array([1.0, 0.0])))
        with pytest.raises(Diverged, match=rf"^iteration 2: objective decreased from "
                                           rf"{first:.12g} to -?0$"):
            solve(SolverConfig(spec=shannon_spec()), w)

    def test_trace_rows(self):
        result = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-10),
                       make_channel([[0.9, 0.1], [0.3, 0.7]]))
        gains = np.diff(result.trace)
        assert np.all(gains >= -1e-10)
        assert abs(gains[-1]) < 1e-10  # converged: final gain under threshold
        assert len(result.trace) == result.iterations + 1

    def test_epsilon_validation(self):
        for bad in (0.0, 1.0, -1e-3, 2.0):
            with pytest.raises(DomainError):
                SolverConfig(spec=shannon_spec(), epsilon=bad)
        # an iteration budget is an integer of at least 1
        for bad in (0, -3, 2.5, 3.0, math.nan, "10"):
            with pytest.raises(DomainError):
                SolverConfig(spec=shannon_spec(), max_iter=bad)

    def test_start_must_be_a_pmf(self):
        # a list used to reach solve and fail there with AttributeError
        w = make_channel([[0.9, 0.1], [0.3, 0.7]])
        with pytest.raises(DomainError, match=r"^p0 must be a Pmf or None, got list$"):
            solve(SolverConfig(spec=shannon_spec(), p0=[0.5, 0.5]), w)
        with pytest.raises(DomainError, match=r"got ndarray$"):
            SolverConfig(spec=shannon_spec(), p0=np.array([0.5, 0.5]))

    def test_bool_budget_is_refused(self):
        # bool is an Integral, so True used to pass as a budget of 1
        for bad in (True, False):
            with pytest.raises(DomainError, match=rf"^max_iter must be .* got {bad}$"):
                SolverConfig(spec=shannon_spec(), max_iter=bad)

    @pytest.mark.parametrize("name", ["numeric_iters", "numeric_step"])
    def test_numeric_ascent_takes_no_settings(self, name):
        # its rounds and step size are module constants of `variational`
        with pytest.raises(TypeError):
            SolverConfig(spec=hayashi_spec(2.0), **{name: 1})
        w = bsc(0.1)
        spec = generic_spec(hayashi_pair(2.0))
        q = q_step(spec, uniform(2), w)
        with pytest.raises(TypeError):
            p_step_numeric(spec, w, q, uniform(2), **{name.removeprefix("numeric_"): 1})

    def test_no_setting_picks_the_prior_step(self):
        # the spec's kind picks it: exact for a built-in kind, numeric for the generic one
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == ["spec", "epsilon", "max_iter", "p0", "relative"]

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
        val = brute_force_search(shannon_spec(), bsc(0.1), 1e-3)[0]
        assert val == pytest.approx(math.log(2) - binary_entropy(0.1), abs=1e-5)

    def test_independent_channel_zero(self):
        w = make_channel([[0.4, 0.6], [0.4, 0.6]])
        for spec in (shannon_spec(), arimoto_a2_spec(2.0), hayashi_spec(0.5)):
            assert brute_force_search(spec, w, 1e-2)[0] == pytest.approx(0.0, abs=1e-9)

    def test_matches_solver_for_arimoto(self):
        val = brute_force_search(arimoto_a2_spec(2.0), bsc(0.1), 1e-3)[0]
        sol = solve(SolverConfig(spec=arimoto_a2_spec(2.0), epsilon=1e-12), bsc(0.1))
        assert val == pytest.approx(sol.capacity, abs=1e-4)

    def test_best_point_returned(self):
        val, best = brute_force_search(shannon_spec(), bsc(0.25), 1e-3)
        np.testing.assert_allclose(best.probs, [0.5, 0.5], atol=1e-6)
        assert val == pytest.approx(math.log(2) - binary_entropy(0.25), abs=1e-8)

    def test_size_and_resolution_guards(self):
        # C(106, 6) ~ 1.6e9 grid points: the grid size is the only limit
        w7 = make_channel(np.full((7, 2), 0.5))
        with pytest.raises(TooLarge):
            brute_force_search(shannon_spec(), w7, 1e-2)
        with pytest.raises(DomainError):
            brute_force_search(shannon_spec(), bsc(0.1), 1e-5)
        with pytest.raises(DomainError):
            brute_force_search(shannon_spec(), bsc(0.1), 0.5)

    def test_single_input(self):
        val, best = brute_force_search(hayashi_spec(0.5), make_channel([[0.2, 0.8]]), 1e-2)
        assert val == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(best.probs, [1.0])

    def test_three_input_grid(self):
        w = make_channel([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        val = brute_force_search(shannon_spec(), w, 1e-2)[0]
        sol = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-12), w)
        assert val == pytest.approx(sol.capacity, abs=1e-4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_five_inputs_stay_below_the_certified_bound(self, seed):
        # a grid value is attained at a real prior, so it cannot pass the
        # dual bound capacity + gap; on these channels it ends 1e-5 to
        # 5.4e-5 below the capacity
        w, _ = parse_channel_text(random_channel_text(5, 5, seed))
        val = brute_force_search(shannon_spec(), w, 0.05)[0]
        sol = solve(SolverConfig(spec=shannon_spec()), w)
        assert sol.capacity - 1e-3 < val <= sol.capacity + sol.gap


def _extrapolated_ref(p, t, mu):
    """The trial t (t/p)^(mu-1) over t's support, log-ratios within the tie
    tolerance of the largest taken as equal to it, normalized; None where it
    gives no mass to an input t keeps."""
    keep = t > 0
    ratio = np.log(t[keep]) - np.log(p[keep])
    ratio[ratio >= ratio.max() - capacity._RATIO_TIE] = ratio.max()
    log_x = np.log(t[keep]) + (mu - 1) * (ratio - ratio.max())
    x = np.zeros_like(t)
    x[keep] = np.exp(log_x - log_x.max())
    x /= x.sum()
    return make_pmf(x) if np.all(x[keep] > 0) else None


def _public_loop(cfg, w, accelerated=True):
    """solve()'s loop written over the public, validating steps, with the
    extrapolated trial after each prior step, exact or numeric; with
    `accelerated=False`, the plain alternation without trials."""
    spec = cfg.spec
    exact = spec.has_closed_p_step
    mu = capacity._MU_GROW
    p = cfg.p0 if cfg.p0 is not None else uniform(w.nx)
    q = q_step(spec, p, w)
    trace = [eval_functional(spec, p, w, q)]
    for _ in range(cfg.max_iter):
        if exact:
            t = p_step_closed(spec, w, q)
        else:
            t = p_step_numeric(spec, w, q, p)
        q = q_step(spec, t, w)
        value = eval_functional(spec, t, w, q)
        if accelerated:
            kept = mu == 1.0
            x = None if kept else _extrapolated_ref(p.probs, t.probs, mu)
            if x is not None:
                q_x = q_step(spec, x, w)
                value_x = eval_functional(spec, x, w, q_x)
                kept = value_x >= value
                if kept:
                    t, q, value = x, q_x, value_x
            mu = min(mu * capacity._MU_GROW, capacity._MU_MAX) if kept else \
                max(mu / capacity._MU_CUT, 1.0)
        p = t
        trace.append(value)
        if abs(trace[-1] - trace[-2]) < cfg.epsilon:
            return trace, p, True
    return trace, p, False


class TestSolveMatchesPublicSteps:
    """solve() against its loop written over the public steps.  A generic
    solve runs their loss-cell table, so its results are the same
    bits.  An exact solve reads the coefficients from the matrix-vector
    kernel instead: it must take the same number of iterations and stop
    the same way, with every value within 1e-12."""

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

    def _assert_close(self, cfg, w):
        got = solve(cfg, w)
        trace, p, converged = _public_loop(cfg, w)
        assert got.iterations == len(trace) - 1
        assert got.converged == converged
        assert np.max(np.abs(np.subtract(got.trace, trace))) <= 1e-12
        assert abs(got.capacity - trace[-1]) <= 1e-12
        assert np.max(np.abs(got.argmax_p.probs - p.probs)) <= 1e-12
        return got

    def test_seeded_channels(self):
        rng = np.random.default_rng(59)
        for m, n in ((2, 2), (3, 3), (4, 2), (2, 5)):
            w = rand_channel(rng, m, n)
            p0 = make_pmf(rng.random(m) + 0.1)
            for spec in self.SPECS:
                self._assert_close(SolverConfig(spec=spec, max_iter=3000), w)
                self._assert_close(SolverConfig(spec=spec, max_iter=3000, p0=p0), w)

    def test_zero_mass_output_column(self):
        rows = np.random.default_rng(61).random((3, 4))
        rows[:, 1] = 0.0
        rows[0, 2] = rows[2, 3] = 0.0  # zero cells in columns with mass, too
        w = make_channel(rows)
        for spec in self.SPECS:
            self._assert_close(SolverConfig(spec=spec, max_iter=3000), w)

    def test_boundary_optimum(self):
        # the third input is a mixture of the first two: the optimum gives it no mass
        w = make_channel([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        for spec in self.SPECS:
            got = self._assert_close(SolverConfig(spec=spec, epsilon=1e-12, max_iter=5000), w)
            assert got.argmax_p[2] < 1e-3

    @pytest.mark.parametrize("d", [1e-6, 1e-11])
    def test_near_tied_inputs(self, d):
        # two inputs alike only nearly: their log-ratios differ by more
        # than rounding, or by about the tie tolerance
        w = make_channel([[0.9, 0.1], [0.9 - d, 0.1 + d], [0.2, 0.8]])
        for spec in self.SPECS:
            self._assert_close(SolverConfig(spec=spec), w)

    def test_budget_exhausted(self):
        w = rand_channel(np.random.default_rng(67), 3, 3)
        for spec in self.SPECS:
            got = self._assert_close(SolverConfig(spec=spec, epsilon=1e-15, max_iter=7), w)
            assert not got.converged

    def test_forced_numeric(self):
        w = rand_channel(np.random.default_rng(71), 2, 3, floor=0.05)
        for spec in (shannon_spec(), arimoto_a2_spec(2.0), hayashi_spec(2.0)):
            self._assert_same(SolverConfig(spec=generic_spec(spec.pair), max_iter=6), w)


def _named(nx, ny, seed):
    return parse_channel_text(random_channel_text(nx, ny, seed))[0]


class TestExtrapolatedStep:
    """The extrapolated trial after a prior step, exact or numeric, against
    the plain alternation over the public steps (`_public_loop` without
    trials): never a lower capacity, in a fraction of the iterations, and
    never an input emptied that the plain step keeps."""

    @pytest.mark.parametrize("spec, shape, seed", [
        (shannon_spec(), (3, 3), 2), (shannon_spec(), (64, 64), 1),
        (arimoto_a2_spec(2.0), (64, 64), 1), (arimoto_a2_spec(0.5), (5, 4), 1),
        (hayashi_spec(0.5), (3, 3), 9), (hayashi_spec(0.5), (4, 4), 3),
        (generic_spec(arimoto_pair(0.5)), (3, 3), 1),
        (generic_spec(hayashi_pair(0.5)), (3, 3), 9),
        (generic_spec(shannon_pair()), (3, 3), 2),
    ], ids=["shannon-3x3", "shannon-64x64", "a2(2)-64x64", "a2(0.5)-5x4",
            "hayashi(0.5)-3x3", "hayashi(0.5)-4x4", "numeric-arimoto(0.5)-3x3",
            "numeric-hayashi(0.5)-3x3", "generic-shannon-3x3"])
    def test_never_loses_to_the_plain_step(self, spec, shape, seed):
        w = _named(*shape, seed)
        cfg = SolverConfig(spec=spec)
        got = solve(cfg, w)
        trace, _, converged = _public_loop(cfg, w, accelerated=False)
        assert got.converged and converged
        assert got.capacity >= trace[-1] - 1e-12
        assert 5 * got.iterations <= len(trace) - 1

    @pytest.mark.parametrize("spec, shape, seed", [
        (arimoto_a2_spec(0.5), (3, 3), 1), (arimoto_a1_spec(0.5), (3, 3), 1),
        (arimoto_a2_spec(0.3), (6, 5), 2),
    ], ids=["a2(0.5)-3x3", "a1(0.5)-3x3", "a2(0.3)-6x5"])
    def test_converges_where_the_plain_step_spends_its_budget(self, spec, shape, seed):
        w = _named(*shape, seed)
        cfg = SolverConfig(spec=spec)
        got = solve(cfg, w)
        trace, _, converged = _public_loop(cfg, w, accelerated=False)
        assert not converged and len(trace) - 1 == 10_000
        assert got.converged and got.iterations < 1000
        assert got.capacity >= trace[-1] - 1e-12
        assert got.gap >= -1e-12

    @pytest.mark.parametrize("w", [
        make_channel([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]), zero_mass_column_channel(),
    ], ids=["boundary-optimum", "zero-mass-output"])
    def test_trial_empties_no_input_the_plain_step_keeps(self, monkeypatch, w):
        trials = []

        def spy(p, t, mu):
            x = extrapolated(p, t, mu)
            trials.append((t, x))
            return x

        extrapolated = capacity._extrapolated
        monkeypatch.setattr(capacity, "_extrapolated", spy)
        for spec in (
                shannon_spec(), arimoto_a1_spec(0.5), arimoto_a2_spec(0.5),
                arimoto_a2_spec(2.0), hayashi_spec(0.5), hayashi_spec(3.0), fb_spec(1.5),
                generic_spec(arimoto_pair(2.0)), generic_spec(hayashi_pair(0.5)),
                generic_spec(shannon_pair())):
            cfg = SolverConfig(spec=spec, epsilon=1e-12, max_iter=5000)
            trials.clear()
            got = solve(cfg, w)
            assert trials
            assert all(np.all(x[t > 0] > 0) for t, x in trials if x is not None)
            _, p, _ = _public_loop(cfg, w, accelerated=False)
            assert np.all(got.argmax_p.probs[p.probs > 0] > 0)

    def test_trial_that_would_empty_an_input_is_refused(self):
        p = np.array([0.4, 0.4, 0.2, 0.0])
        t = np.array([0.5, 0.4998, 0.0002, 0.0])  # the third input's mass falls 1000-fold
        with np.errstate(**variational._QUIET):
            x = capacity._extrapolated(p, t, 2.0)
            assert x[3] == 0.0 and np.all(x[:3] > 0.0)
            assert x[2] < t[2] and x.sum() == pytest.approx(1.0, abs=1e-15)
            # 1e-3 ** 255 is far below the smallest float: the trial would empty it
            assert capacity._extrapolated(p, t, 256.0) is None

    def test_rounding_ties_stay_tied(self):
        # equal ratios up to rounding are not scaled apart by mu - 1
        p = np.array([0.45, 0.45, 0.1])
        t = np.array([0.48, 0.48 * (1.0 + 4e-16), 0.04])
        with np.errstate(**variational._QUIET):
            x = capacity._extrapolated(p, t / t.sum(), 256.0)
        assert abs(x[1] / x[0] - t[1] / t[0]) <= 1e-15


def _extrapolated_written_out(p, t, mu):
    """`_extrapolated` with a fresh array at every step and the mask taken
    always: the arithmetic it must match bit for bit."""
    keep = t > 0.0
    log_t = np.log(t)
    ratio = np.where(keep, log_t - np.log(p), -math.inf)
    top = ratio.max()
    ratio = np.where(ratio >= top - capacity._RATIO_TIE, top, ratio)
    log_x = log_t + (mu - 1.0) * (ratio - top)
    x = np.exp(log_x - log_x.max())
    x = x / x.sum()
    return x if np.all(x[keep] > 0.0) else None


def _trial_cases(kind, n=400):
    """Seeded (p, t, mu) draws of one kind: t a perturbed p; with zeros in
    t (and in p where t has them); with every ratio within _RATIO_TIE of the
    others; with ratios spread so far that large mu underflows; or with an
    input p leaves empty and t does not."""
    kinds = ("spread", "zeros", "ties", "underflow", "p-empty")
    rng = np.random.default_rng(kinds.index(kind))
    for _ in range(n):
        m = int(rng.integers(1, 13))
        p = rng.dirichlet(np.ones(m)) ** float(rng.choice([1.0, 4.0]))
        t = p * np.exp(rng.normal(0.0, 5.0 if kind == "underflow" else 0.5, m))
        if kind == "zeros":
            t[rng.random(m) < 0.4] = 0.0
            p[(t == 0.0) & (rng.random(m) < 0.5)] = 0.0
        elif kind == "ties":
            t = p * (1.0 + rng.normal(0.0, 1e-13, m))
        elif kind == "p-empty":
            p[int(rng.integers(m))] = 0.0
        if not p.any():
            p[0] = 1.0
        if not t.any():
            t[0] = 1.0
        yield p / p.sum(), t / t.sum(), float(rng.choice([1.5, 2.25, 3.375, 10.0, 256.0]))


class TestExtrapolatedArithmetic:
    """`_extrapolated` works in place and takes the mask only where t has a
    zero, yet returns the written-out trial's bytes, or None where it does."""

    @pytest.mark.parametrize("kind", ["spread", "zeros", "ties", "underflow", "p-empty"])
    def test_matches_the_written_out_trial_bit_for_bit(self, kind):
        refused = 0
        with np.errstate(**variational._QUIET):
            for p, t, mu in _trial_cases(kind):
                p_in, t_in = p.copy(), t.copy()
                want = _extrapolated_written_out(p, t, mu)
                got = capacity._extrapolated(p_in, t_in, mu)
                assert p_in.tobytes() == p.tobytes() and t_in.tobytes() == t.tobytes()
                if want is None:
                    assert got is None
                    refused += 1
                else:
                    assert got is not None and got.tobytes() == want.tobytes()
        # underflow and an input p leaves empty refuse trials; every other kind takes some
        if kind in ("underflow", "p-empty"):
            assert refused > 0
        if kind != "p-empty":
            assert refused < 400

    def test_cases_reach_every_branch(self):
        zeros = list(_trial_cases("zeros"))
        assert any(np.any((t == 0.0) & (p == 0.0)) for p, t, _ in zeros)
        assert any(np.any((t == 0.0) & (p > 0.0)) for p, t, _ in zeros)
        with np.errstate(**variational._QUIET):
            for p, t, _ in _trial_cases("ties"):
                ratio = np.log(t) - np.log(p)
                assert ratio.max() - ratio.min() < capacity._RATIO_TIE


class TestNoSubnormalMasses:
    """On random-channel 256x8 most inputs' masses fall below the smallest
    normal float; the exact steps set them to 0, and the solve still ends
    within its gap of the capacity it reached with those masses kept
    (1,154 Shannon iterations, 644 for a1(0.5))."""

    @pytest.mark.parametrize("spec, seed, kept_capacity", [
        (shannon_spec(), 1, 0.439434291266), (arimoto_a1_spec(0.5), 4, 0.267140714924),
    ], ids=["shannon", "a1(0.5)"])
    def test_256x8_prior_has_no_subnormal_mass(self, spec, seed, kept_capacity):
        got = solve(SolverConfig(spec=spec), _named(256, 8, seed))
        p = got.argmax_p.probs
        assert got.converged
        assert not np.any((p > 0.0) & (p < np.finfo(np.float64).tiny))
        assert np.count_nonzero(p) < 64
        assert abs(got.capacity - kept_capacity) <= got.gap


class TestExactSolveSkipsTheTable:
    """An exact solve reads c from the matrix-vector kernel; only a solve
    of the generic kind, whose prior step is the numeric ascent, builds
    the loss-cell table."""

    SPECS = (shannon_spec(), arimoto_a1_spec(0.5), arimoto_a2_spec(2.0),
             hayashi_spec(0.5), hayashi_spec(2.0), fb_spec(3.0))

    @pytest.fixture(autouse=True)
    def no_table(self, monkeypatch):
        def table_built(*args):
            raise AssertionError("loss-cell table built")
        for module in (variational, capacity):
            for name in ("_loss_cells", "_q_cols"):
                monkeypatch.setattr(module, name, table_built, raising=False)

    def test_exact_solves_build_no_table(self):
        w = rand_channel(np.random.default_rng(97), 4, 3)
        for spec in self.SPECS:
            assert solve(SolverConfig(spec=spec, max_iter=500), w).iterations > 1

    def test_generic_kind_builds_it(self):
        w = rand_channel(np.random.default_rng(97), 4, 3)
        for spec in self.SPECS:
            with pytest.raises(AssertionError, match="loss-cell table built"):
                solve(SolverConfig(spec=generic_spec(spec.pair), max_iter=5), w)


class TestExactSolveObjective:
    """An exact solve reads its objective from the kernel's own products;
    the capacity it reports is the measure's mutual information at the
    prior it returns, which `mutual_information` takes through the
    posterior, sharing no kernel code."""

    SPECS = [shannon_spec()] + [
        make(a) for a in (0.5, 2.0, 3.0)
        for make in (arimoto_a1_spec, arimoto_a2_spec, hayashi_spec)
    ] + [fb_spec(2.0), fb_spec(3.0)]

    @pytest.mark.parametrize("nx,ny", [(3, 3), (16, 16), (64, 64), (8, 256), (256, 8)])
    def test_capacity_is_mutual_information_at_argmax(self, nx, ny):
        w, _ = parse_channel_text(random_channel_text(nx, ny, 1))
        for spec in self.SPECS:
            got = solve(SolverConfig(spec=spec), w)
            want = mutual_information(spec.pair, got.argmax_p, w).mi
            assert abs(got.capacity - want) <= 1e-12, (spec.pair.name, got.capacity, want)

    def test_reads_no_outer_value(self, monkeypatch):
        def outer_value(*args):
            raise AssertionError("_outer_value called")
        for module in (variational, capacity):
            monkeypatch.setattr(module, "_outer_value", outer_value, raising=False)
        w = rand_channel(np.random.default_rng(97), 4, 3)
        for spec in self.SPECS:
            assert solve(SolverConfig(spec=spec, max_iter=500), w).iterations > 1

    @pytest.mark.parametrize("make", [arimoto_a1_spec, arimoto_a2_spec])
    def test_core_outside_eta_domain_is_the_pairs_domain_error(self, make):
        # at order 1e-3, F(p) = (sum p^a)^(1/a) overflows at the uniform
        # start; the kernel's log form would not, yet must refuse it as
        # the pair's eta does
        w, _ = parse_channel_text(random_channel_text(8, 8, 1))
        with pytest.raises(DomainError, match=r"^arimoto\(0\.001\): core value inf "
                                              r"outside eta domain \(0, inf\)$"):
            solve(SolverConfig(spec=make(1e-3)), w)

    @pytest.mark.parametrize("n,seed", [(3, 0), (8, 1)])
    def test_extreme_orders_end_in_a_value_or_a_typed_error(self, n, seed):
        # near order 1 and at high orders the order-a measures are an open
        # defect (wrong values, Diverged, DomainError once sum p^a
        # underflows); what may never happen is a bare ValueError,
        # ZeroDivisionError or OverflowError, say from a scalar log of 0
        w, _ = parse_channel_text(random_channel_text(n, n, seed))
        orders = (1 - 1e-12, 1 + 1e-12, 1 - 1e-10, 1 + 1e-10, 1 - 1e-8, 1 + 1e-8,
                  300.0, 1000.0, 5000.0)
        cases = [(make, a) for a in orders
                 for make in (arimoto_a1_spec, arimoto_a2_spec, hayashi_spec)]
        cases += [(fb_spec, a) for a in orders if a > 1.0]
        for make, a in cases:
            try:
                got = solve(SolverConfig(spec=make(a), max_iter=2000), w)
            except GenmiError:
                continue
            assert math.isfinite(got.capacity), (make.__name__, a, got.capacity)


def _shannon_radius(p, rows):
    r = p @ rows
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(rows > 0, rows * np.log(rows / r), 0.0).sum(axis=1)
    return d.max()


def _arimoto_radius(p, rows, a):
    q = ((p ** a) @ (rows ** a)) ** (1 / a)
    q = q / q.sum()
    return max(math.log(sum(w_y ** a * q_y ** (1 - a) for w_y, q_y in zip(row, q) if w_y > 0))
               / (a - 1) for row in rows)


class TestDualGap:
    """SolveResult.gap is max_x D(W_x || Q) - capacity at argmax_p: Q = pW
    for Shannon, Q proportional to (p^a W^a)^(1/a) for Arimoto."""

    def test_shannon_named_channel_stops_short_of_its_certificate(self):
        w, _ = parse_channel_text(random_channel_text(3, 3, 2))
        got = solve(SolverConfig(spec=shannon_spec()), w)
        want = _shannon_radius(got.argmax_p.probs, w.rows) - got.capacity
        assert got.converged and got.gap == pytest.approx(want, abs=1e-13)
        assert 7.4e-6 < got.gap < 9.0e-6

    @pytest.mark.parametrize("make,a", [(shannon_spec, None), (arimoto_a1_spec, 0.5),
                                        (arimoto_a2_spec, 0.5), (arimoto_a1_spec, 2.0),
                                        (arimoto_a2_spec, 3.0)])
    def test_matches_inline_formula(self, make, a):
        rng = np.random.default_rng(101)
        spec = make() if a is None else make(a)
        for m, n in ((2, 2), (3, 4), (4, 3)):
            w = rand_channel(rng, m, n)
            for cfg in (SolverConfig(spec=spec, max_iter=3),
                        SolverConfig(spec=spec, epsilon=1e-12, max_iter=3000),
                        SolverConfig(spec=generic_spec(spec.pair), max_iter=3)):
                got = solve(cfg, w)
                p = got.argmax_p.probs
                radius = _shannon_radius(p, w.rows) if a is None else _arimoto_radius(p, w.rows, a)
                assert got.gap == pytest.approx(radius - got.capacity, abs=1e-12)
                assert got.gap >= -1e-12

    @pytest.mark.parametrize("w, a", [(_named(8, 8, 1), 256.0), (_named(64, 64, 1), 100.0),
                                      (bsc(0.1), 1000.0)], ids=["8x8-256", "64x64-100", "bsc-1000"])
    def test_finite_at_high_orders(self, w, a):
        # (p^a W^a)^(1/a) underflows to 0 here and made Q, and the gap, NaN
        for make in (arimoto_a1_spec, arimoto_a2_spec):
            gap = solve(SolverConfig(spec=make(a)), w).gap
            assert math.isfinite(gap) and gap >= -1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_finite_on_two_by_two_channels_at_order_1000(self, seed):
        # w^a underflows to 0 where q^(1-a) overflows to inf, and their
        # product made the gap NaN
        w = _named(2, 2, seed)
        for make in (arimoto_a1_spec, arimoto_a2_spec):
            gap = solve(SolverConfig(spec=make(1000.0)), w).gap
            assert math.isfinite(gap) and gap >= -1e-12

    def test_bsc_converges_to_its_certificate(self):
        got = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-14), bsc(0.1))
        assert abs(got.gap) <= 1e-13

    def test_no_bound_for_the_other_kinds(self):
        # a custom pair has no row, so no measure to read a bound for
        w = rand_channel(np.random.default_rng(103), 3, 3)
        custom = dataclasses.replace(shannon_pair())
        for spec in (hayashi_spec(2.0), fb_spec(2.0), generic_spec(custom)):
            assert solve(SolverConfig(spec=spec, max_iter=20), w).gap is None


#: Traced peak the oracle stays under, whatever the size of its grid.
ORACLE_PEAK = 4 * 2 ** 20


def _traced_peak(fn):
    """Peak bytes tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _lex_grid(m, steps):
    """Simplex grid rows in lexicographic order, built with itertools."""
    rows = [ks + (steps - sum(ks),)
            for ks in itertools.product(range(steps + 1), repeat=m - 1) if sum(ks) <= steps]
    return np.array(rows, dtype=np.float64) / steps


KERNEL_SPECS = [shannon_spec()] + [
    make(a) for a in (0.5, 2.0, 3.0)
    for make in (arimoto_a1_spec, arimoto_a2_spec, hayashi_spec)
] + [fb_spec(2.0), fb_spec(3.0)]
#: Orders near 1, where beta or 1 - b is large: Fehr-Berens' beta is
#: 1/(a - 1), and r_y^(1-b) overflows where s_y^beta underflows.
NEAR_ONE_SPECS = [fb_spec(1.01), fb_spec(1.001)] + [
    make(a) for a in (0.999, 1.001) for make in (arimoto_a2_spec, hayashi_spec)
]


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

    @pytest.mark.parametrize("m", [1, 5, 6])
    def test_streams_any_number_of_inputs(self, m):
        for steps in (1, 2, 5, 9):
            want = _lex_grid(m, steps)
            n = want.shape[0]
            for chunk_rows in (1, 3, 10, 64, n):
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

    def test_block_memory_does_not_grow_with_the_outputs(self):
        # blocks are sized in cells, not rows: with 250,000-row blocks this
        # 3 x 256 grid went through _batch_mi in one block and peaked at ~100 MB
        w = rand_channel(np.random.default_rng(107), 3, 256, floor=0.01)
        tracemalloc.start()
        try:
            brute_force_search(shannon_spec(), w, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

    def test_four_input_oracle_stays_small(self):
        # 31.2 MiB traced with (|X|, rows, |Y|) blocks of 2^20 cells, and
        # 16.2 MiB with 2^16-cell blocks of a grid built whole
        w = rand_channel(np.random.default_rng(127), 4, 16, floor=0.01)
        assert _traced_peak(lambda: brute_force_search(shannon_spec(), w, 1e-2)) < ORACLE_PEAK

    @pytest.mark.parametrize("m,resolution", [(4, 5e-3), (5, 2e-2)])
    def test_oracle_memory_does_not_grow_with_the_grid(self, m, resolution):
        # 1.37M and 316k grid points; with the grid built whole the 4-input
        # search peaked at 125.9 MiB traced
        w = rand_channel(np.random.default_rng(131), m, m, floor=0.01)
        peak = _traced_peak(lambda: brute_force_search(shannon_spec(), w, resolution))
        assert peak < ORACLE_PEAK

    @pytest.mark.parametrize("m,ny,resolution", [(2, 3, 1e-4), (2, 4096, 1e-4), (3, 256, 1e-2),
                                                 (3, 2048, 2e-2), (4, 64, 2e-2)])
    def test_blocks_stay_within_the_cell_budget(self, monkeypatch, m, ny, resolution):
        rows = []

        def recording(m_, steps, chunk_rows):
            for chunk in _grid_chunks(m_, steps, chunk_rows):
                rows.append(chunk.shape[0])
                yield chunk

        monkeypatch.setattr(capacity, "_grid_chunks", recording)
        w = rand_channel(np.random.default_rng(109), m, ny, floor=0.01)
        brute_force_search(shannon_spec(), w, resolution)
        steps = round(1.0 / resolution)
        assert sum(rows) == math.comb(steps + m - 1, m - 1)
        assert max(rows) * m * ny <= capacity._BLOCK_CELLS

    @pytest.mark.parametrize("spec", KERNEL_SPECS,
                             ids=lambda s: f"{s.kind}-{s.alpha}" if s.alpha else s.kind)
    def test_block_size_does_not_change_the_result(self, monkeypatch, spec):
        # the best point found across many small blocks is the one a single
        # block over the whole grid finds
        rng = np.random.default_rng(113)
        for m, resolution in ((2, 1e-2), (3, 2e-2), (4, 5e-2)):
            w = rand_channel(rng, m, 5)
            want_v, want_p = brute_force_search(spec, w, resolution)
            with monkeypatch.context() as patch:
                patch.setattr(capacity, "_BLOCK_CELLS", m * 5 * 7)  # 7-row blocks
                got_v, got_p = brute_force_search(spec, w, resolution)
            assert got_v == want_v
            assert np.array_equal(got_p.probs, want_p.probs)
            if m > 2:  # no golden-section refinement: the best grid point
                grid = _lex_grid(m, round(1.0 / resolution))
                assert want_v == pytest.approx(_batch_mi(spec, grid, w.rows).max(), abs=1e-15)


class TestBatchMi:
    """The oracle's batched H-MI is the measure's own mutual information."""

    @pytest.mark.parametrize("spec", KERNEL_SPECS,
                             ids=lambda s: f"{s.kind}-{s.alpha}" if s.alpha else s.kind)
    def test_matches_mutual_information_row_by_row(self, spec):
        rng, wide = np.random.default_rng(83), np.random.default_rng(137)
        # with |Y| >= 8 the block sums over the outputs in another order
        # than the per-prior kernel does
        for w in (zero_mass_column_channel(), rand_channel(rng, 3, 3), rand_channel(rng, 3, 5),
                  rand_channel(wide, 3, 16), rand_channel(wide, 4, 9)):
            # grids with rows that hold one and two exact zeros
            grid = _lex_grid(w.nx, 6 if w.nx == 3 else 4)
            priors = np.vstack([grid, rng.dirichlet(np.ones(w.nx), size=5)])
            got = _batch_mi(spec, priors, w.rows)
            for p, value in zip(priors, got):
                want = mutual_information(spec.pair, make_pmf(p), w).mi
                assert abs(value - want) <= 1e-12

    @pytest.mark.parametrize("spec", KERNEL_SPECS,
                             ids=lambda s: f"{s.kind}-{s.alpha}" if s.alpha else s.kind)
    def test_grid_view_gives_the_values_of_a_contiguous_copy(self, spec):
        # _grid_chunks yields transposed views of an (m, N) grid; the block
        # must not depend on the priors' memory order
        w = rand_channel(np.random.default_rng(139), 4, 9)
        for chunk in _grid_chunks(4, 12, 97):
            assert not chunk.flags.c_contiguous
            rows = np.ascontiguousarray(chunk)
            assert np.array_equal(_batch_mi(spec, chunk, w.rows), _batch_mi(spec, rows, w.rows))

    @pytest.mark.parametrize("spec", KERNEL_SPECS,
                             ids=lambda s: f"{s.kind}-{s.alpha}" if s.alpha else s.kind)
    def test_workspace_gives_the_values_of_a_fresh_block(self, spec):
        # the workspace is larger than the block and holds the last block's
        # columns, as in the oracle's final, shorter block
        w = rand_channel(np.random.default_rng(149), 4, 9)
        work = np.full(4 * 9 * 120, np.nan)
        for chunk in _grid_chunks(4, 12, 97):
            got = _batch_mi(spec, chunk, w.rows, work)
            assert np.array_equal(got, _batch_mi(spec, chunk, w.rows))

    @pytest.mark.parametrize("spec", KERNEL_SPECS + NEAR_ONE_SPECS,
                             ids=lambda s: f"{s.kind}-{s.alpha}" if s.alpha else s.kind)
    def test_posterior_average_is_f_averaged_over_the_posteriors(self, monkeypatch, spec):
        # the factored form itself, never the posterior columns it falls back to
        monkeypatch.setattr(entropy_module, "_posterior_average", None)
        # either route's rounding in a power sum grows beta-fold in its
        # beta-th power: 2.5e-13 and 1.3e-13 against 50-digit values at
        # fehr-berens(1.001), where beta = 1000
        rel = max(1e-13, 1e-15 * spec.pair.row[2])
        rng, wide = np.random.default_rng(151), np.random.default_rng(157)
        for w in (zero_mass_column_channel(), rand_channel(rng, 3, 5),
                  rand_channel(wide, 3, 16), rand_channel(wide, 4, 9)):
            # grids with rows that hold one and two exact zeros
            grid = _lex_grid(w.nx, 6 if w.nx == 3 else 4)
            priors = np.vstack([grid, rng.dirichlet(np.ones(w.nx), size=5)])
            got = spec.pair.posterior_average(priors.T, w.rows)
            assert got.shape == (priors.shape[0],)
            for p, value in zip(priors, got):
                assert value == pytest.approx(_averaged_f(spec.pair, p, w), rel=rel, abs=1e-15)
            # given F(P), as the oracle gives it, the average is the same
            core = spec.pair.F(priors.T)
            assert np.array_equal(spec.pair.posterior_average(priors.T, w.rows, core), got)

    @pytest.mark.parametrize("a", [0.05, 300.0])
    def test_posterior_average_at_extreme_orders(self, monkeypatch, a):
        # at order 300 the power sums of most outputs underflow, and the
        # call takes the posterior columns instead: on the random channel
        # before forming s, as some r_y^a < _TINY, and on the uniform one,
        # where every r_y = 0.2, after s underflows at the uniform prior
        calls = []
        fallback = entropy_module._posterior_average
        monkeypatch.setattr(entropy_module, "_posterior_average",
                            lambda *args: calls.append(args) or fallback(*args))
        rng = np.random.default_rng(167)
        priors = np.vstack([_lex_grid(4, 5), rng.dirichlet(np.ones(4), 5), np.full(4, 0.25)])
        pairs = [arimoto_pair(a), hayashi_pair(a)] + ([fehr_berens_pair(a)] if a > 1.0 else [])
        work = np.empty(4 * 5 * priors.shape[0])
        for w in (rand_channel(np.random.default_rng(163), 4, 5), make_channel(np.full((4, 5), 0.2))):
            for pair in pairs:
                got = pair.posterior_average(priors.T, w.rows, None, work)
                for p, value in zip(priors, got):
                    assert value == pytest.approx(_averaged_f(pair, p, w), rel=1e-12, abs=1e-300)
        assert len(calls) == (2 * len(pairs) if a > 1.0 else 0)
        assert all(args[3] is work for args in calls)  # the caller's workspace

    def test_fallback_blocks_share_one_workspace(self, monkeypatch):
        # at order 300 every block of this grid falls back to the posterior
        # columns: one workspace serves them all
        works = []
        fallback = entropy_module._posterior_average
        monkeypatch.setattr(entropy_module, "_posterior_average",
                            lambda *args: works.append(args[3]) or fallback(*args))
        monkeypatch.setattr(capacity, "_BLOCK_CELLS", 4 * 5 * 50)  # 50-row blocks
        w = rand_channel(np.random.default_rng(181), 4, 5)
        brute_force_search(hayashi_spec(300.0), w, 1e-1)
        assert len(works) == math.ceil(math.comb(13, 3) / 50)
        assert all(isinstance(work, np.ndarray) and work is works[0] for work in works)

    def test_a_replaced_pair_has_no_posterior_average(self):
        pair = shannon_pair()
        doubled = dataclasses.replace(pair, F=lambda p: 2.0 * pair.F(p))
        assert pair.posterior_average is not None
        assert doubled.posterior_average is None
        assert dataclasses.replace(hayashi_pair(2.0), name="copy").posterior_average is None
        w = rand_channel(np.random.default_rng(173), 3, 5)
        grid = _lex_grid(3, 6)
        got = _batch_mi(generic_spec(doubled), grid, w.rows)
        assert np.allclose(got, 2.0 * _batch_mi(shannon_spec(), grid, w.rows), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("spec", KERNEL_SPECS + NEAR_ONE_SPECS,
                             ids=lambda s: f"{s.kind}-{s.alpha}" if s.alpha else s.kind)
    def test_oracle_through_the_average_matches_the_posterior_route(self, spec):
        plain = generic_spec(dataclasses.replace(spec.pair))
        assert plain.pair.posterior_average is None
        rng = np.random.default_rng(179)
        for m, resolution in ((2, 1e-2), (3, 2e-2), (4, 5e-2)):
            w = rand_channel(rng, m, 5)
            value, p = brute_force_search(spec, w, resolution)
            want, p_want = brute_force_search(plain, w, resolution)
            assert abs(value - want) <= 1e-12
            if m == 2:  # golden-section refined: the MI is flat to rounding there
                assert np.allclose(p.probs, p_want.probs, rtol=0.0, atol=1e-6)
            elif not np.array_equal(p.probs, p_want.probs):  # a tie within 1e-12
                both = _batch_mi(plain, np.vstack([p.probs, p_want.probs]), w.rows)
                assert abs(both[0] - both[1]) <= 1e-12

    def test_scalar_only_pair_is_unsupported(self):
        w = zero_mass_column_channel()
        for pair in SCALAR_ONLY_PAIRS:
            with pytest.raises(UnsupportedSpec):
                brute_force_search(generic_spec(pair), w, 1e-1)

    def test_scalar_only_eta_is_unsupported(self):
        pair = shannon_pair()
        scalar_eta = EntropyPair(name="scalar-eta", F=pair.F, grad_f=pair.grad_f,
                                 eta=lambda t: math.log(math.exp(t)),
                                 eta_slope=pair.eta_slope, eta_domain=pair.eta_domain)
        w = zero_mass_column_channel()
        assert conditional_entropy(scalar_eta, uniform(3), w) == pytest.approx(
            conditional_entropy(pair, uniform(3), w), abs=1e-12)
        with pytest.raises(UnsupportedSpec):
            brute_force_search(generic_spec(scalar_eta), w, 1e-1)


def _averaged_f(pair, p, w):
    """sum_y p_Y(y) F(p_{X|Y=y}) written out from the posterior columns."""
    post = posterior(make_pmf(p), w)
    return float(np.sum(post.p_y[post.support] * pair.F(post.cols)))


@pytest.mark.parametrize("a", [1000.0, 5000.0])
@pytest.mark.parametrize("make,nx,ny,resolution",
                         [(arimoto_pair, 4, 5, 2e-2), (hayashi_pair, 3, 3, 1e-2)])
def test_oracle_names_a_grid_value_that_is_not_finite(make, nx, ny, resolution, a):
    # arimoto(1000) on random-channel 4x5 seed 3 used to report capacity
    # inf; hayashi(1000) on 3x3 seed 3 picked a NaN in every block and
    # failed on an empty best point instead
    w, _ = parse_channel_text(random_channel_text(nx, ny, 3))
    pair = make(a)
    with pytest.raises(NonFinite, match=rf"^{re.escape(pair.name)}: .* at grid point \[[^]]+\]$"):
        brute_force_search(generic_spec(pair), w, resolution)


FORBIDDEN = {"_eval", "_expectation", "_loss_cells", "_outer_value", "_input_coeffs", "_coeffs",
             "_q_cols", "_exact_step", "_p_kkt", "_bracketed_root", "_p_numeric", "q_step",
             "eval_functional", "p_step_closed", "p_step_numeric", "variational",
             "_coeff_kernel", "_table_coeffs", "_dual_radius", "row"}


def _names(code):
    """Global and attribute names a code object and its nested code refer to."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names(const)
    return names


def test_oracle_shares_no_functional_or_step_code():
    # the oracle may share the entropy kernel (F and eta), never the
    # functional, the updates or the pair's row the kernels read: that
    # independence is what lets it check them
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
