"""Entropy measures, conditional entropy, and mutual-information properties."""

import math

import numpy as np
import pytest

from genmi import (
    BadAlpha,
    DomainError,
    EntropyPair,
    Pmf,
    UnsupportedSpec,
    arimoto_pair,
    conditional_entropy,
    entropy,
    fb_spec,
    fehr_berens_pair,
    hayashi_pair,
    make_channel,
    make_pmf,
    mutual_information,
    shannon_pair,
    uniform,
)

from conftest import SCALAR_ONLY_PAIRS, binary_entropy, rand_channel, rand_pmf

ALL_ALPHAS = (0.3, 0.5, 2.0, 5.0)


def all_pairs(alpha):
    pairs = [shannon_pair(), arimoto_pair(alpha), hayashi_pair(alpha)]
    if alpha > 1.0:
        pairs.append(fehr_berens_pair(alpha))
    return pairs


class TestUnconditional:
    def test_shannon_uniform(self):
        assert entropy(shannon_pair(), uniform(2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_arimoto_point_mass(self):
        assert entropy(arimoto_pair(2.0), make_pmf([1, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_arimoto_direct(self):
        # order-2 entropy of (0.8, 0.2): -2 log ||p||_2 = -log 0.68
        val = entropy(arimoto_pair(2.0), make_pmf([0.8, 0.2]))
        assert val == pytest.approx(-math.log(0.68), abs=1e-12)
        assert val == pytest.approx(0.385662, abs=1e-6)

    def test_renyi_forms_agree(self):
        # the arimoto, hayashi, and fehr-berens pairs are three writings of
        # the same order-a unconditional entropy
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rand_pmf(rng, int(rng.integers(2, 6)))
            for a in ALL_ALPHAS:
                pairs = [arimoto_pair(a), hayashi_pair(a)]
                if a > 1.0:
                    pairs.append(fehr_berens_pair(a))
                vals = [entropy(pair, p) for pair in pairs]
                assert max(vals) - min(vals) < 1e-9

    def test_midpoint_concavity_of_cores(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            p = rand_pmf(rng, m).probs
            q = rand_pmf(rng, m).probs
            for a in ALL_ALPHAS:
                for pair in all_pairs(a):
                    mid = pair.F((p + q) / 2)
                    assert mid >= (pair.F(p) + pair.F(q)) / 2 - 1e-9

    def test_eta_strictly_increasing(self):
        rng = np.random.default_rng(9)
        for a in ALL_ALPHAS:
            for pair in all_pairs(a):
                lo, hi = pair.eta_domain
                lo = max(lo, -10.0)
                hi = min(hi, 10.0)
                samples = np.sort(lo + (hi - lo) * rng.random(50))
                # keep strictly inside the open interval
                samples = samples[(samples > lo + 1e-9) & (samples < hi - 1e-9)]
                vals = [pair.eta(t) for t in samples]
                assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_eta_domain_guard(self):
        broken = EntropyPair(
            name="broken",
            F=lambda p: 2.0,
            grad_f=lambda p: np.zeros_like(p),
            eta=lambda t: t,
            eta_slope=lambda t: 1.0,
            eta_domain=(0.0, 1.0),
        )
        with pytest.raises(DomainError):
            entropy(broken, make_pmf([0.5, 0.5]))


class TestConditional:
    def test_identity_channel_zero(self):
        w = make_channel(np.eye(3))
        assert conditional_entropy(shannon_pair(), uniform(3), w) == pytest.approx(0.0, abs=1e-12)

    def test_independent_channel_equals_unconditional(self):
        p = make_pmf([0.3, 0.7])
        w = make_channel([[0.2, 0.8], [0.2, 0.8]])
        for a in ALL_ALPHAS:
            for pair in all_pairs(a):
                lhs = conditional_entropy(pair, p, w)
                assert lhs == pytest.approx(entropy(pair, p), abs=1e-10)

    def test_shannon_bsc(self, bsc10, uniform2):
        val = conditional_entropy(shannon_pair(), uniform2, bsc10)
        assert val == pytest.approx(binary_entropy(0.1), abs=1e-12)
        assert val == pytest.approx(0.325083, abs=1e-6)

    def test_zero_mass_output_contributes_nothing(self):
        # output 1 is reached by no input, output 3 only by the input the prior leaves out
        rows = np.array([[0.2, 0.0, 0.8, 0.0], [0.6, 0.0, 0.4, 0.0], [0.1, 0.0, 0.1, 0.8]])
        p = make_pmf([0.25, 0.75, 0.0])
        cells = p.probs[:, None] * rows
        p_y = cells.sum(axis=0)
        for a in ALL_ALPHAS:
            for pair in all_pairs(a):
                # by hand: the average of F over the posteriors of outputs 0 and 2
                avg = sum(p_y[y] * pair.F(cells[:, y] / p_y[y]) for y in (0, 2))
                val = conditional_entropy(pair, p, make_channel(rows))
                assert val == pytest.approx(pair.eta_checked(avg), abs=1e-12)
                kept = conditional_entropy(pair, p, make_channel(rows[:, [0, 2, 3]]))
                assert val == pytest.approx(kept, abs=1e-12)

    def test_one_core_call_and_no_pmf_per_column(self, monkeypatch):
        calls = []
        base = shannon_pair()
        counting = EntropyPair(name="counting", F=lambda p: calls.append(p.shape) or base.F(p),
                               grad_f=base.grad_f, eta=base.eta, eta_slope=base.eta_slope,
                               eta_domain=base.eta_domain)
        w = rand_channel(np.random.default_rng(37), 3, 5)
        p = make_pmf([0.2, 0.3, 0.5])
        made = []
        init = Pmf.__post_init__
        monkeypatch.setattr(Pmf, "__post_init__", lambda self: made.append(1) or init(self))
        val = conditional_entropy(counting, p, w)
        assert calls == [(3, 5)] and made == []
        assert val == pytest.approx(conditional_entropy(base, p, w), abs=0)

    def test_scalar_only_core_is_unsupported(self, bsc10, uniform2):
        for pair in SCALAR_ONLY_PAIRS:
            entropy(pair, uniform2)  # a single pmf is fine
            with pytest.raises(UnsupportedSpec):
                conditional_entropy(pair, uniform2, bsc10)
            with pytest.raises(UnsupportedSpec):
                mutual_information(pair, uniform2, bsc10)


class TestMutualInformation:
    def test_independent_is_zero(self):
        p = make_pmf([0.4, 0.6])
        w = make_channel([[0.3, 0.7], [0.3, 0.7]])
        for a in ALL_ALPHAS:
            for pair in all_pairs(a):
                assert mutual_information(pair, p, w).mi == pytest.approx(0.0, abs=1e-10)

    def test_shannon_bsc(self, bsc10, uniform2):
        report = mutual_information(shannon_pair(), uniform2, bsc10)
        assert report.mi == pytest.approx(math.log(2) - binary_entropy(0.1), abs=1e-12)
        assert report.mi == pytest.approx(0.368064, abs=1e-6)
        assert report.mi == report.h_x - report.h_x_given_y

    def test_arimoto_bsc(self, bsc10, uniform2):
        # direct column evaluation: both posteriors have the same 2-norm,
        # so H(X|Y) = -2 log ||(0.9, 0.1)||_2 = -log 0.82
        val = mutual_information(arimoto_pair(2.0), uniform2, bsc10).mi
        assert val == pytest.approx(math.log(2) + math.log(0.82), abs=1e-12)
        assert val == pytest.approx(0.4947, abs=1e-4)

    def test_hayashi_bsc(self, bsc10, uniform2):
        # independently coded oracle for the order-2 conditional form
        post_norm_sq = 0.9 ** 2 + 0.1 ** 2
        expected = math.log(2) - (-math.log(post_norm_sq))
        val = mutual_information(hayashi_pair(2.0), uniform2, bsc10).mi
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(0.494696, abs=1e-6)

    def test_arimoto_identity_channel(self):
        val = mutual_information(arimoto_pair(2.0), uniform(2), make_channel(np.eye(2))).mi
        assert val == pytest.approx(math.log(2), abs=1e-12)

    def test_fb_independent_zero(self):
        w = make_channel([[0.6, 0.4], [0.6, 0.4]])
        val = mutual_information(fehr_berens_pair(2.0), make_pmf([0.5, 0.5]), w).mi
        assert val == pytest.approx(0.0, abs=1e-12)


class TestArimotoCoreNorm:
    """|F| of the arimoto pair is the order-a (quasi-)norm ||p||_a."""

    def test_point_mass(self):
        for a in (0.25, 3.0):
            assert abs(arimoto_pair(a).F(make_pmf([0, 1, 0]).probs)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_closed_form(self):
        for m in (2, 3, 5):
            for a in (0.5, 2.0, 4.0):
                val = abs(arimoto_pair(a).F(uniform(m).probs))
                assert val == pytest.approx(m ** (1 / a - 1), abs=1e-12)

    def test_direct_value(self):
        val = arimoto_pair(2.0).F(np.array([0.9, 0.1]))
        assert val == pytest.approx(-math.sqrt(0.82), abs=1e-12)
        assert val == pytest.approx(-0.905539, abs=1e-6)

    def test_non_increasing_in_order(self):
        rng = np.random.default_rng(13)
        grid = (0.25, 0.5, 2.0, 4.0)
        for _ in range(100):
            p = rand_pmf(rng, int(rng.integers(2, 6))).probs
            norms = [abs(arimoto_pair(a).F(p)) for a in grid]
            assert all(norms[i] >= norms[i + 1] - 1e-12 for i in range(len(norms) - 1))


class TestConstructors:
    def test_arimoto_core_value(self):
        # order > 1 stores the negated norm so the core stays concave
        val = arimoto_pair(2.0).F(np.array([0.6, 0.4]))
        assert val == pytest.approx(-math.sqrt(0.52), abs=1e-12)
        assert val == pytest.approx(-0.721110, abs=1e-6)

    def test_hayashi_core_value(self):
        val = hayashi_pair(0.5).F(np.array([0.25, 0.75]))
        assert val == pytest.approx(0.5 + math.sqrt(0.75), abs=1e-12)
        assert val == pytest.approx(1.366025, abs=1e-6)

    def test_fb_eta(self):
        assert fehr_berens_pair(2.0).eta(-0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_bad_orders(self):
        for ctor in (arimoto_pair, hayashi_pair, fehr_berens_pair):
            with pytest.raises(BadAlpha):
                ctor(1.0)
            with pytest.raises(BadAlpha):
                ctor(0.0)
            with pytest.raises(BadAlpha):
                ctor(-2.0)
        with pytest.raises(BadAlpha):
            fehr_berens_pair(0.5)

    def test_fb_below_order_one_names_the_order_exactly(self):
        # the order used to be printed with :g, which rounds 0.99999999 to 1
        for make in (fehr_berens_pair, fb_spec):
            with pytest.raises(BadAlpha, match=r"got 0\.99999999$"):
                make(0.99999999)

    def test_pair_names_carry_the_order_unrounded(self):
        # names used :g, so orders either side of 1 were both named 1
        assert hayashi_pair(0.99999999).name == "hayashi(0.99999999)"
        assert hayashi_pair(1.0000001).name == "hayashi(1.0000001)"
        assert arimoto_pair(2.0).name == "arimoto(2)"
        assert fehr_berens_pair(1.5).name == "fehr-berens(1.5)"

    @pytest.mark.parametrize("a", (0.3, 0.5, 1.5, 2.0, 3.0, 5.0))
    def test_core_and_eta_match_written_forms_bit_for_bit(self, a):
        # the capacity oracle reads F and eta, and its binary-input best_p
        # moves with the last ulp of F: the family must not round otherwise
        rng = np.random.default_rng(71)
        cols = rng.dirichlet(np.full(5, 0.7), size=40).T
        cols[:, :8] = 0.0
        cols[0, :8], cols[1, :4] = 1.0, 5e-324
        sign, s = (1.0 if a < 1.0 else -1.0), (cols ** a).sum(axis=0)
        written = {
            arimoto_pair: (sign * s ** (1.0 / a), lambda t: a / (1.0 - a) * np.log(sign * t)),
            hayashi_pair: (sign * s, lambda t: 1.0 / (1.0 - a) * np.log(sign * t)),
        }
        if a > 1.0:
            written[fehr_berens_pair] = (-s ** (1.0 / (a - 1.0)), lambda t: -np.log(-t))
        measure = {arimoto_pair: "arimoto", hayashi_pair: "hayashi",
                   fehr_berens_pair: "fehr-berens"}
        p = cols[:, -1]  # an interior pmf, where grad F is finite
        for ctor, (core, eta) in written.items():
            pair = ctor(a)
            assert np.array_equal(pair.F(cols), core), pair.name
            assert np.array_equal(pair.eta(core), eta(core)), pair.name
            # the row the variational kernels read is the row F is built from:
            # F = sign s^beta, and grad F = sign b s^(beta-1) p^(a-1) with b = a beta
            name, row_sign, beta, b = pair.row
            assert (name, row_sign) == (measure[ctor], sign)
            assert np.array_equal(row_sign * s ** beta, core), pair.name
            assert b == pytest.approx(a * beta, rel=1e-15)
            grad = row_sign * b * (p ** a).sum() ** (beta - 1.0) * p ** (a - 1.0)
            assert np.array_equal(pair.grad_f(p), grad), pair.name

    @pytest.mark.parametrize("a", (0.3, 0.5, 2.0, 3.0, 5.0))
    def test_unit_power_core_is_bit_identical_to_the_raised_sum(self, a):
        # at beta = 1 (Hayashi, and Fehr-Berens at order 2) F is the signed
        # power sum itself; x ** 1.0 == x, so skipping the power changes no bit
        rng = np.random.default_rng(131)
        sign = 1.0 if a < 1.0 else -1.0
        pairs = [hayashi_pair(a)] + ([fehr_berens_pair(a)] if a == 2.0 else [])
        for shape in ((6,), (4, 50), (3, 16, 200)):
            p = np.moveaxis(rng.dirichlet(np.full(shape[0], 0.5), size=shape[1:]), -1, 0)
            for pair in pairs:
                assert pair.row[2] == 1.0
                got = pair.F(p)
                want = sign * (p ** a).sum(axis=0) ** 1.0
                assert got.shape == want.shape == shape[1:]
                assert np.array_equal(got, want), (pair.name, shape)

    def test_gradients_are_batched_over_columns(self):
        # grad_f maps a stack of pmf columns to the stack of their gradients,
        # as F maps it to one value per column
        rng = np.random.default_rng(29)
        for a in ALL_ALPHAS:
            for pair in all_pairs(a):
                for shape in ((5, 30), (3, 4, 7)):
                    p = np.moveaxis(rng.dirichlet(np.full(shape[0], 0.8), size=shape[1:]), -1, 0)
                    grad = pair.grad_f(p)
                    assert grad.shape == shape, pair.name
                    for idx in np.ndindex(*shape[1:]):
                        col = p[(slice(None), *idx)]
                        np.testing.assert_allclose(grad[(slice(None), *idx)], pair.grad_f(col),
                                                   rtol=1e-14, atol=0, err_msg=pair.name)

    def test_gradients_match_finite_differences(self):
        # tolerance is relative to the gradient scale; float64 central
        # differences carry ~1e-9 absolute noise, so components near zero
        # cannot be compared in per-component relative terms
        rng = np.random.default_rng(23)
        h = 1e-7
        for a in ALL_ALPHAS:
            for pair in all_pairs(a):
                for _ in range(20):
                    p = rand_pmf(rng, 4, floor=0.05).probs
                    grad = pair.grad_f(p)
                    scale = float(np.max(np.abs(grad)))
                    for i in range(4):
                        d = np.zeros(4)
                        d[i] = h
                        fd = (pair.F(p + d) - pair.F(p - d)) / (2 * h)
                        assert abs(fd - grad[i]) <= 1e-5 * scale


class TestMeasureProperties:
    def test_non_negativity(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            p = rand_pmf(rng, m)
            w = rand_channel(rng, m, n)
            for a in (0.5, 2.0):
                for pair in all_pairs(a):
                    assert mutual_information(pair, p, w).mi >= -1e-9

    def test_data_processing_inequality(self):
        rng = np.random.default_rng(202)
        for _ in range(500):
            m = int(rng.integers(2, 4))
            k = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            p = rand_pmf(rng, m)
            w1 = rand_channel(rng, m, k)
            w2 = rand_channel(rng, k, n)
            w12 = make_channel(w1.rows @ w2.rows)
            for a in (0.5, 2.0):
                for pair in all_pairs(a):
                    direct = mutual_information(pair, p, w1).mi
                    processed = mutual_information(pair, p, w12).mi
                    assert processed <= direct + 1e-9

    def test_arimoto_below_hayashi(self):
        rng = np.random.default_rng(303)
        for _ in range(500):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            p = rand_pmf(rng, m)
            w = rand_channel(rng, m, n)
            for a in (0.3, 0.5, 2.0, 5.0):
                arimoto = mutual_information(arimoto_pair(a), p, w).mi
                assert arimoto <= mutual_information(hayashi_pair(a), p, w).mi + 1e-9

    def test_order_to_one_continuity(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            p = rand_pmf(rng, m)
            w = rand_channel(rng, m, n)
            base = mutual_information(shannon_pair(), p, w).mi
            assert abs(mutual_information(arimoto_pair(1 + 1e-4), p, w).mi - base) <= 1e-3
            assert abs(mutual_information(arimoto_pair(1 - 1e-4), p, w).mi - base) <= 1e-3

    def test_report_invariant(self):
        rng = np.random.default_rng(505)
        for _ in range(100):
            p = rand_pmf(rng, 3)
            w = rand_channel(rng, 3, 2)
            rep = mutual_information(hayashi_pair(2.0), p, w)
            assert rep.mi == rep.h_x - rep.h_x_given_y
            assert rep.mi >= -1e-9
