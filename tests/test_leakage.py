"""Bayes values, additive leakage, and the multiplicative equivalences."""

import math

import numpy as np
import pytest

from genmi import (
    DimensionMismatch,
    DomainError,
    GainMatrix,
    MixedSign,
    ScoringRule,
    ZeroDenominator,
    arimoto_mi,
    bayes_value,
    evsi,
    evsi_scoring,
    hayashi_mi,
    identity_gain,
    log_loss_rule,
    log_score_rule,
    make_channel,
    make_pmf,
    mevsi_matrix,
    mevsi_scoring,
    power_rule,
    pseudo_spherical_rule,
    alpha_score_rule,
    shannon_mi,
    uniform,
)

from conftest import rand_channel, rand_pmf


class TestBayesValue:
    def test_identity_gain_bsc(self, bsc10, uniform2):
        # E_Y[max_x p(x|Y)]: both posteriors peak at 0.9
        assert bayes_value(identity_gain(2), uniform2, bsc10) == pytest.approx(0.9, abs=1e-12)

    def test_independent_channel_no_improvement(self):
        m = GainMatrix([[2.0, 0.0], [0.0, 1.0]])
        p = make_pmf([0.4, 0.6])
        w = make_channel([[0.5, 0.5], [0.5, 0.5]])
        prior_best = max(0.4 * 2.0, 0.6 * 1.0)
        assert bayes_value(m, p, w) == pytest.approx(prior_best, abs=1e-12)

    def test_single_action(self, bsc10):
        m = GainMatrix([[0.3], [0.8]])
        p = make_pmf([0.25, 0.75])
        expected = 0.25 * 0.3 + 0.75 * 0.8
        assert bayes_value(m, p, bsc10) == pytest.approx(expected, abs=1e-12)

    def test_loss_orientation(self, bsc10, uniform2):
        m = GainMatrix(1.0 - np.eye(2), kind="loss")  # 0-1 loss
        assert bayes_value(m, uniform2, bsc10) == pytest.approx(0.1, abs=1e-12)

    def test_more_actions_never_hurt(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rand_pmf(rng, 3)
            w = rand_channel(rng, 3, 3)
            base = rng.normal(size=(3, 2))
            extra = np.column_stack([base, rng.normal(size=(3, 2))])
            v_small = bayes_value(GainMatrix(base), p, w)
            v_large = bayes_value(GainMatrix(extra), p, w)
            assert v_large >= v_small - 1e-12


class TestEvsiMatrix:
    def test_identity_gain_bsc(self, bsc10, uniform2):
        report = evsi(identity_gain(2), uniform2, bsc10)
        assert report.prior_value == pytest.approx(0.5, abs=1e-12)
        assert report.posterior_value == pytest.approx(0.9, abs=1e-12)
        assert report.additive == pytest.approx(0.4, abs=1e-12)

    def test_independent_channel_zero(self):
        m = identity_gain(2)
        p = make_pmf([0.3, 0.7])
        w = make_channel([[0.5, 0.5], [0.5, 0.5]])
        assert evsi(m, p, w).additive == pytest.approx(0.0, abs=1e-12)

    def test_certain_prior_zero(self, bsc10):
        report = evsi(identity_gain(2), make_pmf([1.0, 0.0]), bsc10)
        assert report.additive == pytest.approx(0.0, abs=1e-12)

    def test_loss_orientation_gives_risk_reduction(self, bsc10, uniform2):
        m = GainMatrix(1.0 - np.eye(2), kind="loss")
        report = evsi(m, uniform2, bsc10)
        assert report.prior_value == pytest.approx(0.5, abs=1e-12)
        assert report.posterior_value == pytest.approx(0.1, abs=1e-12)
        assert report.additive == pytest.approx(0.4, abs=1e-12)

    def test_additive_never_negative(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = rand_pmf(rng, 3)
            w = rand_channel(rng, 3, 2)
            m = GainMatrix(rng.normal(size=(3, 4)))
            assert evsi(m, p, w).additive >= -1e-9

    @pytest.mark.parametrize("value", [evsi, bayes_value, mevsi_matrix],
                             ids=lambda f: f.__name__)
    def test_row_count_must_match_the_prior(self, value, bsc10, uniform2):
        with pytest.raises(DimensionMismatch, match="gain matrix rows must match"):
            value(identity_gain(3), uniform2, bsc10)


class TestEvsiScoring:
    def test_log_rule_equals_shannon_mi(self):
        rng = np.random.default_rng(17)
        for rule in (log_score_rule(), log_loss_rule()):
            for _ in range(200):
                m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
                p = rand_pmf(rng, m)
                w = rand_channel(rng, m, n)
                report = evsi_scoring(rule, p, w)
                assert report.additive == pytest.approx(shannon_mi(p, w), abs=1e-9)

    def test_proper_rule_independent_channel_zero(self):
        p = make_pmf([0.35, 0.65])
        w = make_channel([[0.4, 0.6], [0.4, 0.6]])
        for rule in (log_score_rule(), pseudo_spherical_rule(2.0), power_rule(0.5)):
            assert evsi_scoring(rule, p, w).additive == pytest.approx(0.0, abs=1e-10)

    def test_power_score_bsc(self, bsc10, uniform2):
        # closed form: the power score's optimum is sum q^a / (a-1), so the
        # gain from observing Y is E_Y[||p_{X|Y}||_2^2] - ||p||_2^2 at a = 2
        report = evsi_scoring(power_rule(2.0), uniform2, bsc10)
        assert report.additive == pytest.approx(0.82 - 0.5, abs=1e-12)
        assert report.additive == pytest.approx(0.32, abs=1e-12)


class TestMevsi:
    def test_alpha_score_equals_arimoto(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            p = rand_pmf(rng, m)
            w = rand_channel(rng, m, n)
            for a in (0.5, 2.0, 4.0):
                got = mevsi_scoring(alpha_score_rule(a), p, w)
                assert got == pytest.approx(arimoto_mi(a, p, w), abs=1e-8)

    def test_pseudo_spherical_equals_arimoto(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            p = rand_pmf(rng, m)
            w = rand_channel(rng, m, n)
            for a in (0.5, 2.0, 4.0):
                got = mevsi_scoring(pseudo_spherical_rule(a), p, w)
                assert got == pytest.approx(arimoto_mi(a, p, w), abs=1e-8)

    def test_power_equals_hayashi(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            p = rand_pmf(rng, m)
            w = rand_channel(rng, m, n)
            for a in (0.5, 2.0, 4.0):
                got = mevsi_scoring(power_rule(a), p, w)
                assert got == pytest.approx(hayashi_mi(a, p, w), abs=1e-8)

    def test_mixed_sign_rejected(self, bsc10, uniform2):
        shifted = ScoringRule(
            "shifted", "gain",
            lambda x, q: q[x] - 0.6,  # negative at the prior, positive at posteriors
            lambda p: p, c_of_g=1.0,
        )
        with pytest.raises(MixedSign):
            mevsi_scoring(shifted, uniform2, bsc10)

    def test_zero_denominator_rejected(self, bsc10, uniform2):
        null_rule = ScoringRule(
            "null", "gain", lambda x, q: 0.0, lambda p: p, c_of_g=1.0
        )
        with pytest.raises(ZeroDenominator):
            mevsi_scoring(null_rule, uniform2, bsc10)

    def test_matrix_multiplicative(self, bsc10, uniform2):
        got = mevsi_matrix(identity_gain(2), uniform2, bsc10)
        assert got == pytest.approx(math.log(0.9 / 0.5), abs=1e-12)

    def test_matrix_mixed_sign(self, bsc10, uniform2):
        with pytest.raises(MixedSign):
            mevsi_matrix(GainMatrix([[1.0, -1.0], [0.0, 1.0]]), uniform2, bsc10)

    def test_multiplicative_only_where_the_rule_declares_its_constant(self, bsc10, uniform2):
        got = mevsi_scoring(alpha_score_rule(2.0), uniform2, bsc10)
        assert got == pytest.approx(arimoto_mi(2.0, uniform2, bsc10), abs=1e-10)
        with pytest.raises(DomainError, match="declares no multiplicative constant"):
            mevsi_scoring(log_score_rule(), uniform2, bsc10)


class TestDataProcessing:
    def test_evsi_shrinks_under_post_processing(self):
        rng = np.random.default_rng(31)
        log_rule = log_score_rule()
        for _ in range(200):
            m = int(rng.integers(2, 4))
            k = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            p = rand_pmf(rng, m)
            w1 = rand_channel(rng, m, k)
            w12 = w1.compose(rand_channel(rng, k, n))
            assert (
                evsi_scoring(log_rule, p, w12).additive
                <= evsi_scoring(log_rule, p, w1).additive + 1e-9
            )
            gm = GainMatrix(rng.normal(size=(m, 3)))
            assert evsi(gm, p, w12).additive <= evsi(gm, p, w1).additive + 1e-9
