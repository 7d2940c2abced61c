"""Scoring rules, Bayes values, and the core-loss construction."""

import math

import numpy as np
import pytest

from genmi import (
    BadAlpha,
    Pmf,
    ScoringRule,
    alpha_loss_rule,
    alpha_score_rule,
    alpha_tilt,
    arimoto_pair,
    evsi_scoring,
    expected_score,
    fehr_berens_pair,
    hayashi_pair,
    identity_gain,
    log_loss_rule,
    log_score_rule,
    loss_from_core,
    make_channel,
    make_pmf,
    optimal_response,
    posterior,
    power_rule,
    pseudo_spherical_rule,
    shannon_pair,
    uniform,
)

from conftest import binary_entropy, rand_channel, rand_pmf

ALPHAS = (0.5, 2.0, 5.0)


def all_rules(alpha):
    return [log_score_rule(), log_loss_rule(), pseudo_spherical_rule(alpha),
            power_rule(alpha), alpha_loss_rule(alpha), alpha_score_rule(alpha)]


def golden_section(f, lo, hi):
    """Minimize a smooth 1-d function; independent optimizer for oracles."""
    inv_phi = (math.sqrt(5) - 1) / 2
    b = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fb, fd = f(b), f(d)
    while hi - lo > 1e-13:
        if fb < fd:
            hi, d, fd = d, b, fb
            b = hi - inv_phi * (hi - lo)
            fb = f(b)
        else:
            lo, b, fb = b, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    t = 0.5 * (lo + hi)
    return min(f(t), fb, fd)


def binary_min(f):
    """Fine grid plus local refinement over announcements (t, 1-t)."""
    ts = np.linspace(0.0, 1.0, 1001)
    vals = [f(t) for t in ts]
    i = int(np.argmin(vals))
    lo, hi = max(0.0, ts[i] - 1e-3), min(1.0, ts[i] + 1e-3)
    return min(vals[i], golden_section(f, lo, hi))


class TestExpectedScore:
    def test_log_uniform(self):
        rule = log_score_rule()
        u = make_pmf([0.5, 0.5])
        assert expected_score(rule, u, u) == pytest.approx(-math.log(2), abs=1e-12)

    def test_log_point_mass_belief(self):
        rule = log_score_rule()
        val = expected_score(rule, make_pmf([1, 0]), make_pmf([0.5, 0.5]))
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_alpha_score_direct(self):
        # direct evaluation of (a/(a-1)) q(x)^((a-1)/a) at a = 2
        rule = alpha_score_rule(2.0)
        val = expected_score(rule, make_pmf([0.5, 0.5]), make_pmf([0.9, 0.1]))
        expected = 2 * (0.5 * math.sqrt(0.9) + 0.5 * math.sqrt(0.1))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(1.264911, abs=1e-6)

    def test_minus_infinity_sentinel(self):
        rule = log_score_rule()
        val = expected_score(rule, make_pmf([0.5, 0.5]), make_pmf([1, 0]))
        assert val == -math.inf

    def test_zero_weight_kills_infinite_score(self):
        # the 0 * log 0 convention: unsupported outcomes contribute nothing
        rule = log_score_rule()
        val = expected_score(rule, make_pmf([1, 0]), make_pmf([1, 0]))
        assert val == 0.0


class TestOptimalResponse:
    def test_proper_rules_return_belief(self):
        belief = make_pmf([0.3, 0.7])
        for rule in (log_score_rule(), pseudo_spherical_rule(2.0), power_rule(0.5)):
            np.testing.assert_allclose(
                optimal_response(rule, belief).probs, belief.probs, atol=0
            )

    def test_alpha_rules_return_tilt(self):
        belief = make_pmf([0.8, 0.2])
        expected = alpha_tilt(belief, 2.0).probs
        got = optimal_response(alpha_loss_rule(2.0), belief).probs
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, [0.941176, 0.058824], atol=1e-6)

    def test_uniform_belief_fixed_for_all_rules(self):
        u = uniform(3)
        for rule in all_rules(2.0):
            np.testing.assert_allclose(optimal_response(rule, u).probs, u.probs, atol=1e-12)


def posterior_score(rule, p, w, family):
    """sum_y p_Y(y) E_{X|Y=y}[score(X, family[y])] over the supported outputs."""
    post = posterior(p, w)
    return sum(post.p_y[y] * expected_score(rule, Pmf(post.cols[:, j]), family[y])
               for j, y in enumerate(post.support))


class TestPosteriorExpectedScore:
    def test_log_score_at_posterior_is_negated_equivocation(self, bsc10, uniform2):
        val = evsi_scoring(log_score_rule(), uniform2, bsc10).posterior_value
        assert val == pytest.approx(-binary_entropy(0.1), abs=1e-12)

    def test_log_loss_at_posterior(self, bsc10, uniform2):
        val = evsi_scoring(log_loss_rule(), uniform2, bsc10).posterior_value
        assert val == pytest.approx(binary_entropy(0.1), abs=1e-12)
        assert val == pytest.approx(0.325083, abs=1e-6)

    def test_constant_response_on_independent_channel(self):
        p = make_pmf([0.3, 0.7])
        w = make_channel([[0.5, 0.5], [0.5, 0.5]])
        val = posterior_score(log_loss_rule(), p, w, {0: p, 1: p})
        shannon = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
        assert val == pytest.approx(shannon, abs=1e-12)


class TestProperness:
    def test_proper_rules_inequality(self):
        rng = np.random.default_rng(31)
        rules = [log_score_rule(), pseudo_spherical_rule(0.5), pseudo_spherical_rule(2.0),
                 power_rule(0.5), power_rule(2.0)]
        for _ in range(1000):
            m = int(rng.integers(2, 5))
            p = rand_pmf(rng, m, floor=1e-3)
            q = rand_pmf(rng, m, floor=1e-3)
            for rule in rules:
                at_truth = expected_score(rule, p, p)
                at_other = expected_score(rule, p, q)
                assert at_truth >= at_other - 1e-9
                if np.max(np.abs(p.probs - q.probs)) > 1e-3:
                    assert at_truth > at_other

    def test_alpha_loss_not_proper(self):
        # announcing the tilt strictly beats announcing the belief itself
        rule = alpha_loss_rule(2.0)
        p = make_pmf([0.8, 0.2])
        tilted = alpha_tilt(p, 2.0)
        at_belief = expected_score(rule, p, p)
        at_tilt = expected_score(rule, p, tilted)
        assert at_tilt < at_belief - 1e-9

        rng = np.random.default_rng(37)
        found = 0
        for _ in range(100):
            p = rand_pmf(rng, 3, floor=1e-3)
            t = alpha_tilt(p, 2.0)
            if np.max(np.abs(t.probs - p.probs)) > 1e-6:
                if expected_score(rule, p, t) < expected_score(rule, p, p) - 1e-9:
                    found += 1
        assert found > 0

    def test_affine_rescaling_preserves_argmax(self):
        rng = np.random.default_rng(41)
        base = power_rule(2.0)
        for _ in range(50):
            p = rand_pmf(rng, 3, floor=1e-3)
            candidates = [rand_pmf(rng, 3, floor=1e-3) for _ in range(20)]
            scores = [expected_score(base, p, q) for q in candidates]
            scaled_rule = ScoringRule(
                "scaled", "gain",
                lambda x, q: 3.7 * base.score(x, q) + 11.0,
                base.responder,
            )
            scaled = [expected_score(scaled_rule, p, q) for q in candidates]
            assert int(np.argmax(scores)) == int(np.argmax(scaled))

    def test_loss_to_gain_flip_preserves_optimum(self):
        rng = np.random.default_rng(43)
        loss = alpha_loss_rule(2.0)
        flipped = ScoringRule(
            "flipped", "gain",
            lambda x, q: -2.0 * loss.score(x, q) + 1.0,
            loss.responder,
        )
        for _ in range(50):
            p = rand_pmf(rng, 3, floor=1e-3)
            candidates = [rand_pmf(rng, 3, floor=1e-3) for _ in range(20)]
            losses = [expected_score(loss, p, q) for q in candidates]
            gains = [expected_score(flipped, p, q) for q in candidates]
            assert int(np.argmin(losses)) == int(np.argmax(gains))


class TestOptimumClosedForms:
    """Fine grid + refinement oracle against the catalog's optimum values."""

    def test_log_loss_minimum_is_shannon_entropy(self):
        rng = np.random.default_rng(47)
        rule = log_loss_rule()
        for _ in range(10):
            p = rand_pmf(rng, 2, floor=0.05)
            best = binary_min(lambda t: expected_score(rule, p, make_pmf([t, 1 - t])))
            shannon = -float(np.sum(p.probs * np.log(p.probs)))
            assert best == pytest.approx(shannon, abs=1e-8)

    def test_pseudo_spherical_maximum(self):
        rng = np.random.default_rng(53)
        for a in ALPHAS:
            rule = pseudo_spherical_rule(a)
            for _ in range(5):
                p = rand_pmf(rng, 2, floor=0.05)
                best = -binary_min(
                    lambda t: -expected_score(rule, p, make_pmf([t, 1 - t]))
                )
                norm = float(np.sum(p.probs ** a) ** (1 / a))
                assert best == pytest.approx(norm / (a - 1), abs=1e-8)

    def test_power_maximum(self):
        rng = np.random.default_rng(59)
        for a in ALPHAS:
            rule = power_rule(a)
            for _ in range(5):
                p = rand_pmf(rng, 2, floor=0.05)
                best = -binary_min(
                    lambda t: -expected_score(rule, p, make_pmf([t, 1 - t]))
                )
                assert best == pytest.approx(float(np.sum(p.probs ** a)) / (a - 1), abs=1e-8)

    def test_alpha_loss_minimum(self):
        rng = np.random.default_rng(61)
        for a in ALPHAS:
            rule = alpha_loss_rule(a)
            for _ in range(5):
                p = rand_pmf(rng, 2, floor=0.05)
                best = binary_min(lambda t: expected_score(rule, p, make_pmf([t, 1 - t])))
                norm = float(np.sum(p.probs ** a) ** (1 / a))
                assert best == pytest.approx((a / (a - 1)) * (1 - norm), abs=1e-8)


class TestCoreLoss:
    def cores(self):
        out = [shannon_pair()]
        for a in ALPHAS:
            out += [arimoto_pair(a), hayashi_pair(a)]
            if a > 1:
                out.append(fehr_berens_pair(a))
        return out

    def test_shannon_core_gives_log_loss(self):
        rng = np.random.default_rng(67)
        pair = shannon_pair()
        for _ in range(20):
            q = rand_pmf(rng, 3, floor=0.01)
            losses = loss_from_core(pair.F, pair.grad_f, q)
            np.testing.assert_allclose(losses, -np.log(q.probs), atol=1e-8)

    def test_arimoto_core_matches_scaled_pseudo_spherical(self):
        rng = np.random.default_rng(71)
        for a in ALPHAS:
            pair = arimoto_pair(a)
            sign = 1.0 if a < 1 else -1.0
            ps = pseudo_spherical_rule(a)
            for _ in range(20):
                q = rand_pmf(rng, 3, floor=0.01)
                losses = loss_from_core(pair.F, pair.grad_f, q)
                expected = [sign * (a - 1) * ps.score(x, q.probs) for x in range(3)]
                np.testing.assert_allclose(losses, expected, atol=1e-8)

    def test_hayashi_core_matches_scaled_power(self):
        rng = np.random.default_rng(73)
        for a in ALPHAS:
            pair = hayashi_pair(a)
            sign = 1.0 if a < 1 else -1.0
            pw = power_rule(a)
            for _ in range(20):
                q = rand_pmf(rng, 3, floor=0.01)
                losses = loss_from_core(pair.F, pair.grad_f, q)
                expected = [sign * (a - 1) * pw.score(x, q.probs) for x in range(3)]
                np.testing.assert_allclose(losses, expected, atol=1e-8)

    def test_fb_core_closed_form(self):
        # closed form derived from the defining construction:
        #   l(x, q) = s^(1/(a-1))/(a-1) - (a/(a-1)) s^((2-a)/(a-1)) q(x)^(a-1),
        # with s = sum q^a.  (The usual display of this loss elsewhere does
        # not satisfy E_p[l(X, p)] = F(p); this one does and is what the
        # construction actually yields.)
        rng = np.random.default_rng(79)
        for a in (1.5, 2.0, 5.0):
            pair = fehr_berens_pair(a)
            for _ in range(20):
                q = rand_pmf(rng, 3, floor=0.01)
                s = float(np.sum(q.probs ** a))
                expected = (
                    s ** (1 / (a - 1)) / (a - 1)
                    - (a / (a - 1)) * s ** ((2 - a) / (a - 1)) * q.probs ** (a - 1)
                )
                losses = loss_from_core(pair.F, pair.grad_f, q)
                np.testing.assert_allclose(losses, expected, atol=1e-8)

    def test_expected_core_loss_at_belief_values(self):
        # E_p[l_F(X, p)] = F(p), at values worked out by hand
        for pair, p, want in ((shannon_pair(), [0.5, 0.5], math.log(2)),
                              (hayashi_pair(2.0), [0.6, 0.4], -0.52),
                              (fehr_berens_pair(2.0), [0.9, 0.1], -0.82)):
            p = make_pmf(p)
            assert float(p.probs @ loss_from_core(pair.F, pair.grad_f, p)) == (
                pytest.approx(want, abs=1e-10)
            )

    def test_core_loss_is_proper(self):
        rng = np.random.default_rng(83)
        for pair in self.cores():
            for _ in range(5):
                p = rand_pmf(rng, 3, floor=0.01)
                at_p = float(p.probs @ loss_from_core(pair.F, pair.grad_f, p))
                assert at_p == pytest.approx(pair.F(p.probs), abs=1e-8)
                for _ in range(100):
                    q = rand_pmf(rng, 3, floor=1e-4)
                    at_q = float(p.probs @ loss_from_core(pair.F, pair.grad_f, q))
                    assert at_q >= at_p - 1e-8


class TestCatalog:
    def test_rule_constants(self):
        rules = {rule.name: rule for rule in all_rules(2.0)}
        assert set(rules) == {
            "log-score", "log-loss", "pseudo-spherical", "power",
            "alpha-loss", "alpha-score",
        }
        assert rules["pseudo-spherical"].c_of_g == pytest.approx(2.0)
        assert rules["alpha-score"].c_of_g == pytest.approx(2.0)
        assert rules["power"].c_of_g == pytest.approx(1.0)
        assert rules["log-score"].c_of_g is None
        assert rules["alpha-loss"].kind == "loss"

    def test_bad_alpha(self):
        for ctor in (pseudo_spherical_rule, power_rule, alpha_loss_rule, alpha_score_rule):
            with pytest.raises(BadAlpha):
                ctor(1.0)
            with pytest.raises(BadAlpha):
                ctor(-0.5)

    def test_identity_gain_shape(self):
        g = identity_gain(3)
        assert g.kind == "gain"
        np.testing.assert_allclose(g.values, np.eye(3), atol=0)
