"""Distribution, channel, posterior, and tilt primitives."""

import math

import numpy as np
import pytest

from genmi import (
    AllZero,
    BadAlpha,
    Channel,
    DimensionMismatch,
    DomainError,
    GenmiError,
    Pmf,
    NegativeMass,
    NonFinite,
    alpha_tilt,
    make_channel,
    make_pmf,
    posterior,
    uniform,
)

from conftest import rand_channel, rand_pmf


class TestMakePmf:
    def test_symmetric_input(self):
        np.testing.assert_allclose(make_pmf([1, 1]).probs, [0.5, 0.5], atol=0)

    def test_already_normalized(self):
        np.testing.assert_allclose(make_pmf([0.2, 0.3, 0.5]).probs, [0.2, 0.3, 0.5], atol=0)

    def test_scale_invariance(self):
        np.testing.assert_allclose(make_pmf([2, 6]).probs, [0.25, 0.75], atol=0)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = make_pmf(rng.random(rng.integers(1, 6)))
            again = make_pmf(p.probs)
            assert np.array_equal(again.probs, p.probs)

    def test_clamps_tiny_negatives(self):
        p = make_pmf([0.5, 0.5, -1e-13])
        assert p[2] == 0.0
        assert abs(float(p.probs.sum()) - 1.0) < 1e-9

    def test_rejects_real_negatives(self):
        with pytest.raises(NegativeMass):
            make_pmf([0.5, -0.1])

    def test_rejects_zero_mass(self):
        with pytest.raises(AllZero):
            make_pmf([0.0, 1e-16])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            make_pmf([0.5, float("nan")])
        with pytest.raises(NonFinite):
            make_pmf([0.5, float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            make_pmf([])

    def test_immutability(self):
        p = make_pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 1.0


def _error_of(fn, *args):
    with np.errstate(over="ignore"):
        try:
            fn(*args)
        except GenmiError as exc:
            return type(exc), str(exc)
    return None


class TestChannelRows:
    """Channel and make_channel check all rows at once, as Pmf and make_pmf do one row."""

    def test_matches_row_by_row_sanitation(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            m, n = int(rng.integers(1, 6)), int(rng.integers(2, 40))
            rows = rng.random((m, n)) * rng.choice([1e-6, 1.0, 7.0])
            if rng.random() < 0.5:
                rows = rows / rows.sum(axis=1, keepdims=True)
            rows[rng.integers(m), rng.integers(n)] = rng.choice([0.0, -1e-13])
            want = np.vstack([make_pmf(r).probs for r in rows])
            got = make_channel(rows).rows
            assert got.tobytes() == want.tobytes()
            assert Channel(want).rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [
        [0.5, float("nan"), 0.5],
        [0.5, -0.1, 0.6],
        [0.0, 1e-16, 0.0],
        [1e308, 1e308, 0.0],
    ])
    def test_make_channel_bad_middle_row(self, bad):
        want = _error_of(make_pmf, bad)
        assert want is not None
        assert _error_of(make_channel, [[0.2, 0.3, 0.5], bad, [0.1, 0.1, 0.8]]) == want

    @pytest.mark.parametrize("bad", [
        [0.5, float("nan"), 0.5],
        [0.5, float("inf"), 0.5],
        [1.5, -0.5, 0.0],
        [0.3, 0.3, 0.3],
    ])
    def test_channel_bad_middle_row(self, bad):
        want = _error_of(Pmf, np.array(bad))
        assert want is not None
        assert _error_of(Channel, np.array([[0.2, 0.3, 0.5], bad, [0.1, 0.1, 0.8]])) == want

    def test_first_bad_row_wins(self):
        assert _error_of(make_channel, [[0.5, 0.5], [0.0, 0.0], [float("nan"), 1.0]]) == (
            AllZero, "pmf input sums to (numerically) zero")
        assert _error_of(Channel, np.array([[0.5, 0.5], [0.3, 0.3], [float("nan"), 1.0]])) == (
            DomainError, "pmf entries must sum to 1 within 1e-9")


class TestPosterior:
    def test_identity_channel(self, uniform2):
        post = posterior(uniform2, make_channel(np.eye(2)))
        np.testing.assert_allclose(post.cols[:, 0], [1, 0], atol=0)
        np.testing.assert_allclose(post.cols[:, 1], [0, 1], atol=0)

    def test_independent_channel_returns_prior(self):
        p = make_pmf([0.3, 0.7])
        w = make_channel([[0.2, 0.8], [0.2, 0.8]])
        post = posterior(p, w)
        for col in post.cols.T:
            np.testing.assert_allclose(col, p.probs, atol=1e-12)

    def test_bsc_by_hand(self, bsc10, uniform2):
        # Bayes rule oracle: col(y=0) = (0.45, 0.05)/0.5
        post = posterior(uniform2, bsc10)
        np.testing.assert_allclose(post.p_y, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(post.cols[:, 0], [0.9, 0.1], atol=1e-12)
        np.testing.assert_allclose(post.cols[:, 1], [0.1, 0.9], atol=1e-12)

    def test_point_mass_prior_selects_row(self, bsc10):
        post = posterior(make_pmf([1, 0]), bsc10)
        np.testing.assert_allclose(post.p_y, [0.9, 0.1], atol=0)
        for col in post.cols.T:
            np.testing.assert_allclose(col, [1.0, 0.0], atol=0)

    def test_dimension_mismatch(self, bsc10):
        with pytest.raises(DimensionMismatch):
            posterior(make_pmf([1, 1, 1]), bsc10)

    def test_unsupported_output_excluded(self):
        p = make_pmf([1.0, 0.0])
        w = make_channel([[1.0, 0.0], [0.0, 1.0]])
        post = posterior(p, w)
        np.testing.assert_array_equal(post.p_y, [1.0, 0.0])
        assert post.support.tolist() == [0]
        assert post.cols.shape == (2, 1)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m, n = rng.integers(1, 5), rng.integers(1, 5)
            p = rand_pmf(rng, m)
            w = rand_channel(rng, m, n)
            post = posterior(p, w)
            for j, y in enumerate(post.support):
                lhs = post.p_y[y] * post.cols[:, j]
                rhs = p.probs * w.rows[:, y]
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestAlphaTilt:
    def test_uniform_fixed_point(self):
        for a in (0.5, 2.0, 7.0):
            np.testing.assert_allclose(alpha_tilt(uniform(4), a).probs, 0.25, atol=1e-15)

    def test_order_one_identity(self):
        p = make_pmf([0.1, 0.2, 0.7])
        np.testing.assert_allclose(alpha_tilt(p, 1.0).probs, p.probs, atol=0)

    def test_square_tilt(self):
        # direct evaluation: (0.64, 0.04) / 0.68
        t = alpha_tilt(make_pmf([0.8, 0.2]), 2.0)
        np.testing.assert_allclose(t.probs, [0.64 / 0.68, 0.04 / 0.68], atol=1e-12)
        np.testing.assert_allclose(t.probs, [0.941176, 0.058824], atol=1e-6)

    def test_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rand_pmf(rng, int(rng.integers(2, 6)))
            for a in (0.5, 2.0, 3.0):
                for b in (0.5, 2.0, 3.0):
                    lhs = alpha_tilt(alpha_tilt(p, a), b).probs
                    rhs = alpha_tilt(p, a * b).probs
                    np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_bad_order(self):
        p = make_pmf([0.5, 0.5])
        for a in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(BadAlpha):
                alpha_tilt(p, a)
