"""Tests of the benchmark's reference formulas against closed forms.

Run with `python -m pytest bench` from the repository root.
"""

import math

import numpy as np
import pytest

import reference as ref

ORDERS = {"arimoto": (0.5, 2.0), "hayashi": (0.5, 2.0), "fehr-berens": (2.0, 3.0)}
CASES = [("shannon", None)] + [(m, a) for m, alphas in ORDERS.items() for a in alphas]


def bsc(e):
    return np.array([[1.0 - e, e], [e, 1.0 - e]])


def renyi(alpha, probs):
    return math.log(sum(q ** alpha for q in probs)) / (1.0 - alpha)


def test_bsc_shannon_capacity_closed_form():
    target = math.log(2.0) - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9))
    assert target == pytest.approx(0.3680642071, abs=1e-10)
    assert ref.mi_one("shannon", None, [0.5, 0.5], bsc(0.1)) == pytest.approx(target, abs=1e-12)
    assert ref.shannon_dual_bound([0.5, 0.5], bsc(0.1)) == pytest.approx(target, abs=1e-12)
    value, p = ref.maximize("shannon", None, bsc(0.1))
    assert value == pytest.approx(target, abs=1e-12)
    assert p == pytest.approx([0.5, 0.5], abs=1e-5)


@pytest.mark.parametrize("measure,alpha", CASES[1:])
def test_bsc_uniform_prior_gives_log2_minus_renyi(measure, alpha):
    # On BSC(e) at the uniform prior all three order-a measures equal
    # log 2 - H_a(e), the Renyi entropy of the crossover pmf.
    target = math.log(2.0) - renyi(alpha, (0.9, 0.1))
    assert ref.mi_one(measure, alpha, [0.5, 0.5], bsc(0.1)) == pytest.approx(target, abs=1e-12)


@pytest.mark.parametrize("alpha", ORDERS["arimoto"])
def test_bsc_arimoto_dual_bound_is_tight_at_uniform(alpha):
    target = math.log(2.0) - renyi(alpha, (0.9, 0.1))
    assert ref.arimoto_dual_bound(alpha, [0.5, 0.5], bsc(0.1)) == pytest.approx(target, abs=1e-12)


def test_shannon_matches_entropy_difference():
    rng = np.random.default_rng(7)
    w = rng.random((3, 5))
    w /= w.sum(axis=1, keepdims=True)
    p = rng.dirichlet(np.ones(3))
    joint = p[:, None] * w
    r = joint.sum(axis=0)
    h_x = -np.sum(p * np.log(p))
    h_x_y = -np.sum(joint * np.log(joint / r[None, :]))
    assert ref.mi_one("shannon", None, p, w) == pytest.approx(h_x - h_x_y, abs=1e-12)


@pytest.mark.parametrize("measure,alpha", CASES)
def test_noiseless_and_useless_channels(measure, alpha):
    p = np.array([0.2, 0.3, 0.5])
    h = -np.sum(p * np.log(p)) if measure == "shannon" else renyi(alpha, p)
    assert ref.mi_one(measure, alpha, p, np.eye(3)) == pytest.approx(h, abs=1e-12)
    assert ref.mi_one(measure, alpha, p, np.full((3, 4), 0.25)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("measure,alpha", [c for c in CASES if c[0] in ("shannon", "arimoto")])
def test_dual_bound_dominates_mi_at_random_priors(measure, alpha):
    rng = np.random.default_rng(11)
    for shape in [(2, 2), (3, 3), (4, 7), (6, 2)]:
        w = rng.random(shape) ** 3
        w /= w.sum(axis=1, keepdims=True)
        priors = rng.dirichlet(np.ones(shape[0]), size=40)
        values = ref.mi(measure, alpha, priors, w)
        cap, _ = ref.maximize(measure, alpha, w) if shape[0] <= 4 else (values.max(), None)
        for p in priors:
            bound = ref.dual_bound(measure, alpha, p, w)
            assert bound >= cap - 1e-12
        assert np.all(values <= cap + 1e-12)


def test_compositions_count_and_sums():
    for m, n in [(2, 7), (3, 10), (4, 6)]:
        grid = ref.compositions(m, n)
        assert grid.shape == (math.comb(n + m - 1, m - 1), m)
        assert np.all(grid.sum(axis=1) == n)
        assert len({tuple(r) for r in grid}) == grid.shape[0]


def test_sampled_and_rounded_points_lie_on_the_grid():
    rng = np.random.default_rng(3)
    pts = ref.sample_grid(4, 50, 500, rng)
    assert np.allclose(pts.sum(axis=1), 1.0)
    assert np.allclose(pts * 50, np.round(pts * 50))
    assert np.all(pts >= 0.0)
    q = ref.round_to_grid([0.3333, 0.3333, 0.3334], 10)
    assert q.sum() == pytest.approx(1.0)
    assert np.allclose(q * 10, np.round(q * 10))


def test_bayes_vulnerability():
    p = np.array([0.5, 0.3, 0.2])
    assert ref.bayes_vulnerability(p) == 0.5
    assert ref.posterior_bayes_vulnerability(p, np.eye(3)) == pytest.approx(1.0)
    assert ref.posterior_bayes_vulnerability(p, np.full((3, 2), 0.5)) == pytest.approx(0.5)


@pytest.mark.parametrize("measure,alpha", CASES)
def test_maximize_beats_the_fine_grid(measure, alpha):
    rng = np.random.default_rng(5)
    w = rng.random((3, 3))
    w /= w.sum(axis=1, keepdims=True)
    grid_value, _ = ref.grid_max(measure, alpha, w)
    value, p = ref.maximize(measure, alpha, w)
    assert value >= grid_value - 1e-12
    assert p.sum() == pytest.approx(1.0)
