"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE nn PASS` line when it completes; a
failed assertion in any criterion fails the suite.  Random instances are
drawn from fixed seeds so reruns are identical.
"""

import math
import pathlib

import numpy as np

from genmi import (
    SolverConfig,
    alpha_score_rule,
    arimoto_a1_spec,
    arimoto_a2_spec,
    arimoto_mi,
    arimoto_pair,
    brute_force_capacity,
    eval_functional,
    evsi_scoring,
    fb_spec,
    fehr_berens_pair,
    hayashi_mi,
    hayashi_pair,
    hayashi_spec,
    log_loss_rule,
    loss_from_core,
    mevsi_scoring,
    mutual_information,
    power_rule,
    pseudo_spherical_rule,
    q_step,
    shannon_mi,
    shannon_pair,
    shannon_spec,
    solve,
)
from genmi.variational import QFamily

from cli_cases import CASES, TRACE_CASE, run_cli
from conftest import binary_entropy, rand_channel, rand_pmf

HERE = pathlib.Path(__file__).resolve().parent


def _passed(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def _bsc(eps):
    from genmi import make_channel

    return make_channel([[1 - eps, eps], [eps, 1 - eps]])


def _seeded_channels(seed, count, sizes=(2, 3)):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.choice(sizes))
        n = int(rng.choice(sizes))
        out.append(rand_channel(rng, m, n))
    return out


def _oracle_resolution(m):
    return 1e-3 if m == 2 else 2e-3


def test_criterion_01_bsc_shannon_exactness():
    for eps in (0.05, 0.1, 0.25):
        expected = math.log(2) - binary_entropy(eps)
        result = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-12), _bsc(eps))
        assert abs(result.capacity - expected) <= 1e-8
        assert np.max(np.abs(result.argmax_p.probs - 0.5)) <= 1e-6
        assert result.iterations <= 200
        assert result.converged
    _passed(1, "BSC capacities match log 2 - h_b(eps) to 1e-8 within 200 iterations")


def test_criterion_02_03_oracle_and_algorithm_equivalence():
    channels = _seeded_channels(20260808, 50)
    alphas = (0.5, 2.0, 5.0)
    worst_oracle = 0.0
    worst_pair = 0.0
    for w in channels:
        res = _oracle_resolution(w.nx)
        got = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-12), w).capacity
        oracle = brute_force_capacity(shannon_spec(), w, res)
        worst_oracle = max(worst_oracle, abs(got - oracle))
        assert abs(got - oracle) <= 1e-4
        for a in alphas:
            c2 = solve(SolverConfig(spec=arimoto_a2_spec(a), epsilon=1e-12), w).capacity
            c1 = solve(SolverConfig(spec=arimoto_a1_spec(a), epsilon=1e-12), w).capacity
            oracle = brute_force_capacity(arimoto_a2_spec(a), w, res)
            worst_oracle = max(worst_oracle, abs(c2 - oracle))
            worst_pair = max(worst_pair, abs(c1 - c2))
            assert abs(c2 - oracle) <= 1e-4
            assert abs(c1 - c2) <= 1e-6
    _passed(2, f"solver matches grid oracle on 50 channels (worst gap {worst_oracle:.2e})")
    _passed(3, f"both Arimoto update rules agree (worst gap {worst_pair:.2e})")


def _acceptance_specs(alpha):
    specs = [shannon_spec(), arimoto_a1_spec(alpha), arimoto_a2_spec(alpha),
             hayashi_spec(alpha)]
    if alpha > 1:
        specs.append(fb_spec(alpha))
    return specs


def test_criterion_04_variational_identity():
    rng = np.random.default_rng(40408)
    alphas = (0.5, 2.0, 5.0)
    for trial in range(200):
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        p = rand_pmf(rng, m)
        w = rand_channel(rng, m, n)
        a = alphas[trial % len(alphas)]
        for spec in _acceptance_specs(a):
            best = eval_functional(spec, p, w, q_step(spec, p, w))
            target = mutual_information(spec.pair, p, w).mi
            assert abs(best - target) <= 1e-8
            if trial % 8 == 0:  # 25 instances x 20 families = 500 per spec
                for _ in range(20):
                    q = QFamily(np.column_stack([rand_pmf(rng, m).probs for _ in range(n)]))
                    assert eval_functional(spec, p, w, q) <= best + 1e-9
    _passed(4, "functional maximum equals mutual information; no family beats the step")


def test_criterion_05_nonnegativity_and_dpi():
    rng = np.random.default_rng(50505)
    alphas = (0.5, 2.0, 5.0)
    for trial in range(500):
        m = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        p = rand_pmf(rng, m)
        w1 = rand_channel(rng, m, k)
        w12 = w1.compose(rand_channel(rng, k, n))
        a = alphas[trial % len(alphas)]
        pairs = [shannon_pair(), arimoto_pair(a), hayashi_pair(a),
                 fehr_berens_pair(a if a > 1 else 2.0)]
        for pair in pairs:
            direct = mutual_information(pair, p, w1).mi
            processed = mutual_information(pair, p, w12).mi
            assert direct >= -1e-9
            assert processed >= -1e-9
            assert processed <= direct + 1e-9
    _passed(5, "non-negativity and data processing hold for all four measures")


def test_criterion_06_arimoto_below_hayashi():
    rng = np.random.default_rng(60606)
    for _ in range(500):
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        p = rand_pmf(rng, m)
        w = rand_channel(rng, m, n)
        for a in (0.3, 0.5, 2.0, 5.0):
            assert arimoto_mi(a, p, w) <= hayashi_mi(a, p, w) + 1e-9
    _passed(6, "order-a Arimoto value never exceeds the Hayashi value")


def test_criterion_07_leakage_equivalences():
    rng = np.random.default_rng(70707)
    alphas = (0.5, 2.0, 4.0)
    log_rule = log_loss_rule()
    for trial in range(200):
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        p = rand_pmf(rng, m)
        w = rand_channel(rng, m, n)
        assert abs(evsi_scoring(log_rule, p, w).additive - shannon_mi(p, w)) <= 1e-9
        a = alphas[trial % len(alphas)]
        target_a = arimoto_mi(a, p, w)
        assert abs(mevsi_scoring(alpha_score_rule(a), p, w) - target_a) <= 1e-8
        assert abs(mevsi_scoring(pseudo_spherical_rule(a), p, w) - target_a) <= 1e-8
        assert abs(mevsi_scoring(power_rule(a), p, w) - hayashi_mi(a, p, w)) <= 1e-8
    _passed(7, "EVSI(log) = Shannon MI; multiplicative leakages recover Arimoto/Hayashi")


def test_criterion_08_core_loss_construction():
    rng = np.random.default_rng(80808)
    cores = [shannon_pair()]
    for a in (0.5, 2.0, 5.0):
        cores += [arimoto_pair(a), hayashi_pair(a)]
        if a > 1:
            cores.append(fehr_berens_pair(a))
    fd_step = 1e-7
    for pair in cores:
        for _ in range(20):
            p = rand_pmf(rng, 3, floor=0.01)
            losses = loss_from_core(pair.F, pair.grad_f, p)
            at_p = float(p.probs @ losses)
            assert abs(at_p - pair.F(p.probs)) <= 1e-8
            for _ in range(100):
                q = rand_pmf(rng, 3)
                at_q = float(p.probs @ loss_from_core(pair.F, pair.grad_f, q))
                assert at_q >= at_p - 1e-8
            # 1e-5 relative to the gradient scale: per-component relative
            # comparison is meaningless where a component crosses zero,
            # since float64 finite differences carry ~1e-9 absolute noise
            grad = pair.grad_f(p.probs)
            scale = float(np.max(np.abs(grad)))
            for i in range(3):
                d = np.zeros(3)
                d[i] = fd_step
                fd = (pair.F(p.probs + d) - pair.F(p.probs - d)) / (2 * fd_step)
                assert abs(fd - grad[i]) <= 1e-5 * scale
    _passed(8, "core losses recover their cores, are minimal at the truth, "
               "and analytic gradients match finite differences")


def test_criterion_09_monotone_traces():
    rng = np.random.default_rng(90909)
    for _ in range(10):
        w = rand_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        w2 = rand_channel(rng, 2, 2, floor=0.01)
        for spec in (shannon_spec(), arimoto_a1_spec(0.5), arimoto_a2_spec(2.0)):
            trace = solve(SolverConfig(spec=spec, epsilon=1e-11), w).trace
            assert np.all(np.diff(trace) >= -1e-10)
        for spec in (hayashi_spec(2.0), fb_spec(2.0)):
            trace = solve(SolverConfig(spec=spec, epsilon=1e-10, max_iter=3000), w2).trace
            assert np.all(np.diff(trace) >= -1e-8)
    _passed(9, "every solver trace is non-decreasing within its slack")


def test_criterion_10_numeric_capacity_vs_oracle():
    channels = _seeded_channels(101010, 20, sizes=(2,))
    configs = [hayashi_spec(0.5), hayashi_spec(2.0), fb_spec(2.0)]
    worst = 0.0
    for w in channels:
        for spec in configs:
            result = solve(SolverConfig(spec=spec, epsilon=1e-10, max_iter=5000), w)
            oracle = brute_force_capacity(spec, w, 1e-3)
            worst = max(worst, abs(result.capacity - oracle))
            assert abs(result.capacity - oracle) <= 1e-3
    _passed(10, f"exact-step Hayashi/Fehr-Berens capacities within 1e-3 of the refined oracle "
                f"(worst gap {worst:.2e})")


def test_criterion_11_order_one_capacity_continuity():
    channels = _seeded_channels(111111, 20)
    worst = 0.0
    for w in channels:
        base = solve(SolverConfig(spec=shannon_spec(), epsilon=1e-12), w).capacity
        for a in (1 + 1e-4, 1 - 1e-4):
            near = solve(SolverConfig(spec=arimoto_a2_spec(a), epsilon=1e-12), w).capacity
            worst = max(worst, abs(near - base))
            assert abs(near - base) <= 1e-3
    _passed(11, f"capacity at orders 1 +- 1e-4 stays within 1e-3 of Shannon "
                f"(worst gap {worst:.2e})")


def test_criterion_12_cli_reproducibility(tmp_path):
    for name, argv, expected in CASES:
        proc = run_cli(argv)
        assert proc.returncode == expected, f"{name}: {proc.stderr.decode()}"
        assert proc.stdout == (HERE / "golden" / f"{name}.out").read_bytes(), name

    name, argv, expected = TRACE_CASE
    trace = tmp_path / "trace.tsv"
    proc = run_cli([*argv, "--trace", str(trace)])
    assert proc.returncode == expected
    assert proc.stdout == (HERE / "golden" / f"{name}.out").read_bytes()
    assert trace.read_bytes() == (HERE / "golden" / f"{name}.tsv").read_bytes()
    _passed(12, "fixed fixtures reproduce golden bytes across every subcommand "
                "and exit code")
