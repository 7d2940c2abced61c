"""Two-argument functionals: identities, maximizer steps, numeric ascent."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from genmi import (
    DomainError,
    EntropyPair,
    FunctionalSpec,
    NonFinite,
    Pmf,
    QFamily,
    UnsupportedSpec,
    alpha_tilt,
    arimoto_a1_spec,
    arimoto_a2_spec,
    arimoto_mi,
    arimoto_pair,
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
    uniform,
    variational,
)
from genmi.scoring import loss_from_core
from genmi.variational import (
    _QUIET,
    _coeff_kernel,
    _eval,
    _exact_step,
    _input_coeffs,
    _loss_cells,
    _p_numeric,
    _prior_objective,
    _table_coeffs,
)

from conftest import rand_channel, rand_pmf

ALPHAS = (0.5, 2.0, 5.0)


def all_specs(alpha):
    specs = [shannon_spec(), arimoto_a1_spec(alpha), arimoto_a2_spec(alpha),
             hayashi_spec(alpha)]
    if alpha > 1:
        specs.append(fb_spec(alpha))
    return specs


def random_family(rng, m, n, floor=1e-3):
    return QFamily(np.column_stack([rand_pmf(rng, m, floor=floor).probs for _ in range(n)]))


def _ascent(spec, w, fam, rounds):
    """p_step_numeric from the uniform prior, run for `rounds` rounds."""
    c = _input_coeffs(spec, w.rows, fam.cols)
    return Pmf(_p_numeric(spec, c, uniform(w.nx).probs, rounds))


class TestEvalFunctional:
    def test_shannon_at_posterior_is_mi(self, bsc10, uniform2):
        spec = shannon_spec()
        val = eval_functional(spec, uniform2, bsc10, q_step(spec, uniform2, bsc10))
        assert val == pytest.approx(0.368064, abs=1e-6)

    def test_any_spec_independent_channel_zero(self):
        p = make_pmf([0.4, 0.6])
        w = make_channel([[0.3, 0.7], [0.3, 0.7]])
        for a in ALPHAS:
            for spec in all_specs(a):
                val = eval_functional(spec, p, w, q_step(spec, p, w))
                assert val == pytest.approx(0.0, abs=1e-10)

    def test_a1_at_its_maximizer_equals_arimoto_mi(self, bsc10, uniform2):
        spec = arimoto_a1_spec(2.0)
        val = eval_functional(spec, uniform2, bsc10, q_step(spec, uniform2, bsc10))
        assert val == pytest.approx(arimoto_mi(2.0, uniform2, bsc10), abs=1e-12)
        assert val == pytest.approx(0.4947, abs=1e-4)

    def test_shannon_matches_joint_expectation(self):
        # independent computation of E[log q(X|Y)/p(X)] from the joint cells
        rng = np.random.default_rng(7)
        spec = shannon_spec()
        for _ in range(50):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            p = rand_pmf(rng, m, floor=1e-3)
            w = rand_channel(rng, m, n, floor=1e-3)
            q = random_family(rng, m, n)
            cells = p.probs[:, None] * w.rows
            expected = sum(
                cells[x, y] * math.log(q.cols[x, y] / p[x])
                for x in range(m) for y in range(n) if cells[x, y] > 0
            )
            got = eval_functional(spec, p, w, q)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_zero_response_on_positive_mass_is_minus_inf(self, bsc10, uniform2):
        q = QFamily(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert eval_functional(shannon_spec(), uniform2, bsc10, q) == -math.inf

    def test_generic_matches_closed_forms(self):
        rng = np.random.default_rng(11)
        for a in ALPHAS:
            closed = [s for s in all_specs(a) if s.kind != "arimoto_a1"]
            for spec in closed:
                gen = generic_spec(spec.pair)
                for _ in range(10):
                    m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
                    p = rand_pmf(rng, m, floor=1e-3)
                    w = rand_channel(rng, m, n, floor=1e-3)
                    q = random_family(rng, m, n, floor=0.01)
                    lhs = eval_functional(gen, p, w, q)
                    rhs = eval_functional(spec, p, w, q)
                    assert lhs == pytest.approx(rhs, abs=1e-7)
                    # the closed cells are the pair's proper loss, in its sign (atol for
                    # cells where the loss crosses 0 and O(1) terms cancel)
                    with np.errstate(**_QUIET):
                        cells = _loss_cells(spec, q.cols, np.ones(n, dtype=bool))
                    for y in range(n):
                        proper = loss_from_core(spec.pair.F, spec.pair.grad_f, q.cols[:, y])
                        np.testing.assert_allclose(cells[:, y], proper, rtol=1e-10, atol=1e-14,
                                                   err_msg=f"{spec.kind} order {a}")


class TestFunctionalSpec:
    def test_order_is_the_pairs(self):
        assert hayashi_spec(3.0).alpha == 3.0
        assert shannon_spec().alpha is None
        assert generic_spec(fehr_berens_pair(2.5)).alpha == 2.5
        # there is no second order to disagree with the pair's
        with pytest.raises(TypeError):
            FunctionalSpec(kind="hayashi", pair=hayashi_pair(2.0), alpha=3.0)

    @pytest.mark.parametrize("kind,pair", [
        ("hayashi", arimoto_pair(2.0)), ("fb", hayashi_pair(2.0)),
        ("arimoto_a1", hayashi_pair(0.5)), ("arimoto_a2", fehr_berens_pair(3.0)),
        ("shannon", arimoto_pair(2.0)), ("arimoto_a2", shannon_pair()),
        ("bogus", shannon_pair()),
    ], ids=lambda v: v if isinstance(v, str) else v.name)
    def test_built_in_kind_rejects_another_measures_pair(self, kind, pair):
        with pytest.raises(UnsupportedSpec):
            FunctionalSpec(kind=kind, pair=pair)

    BUILT_IN_KINDS = ("shannon", "arimoto_a1", "arimoto_a2", "hayashi", "fb")

    @pytest.mark.parametrize("pair", [
        shannon_pair(), arimoto_pair(0.5), arimoto_pair(2.0), hayashi_pair(0.5),
        hayashi_pair(2.0), fehr_berens_pair(3.0),
    ], ids=lambda p: p.name)
    def test_a_copy_of_a_built_in_pair_is_no_built_in_measure(self, pair):
        # the measure is the pair's row, which only the built-in constructors
        # set: a copy keeps the name and the maps, not the identity
        for copy in (dataclasses.replace(pair),
                     dataclasses.replace(pair, name="hayashi(2)")):
            assert copy.row is None and copy.F is pair.F
            for kind in self.BUILT_IN_KINDS:
                with pytest.raises(UnsupportedSpec):
                    FunctionalSpec(kind=kind, pair=copy)
            assert generic_spec(copy).pair is copy

    def test_a_custom_pair_named_shannon_is_no_shannon(self):
        ref = shannon_pair()
        custom = EntropyPair(name="shannon", F=ref.F, grad_f=ref.grad_f, eta=ref.eta,
                             eta_slope=ref.eta_slope, eta_domain=ref.eta_domain)
        for kind in self.BUILT_IN_KINDS:
            with pytest.raises(UnsupportedSpec):
                FunctionalSpec(kind=kind, pair=custom)
        assert generic_spec(custom).pair is custom


class TestSubnormalPrior:
    """p(x) w(y|x) may underflow to 0 with p(x) > 0; q_step then gives that
    cell q = 0 too, and the cell has no joint mass, so it must not count."""

    SPECS = (shannon_spec(), arimoto_a1_spec(0.5), arimoto_a2_spec(0.5), hayashi_spec(0.5),
             arimoto_a1_spec(2.0), arimoto_a2_spec(2.0), hayashi_spec(2.0), fb_spec(2.0),
             generic_spec(hayashi_pair(0.5)), generic_spec(hayashi_pair(0.3)),
             generic_spec(arimoto_pair(0.5)))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.pair.name if s.kind == "generic"
                             else f"{s.kind}-{s.alpha}")
    def test_value_at_q_step_is_finite_mi(self, spec):
        p = Pmf(np.array([5e-324, 0.4, 0.6]))
        # every w(y|0) is below 1/2, so 5e-324 * w(y|0) rounds to 0
        w = make_channel([[0.2, 0.35, 0.45], [0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        assert not np.any(p.probs[0] * w.rows[0])
        value = eval_functional(spec, p, w, q_step(spec, p, w))
        assert math.isfinite(value)
        assert value == pytest.approx(mutual_information(spec.pair, p, w).mi, abs=1e-12)


KERNEL_SPECS = [shannon_spec()] + [
    make(a) for a in (0.3, 0.5, 1.5, 2.0, 3.0, 5.0)
    for make in (arimoto_a1_spec, arimoto_a2_spec, hayashi_spec)
] + [fb_spec(a) for a in (1.5, 2.0, 3.0, 5.0)]


def _zero_column_channel():
    rows = np.random.default_rng(61).random((3, 4))
    rows[:, 1] = 0.0  # no input reaches output 1
    rows[0, 2] = rows[2, 3] = 0.0
    return make_channel(rows)


def _kernel_cases():
    """(channel, prior) pairs on which every output the channel reaches
    gets mass: zero cells, an all-zero column, priors with exact zeros and
    a subnormal prior whose joint underflows."""
    rng = np.random.default_rng(89)
    cases = []
    for m, n in ((2, 3), (3, 3), (4, 5), (6, 4)):
        rows = rng.random((m, n))
        rows[rng.random((m, n)) < 0.25] = 0.0
        rows[:, 0] += 0.1  # every input keeps an output every input reaches
        w = make_channel(rows)
        cases.append((w, rng.dirichlet(np.ones(m))))
        p = rng.dirichlet(np.ones(m))
        p[-1] = 0.0
        cases.append((w, p / p.sum()))
    w = _zero_column_channel()
    cases += [(w, np.full(3, 1.0 / 3.0)), (w, np.array([0.0, 0.5, 0.5])),
              (w, np.array([0.6, 0.4, 0.0]))]
    w = make_channel([[0.2, 0.35, 0.45], [0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    cases.append((w, np.array([5e-324, 0.4, 0.6])))
    return cases


class TestCoeffKernel:
    """The matrix-vector kernel gives the loss-cell table's prior step and E."""

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: f"{s.kind}-{s.alpha}")
    def test_matches_table(self, spec, monkeypatch):
        for w, p in _kernel_cases():
            with np.errstate(**_QUIET):
                c_table, e_table = _table_coeffs(spec, w.rows)(p)
                want = _exact_step(spec)(c_table)
                kernel = _coeff_kernel(spec, w.rows)
                with monkeypatch.context() as m:  # the kernel must not read the table here
                    m.setattr(variational, "_loss_cells", None)
                    c, e = kernel(p)
                got = _exact_step(spec)(c)
            assert np.max(np.abs(got - want)) <= 1e-15, (w.rows, p)
            assert abs(e - e_table) <= 1e-13 * abs(e_table), (w.rows, p)

    @pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: f"{s.kind}-{s.alpha}")
    def test_output_without_mass_reads_the_table(self, spec):
        # only input 2 has mass, and it does not reach output 3
        w, p = _zero_column_channel(), np.array([0.0, 0.0, 1.0])
        with np.errstate(**_QUIET):
            c, e = _coeff_kernel(spec, w.rows)(p)
            c_table, e_table = _table_coeffs(spec, w.rows)(p)
        assert c.tobytes() == c_table.tobytes() and e == e_table


class TestVariationalIdentity:
    def test_value_at_q_step_equals_mi(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            p = rand_pmf(rng, m)
            w = rand_channel(rng, m, n)
            for a in ALPHAS:
                for spec in all_specs(a):
                    val = eval_functional(spec, p, w, q_step(spec, p, w))
                    mi = mutual_information(spec.pair, p, w).mi
                    assert val == pytest.approx(mi, abs=1e-8)

    def test_q_step_dominates_random_families(self):
        rng = np.random.default_rng(17)
        for a in ALPHAS:
            for spec in all_specs(a):
                for _ in range(20):
                    m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
                    p = rand_pmf(rng, m)
                    w = rand_channel(rng, m, n)
                    best = eval_functional(spec, p, w, q_step(spec, p, w))
                    for _ in range(25):
                        other = eval_functional(spec, p, w, random_family(rng, m, n, floor=0.0))
                        assert other <= best + 1e-9

    def test_a1_a2_same_maximum(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            p = rand_pmf(rng, m)
            w = rand_channel(rng, m, n)
            for a in ALPHAS:
                v1 = eval_functional(arimoto_a1_spec(a), p, w,
                                     q_step(arimoto_a1_spec(a), p, w))
                v2 = eval_functional(arimoto_a2_spec(a), p, w,
                                     q_step(arimoto_a2_spec(a), p, w))
                target = arimoto_mi(a, p, w)
                assert v1 == pytest.approx(target, abs=1e-8)
                assert v2 == pytest.approx(target, abs=1e-8)


class TestQFamilyValidation:
    def test_columns_must_be_distributions(self):
        from genmi import NonFinite

        with pytest.raises(DomainError):
            QFamily(np.array([[0.5, 0.5], [0.4, 0.5]]))
        with pytest.raises(NonFinite):
            QFamily(np.array([[np.nan, 0.5], [0.5, 0.5]]))
        with pytest.raises(NonFinite):
            QFamily(np.array([[-0.1, 0.5], [1.1, 0.5]]))


class TestQStep:
    def test_shannon_identity_channel_point_masses(self):
        spec = shannon_spec()
        fam = q_step(spec, uniform(2), make_channel(np.eye(2)))
        np.testing.assert_allclose(fam.cols, np.eye(2), atol=1e-12)

    def test_shannon_bsc_columns_are_posteriors(self, bsc10, uniform2):
        fam = q_step(shannon_spec(), uniform2, bsc10)
        np.testing.assert_allclose(fam.cols[:, 0], [0.9, 0.1], atol=1e-12)

    def test_a1_near_one_approaches_posterior(self, bsc10, uniform2):
        fam = q_step(arimoto_a1_spec(1.0 + 1e-6), uniform2, bsc10)
        post = q_step(shannon_spec(), uniform2, bsc10)
        np.testing.assert_allclose(fam.cols, post.cols, atol=1e-4)

    def test_a1_tilted_posterior_bsc(self, bsc10, uniform2):
        # direct evaluation: column y0 proportional to (0.45^2, 0.05^2)
        fam = q_step(arimoto_a1_spec(2.0), uniform2, bsc10)
        np.testing.assert_allclose(
            fam.cols[:, 0], [0.2025 / 0.205, 0.0025 / 0.205], atol=1e-12
        )
        np.testing.assert_allclose(fam.cols[:, 0], [0.987805, 0.012195], atol=1e-6)

    def test_a1_is_columnwise_tilt_of_posterior(self, bsc10):
        p = make_pmf([0.3, 0.7])
        fam = q_step(arimoto_a1_spec(3.0), p, bsc10)
        post = q_step(shannon_spec(), p, bsc10)
        for y in range(2):
            tilted = alpha_tilt(make_pmf(post.cols[:, y]), 3.0)
            np.testing.assert_allclose(fam.cols[:, y], tilted.probs, atol=1e-12)

    def test_unsupported_outputs_filled_with_prior(self):
        p = make_pmf([1.0, 0.0])
        w = make_channel([[1.0, 0.0], [0.0, 1.0]])
        fam = q_step(shannon_spec(), p, w)
        np.testing.assert_allclose(fam.cols[:, 1], p.probs, atol=0)


class TestPStepClosed:
    def test_shannon_identity_fixed_point(self):
        spec = shannon_spec()
        w = make_channel(np.eye(3))
        fam = q_step(spec, uniform(3), w)
        p = p_step_closed(spec, w, fam)
        np.testing.assert_allclose(p.probs, 1 / 3, atol=1e-12)

    def test_symmetric_channel_uniform_fixed_point(self):
        # circulant rows: uniform input is optimal; verified against the
        # grid oracle in the capacity tests
        w = make_channel([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        for spec in (shannon_spec(), arimoto_a2_spec(2.0), arimoto_a1_spec(0.5)):
            fam = q_step(spec, uniform(3), w)
            p = p_step_closed(spec, w, fam)
            np.testing.assert_allclose(p.probs, 1 / 3, atol=1e-12)

    def test_single_input(self):
        spec = shannon_spec()
        w = make_channel([[0.2, 0.8]])
        fam = q_step(spec, uniform(1), w)
        np.testing.assert_allclose(p_step_closed(spec, w, fam).probs, [1.0], atol=0)

    def test_unsupported_for_generic_kind(self, bsc10, uniform2):
        spec = generic_spec(hayashi_pair(2.0))
        fam = q_step(spec, uniform2, bsc10)
        with pytest.raises(UnsupportedSpec):
            p_step_closed(spec, bsc10, fam)

    def test_closed_step_is_argmax(self):
        # certifies the update: the closed-form prior (for hayashi and
        # fehr-berens, the root-found KKT point) must dominate random
        # priors for the same response family
        rng = np.random.default_rng(23)
        specs = [spec for a in ALPHAS
                 for spec in (shannon_spec(), arimoto_a1_spec(a), arimoto_a2_spec(a))]
        specs += [hayashi_spec(a) for a in (0.5, 1.5, 2.0, 3.0)]
        specs += [fb_spec(a) for a in (1.5, 2.0, 3.0)]
        for spec in specs:
            for _ in range(5):
                m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
                w = rand_channel(rng, m, n, floor=1e-3)
                fam = random_family(rng, m, n, floor=1e-3)
                p_best = p_step_closed(spec, w, fam)
                v_best = eval_functional(spec, p_best, w, fam)
                for _ in range(200):
                    p_other = rand_pmf(rng, m)
                    assert eval_functional(spec, p_other, w, fam) <= v_best + 1e-7


    @pytest.mark.parametrize("spec", [hayashi_spec(a) for a in (0.5, 1.5, 2.0, 3.0)]
                             + [fb_spec(a) for a in (1.5, 2.0, 3.0)],
                             ids=lambda s: f"{s.kind}-{s.alpha}")
    def test_exact_step_dominates_numeric_ascent(self, spec):
        rng = np.random.default_rng(29)
        for _ in range(10):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            w = rand_channel(rng, m, n, floor=1e-3)
            fam = random_family(rng, m, n, floor=1e-3)
            v_exact = eval_functional(spec, p_step_closed(spec, w, fam), w, fam)
            if eval_functional(spec, uniform(m), w, fam) == -math.inf:
                # E leaves eta's domain at the start: no ascent, a typed error
                with pytest.raises(NonFinite, match="outside eta's domain"):
                    _ascent(spec, w, fam, 2000)
                continue
            numeric = _ascent(spec, w, fam, 2000)
            assert eval_functional(spec, numeric, w, fam) <= v_exact + 1e-12

    def test_symmetric_channel_uniform_for_root_found_step(self):
        # equal coefficients: the bracket's far end is the root
        w = make_channel([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        for spec in (hayashi_spec(0.5), hayashi_spec(2.0), fb_spec(3.0)):
            p = p_step_closed(spec, w, q_step(spec, uniform(3), w))
            np.testing.assert_allclose(p.probs, 1 / 3, atol=1e-12)

    def test_input_with_infinite_coefficient_gets_no_mass(self):
        # hayashi a < 1: q gives input 1 no mass on an output its row reaches
        w = make_channel([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        fam = QFamily(np.array([[0.5, 0.5], [0.0, 0.3], [0.5, 0.2]]))
        p = p_step_closed(hayashi_spec(0.5), w, fam)
        assert p[1] == 0.0
        assert math.isfinite(eval_functional(hayashi_spec(0.5), p, w, fam))

    def test_steep_root_at_large_order(self):
        # at order 50 the losses are ~1e-14 and 1/(a-1) is small, so the
        # KKT weights of near-tied inputs jump within one float step of t
        w = make_channel(np.ones((5, 1)))
        fam = QFamily(np.array([[0.5], [0.3], [0.2], [0.0], [0.0]]))
        rng = np.random.default_rng(31)
        for spec in (hayashi_spec(50.0), fb_spec(50.0), hayashi_spec(10.0)):
            v_best = eval_functional(spec, p_step_closed(spec, w, fam), w, fam)
            for r in rng.dirichlet(np.full(5, 0.5), size=500):
                assert eval_functional(spec, Pmf(r), w, fam) <= v_best + 1e-12

    def test_no_root_is_a_typed_error(self):
        # every prior gives -inf: E <= 0 for hayashi 2, E >= 0 for fehr-berens
        w = make_channel(np.eye(2))
        fam = QFamily(np.array([[0.1, 0.9], [0.9, 0.1]]))
        for spec in (hayashi_spec(2.0), fb_spec(2.0)):
            assert eval_functional(spec, uniform(2), w, fam) == -math.inf
            with pytest.raises(NonFinite, match=rf"exact prior step \({spec.kind}, order 2\)"):
                p_step_closed(spec, w, fam)

    def test_collapsed_update_names_kind_and_coefficients(self):
        # q swaps the outputs of the identity channel: every input's loss is +inf
        fam = QFamily(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NonFinite, match=r"exact prior step \(shannon\): prior update "
                                            r"collapsed.* c = \[inf inf\]"):
            p_step_closed(shannon_spec(), make_channel(np.eye(2)), fam)


class TestPStepNumeric:
    def test_matches_closed_form_objective_for_shannon(self):
        rng = np.random.default_rng(29)
        spec = shannon_spec()
        for _ in range(10):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            w = rand_channel(rng, m, n, floor=1e-3)
            fam = random_family(rng, m, n, floor=1e-2)
            closed = p_step_closed(spec, w, fam)
            numeric = _ascent(spec, w, fam, 400)
            v_closed = eval_functional(spec, closed, w, fam)
            v_numeric = eval_functional(spec, numeric, w, fam)
            assert v_numeric == pytest.approx(v_closed, abs=1e-6)

    def test_hayashi_matches_grid_argmax(self):
        rng = np.random.default_rng(31)
        spec = hayashi_spec(2.0)
        for _ in range(5):
            w = rand_channel(rng, 2, 2, floor=0.05)
            fam = random_family(rng, 2, 2, floor=0.05)
            numeric = _ascent(spec, w, fam, 600)
            ts = np.arange(0.0, 1.0 + 1e-9, 1e-4)
            vals = [
                eval_functional(spec, make_pmf([t, 1 - t]), w, fam) for t in ts
            ]
            best_t = ts[int(np.argmax(vals))]
            assert np.max(np.abs(numeric.probs - [best_t, 1 - best_t])) < 2e-3

    def test_stationary_start_returns_start(self):
        spec = shannon_spec()
        w = make_channel([[0.8, 0.2], [0.2, 0.8]])
        p0 = uniform(2)
        fam = q_step(spec, p0, w)  # uniform is optimal for this symmetric channel
        out = p_step_numeric(spec, w, fam, p0)
        np.testing.assert_allclose(out.probs, p0.probs, atol=1e-9)


GRADIENT_SPECS = (
    shannon_spec(), arimoto_a1_spec(0.5), arimoto_a1_spec(2.0), arimoto_a2_spec(0.5),
    arimoto_a2_spec(2.0), hayashi_spec(0.5), hayashi_spec(2.0), fb_spec(2.0),
    generic_spec(shannon_pair()), generic_spec(arimoto_pair(0.5)), generic_spec(arimoto_pair(2.0)),
    generic_spec(hayashi_pair(0.5)), generic_spec(hayashi_pair(2.0)),
    generic_spec(fehr_berens_pair(2.0)),
)


def channel_with_zero_cells(rng, m, n):
    rows = rng.random((m, n)) + 0.05
    rows[0, 1] = rows[m - 1, n - 1] = 0.0
    return make_channel(rows)


def family_off_channel_support(rng, w):
    """A response family that is positive where w is, and 0 on some cells where w is 0."""
    q = rng.random(w.rows.shape) + 0.05
    q[0, 1] = 0.0
    return QFamily(q / q.sum(axis=0))


def spec_id(spec):
    return spec.kind if spec.kind != "generic" else f"generic-{spec.pair.name}"


class TestPriorGradient:
    """The analytic gradient of p -> G(p, q) behind p_step_numeric."""

    @pytest.mark.parametrize("spec", GRADIENT_SPECS, ids=spec_id)
    def test_directional_derivatives_match_central_differences(self, spec):
        rng = np.random.default_rng(83)
        for m, n in ((2, 3), (3, 3), (4, 5)):
            w = channel_with_zero_cells(rng, m, n)
            q = family_off_channel_support(rng, w)
            value, grad = _prior_objective(spec, _input_coeffs(spec, w.rows, q.cols))
            for _ in range(5):
                p = rand_pmf(rng, m, floor=0.05).probs
                g = grad(p)
                assert value(p) == pytest.approx(_eval(spec, p, w.rows, q.cols), rel=1e-12, abs=1e-12)
                for i in range(m):
                    for j in range(i + 1, m):
                        d = np.zeros(m)
                        d[i], d[j] = 1.0, -1.0
                        h = 1e-5 * min(p[i], p[j])
                        fd = (_eval(spec, p + h * d, w.rows, q.cols)
                              - _eval(spec, p - h * d, w.rows, q.cols)) / (2.0 * h)
                        # relative, on a floor of 1e-3 for derivatives near 0
                        assert abs((g[i] - g[j]) - fd) <= 1e-6 * max(abs(fd), 1e-3)

    @pytest.mark.parametrize("spec", GRADIENT_SPECS, ids=spec_id)
    def test_zero_coordinate_stays_zero(self, spec):
        rng = np.random.default_rng(89)
        for m, n in ((3, 2), (4, 4)):
            w = channel_with_zero_cells(rng, m, n)
            for zero in range(m):
                p = rand_pmf(rng, m, floor=0.05).probs.copy()
                p[zero] = 0.0
                p /= p.sum()
                for q in (q_step(spec, make_pmf(p), w).cols,
                          family_off_channel_support(rng, w).cols):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        out = _p_numeric(spec, _input_coeffs(spec, w.rows, q), p)
                    assert out[zero] == 0.0
                    make_pmf(out)  # a valid pmf
                    assert _eval(spec, out, w.rows, q) >= _eval(spec, p, w.rows, q) - 1e-12

    def test_input_with_infinite_loss_is_emptied(self):
        # q gives input 1 no mass on an output its row reaches: under the
        # log-loss convention G is -inf until that input has no mass
        w = make_channel([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        q = np.array([[0.5, 0.5], [0.0, 0.3], [0.5, 0.2]])
        for spec in (shannon_spec(), arimoto_a2_spec(0.5), hayashi_spec(0.5)):
            p = np.full(3, 1.0 / 3.0)
            assert _eval(spec, p, w.rows, q) == -math.inf
            out = _p_numeric(spec, _input_coeffs(spec, w.rows, q), p, 50)
            assert out[1] == 0.0
            assert math.isfinite(_eval(spec, out, w.rows, q))

    def test_ascent_that_cannot_leave_minus_inf_is_a_typed_error(self):
        # fehr-berens: E = p . c > 0 at the start, outside eta's domain (-inf, 0)
        w = make_channel([[0.9, 0.1], [0.2, 0.8]])
        fam = QFamily(np.array([[0.01, 0.01], [0.99, 0.99]]))
        for a in (2.0, 3.0):
            with pytest.raises(NonFinite, match=rf"numeric prior step \(fehr-berens\({a:g}\)\): "
                                                r"G is -inf .* outside eta's domain"):
                p_step_numeric(fb_spec(a), w, fam, make_pmf([0.99, 0.01]))
        # every input has infinite loss, so no step can empty them
        swap = QFamily(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NonFinite, match=r"inputs \[0, 1\] have mass and infinite loss"):
            p_step_numeric(shannon_spec(), make_channel(np.eye(2)), swap, uniform(2))

    def test_public_step_rejects_boundary_start(self, bsc10):
        spec = hayashi_spec(2.0)
        fam = q_step(spec, uniform(2), bsc10)
        with pytest.raises(DomainError):
            p_step_numeric(spec, bsc10, fam, make_pmf([1.0, 0.0]))

    def test_no_functional_evaluation_inside(self, monkeypatch):
        rng = np.random.default_rng(97)
        w = rand_channel(rng, 3, 3)
        fam = random_family(rng, 3, 3, floor=0.05)
        want = p_step_numeric(fb_spec(2.0), w, fam, uniform(3))

        def forbidden(*args):
            raise AssertionError("_eval called inside the prior step")

        monkeypatch.setattr(variational, "_eval", forbidden)
        got = p_step_numeric(fb_spec(2.0), w, fam, uniform(3))
        assert got.probs.tobytes() == want.probs.tobytes()
