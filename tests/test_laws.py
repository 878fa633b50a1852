"""Exact absorption and strong-stationary-time laws, all three routes."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdual import (
    Analysis,
    DiscreteAbsorptionLaw,
    HorizonExceeded,
    ImaginaryResidue,
    MonotoneHypothesisFails,
    NotErgodic,
    NumericalBreakdown,
    PoleAtU,
    PreconditionError,
    RateGenerator,
    ThetaTooSmall,
    TransitionKernel,
    ValidationError,
    ZeroSuperdiagonal,
    absorption_law,
    ctmc_cdf_oracle,
    hypoexp_law,
    mean_absorption_oracle,
    power_cdf_oracle,
    separation,
    sst_law,
    stationary_law,
    uniformize,
)
from ssdual.config import MAX_HORIZON
from ssdual.families import (
    random_birth_death_generator,
    random_birth_death_kernel,
    random_initial_law,
    random_skipfree_generator,
    random_skipfree_kernel,
    random_upper_triangular_kernel,
)

from conftest import BD3_THETAS
from test_spectral import COMPLEX4


class TestDiscreteAbsorptionLaw:
    def test_bd3_geometric_convolution(self, bd3):
        law = absorption_law(bd3)
        assert law.kind == "geometric_convolution"
        assert law.thetas == pytest.approx(BD3_THETAS, abs=1e-14)
        assert law.cdf(0) == 0.0
        assert law.cdf(2) == pytest.approx(0.125, abs=1e-15)
        assert law.pmf(2) == pytest.approx(0.125, abs=1e-15)
        assert law.mean() == pytest.approx(8.0, abs=1e-12)

    def test_bd3_matches_power_oracle(self, bd3):
        law = absorption_law(bd3)
        oracle = power_cdf_oracle(bd3, None, 200)
        exact = np.real(np.atleast_1d(law.cdf(np.arange(201))))
        assert np.abs(exact - oracle).max() < 1e-12

    def test_gen3_mixture_weights(self, gen3):
        law = absorption_law(gen3)
        assert law.kind == "mixture"
        assert law.weights == pytest.approx([0.0, 1.0 / 3.0, 2.0 / 3.0], abs=1e-14)
        oracle = power_cdf_oracle(gen3, None, 100)
        exact = np.real(np.atleast_1d(law.cdf(np.arange(101))))
        assert np.abs(exact - oracle).max() < 1e-12

    def test_non_delta_initial(self, bd3):
        m0 = [0.5, 0.5, 0.0]
        law = absorption_law(bd3, m0)
        oracle = power_cdf_oracle(bd3, m0, 100)
        exact = np.real(np.atleast_1d(law.cdf(np.arange(101))))
        assert np.abs(exact - oracle).max() < 1e-12
        assert law.mean() == pytest.approx(mean_absorption_oracle(bd3, m0), abs=1e-10)

    def test_initial_mass_on_target(self, gen3):
        m0 = [0.25, 0.25, 0.5]
        law = absorption_law(gen3, m0)
        assert law.cdf(0) == pytest.approx(0.5, abs=1e-14)
        oracle = power_cdf_oracle(gen3, m0, 50)
        exact = np.real(np.atleast_1d(law.cdf(np.arange(51))))
        assert np.abs(exact - oracle).max() < 1e-12

    def test_complex_spectrum_numeric_route(self):
        k = TransitionKernel(COMPLEX4)
        law = absorption_law(k)
        assert law.kind == "numeric_cdf"
        oracle = power_cdf_oracle(k, None, 120)
        exact = np.real(np.atleast_1d(law.cdf(np.arange(121))))
        assert np.abs(exact - oracle).max() < 1e-12
        assert law.mean().real == pytest.approx(mean_absorption_oracle(k), abs=1e-10)

    def test_pmf_sums_to_cdf(self, gen3):
        law = absorption_law(gen3)
        ts = np.arange(60)
        assert np.cumsum(law.pmf(ts)).max() == pytest.approx(float(law.cdf(59)), abs=1e-12)

    def test_quantile_bracket(self, bd3):
        law = absorption_law(bd3)
        for q in (0.1, 0.5, 0.9, 0.999):
            t = law.quantile(q)
            assert law.cdf(t) >= q
            assert t == 0 or law.cdf(t - 1) < q

    def test_times_between_steps(self, bd3):
        # F is a step function: F(t) = F(floor t), and T puts no mass off the integers
        law = absorption_law(bd3, [0.5, 0.0, 0.5])
        assert law.cdf(-0.5) == 0.0 and law.pmf(-0.5) == 0.0
        assert law.cdf(2.5) == law.cdf(2) and law.pmf(2.5) == 0.0
        ts = np.array([-1.5, -0.5, 0.0, 0.5, 1.0, 2.999, 3.0])
        steps = np.floor(ts).astype(int)
        np.testing.assert_array_equal(law.cdf(ts), law.cdf(steps))
        np.testing.assert_array_equal(law.pmf(ts), np.where(ts == steps, law.pmf(steps), 0.0))
        for bad in (np.nan, np.inf, [1.0, np.nan]):
            with pytest.raises(ValueError, match="finite"):
                law.cdf(bad)

    def test_quantile_level_below_one(self, bd3):
        law = absorption_law(bd3, [0.5, 0.0, 0.5])
        for q in (1.0, np.nextafter(1.0, 2.0), -0.1):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                law.quantile(q)
        assert law.cdf(law.quantile(np.nextafter(1.0, 0.0))) >= np.nextafter(1.0, 0.0)

    def test_sampling_matches_mean(self, bd3):
        law = absorption_law(bd3)
        rng = np.random.default_rng(11)
        draws = law.sample(rng, size=40000)
        assert draws.mean() == pytest.approx(law.mean(), rel=0.02)

    def test_zero_superdiagonal_checked_first(self):
        mat = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 0.5, 0.5],
            [0.0, 0.0, 1.0],
        ])
        with pytest.raises(ZeroSuperdiagonal):
            absorption_law(TransitionKernel(mat))

    def test_target_not_absorbing_rejected(self, erg3):
        with pytest.raises(PreconditionError):
            absorption_law(erg3)

    def test_level_weights_must_reach_one(self):
        with pytest.raises(PreconditionError):
            DiscreteAbsorptionLaw(np.array([0.5]), np.array([0.2, 0.8]))

    @pytest.mark.parametrize("thetas, level_weights", [
        ([0.5, 0.25], [0.0, 0.0, np.nan]),  # once snapped to 1: a geometric convolution
        ([0.5, 0.25], [np.nan, 0.5, 1.0]),  # once a NaN mean
        ([0.5, np.nan], [0.0, 0.0, 1.0]),
    ])
    def test_law_inputs_must_be_finite(self, thetas, level_weights):
        with pytest.raises(ValueError, match="finite"):
            DiscreteAbsorptionLaw(np.array(thetas), np.array(level_weights))

    def test_cdf_past_horizon_raises_before_allocating(self, bd3):
        law = absorption_law(bd3)
        for evaluate in (law.cdf, law.pmf):
            with pytest.raises(HorizonExceeded, match="exceeds"):
                evaluate(4 * MAX_HORIZON)
            with pytest.raises(HorizonExceeded):
                evaluate(np.array([3, MAX_HORIZON + 1]))
        assert not {"_baby", "_rows"} & set(vars(law))

    @pytest.mark.parametrize("law", ["absorption_law", "sst_law"])
    def test_nan_target_column_breaks_down(self, gen3, erg3, law):
        # off the skip-free-from-0 route the law reads the link; a NaN at its
        # top is a breakdown, though NaN > tol is false
        analysis = Analysis(gen3) if law == "absorption_law" else Analysis(erg3, [0.0, 1.0, 0.0])
        rows = analysis.link.rows.copy()
        rows[:, -1] = np.nan
        analysis.link = replace(analysis.link, rows=rows)
        with pytest.raises(NumericalBreakdown, match="does not reach 1"):
            getattr(analysis, law)()

    @pytest.mark.parametrize("family, seed, n", [
        (random_birth_death_kernel, 0, 30),  # residual 4.5e-5
        (random_skipfree_kernel, 1, 25),  # 2.7e-9
        (random_skipfree_kernel, 1, 30),  # 4.3e-8
    ])
    def test_link_that_misses_one_breaks_down(self, family, seed, n):
        # a float64 link whose target column misses 1 is a numerical
        # breakdown, not a precondition of the chain
        kernel = TransitionKernel(family(np.random.default_rng(seed), n))
        with pytest.raises(NumericalBreakdown, match="does not reach 1"):
            absorption_law(kernel, random_initial_law(np.random.default_rng(1), n))


class TestPgf:
    def test_product_form_matches_power_series(self, bd3, gen3):
        # E[u^T] = sum_t u^t (F(t) - F(t-1)), with F from matrix powering and
        # the series cut where |u|^t < 1e-16
        for kernel, m0 in ((bd3, None), (gen3, [0.3, 0.5, 0.2])):
            law = absorption_law(kernel, m0)
            for u in np.random.default_rng(3).uniform(-0.9, 0.9, size=20):
                t_max = int(np.ceil(np.log(1e-16) / np.log(abs(u))))
                pmf = np.diff(power_cdf_oracle(kernel, m0, t_max), prepend=0.0)
                assert abs(law.pgf(u) - np.sum(u ** np.arange(t_max + 1) * pmf)) <= 1e-12

    def test_pgf_at_one_is_total_mass(self, bd3, gen3):
        for k in (bd3, gen3):
            law = absorption_law(k)
            assert law.pgf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_pole_raises(self):
        law_pole = DiscreteAbsorptionLaw(np.array([0.5]), np.array([0.0, 1.0]))
        with pytest.raises(PoleAtU):
            law_pole.pgf(2.0)


class TestImaginaryGuard:
    def test_imaginary_residue_raises(self):
        law = DiscreteAbsorptionLaw(np.array([0.5j]), np.array([0.3 + 0.4j, 1.0]))
        assert law.kind == "numeric_cdf"
        with pytest.raises(ImaginaryResidue):
            law.cdf(3)

    def test_tiny_imaginary_part_stripped(self):
        law = DiscreteAbsorptionLaw(np.array([0.5 + 1e-15j]), np.array([0.0 + 0.0j, 1.0]))
        out = law.cdf(2)
        assert isinstance(out, float)
        assert out == pytest.approx(0.75, abs=1e-12)


class TestSstLaw:
    def test_erg3_geometric_convolution(self, erg3):
        law = sst_law(erg3)
        assert law.kind == "geometric_convolution"
        assert law.thetas == pytest.approx([0.0, 0.5], abs=1e-14)
        assert abs(law.cdf(1) - 0.0) <= 1e-14
        assert abs(law.cdf(2) - 0.5) <= 1e-14
        assert stationary_law(erg3) == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)

    def test_erg3_cdf_is_one_minus_separation(self, erg3):
        law = sst_law(erg3)
        prof = separation(erg3, None, t_max=50)
        exact = np.real(np.atleast_1d(law.cdf(np.arange(51))))
        assert np.abs(exact - (1.0 - prof.s)).max() <= 1e-10

    def test_separation_scan_route(self, erg3):
        # delta at 1 pushes the chain to stationarity in one step; the ratio
        # profile is not nonincreasing so certification needs the scan
        law = sst_law(erg3, [0.0, 1.0, 0.0])
        assert law.cdf(1) == pytest.approx(1.0, abs=1e-12)

    def test_minimizer_away_from_target_rejected(self, erg3):
        with pytest.raises(MonotoneHypothesisFails, match="not minimized"):
            sst_law(erg3, [0.0, 0.0, 1.0])

    def test_non_monotone_reversal_rejected(self):
        k = TransitionKernel([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        with pytest.raises(MonotoneHypothesisFails, match="monotone"):
            sst_law(k)

    def test_needs_ergodic(self, bd3):
        with pytest.raises(NotErgodic):
            sst_law(bd3)

    def test_needs_a_kernel(self):
        # the uniformized chain's law would count steps, not time
        gen = RateGenerator(np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]))
        with pytest.raises(ValidationError, match="TransitionKernel"):
            sst_law(gen)


class TestContinuousLaw:
    def test_rates_2_1_closed_form(self, ct21):
        law = hypoexp_law(ct21)
        assert law.kind == "hypoexponential"
        assert law.rates == pytest.approx([2.0, 1.0], abs=1e-12)
        ts = np.linspace(0.0, 12.0, 60)
        closed = 1.0 - 2.0 * np.exp(-ts) + np.exp(-2.0 * ts)
        assert np.abs(np.atleast_1d(law.cdf(ts)) - closed).max() < 1e-10
        assert law.mean() == pytest.approx(1.5, abs=1e-12)

    def test_matches_ctmc_oracle(self, ct21):
        law = hypoexp_law(ct21)
        ts = np.linspace(0.0, 10.0, 50)
        oracle = ctmc_cdf_oracle(ct21, None, ts)
        assert np.abs(np.atleast_1d(law.cdf(ts)) - oracle).max() < 1e-10

    def test_laplace_product(self, ct21):
        law = hypoexp_law(ct21)
        for s in (0.5, 1.0, 3.0):
            expected = (2.0 / (2.0 + s)) * (1.0 / (1.0 + s))
            assert law.laplace(s) == pytest.approx(expected, abs=1e-12)

    def test_quantile_inverts_cdf(self, ct21):
        law = hypoexp_law(ct21)
        for q in (0.25, 0.5, 0.9):
            assert law.cdf(law.quantile(q)) == pytest.approx(q, abs=1e-9)

    def test_sampling_mean(self, ct21):
        law = hypoexp_law(ct21)
        rng = np.random.default_rng(7)
        draws = law.sample(rng, size=40000)
        assert draws.mean() == pytest.approx(1.5, rel=0.03)

    def test_zero_superdiagonal_generator(self):
        gen = RateGenerator(np.array([
            [0.0, 0.0, 0.0],
            [1.0, -2.0, 1.0],
            [0.0, 0.0, 0.0],
        ]))
        with pytest.raises(ZeroSuperdiagonal):
            hypoexp_law(gen)

    def test_needs_a_generator(self, bd3):
        with pytest.raises(ValidationError, match="RateGenerator"):
            hypoexp_law(bd3)

    def test_uniformize_rejects_small_rate(self, ct21):
        with pytest.raises(ThetaTooSmall):
            uniformize(ct21, theta=1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.integers(3, 8))
def test_skipfree_law_matches_oracle(seed, n):
    k = TransitionKernel(random_skipfree_kernel(np.random.default_rng(seed), n))
    law = absorption_law(k)
    horizon = law.quantile(0.9999)
    oracle = power_cdf_oracle(k, None, horizon)
    exact = np.real(np.atleast_1d(law.cdf(np.arange(horizon + 1))))
    assert np.abs(exact - oracle).max() <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.integers(3, 8))
def test_upper_triangular_mixture_weights(seed, n):
    k = TransitionKernel(random_upper_triangular_kernel(np.random.default_rng(seed), n))
    law = absorption_law(k)
    assert law.weights.min() >= -1e-10
    assert law.weights.sum() == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000), st.integers(3, 7), st.booleans())
def test_random_generators_match_ctmc_oracle(seed, n, birth_death):
    rng = np.random.default_rng(seed)
    fam = random_birth_death_generator if birth_death else random_skipfree_generator
    gen = RateGenerator(fam(rng, n))
    law = hypoexp_law(gen)
    ts = np.linspace(0.0, law.quantile(0.999), 25)
    oracle = ctmc_cdf_oracle(gen, None, ts)
    assert np.abs(np.atleast_1d(law.cdf(ts)) - oracle).max() <= 1e-8
