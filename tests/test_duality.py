"""Links, pure-birth duals, the modified dual, and separation profiles."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdual import (
    LinkMatrix,
    RateGenerator,
    TransitionKernel,
    absorption_law,
    build_dual,
    build_link,
    build_modified_dual,
    check_intertwining,
    check_monotone_reversal,
    eigenvalues,
    mixture_weights,
    separation,
    spectral_polynomials,
    stationary_law,
    uniformize,
)
from ssdual.chains import as_initial
from ssdual.families import (
    random_ergodic_birth_death,
    random_initial_law,
    random_reversible_absorbing_kernel,
    random_skipfree_kernel,
    random_upper_triangular_kernel,
)

from conftest import BD3_MATRIX, CT21_MATRIX, ERG3_MATRIX, GEN3_MATRIX

SQRT2 = np.sqrt(2.0)


def _pipeline(kernel, m0=None):
    spec = eigenvalues(kernel)
    link = build_link(kernel, spec, m0)
    dual = build_dual(spec)
    return spec, link, dual


def _tensor_rows(kernel, spec, m0):
    """Reference link: m0 Q_k taken from the full (n, n, n) tensor of Q_0..Q_d."""
    return as_initial(m0, kernel.n) @ spectral_polynomials(kernel, spec).mats


def _reversible_random_start(n):
    rng = np.random.default_rng(0)
    return TransitionKernel(random_reversible_absorbing_kernel(rng, n)), random_initial_law(rng, n)


LINK_CHAINS = {
    "bd3": lambda: (TransitionKernel(np.array(BD3_MATRIX)), None),
    "gen3_random_start": lambda: (
        TransitionKernel(np.array(GEN3_MATRIX)), random_initial_law(np.random.default_rng(1), 3)),
    "erg3": lambda: (TransitionKernel(np.array(ERG3_MATRIX)), None),
    "ct21_uniformized": lambda: (uniformize(RateGenerator(np.array(CT21_MATRIX)))[0], None),
    "reversible_50_random_start": lambda: _reversible_random_start(50),
}


@pytest.mark.parametrize("name", sorted(LINK_CHAINS))
def test_link_rows_match_tensor(name):
    kernel, m0 = LINK_CHAINS[name]()
    spec = eigenvalues(kernel)
    rows = build_link(kernel, spec, m0).rows
    ref = _tensor_rows(kernel, spec, m0)
    assert rows.dtype == ref.dtype
    assert np.abs(rows - ref).max() <= 1e-12 * np.abs(ref).max()


def test_complex_link_no_less_accurate_than_tensor():
    # with a complex spectrum both float64 constructions lose digits (the two
    # differ by 4e-8 here), so each is measured against the same recurrence
    # carried out in 50-digit arithmetic from the same eigenvalues
    mp = pytest.importorskip("mpmath")
    kernel = TransitionKernel(random_skipfree_kernel(np.random.default_rng(0), 30))
    spec = eigenvalues(kernel)
    assert not spec.all_real
    with mp.workdps(50):
        mat = mp.matrix(kernel.matrix.tolist())
        row = mp.matrix([[1] + [0] * (kernel.n - 1)])
        exact = [row]
        for theta in spec.nonunit:
            theta = mp.mpc(complex(theta))
            row = (row * mat - theta * row) / (1 - theta)
            exact.append(row)
        exact = np.array([[complex(x) for x in r] for r in exact])
    rows_err = np.abs(build_link(kernel, spec).rows - exact).max()
    tensor_err = np.abs(_tensor_rows(kernel, spec, None) - exact).max()
    assert rows_err <= 4.0 * tensor_err


def test_link_route_memory_is_quadratic():
    kernel, m0 = _reversible_random_start(300)
    tracemalloc.start()
    try:
        law = absorption_law(kernel, m0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert law.kind == "mixture"
    # the (n, n, n) tensor of Q_0..Q_d alone would take 8 n^3 bytes = 216 MB
    assert peak < 16e6


class TestLink:
    def test_bd3_rows(self, bd3):
        _, link, _ = _pipeline(bd3)
        expected = np.array([
            [1.0, 0.0, 0.0],
            [SQRT2 - 1.0, 2.0 - SQRT2, 0.0],
            [0.0, 0.0, 1.0],
        ])
        assert np.abs(link.rows - expected).max() < 1e-14
        assert link.stochastic and link.lower_triangular

    def test_first_row_is_initial_law(self, gen3):
        m0 = np.array([0.3, 0.3, 0.4])
        _, link, _ = _pipeline(gen3, m0)
        assert np.abs(link.rows[0] - m0).max() < 1e-15

    def test_gen3_not_lower_triangular(self, gen3):
        _, link, _ = _pipeline(gen3)
        expected = np.array([
            [1.0, 0.0, 0.0],
            [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            [0.0, 0.0, 1.0],
        ])
        assert np.abs(link.rows - expected).max() < 1e-14
        assert link.stochastic and not link.lower_triangular

    def test_ergodic_last_row_is_stationary(self, erg3):
        _, link, _ = _pipeline(erg3)
        pi = stationary_law(erg3)
        assert np.abs(link.rows[-1] - pi).max() < 1e-12


class TestDualKernel:
    def test_bd3_bidiagonal(self, bd3):
        spec, _, dual = _pipeline(bd3)
        th = spec.nonunit
        expected = np.array([
            [th[0], 1.0 - th[0], 0.0],
            [0.0, th[1], 1.0 - th[1]],
            [0.0, 0.0, 1.0],
        ])
        assert np.abs(dual.matrix - expected).max() < 1e-15

    def test_intertwining_holds_at_powers(self, bd3, gen3):
        for k in (bd3, gen3):
            _, link, dual = _pipeline(k)
            report = check_intertwining(link, k, dual, powers=(2, 3, 5))
            assert report.passed
            assert report.residual < 1e-12
            assert all(r < 1e-12 for r in report.power_residuals.values())

    def test_perturbed_link_fails_intertwining(self, bd3):
        _, link, dual = _pipeline(bd3)
        rows = link.rows.copy()
        rows[1, 0] += 1e-6
        rows[1, 1] -= 1e-6
        bad = LinkMatrix(rows=rows, stochastic=True, lower_triangular=True,
                         clamped=0, rowsum_residual=0.0)
        report = check_intertwining(bad, bd3, dual)
        assert not report.passed
        assert report.residual > 1e-8


class TestMixtureWeights:
    def test_gen3_weights(self, gen3):
        _, link, _ = _pipeline(gen3)
        w = mixture_weights(link)
        assert w.weights == pytest.approx([0.0, 1.0 / 3.0, 2.0 / 3.0, 0.0], abs=1e-14)
        assert w.stochastic and w.sum_residual < 1e-14

    def test_ergodic_needs_normalizer(self, erg3):
        _, link, _ = _pipeline(erg3)
        pi = stationary_law(erg3)
        w = mixture_weights(link, normalizer=float(pi[-1]))
        assert w.sum_residual < 1e-12
        assert w.stochastic


class TestModifiedDual:
    def test_bd3_reduces_to_classic_dual(self, bd3):
        spec, link, dual = _pipeline(bd3)
        mod = build_modified_dual(bd3, link, spec, None)
        assert np.abs(mod.kernel - dual.matrix).max() == 0.0
        assert mod.absorbing_start == 2
        assert np.array_equal(mod.initial, [1.0, 0.0, 0.0])

    def test_gen3_kernel_and_identities(self, gen3):
        spec, link, _ = _pipeline(gen3)
        mod = build_modified_dual(gen3, link, spec, None)
        expected = np.array([
            [0.25, 0.50, 0.25],
            [0.00, 0.75, 0.25],
            [0.00, 0.00, 1.00],
        ])
        assert np.abs(mod.kernel - expected).max() < 1e-14
        assert mod.stochastic
        assert mod.absorbing_start == 2
        assert mod.intertwining_residual < 1e-12
        assert mod.initial_residual < 1e-14
        # a bidiagonal part that climbs or holds, plus a jump straight to the target
        assert not np.triu(mod.kernel[:, :-1], 2).any() and not np.tril(mod.kernel, -1).any()

    def test_two_point_initial_with_target_mass(self, gen3):
        m0 = np.array([0.25, 0.25, 0.5])
        spec, link, _ = _pipeline(gen3, m0)
        mod = build_modified_dual(gen3, link, spec, m0)
        assert mod.initial[0] == pytest.approx(0.5, abs=1e-14)
        assert mod.initial[-1] == pytest.approx(0.5, abs=1e-14)
        assert mod.initial_residual < 1e-13


class TestMonotoneReversal:
    def test_erg3_monotone(self, erg3):
        rep = check_monotone_reversal(erg3, stationary_law(erg3))
        assert rep.monotone and rep.witness is None

    def test_symmetric_cycle_not_monotone(self):
        k = TransitionKernel([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        rep = check_monotone_reversal(k, stationary_law(k))
        assert not rep.monotone
        assert rep.witness == (0, 1)

    def test_reversal_of_reversible_chain_is_itself(self, erg3):
        pi = stationary_law(erg3)
        rep = check_monotone_reversal(erg3, pi)
        expected = erg3.matrix.T * pi[None, :] / pi[:, None]
        assert np.abs(rep.reversal - expected).max() < 1e-14
        assert np.abs(rep.reversal - erg3.matrix).max() < 1e-14


class TestSeparation:
    def test_erg3_profile(self, erg3):
        prof = separation(erg3, None, t_max=6)
        assert prof.s == pytest.approx([1.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125],
                                       abs=1e-12)
        assert prof.minimized_at_target
        assert np.all(prof.argmin_state == 2)

    def test_scan_runs_to_tail_when_unbounded(self, erg3):
        prof = separation(erg3)
        assert prof.s[-1] < 1e-9
        assert prof.minimized_at_target

    def test_minimizer_leaves_target(self, erg3):
        # started at the target itself, separation is minimized elsewhere
        prof = separation(erg3, [0.0, 0.0, 1.0], t_max=4)
        assert not prof.minimized_at_target


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 8))
def test_skipfree_link_properties(seed, n):
    k = TransitionKernel(random_skipfree_kernel(np.random.default_rng(seed), n))
    spec, link, dual = _pipeline(k)
    assert link.lower_triangular
    assert link.rows[-1, -1] == pytest.approx(1.0, abs=1e-9)
    rep = check_intertwining(link, k, dual, powers=(2,))
    assert rep.residual <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 7), st.booleans())
def test_modified_dual_identities_on_random_chains(seed, n, random_start):
    rng = np.random.default_rng(seed)
    fam = random_reversible_absorbing_kernel if seed % 2 else random_upper_triangular_kernel
    k = TransitionKernel(fam(rng, n))
    m0 = random_initial_law(rng, n) if random_start else None
    spec = eigenvalues(k)
    link = build_link(k, spec, m0)
    mod = build_modified_dual(k, link, spec, m0)
    assert mod.intertwining_residual <= 1e-10
    assert mod.initial_residual <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 7))
def test_ergodic_link_weights_normalize(seed, n):
    k = TransitionKernel(random_ergodic_birth_death(np.random.default_rng(seed), n))
    _, link, _ = _pipeline(k)
    pi = stationary_law(k)
    w = mixture_weights(link, normalizer=float(pi[-1]))
    assert w.sum_residual <= 1e-9
