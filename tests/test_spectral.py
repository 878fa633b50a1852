"""Eigenvalue extraction, canonical ordering, and the spectral polynomials."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdual import (
    EigenFailure,
    NumericalBreakdown,
    TransitionKernel,
    absorption_law,
    classify_kernel,
    eigenvalues,
    polynomial_residuals,
    spectral_polynomials,
    stationary_law,
)
from ssdual.cli import main
from ssdual.config import TOL_EIG
from ssdual.families import (
    random_birth_death_kernel,
    random_ergodic_birth_death,
    random_reversible_absorbing_kernel,
    random_skipfree_kernel,
    random_upper_triangular_kernel,
)

from conftest import BD3_MATRIX, BD3_THETAS

# transient block is a near-cycle: one real and one complex-conjugate pair
COMPLEX4 = np.array([
    [0.05, 0.80, 0.05, 0.10],
    [0.05, 0.05, 0.80, 0.10],
    [0.80, 0.05, 0.05, 0.10],
    [0.00, 0.00, 0.00, 1.00],
])


class TestEigenvalues:
    def test_bd3_tridiagonal_route(self, bd3):
        spec = eigenvalues(bd3)
        assert spec.method == "tridiagonal"
        assert spec.all_real and spec.all_nonneg_real
        assert spec.values[-1] == 1.0
        assert spec.nonunit == pytest.approx(BD3_THETAS, abs=1e-14)

    def test_gen3_symmetric_route(self, gen3):
        spec = eigenvalues(gen3)
        assert spec.method == "symmetric"
        assert spec.nonunit == pytest.approx([0.25, 0.75], abs=1e-14)

    def test_upper_triangular_route(self):
        mat = np.array([
            [0.6, 0.3, 0.1],
            [0.0, 0.2, 0.8],
            [0.0, 0.0, 1.0],
        ])
        spec = eigenvalues(TransitionKernel(mat))
        assert spec.method == "triangular"
        # diagonal read-off, ascending (row renormalization may move an ulp)
        assert spec.nonunit == pytest.approx([0.2, 0.6], abs=1e-15)

    def test_general_route_orders_complex_pairs(self):
        spec = eigenvalues(TransitionKernel(COMPLEX4))
        assert spec.method == "general" and not spec.all_real
        vals = spec.values
        assert vals[-1] == 1.0 + 0.0j
        # lexicographic (real, imag): conjugate with negative imag first
        assert vals[0] == pytest.approx(-0.375 - 0.649519052838329j, abs=1e-12)
        assert vals[1] == pytest.approx(-0.375 + 0.649519052838329j, abs=1e-12)
        assert vals[2] == pytest.approx(0.9 + 0.0j, abs=1e-12)

    @pytest.mark.parametrize("n", [50, 200])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_detailed_balance_reversible_route(self, n, seed):
        kernel = TransitionKernel(random_reversible_absorbing_kernel(np.random.default_rng(seed), n))
        spec = eigenvalues(kernel)
        assert spec.method == "reversible"
        reference = np.sort(np.linalg.eigvals(kernel.matrix[:-1, :-1]).real)
        assert np.abs(spec.nonunit - reference).max() <= 1e-12

    def test_ergodic_dense_detailed_balance_reversible_route(self):
        # pi_i p(i, j) = pi_j p(j, i) with weights w symmetric: p(i, j) = w_ij / pi_i
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 1.0, size=(30, 30))
        w = w + w.T
        mat = w / w.sum(axis=1)[:, None]
        kernel = TransitionKernel(mat)
        spec = eigenvalues(kernel)
        assert spec.method == "reversible"
        reference = np.sort(np.linalg.eigvals(kernel.matrix).real)
        assert np.abs(spec.values - reference).max() <= 1e-12

    @pytest.mark.parametrize("skew", [0.0, 1e-9])
    def test_ring_is_reversible_only_with_balanced_products(self, skew):
        # an ergodic ring of 9 states: its breadth-first tree is 4 levels deep,
        # and detailed balance needs the products around the ring to agree
        rng = np.random.default_rng(5)
        n = 9
        w = np.zeros((n, n))
        for i in range(n):
            w[i, (i + 1) % n] = w[(i + 1) % n, i] = rng.uniform(0.1, 1.0)
        pi = 10.0 ** rng.uniform(-3.0, 3.0, n)
        mat = w / pi[:, None]
        mat /= 1.1 * mat.sum(axis=1).max()
        mat[0, 1] *= 1.0 + skew
        np.fill_diagonal(mat, 1.0 - mat.sum(axis=1))
        kernel = TransitionKernel(mat)
        spec = eigenvalues(kernel)
        assert spec.method == ("reversible" if skew == 0.0 else "general")
        reference = np.sort(np.linalg.eigvals(kernel.matrix).real)
        assert np.abs(spec.values.real - reference).max() <= 1e-12

    def test_cycle_breaking_kolmogorov_goes_general(self):
        # symmetric support on the 3-cycle 0 -> 1 -> 2 -> 0, but the products
        # around it differ in the two directions: no detailed balance
        mat = np.array([
            [0.4, 0.3, 0.1, 0.2],
            [0.1, 0.4, 0.3, 0.2],
            [0.3, 0.1, 0.4, 0.2],
            [0.0, 0.0, 0.0, 1.0],
        ])
        spec = eigenvalues(TransitionKernel(mat))
        assert spec.method == "general"
        reference = np.linalg.eigvals(mat[:3, :3])
        assert np.abs(np.sort_complex(spec.nonunit) - np.sort_complex(reference)).max() < 1e-14

    def test_cycle_with_equal_products_is_reversible(self):
        # the same support with balanced products: pi = (1, 2, 4) / 7
        mat = np.array([
            [0.4, 0.2, 0.2, 0.2],
            [0.1, 0.4, 0.3, 0.2],
            [0.05, 0.15, 0.6, 0.2],
            [0.0, 0.0, 0.0, 1.0],
        ])
        spec = eigenvalues(TransitionKernel(mat))
        assert spec.method == "reversible"
        reference = np.sort(np.linalg.eigvals(mat[:3, :3]).real)
        assert np.abs(spec.nonunit - reference).max() < 1e-14

    def test_erg3_unit_snapped_exactly(self, erg3):
        spec = eigenvalues(erg3)
        assert spec.values[-1] == 1.0
        assert spec.nonunit == pytest.approx([0.0, 0.5], abs=1e-14)

    def test_unit_eigenvalue_in_transient_block_fails(self):
        with pytest.raises(EigenFailure):
            eigenvalues(TransitionKernel(np.eye(2)))

    @pytest.mark.parametrize("n", [60, 70])
    def test_reachable_target_with_unit_rounded_mode_breaks_down(self, n):
        # the slowest mode has 1 - theta below 1e-13 although every state
        # reaches the target: a numerical breakdown, not an unreachable target
        kernel = TransitionKernel(random_skipfree_kernel(np.random.default_rng(0), n))
        assert classify_kernel(kernel).target_accessible
        with pytest.raises(NumericalBreakdown, match="reachable"):
            eigenvalues(kernel)
        with pytest.raises(NumericalBreakdown):
            absorption_law(kernel)

    def test_two_ergodic_components_fail(self):
        mat = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ])
        with pytest.raises(EigenFailure, match="unique unit"):
            eigenvalues(TransitionKernel(mat))


class TestSpectralPolynomials:
    def test_rows_sum_to_one(self, bd3):
        spec = eigenvalues(bd3)
        polys = spectral_polynomials(bd3, spec)
        for q in polys.mats:
            assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-12
        assert polys.rowsum_residual < 1e-12

    def test_q0_is_identity(self, gen3):
        spec = eigenvalues(gen3)
        polys = spectral_polynomials(gen3, spec)
        assert np.array_equal(polys.mats[0], np.eye(3))

    def test_top_polynomial_fixed_by_kernel(self, gen3):
        # Q_d P = Q_d; for an absorbing chain every row of Q_d is the point
        # mass at the target
        spec = eigenvalues(gen3)
        polys = spectral_polynomials(gen3, spec)
        assert polys.cayley_residual < 1e-12
        qd = polys.mats[-1]
        assert np.abs(qd - np.array([0.0, 0.0, 1.0])).max() < 1e-12

    def test_top_polynomial_ergodic_is_stationary(self, erg3):
        spec = eigenvalues(erg3)
        polys = spectral_polynomials(erg3, spec)
        pi = stationary_law(erg3)
        assert np.abs(polys.mats[-1] - pi).max() < 1e-12

    def test_complex_spectrum_keeps_cayley_identity(self):
        k = TransitionKernel(COMPLEX4)
        spec = eigenvalues(k)
        polys = spectral_polynomials(k, spec)
        assert polys.cayley_residual < 1e-10
        assert polys.rowsum_residual < 1e-10


def _residual_cases():
    rng = np.random.default_rng(7)
    for family in (random_birth_death_kernel, random_skipfree_kernel,
                   random_upper_triangular_kernel, random_reversible_absorbing_kernel,
                   random_ergodic_birth_death):
        for n in (3, 12, 40):
            yield TransitionKernel(family(rng, n))
    yield TransitionKernel(COMPLEX4)


@pytest.mark.parametrize("kernel", list(_residual_cases()))
def test_streamed_residuals_equal_the_tensor(kernel):
    spec = eigenvalues(kernel)
    tensor = spectral_polynomials(kernel, spec)
    streamed = polynomial_residuals(kernel, spec)
    assert streamed.nonneg == tensor.nonneg
    assert streamed.cayley_residual == tensor.cayley_residual
    assert streamed.rowsum_residual == tensor.rowsum_residual


def test_streamed_residuals_memory_is_quadratic():
    kernel = TransitionKernel(random_reversible_absorbing_kernel(np.random.default_rng(0), 300))
    spec = eigenvalues(kernel)
    tracemalloc.start()
    try:
        res = polynomial_residuals(kernel, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.nonneg and res.rowsum_residual < 1e-12
    # the (n, n, n) tensor of Q_0..Q_d alone would take 8 n^3 bytes = 216 MB
    assert peak < 16e6


class TestClassifySpectrum:
    """The ``spectrum`` command's route diagnosis, read off the spectrum and the Q_k."""

    @staticmethod
    def spectrum_class(matrix, chain_file, capsys) -> dict:
        assert main(["spectrum", chain_file(matrix)]) == 0
        return json.loads(capsys.readouterr().out)["spectrum_class"]

    def test_bd3_closed_form(self, chain_file, capsys):
        cls = self.spectrum_class(BD3_MATRIX, chain_file, capsys)
        assert cls["real_nonneg"] and cls["polys_nonneg"]
        assert cls["diagnosis"] == "real nonnegative spectrum with nonnegative spectral polynomials"

    def test_complex_goes_numeric(self, chain_file, capsys):
        cls = self.spectrum_class(COMPLEX4, chain_file, capsys)
        assert not cls["real_nonneg"]
        assert "complex" in cls["diagnosis"]

    def test_negative_goes_numeric(self, chain_file, capsys):
        # the transient block [[0, 1], [1/2, 0]] has eigenvalues -+ 1/sqrt(2)
        cls = self.spectrum_class([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]],
                                  chain_file, capsys)
        assert not cls["real_nonneg"]
        assert cls["diagnosis"] == "negative real eigenvalues present; numeric-CDF route"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 8))
def test_skipfree_polynomial_invariants(seed, n):
    k = TransitionKernel(random_skipfree_kernel(np.random.default_rng(seed), n))
    cls = classify_kernel(k)
    spec = eigenvalues(k, cls)
    polys = spectral_polynomials(k, spec)
    assert polys.cayley_residual < 1e-9 * n
    assert polys.rowsum_residual < 1e-9 * n


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 8))
def test_reversible_lazy_spectrum_nonneg(seed, n):
    k = TransitionKernel(random_reversible_absorbing_kernel(np.random.default_rng(seed), n))
    cls = classify_kernel(k)
    spec = eigenvalues(k, cls)
    assert spec.all_nonneg_real


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 8))
def test_lazy_ergodic_birth_death_spectrum(seed, n):
    k = TransitionKernel(random_ergodic_birth_death(np.random.default_rng(seed), n))
    cls = classify_kernel(k)
    spec = eigenvalues(k, cls)
    assert spec.all_nonneg_real
    assert spec.values[-1] == 1.0
    assert np.all(np.diff(spec.values.real) >= -1e-15)


@pytest.mark.parametrize("seed", [0, 1])
def test_large_ergodic_birth_death_takes_the_top_value_as_unit(seed):
    # the second eigenvalue is within 3e-10 (seed 0) and 3e-13 (seed 1) of
    # the unit one, inside the TOL_EIG window
    k = TransitionKernel(random_ergodic_birth_death(np.random.default_rng(seed), 1000))
    spec = eigenvalues(k)
    assert spec.method == "tridiagonal"
    sym = np.sqrt(k.matrix * k.matrix.T)
    np.fill_diagonal(sym, np.diagonal(k.matrix))
    reference = np.linalg.eigvalsh(sym)
    assert abs(reference[-1] - 1.0) <= TOL_EIG
    assert spec.values[-1] == 1.0
    assert np.array_equal(spec.nonunit, reference[:-1])
