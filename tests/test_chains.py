"""Kernel/generator validation, classification, and the independent oracles."""

from __future__ import annotations

import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdual import (
    Analysis,
    NonStochastic,
    NotErgodic,
    PreconditionError,
    RateGenerator,
    SingularSystem,
    TargetNotAccessible,
    ThetaTooSmall,
    TransitionKernel,
    ValidationError,
    classify_generator,
    classify_kernel,
    ctmc_cdf_oracle,
    mean_absorption_ctmc_oracle,
    mean_absorption_oracle,
    power_cdf_oracle,
    separation,
    sst_law,
    stationary_law,
    uniformize,
)
from ssdual.cli import main
from ssdual.chains import ChainClass, _classify_support, as_initial, require_absorbing
from ssdual.families import (
    random_birth_death_kernel,
    random_ergodic_birth_death,
    random_skipfree_kernel,
)

from conftest import BD3_MATRIX, ERG3_MATRIX, GEN3_MATRIX, stiff_birth_death_generator


class TestTransitionKernel:
    def test_rows_renormalized_within_tolerance(self):
        mat = np.array(BD3_MATRIX)
        mat[0, 0] += 1e-13
        k = TransitionKernel(mat)
        assert k.matrix.sum(axis=1) == pytest.approx([1.0, 1.0, 1.0], abs=0)

    def test_rejects_row_sum_off(self):
        with pytest.raises(NonStochastic, match="row 0"):
            TransitionKernel(np.array([[0.5, 0.6], [0.0, 1.0]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(NonStochastic):
            TransitionKernel(np.array([[1.1, -0.1], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            TransitionKernel(np.array([[1.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(NonStochastic):
            TransitionKernel(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_matrix_is_write_locked(self, bd3):
        with pytest.raises(ValueError):
            bd3.matrix[0, 0] = 0.0


class TestRateGenerator:
    def test_diagonal_rebalanced(self):
        g = RateGenerator(np.array([[-2.0, 2.0], [0.0, 0.0]]))
        assert g.matrix.sum(axis=1) == pytest.approx([0.0, 0.0], abs=0)

    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(NonStochastic):
            RateGenerator(np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_rejects_nonzero_row_sum(self):
        with pytest.raises(NonStochastic):
            RateGenerator(np.array([[-1.0, 2.0], [0.0, 0.0]]))


class TestClassification:
    def test_bd3_flags(self, bd3):
        cls = classify_kernel(bd3)
        assert cls.skip_free_up and cls.birth_death
        assert cls.target_absorbing and cls.target_accessible
        assert cls.superdiag_positive and not cls.ergodic

    def test_gen3_not_skip_free(self, gen3):
        cls = classify_kernel(gen3)
        assert not cls.skip_free_up and cls.target_absorbing

    def test_erg3_ergodic(self, erg3):
        cls = classify_kernel(erg3)
        assert cls.ergodic and cls.birth_death and not cls.target_absorbing

    def test_periodic_chain_not_ergodic(self):
        k = TransitionKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not classify_kernel(k).ergodic

    def test_validate_rejects_inaccessible_target(self, chain_file):
        assert not classify_kernel(TransitionKernel(np.eye(2))).target_accessible
        m = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(TargetNotAccessible):
            Analysis(TransitionKernel(m)).absorption_law()
        assert main(["validate", chain_file(np.eye(2))]) == 2

    def test_require_absorbing(self, erg3, bd3):
        require_absorbing(bd3)
        with pytest.raises(PreconditionError):
            require_absorbing(erg3)


class TestInitialLaw:
    def test_delta_and_coercion(self):
        assert as_initial(None, 3) == pytest.approx([1.0, 0.0, 0.0], abs=0)
        assert as_initial([0.5, 0.5, 0.0], 3) == pytest.approx([0.5, 0.5, 0.0])

    def test_rejects_bad_mass(self):
        with pytest.raises(ValidationError, match="sums to"):
            as_initial(np.array([0.5, 0.6]), 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            as_initial([1.0, 0.0], 3)


class TestStationary:
    def test_erg3_stationary(self, erg3):
        pi = stationary_law(erg3)
        assert pi == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)

    def test_not_ergodic_raises(self, bd3):
        with pytest.raises(NotErgodic):
            stationary_law(bd3)

    def test_every_entry_keeps_relative_accuracy(self):
        # pi spans eleven orders of magnitude; detailed balance gives it exactly
        mat = random_ergodic_birth_death(np.random.default_rng(0), 200)
        ratios = np.diagonal(mat, 1) / np.diagonal(mat, -1)
        exact = np.concatenate([[1.0], np.cumprod(ratios)])
        exact /= exact.sum()
        assert exact.min() < 1e-11
        pi = stationary_law(TransitionKernel(mat))
        assert np.abs(pi / exact - 1.0).max() <= 1e-13

    def test_sst_law_on_a_wide_stationary_law(self):
        kernel = TransitionKernel(random_ergodic_birth_death(np.random.default_rng(0), 200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = sst_law(kernel)
            profile = separation(kernel, t_max=20_000)
        ts = np.arange(20_001)
        assert np.abs(law.cdf(ts) - (1.0 - profile.s)).max() <= 1e-10


class TestOracles:
    def test_power_cdf_bd3_spot_values(self, bd3):
        cdf = power_cdf_oracle(bd3, None, 3)
        assert cdf[0] == 0.0 and cdf[1] == 0.0
        assert cdf[2] == pytest.approx(0.125, abs=1e-16)
        assert cdf[3] == pytest.approx(0.25, abs=1e-15)

    def test_power_cdf_respects_initial(self, bd3):
        cdf = power_cdf_oracle(bd3, [0.0, 1.0, 0.0], 1)
        assert cdf[1] == pytest.approx(0.25, abs=0)

    def test_mean_bd3(self, bd3):
        assert mean_absorption_oracle(bd3) == pytest.approx(8.0, abs=1e-12)

    def test_mean_matches_cdf_tail_sum(self, gen3):
        mean = mean_absorption_oracle(gen3)
        cdf = power_cdf_oracle(gen3, None, 2000)
        assert mean == pytest.approx(np.sum(1.0 - cdf), abs=1e-9)

    def test_ctmc_mean_rates_2_1(self, ct21):
        assert mean_absorption_ctmc_oracle(ct21) == pytest.approx(1.5, abs=1e-12)

    def test_mean_needs_every_state_to_reach_the_target(self):
        for m in ([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]],
                  [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]):
            with pytest.raises(SingularSystem):
                mean_absorption_oracle(TransitionKernel(np.array(m)))

    @pytest.mark.parametrize("n", [40, 60, 70])
    def test_slow_skipfree_mean_to_relative_accuracy(self, n):
        # means of 4e8, 5e13 and 4e16 steps; a fundamental-matrix solve that
        # takes 1 - p(i, i) for the diagonal is off by 1e-8, 2e-3 and 4 relative
        kernel = TransitionKernel(random_skipfree_kernel(np.random.default_rng(0), n))
        exact = _mpmath_mean(kernel.matrix)
        assert abs(mean_absorption_oracle(kernel) - exact) <= 1e-12 * exact

    def test_stiff_generator_mean_to_relative_accuracy(self):
        gen = RateGenerator(stiff_birth_death_generator(8, -4.0, 2.0))
        m0 = np.full(8, 1.0 / 8.0)
        exact = _mpmath_mean(gen.matrix, m0)
        assert abs(mean_absorption_ctmc_oracle(gen, m0) - exact) <= 1e-12 * exact

    def test_ctmc_cdf_closed_form(self, ct21):
        ts = np.linspace(0.0, 8.0, 33)
        closed = 1.0 - 2.0 * np.exp(-ts) + np.exp(-2.0 * ts)
        assert np.abs(ctmc_cdf_oracle(ct21, None, ts) - closed).max() < 1e-12

    def test_ctmc_cdf_scalar_input(self, ct21):
        out = ctmc_cdf_oracle(ct21, None, 1.0)
        assert isinstance(out, float)


def _mpmath_mean(matrix: np.ndarray, m0=None) -> float:
    """m0' x for (D - O) x = 1 at 80 digits: O the transient block's off-diagonal
    entries, D each row's off-diagonal sum (target column included)."""
    mpmath = pytest.importorskip("mpmath")
    d = len(matrix) - 1
    with mpmath.workdps(80):
        a = mpmath.matrix(d, d)
        for i in range(d):
            for j in range(d):
                a[i, j] = -mpmath.mpf(matrix[i, j]) if i != j else mpmath.fsum(
                    mpmath.mpf(matrix[i, k]) for k in range(d + 1) if k != i)
        x = mpmath.lu_solve(a, mpmath.matrix([1] * d))
        weights = [1.0] + [0.0] * (d - 1) if m0 is None else m0
        return float(mpmath.fsum(mpmath.mpf(w) * x[i] for i, w in enumerate(weights[:d])))


class TestUniformize:
    def test_auto_rate_has_margin(self, ct21):
        kernel, rate = uniformize(ct21)
        assert rate == pytest.approx(2.0 * 1.05)
        # P = I + G / rate
        expected = np.eye(3) + ct21.matrix / rate
        assert np.abs(kernel.matrix - expected).max() < 1e-15

    def test_explicit_rate_too_small(self, ct21):
        with pytest.raises(ThetaTooSmall):
            uniformize(ct21, theta=1.5)

    def test_validate_generator_accessibility(self, chain_file):
        assert not classify_generator(RateGenerator(np.zeros((2, 2)))).target_accessible
        g = np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(TargetNotAccessible):
            Analysis(RateGenerator(g)).absorption_law()
        assert main(["validate", chain_file(np.zeros((2, 2)), mode="continuous")]) == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 8))
def test_random_skipfree_classifies_as_skipfree(seed, n):
    cls = classify_kernel(TransitionKernel(random_skipfree_kernel(np.random.default_rng(seed), n)))
    assert cls.skip_free_up and cls.superdiag_positive and cls.target_absorbing
    assert cls.target_accessible


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 8))
def test_random_birth_death_is_birth_death(seed, n):
    kernel = TransitionKernel(random_birth_death_kernel(np.random.default_rng(seed), n))
    cls = classify_kernel(kernel)
    assert cls.birth_death and cls.target_accessible


def _bfs_reached(support: np.ndarray, start: int) -> list[bool]:
    """Plain per-node breadth-first search over the rows of ``support``."""
    n = len(support)
    reached = [False] * n
    reached[start] = True
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in range(n):
            if support[u, v] and not reached[v]:
                reached[v] = True
                queue.append(v)
    return reached


def _reference_class(support: np.ndarray, aperiodicity_matters: bool) -> ChainClass:
    n = len(support)
    d = n - 1
    skip_free_up = not any(support[i, j] for i in range(n) for j in range(i + 2, n))
    down_skip = any(support[i, j] for j in range(n) for i in range(j + 2, n))
    irreducible = all(_bfs_reached(support, 0)) and all(_bfs_reached(support.T, 0))
    # Wielandt: an irreducible digraph is aperiodic iff its adjacency matrix to
    # the power (n - 1)^2 + 1 is positive everywhere
    walk = np.eye(n, dtype=bool)
    for _ in range((n - 1) ** 2 + 1):
        walk = (walk.astype(int) @ support.astype(int)) > 0
    return ChainClass(
        skip_free_up=skip_free_up,
        birth_death=skip_free_up and not down_skip,
        target_absorbing=not any(support[d, :d]),
        target_accessible=all(_bfs_reached(support.T, d)),
        ergodic=irreducible and (bool(walk.all()) if aperiodicity_matters else True),
        superdiag_positive=all(support[i, i + 1] for i in range(d)),
    )


def _random_supports():
    rng = np.random.default_rng(20)
    yield np.array([[False, True], [True, False]])  # 2-cycle
    yield np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], dtype=bool)  # bipartite
    yield np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool)  # 3-cycle
    yield np.array([[True]])
    for _ in range(400):
        n = int(rng.integers(2, 10))
        support = rng.random((n, n)) < rng.choice([0.15, 0.3, 0.5, 0.8])
        kind = rng.integers(4)
        if kind == 0:  # no self-loops: periodic whenever all cycles share a factor
            np.fill_diagonal(support, False)
        elif kind == 1:  # bipartite: even states move to odd ones and back
            parity = np.arange(n) % 2
            support &= parity[:, None] != parity[None, :]
        elif kind == 2:  # absorbing target, often unreachable from some state
            support[-1] = False
            support[-1, -1] = True
            support[:, -1] &= rng.random(n) < 0.3
        yield support


@pytest.mark.parametrize("aperiodicity_matters", [True, False])
def test_classify_support_matches_per_node_reference(aperiodicity_matters):
    flags = set()
    for support in _random_supports():
        expected = _reference_class(support, aperiodicity_matters)
        assert _classify_support(support, aperiodicity_matters) == expected, support.astype(int)
        flags.add((expected.ergodic, expected.target_accessible))
    # the sample covers ergodic and non-ergodic chains, reachable and unreachable targets
    assert {e for e, _ in flags} == {True, False}
    assert {a for _, a in flags} == {True, False}
