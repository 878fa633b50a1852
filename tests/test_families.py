"""The random factories must actually produce what their names promise."""

from __future__ import annotations

import numpy as np

from ssdual import RateGenerator, TransitionKernel, classify_generator, classify_kernel
from ssdual.families import (
    random_birth_death_generator,
    random_birth_death_kernel,
    random_ergodic_birth_death,
    random_initial_law,
    random_reversible_absorbing_kernel,
    random_skipfree_generator,
    random_skipfree_kernel,
    random_upper_triangular_kernel,
)


def test_skipfree_kernels_classify():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        cls = classify_kernel(TransitionKernel(random_skipfree_kernel(rng, n)))
        assert cls.skip_free_up and cls.target_absorbing and cls.target_accessible


def test_birth_death_lazy_holds():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        m = random_birth_death_kernel(rng, n, lazy=True)
        assert np.all(np.diag(m)[:-1] >= 0.5)
        cls = classify_kernel(TransitionKernel(m))
        assert cls.birth_death and cls.target_absorbing and cls.target_accessible


def test_reversible_family_is_lazy_and_symmetric_up_to_row_scale():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        m = random_reversible_absorbing_kernel(rng, n)
        assert classify_kernel(TransitionKernel(m)).target_accessible
        assert np.all(np.diag(m)[:-1] >= 0.5)
        # detailed balance: row scales s_i recover a symmetric weight matrix
        block = m[:-1, :-1] - 0.5 * np.eye(n - 1)
        s = block[0, :] / block[:, 0]
        weighted = block / s[None, :]
        assert np.allclose(weighted, weighted.T, atol=1e-12)


def test_upper_triangular_never_moves_down():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        m = random_upper_triangular_kernel(rng, n)
        assert classify_kernel(TransitionKernel(m)).target_accessible
        assert np.allclose(np.tril(m, -1), 0.0)


def test_ergodic_family_is_ergodic():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        m = random_ergodic_birth_death(rng, n)
        cls = classify_kernel(TransitionKernel(m))
        assert cls.ergodic and cls.birth_death and cls.target_accessible
        assert np.all(np.diag(m) >= 0.5)


def test_generators_validate():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        cls = classify_generator(RateGenerator(random_skipfree_generator(rng, n)))
        assert cls.skip_free_up and cls.target_accessible
        gen = RateGenerator(random_birth_death_generator(rng, n))
        assert classify_generator(gen).target_accessible


def test_initial_law_normalized():
    rng = np.random.default_rng(6)
    m0 = random_initial_law(rng, 7)
    assert abs(m0.sum() - 1.0) < 1e-12
    assert np.all(m0 > 0)
