"""Seeded chain generators for the benchmark's workloads.

The benchmark builds its own inputs so that the program under test receives
only matrices.  Every family keeps its time scale in a narrow band (upward
drift, slack routed to the target, or an explicit rescaling of the mean), so
the work behind a request hardly changes from one seed to the next.
"""

from __future__ import annotations

import numpy as np


def birth_death(rng: np.random.Generator, n: int, lazy: bool) -> np.ndarray:
    """Absorbing birth-death kernel with upward drift.

    Without laziness the holding probabilities can be small, so the spectrum
    can carry negative eigenvalues; with it the spectrum is nonnegative.
    """
    mat = np.zeros((n, n))
    for i in range(n - 1):
        up = rng.uniform(0.3, 0.6)
        down = rng.uniform(0.05, 0.3) if i > 0 else 0.0
        mat[i, i + 1] = up
        if i > 0:
            mat[i, i - 1] = down
        mat[i, i] = 1.0 - up - down
    mat[n - 1, n - 1] = 1.0
    return 0.5 * (np.eye(n) + mat) if lazy else mat


def reversible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Lazy absorbing kernel whose transient block satisfies detailed balance.

    A symmetric weight matrix with per-row slack routed to the target keeps
    the mean absorption time near ten steps at every size.
    """
    m = n - 1
    w = rng.uniform(0.1, 1.0, size=(m, m))
    w = 0.5 * (w + w.T)
    mat = np.zeros((n, n))
    for i in range(m):
        s = w[i].sum() * (1.0 + rng.uniform(0.05, 0.4))
        mat[i, :m] = w[i] / s
        mat[i, n - 1] = 1.0 - w[i].sum() / s
    mat[n - 1, n - 1] = 1.0
    return 0.5 * (np.eye(n) + mat)


def skip_free(rng: np.random.Generator, n: int) -> np.ndarray:
    """Absorbing skip-free kernel: one step up, drops of up to three levels."""
    mat = np.zeros((n, n))
    for i in range(n - 1):
        up = rng.uniform(0.3, 0.6)
        drop = rng.uniform(0.05, 0.2) if i > 0 else 0.0
        mat[i, i + 1] = up
        if i > 0:
            low = max(0, i - 3)
            spread = rng.random(i - low)
            mat[i, low:i] = drop * spread / spread.sum()
        mat[i, i] = 1.0 - up - drop
    mat[n - 1, n - 1] = 1.0
    return mat


def upper_triangular(rng: np.random.Generator, n: int) -> np.ndarray:
    """Absorbing kernel that never moves down; its spectrum is its diagonal."""
    mat = np.zeros((n, n))
    for i in range(n - 1):
        hold = rng.uniform(0.05, 0.85)
        upward = rng.random(n - 1 - i)
        mat[i, i] = hold
        mat[i, i + 1:] = (1.0 - hold) * upward / upward.sum()
    mat[n - 1, n - 1] = 1.0
    return mat


def ergodic_birth_death(rng: np.random.Generator, n: int) -> np.ndarray:
    """Ergodic birth-death kernel with holding probabilities of at least 1/2."""
    mat = np.zeros((n, n))
    for i in range(n):
        move = rng.uniform(0.1, 0.5)
        split = 1.0 if i == 0 else 0.0 if i == n - 1 else rng.uniform(0.3, 0.8)
        if i + 1 < n:
            mat[i, i + 1] = move * split
        if i > 0:
            mat[i, i - 1] = move * (1.0 - split)
        mat[i, i] = 1.0 - mat[i].sum()
    return mat


def birth_death_generator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Absorbing birth-death rate matrix with upward drift."""
    gen = np.zeros((n, n))
    for i in range(n - 1):
        gen[i, i + 1] = rng.uniform(0.5, 2.0)
        if i > 0:
            gen[i, i - 1] = rng.uniform(0.1, 0.4)
        gen[i, i] = -gen[i].sum()
    return gen


def skip_free_generator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Absorbing skip-free rate matrix: one step up, bounded drops."""
    gen = np.zeros((n, n))
    for i in range(n - 1):
        gen[i, i + 1] = rng.uniform(0.5, 2.0)
        if i > 0:
            gen[i, :i] = rng.random(i) * rng.uniform(0.05, 0.3) / i
        gen[i, i] = -gen[i].sum()
    return gen


def initial_law(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive initial law."""
    raw = rng.random(n) + 0.05
    return raw / raw.sum()


def slow_down(mat: np.ndarray, factor: float) -> np.ndarray:
    """Kernel I + (P - I) / factor: the same chain, every hitting time scaled by factor."""
    if factor < 1.0:
        raise ValueError(f"slowing factor {factor!r} below 1 would not give a kernel")
    n = mat.shape[0]
    return np.eye(n) + (mat - np.eye(n)) / factor
