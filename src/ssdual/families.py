"""Random chain generators for sweeps and property tests.

Each factory returns a raw matrix (validate with the chains module).  The
constructions keep the relevant structure exact: strictly positive upward
steps for skip-free families, symmetric weight matrices with slack for the
reversible family (laziness then forces a nonnegative spectrum), and diagonal
dominance for the ergodic birth-death family.
"""

from __future__ import annotations

import numpy as np


def random_skipfree_kernel(rng: np.random.Generator, n: int) -> np.ndarray:
    """Absorbing skip-free kernel: upward steps of one, arbitrary drops."""
    mat = np.zeros((n, n))
    for i in range(n - 1):
        up = rng.uniform(0.25, 0.85)
        mat[i, i + 1] = up
        low = rng.random(i + 1)
        mat[i, : i + 1] = (1.0 - up) * low / low.sum()
    mat[n - 1, n - 1] = 1.0
    return mat


def random_birth_death_kernel(rng: np.random.Generator, n: int, lazy: bool = False) -> np.ndarray:
    """Absorbing birth-death kernel with strictly positive up and down steps."""
    mat = np.zeros((n, n))
    for i in range(n - 1):
        up = rng.uniform(0.2, 0.6)
        down = rng.uniform(0.05, 1.0 - up - 0.05) if i > 0 else 0.0
        mat[i, i + 1] = up
        if i > 0:
            mat[i, i - 1] = down
        mat[i, i] = 1.0 - up - down
    mat[n - 1, n - 1] = 1.0
    if lazy:
        mat = 0.5 * (np.eye(n) + mat)
    return mat


def random_reversible_absorbing_kernel(rng: np.random.Generator, n: int) -> np.ndarray:
    """Absorbing kernel whose transient block satisfies detailed balance.

    Built from a symmetric positive weight matrix with per-row slack routed to
    the target, then made lazy so the spectrum is real and nonnegative.
    """
    m = n - 1
    w = rng.uniform(0.1, 1.0, size=(m, m))
    w = 0.5 * (w + w.T)
    mat = np.zeros((n, n))
    for i in range(m):
        slack = rng.uniform(0.05, 0.4)
        s = w[i].sum() * (1.0 + slack)
        mat[i, :m] = w[i] / s
        mat[i, n - 1] = 1.0 - w[i].sum() / s
    mat[n - 1, n - 1] = 1.0
    return 0.5 * (np.eye(n) + mat)


def random_upper_triangular_kernel(rng: np.random.Generator, n: int) -> np.ndarray:
    """Absorbing kernel that never moves down; spectrum is its diagonal."""
    mat = np.zeros((n, n))
    for i in range(n - 1):
        hold = rng.uniform(0.05, 0.85)
        mat[i, i] = hold
        upward = rng.random(n - 1 - i)
        mat[i, i + 1 :] = (1.0 - hold) * upward / upward.sum()
    mat[n - 1, n - 1] = 1.0
    return mat


def random_ergodic_birth_death(rng: np.random.Generator, n: int) -> np.ndarray:
    """Ergodic birth-death kernel with every holding probability >= 1/2."""
    mat = np.zeros((n, n))
    for i in range(n):
        move = rng.uniform(0.1, 0.5)
        if i == 0:
            mat[i, i + 1] = move
        elif i == n - 1:
            mat[i, i - 1] = move
        else:
            split = rng.uniform(0.2, 0.8)
            mat[i, i + 1] = move * split
            mat[i, i - 1] = move * (1.0 - split)
        mat[i, i] = 1.0 - mat[i].sum()
    return mat


def random_skipfree_generator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Absorbing skip-free rate matrix with strictly positive upward rates.

    The drops out of level i sum to about i U(0.1, 1) / 2 against one upward
    rate U(0.3, 2), so the hitting time of the top grows geometrically with
    n.  From about n = 25 the slowest mode rounds to the unit eigenvalue,
    and ``hypoexp_law`` raises ``NumericalBreakdown`` (seeds 0-3, started
    from ``random_initial_law`` of the same seed).  For larger continuous
    chains, bound the drops.
    """
    gen = np.zeros((n, n))
    for i in range(n - 1):
        gen[i, i + 1] = rng.uniform(0.3, 2.0)
        if i > 0:
            drops = rng.random(i) * rng.uniform(0.1, 1.0)
            gen[i, :i] = drops
        gen[i, i] = -gen[i].sum()
    return gen


def random_birth_death_generator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Absorbing birth-death rate matrix."""
    gen = np.zeros((n, n))
    for i in range(n - 1):
        gen[i, i + 1] = rng.uniform(0.3, 2.0)
        if i > 0:
            gen[i, i - 1] = rng.uniform(0.1, 1.5)
        gen[i, i] = -gen[i].sum()
    return gen


def random_initial_law(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive initial law."""
    raw = rng.random(n) + 0.05
    return raw / raw.sum()
