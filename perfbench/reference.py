"""Independent references for every output the benchmark times.

Nothing here calls ssdual: hitting-time laws come from matrix powering and
fundamental-matrix solves, continuous laws from ``scipy.linalg.expm``, and
strong stationary times from the benchmark's own stationary vector and
separation profile.  The tolerances are tight enough that a law rebuilt with
one eigenvalue shifted by 1e-6 fails them (``test_perfbench.py`` shows it).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

#: absolute tolerance on CDF values, separation-based CDFs included
CDF_ATOL = 1e-10
#: relative tolerance on exact means
MEAN_RTOL = 1e-10
#: width of the band, in standard errors, that an empirical mean must fall in
MEAN_BAND_SIGMAS = 8.0

#: powering block: survival values are produced this many steps at a time
_BLOCK = 256


def _transient(mat: np.ndarray, m0: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Transient block (all states but the last) and the initial mass on it."""
    d = mat.shape[0] - 1
    start = np.zeros(d + 1)
    start[0] = 1.0
    if m0 is not None:
        start = np.asarray(m0, dtype=float)
    return mat[:d, :d], start[:d]


def discrete_moments(mat, m0=None) -> tuple[float, float]:
    """Mean and variance of the hitting time of the last state (fundamental matrix)."""
    q, v = _transient(mat, m0)
    a = np.eye(len(q)) - q
    t1 = np.linalg.solve(a, np.ones(len(q)))
    t2 = np.linalg.solve(a, t1)
    mean = float(v @ t1)
    second = float(2.0 * (v @ t2) - mean)
    return mean, second - mean * mean


def continuous_moments(gen, m0=None) -> tuple[float, float]:
    """Mean and variance of the absorption time of a CTMC (solves with -G')."""
    q, v = _transient(gen, m0)
    a = -q
    t1 = np.linalg.solve(a, np.ones(len(q)))
    t2 = np.linalg.solve(a, t1)
    mean = float(v @ t1)
    return mean, float(2.0 * (v @ t2)) - mean * mean


def discrete_cdf(mat, m0, t_max: int) -> np.ndarray:
    """F(0..t_max) of the hitting time, by powering the transient block.

    The survival m0' Q^t 1 is produced a block of steps at a time:
    S[b + j] = (m0' Q^b) (Q^j 1) for j < _BLOCK, then m0' Q^b advances by
    Q^_BLOCK.  Every step of the horizon is evaluated, not only its head.
    """
    q, v = _transient(mat, m0)
    cols = np.empty((len(q), _BLOCK))
    col = np.ones(len(q))
    for j in range(_BLOCK):
        cols[:, j] = col
        col = q @ col
    jump = np.linalg.matrix_power(q, _BLOCK)
    blocks = []
    for _ in range(t_max // _BLOCK + 1):
        blocks.append(v @ cols)
        v = v @ jump
    return 1.0 - np.concatenate(blocks)[: t_max + 1]


def continuous_cdf(gen, m0, times) -> np.ndarray:
    """F(t) of the absorption time of a CTMC, one matrix exponential per time."""
    q, v = _transient(gen, m0)
    ones = np.ones(len(q))
    return np.array([1.0 - v @ expm(q * float(t)) @ ones for t in np.atleast_1d(times)])


def stationary(mat) -> np.ndarray:
    """Stationary law: the null vector of (P - I)' from an SVD."""
    _, _, vt = np.linalg.svd(mat.T - np.eye(mat.shape[0]))
    pi = np.abs(vt[-1])
    return pi / pi.sum()


def separation(mat, m0, pi, t_max: int) -> np.ndarray:
    """s(t) = 1 - min_x (m0 P^t)(x) / pi(x) for t = 0..t_max."""
    v = np.zeros(mat.shape[0])
    v[0] = 1.0
    if m0 is not None:
        v = np.asarray(m0, dtype=float).copy()
    out = np.empty(t_max + 1)
    for t in range(t_max + 1):
        out[t] = 1.0 - (v / pi).min()
        v = v @ mat
    return out


def sst_mean(mat, m0, pi, tail: float = 1e-11, max_steps: int = 10**6) -> float:
    """E[T] of the fastest strong stationary time: the sum of s(t) over t >= 0.

    The sum stops once s(t) < tail, before rounding flattens the profile, and
    adds the geometric remainder at the last observed decay rate.
    """
    v = np.zeros(mat.shape[0])
    v[0] = 1.0
    if m0 is not None:
        v = np.asarray(m0, dtype=float).copy()
    total, prev = 0.0, 1.0
    for _ in range(max_steps):
        s = 1.0 - (v / pi).min()
        total += s
        if s < tail:
            ratio = s / prev
            return total + s * ratio / (1.0 - ratio)
        prev = s
        v = v @ mat
    raise RuntimeError(f"separation stayed above {tail} for {max_steps} steps")


def eigenvalues(mat) -> np.ndarray:
    """Eigenvalues of the transient block plus the unit one, sorted by (real, imag)."""
    vals = np.append(np.linalg.eigvals(mat[:-1, :-1]), 1.0)
    return vals[np.lexsort((vals.imag, vals.real))]


# -- checks ---------------------------------------------------------------


def cdf_deviation(values, expected) -> float:
    """Largest absolute deviation between two CDF series."""
    return float(np.abs(np.asarray(values, dtype=float) - np.asarray(expected, dtype=float)).max())


def mean_ok(value: float, expected: float) -> bool:
    return abs(value - expected) <= MEAN_RTOL * abs(expected)


def cdf_ok(values, expected) -> bool:
    return cdf_deviation(values, expected) <= CDF_ATOL


def quantile_ok(q: int, level: float, cdf: np.ndarray) -> bool:
    """q is the smallest t with F(t) >= level, on the reference CDF."""
    return bool(0 <= q < len(cdf) and cdf[q] >= level - CDF_ATOL
                and (q == 0 or cdf[q - 1] < level + CDF_ATOL))


def band_ok(empirical: float, mean: float, var: float, samples: int) -> bool:
    """The empirical mean lies within MEAN_BAND_SIGMAS standard errors of the mean."""
    return abs(empirical - mean) <= MEAN_BAND_SIGMAS * np.sqrt(var / samples)
