"""Validated chain representations, structure classification, and oracles.

The library works with chains on states 0..d whose distinguished target state
is always the last index d (callers relabel first; the CLI does this for chain
files).  Two input types are supported: row-stochastic transition kernels
(discrete time) and conservative rate generators (continuous time).  Both are
validated on construction and are immutable afterwards.

The oracles in this module deliberately avoid the spectral machinery of the
rest of the library: matrix powering, fundamental-matrix solves and a
uniformization series with its own rate.  They are the independent reference
implementations that the exact laws are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL_ROW, TOL_SERIES, UNIFORMIZATION_MARGIN
from .errors import (
    NonStochastic,
    NotErgodic,
    PreconditionError,
    SingularSystem,
    TargetNotAccessible,
    ThetaTooSmall,
    ValidationError,
)

__all__ = [
    "ChainClass",
    "TransitionKernel",
    "RateGenerator",
    "InitialLaw",
    "classify_kernel",
    "classify_generator",
    "validate_kernel",
    "validate_generator",
    "stationary_law",
    "power_cdf_oracle",
    "mean_absorption_oracle",
    "mean_absorption_ctmc_oracle",
    "uniformize",
    "ctmc_cdf_oracle",
]


@dataclass(frozen=True, slots=True)
class ChainClass:
    """Structural classification of a chain relative to its target state.

    Attributes
    ----------
    skip_free_up : bool
        Upward moves only to the next state (p(i, j) = 0 for j > i + 1).
    birth_death : bool
        Skip-free in both directions.
    target_absorbing : bool
        The target row is the point mass at the target.
    target_accessible : bool
        The target can be reached from every state.
    ergodic : bool
        Irreducible and (in discrete time) aperiodic.
    superdiag_positive : bool
        Every upward step p(i, i + 1), i < d, is strictly positive.
    """

    skip_free_up: bool
    birth_death: bool
    target_absorbing: bool
    target_accessible: bool
    ergodic: bool
    superdiag_positive: bool


def _clean_rows(matrix: np.ndarray, kind: str) -> np.ndarray:
    """Validate entry ranges and renormalize rows of a stochastic matrix."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"{kind} must be a square matrix, got shape {matrix.shape}")
    n = matrix.shape[0]
    if n < 2:
        raise ValidationError(f"{kind} needs at least two states")
    if not np.all(np.isfinite(matrix)):
        raise NonStochastic(f"{kind} has non-finite entries")
    if matrix.min() < -TOL_ROW or matrix.max() > 1.0 + TOL_ROW:
        raise NonStochastic(f"{kind} entries outside [0, 1] beyond tolerance")
    out = np.clip(matrix, 0.0, None)
    sums = out.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > TOL_ROW:
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise NonStochastic(f"{kind} row {worst} sums to {float(sums[worst])!r}, not 1")
    out /= sums[:, None]
    return out


@dataclass(frozen=True, slots=True)
class TransitionKernel:
    """A validated row-stochastic matrix with target state d = n - 1.

    Rows are renormalized if (and only if) they are within ``TOL_ROW`` of
    stochastic; anything further off is rejected.  The stored matrix is
    write-locked.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _clean_rows(np.array(self.matrix, dtype=float), "transition kernel")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.n - 1


@dataclass(frozen=True, slots=True)
class RateGenerator:
    """A validated conservative rate matrix with target state d = n - 1.

    Off-diagonal entries must be nonnegative within ``TOL_ROW``; rows must sum
    to zero within ``TOL_ROW`` (relative to the rate scale) and the diagonal is
    rebalanced to make the sums exact.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"rate generator must be square, got shape {mat.shape}")
        n = mat.shape[0]
        if n < 2:
            raise ValidationError("rate generator needs at least two states")
        if not np.all(np.isfinite(mat)):
            raise NonStochastic("rate generator has non-finite entries")
        off = ~np.eye(n, dtype=bool)
        scale = max(1.0, float(np.abs(mat).max()))
        if mat[off].min() < -TOL_ROW * scale:
            raise NonStochastic("rate generator has negative off-diagonal rates")
        mat[off] = np.clip(mat[off], 0.0, None)
        if np.max(np.abs(mat.sum(axis=1))) > TOL_ROW * scale:
            raise NonStochastic("rate generator rows do not sum to zero")
        np.fill_diagonal(mat, 0.0)
        np.fill_diagonal(mat, -mat.sum(axis=1))
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.n - 1


@dataclass(frozen=True, slots=True)
class InitialLaw:
    """A validated initial distribution."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        vec = np.array(self.vector, dtype=float)
        if vec.ndim != 1:
            raise ValidationError("initial law must be a vector")
        if not np.all(np.isfinite(vec)):
            raise NonStochastic("initial law has non-finite entries")
        if vec.min() < -TOL_ROW or vec.max() > 1.0 + TOL_ROW:
            raise NonStochastic("initial law entries outside [0, 1] beyond tolerance")
        vec = np.clip(vec, 0.0, None)
        total = vec.sum()
        if abs(total - 1.0) > TOL_ROW:
            raise NonStochastic(f"initial law sums to {total!r}, not 1")
        vec /= total
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @classmethod
    def delta(cls, n: int, state: int = 0) -> "InitialLaw":
        vec = np.zeros(n)
        vec[state] = 1.0
        return cls(vec)

    @property
    def n(self) -> int:
        return self.vector.shape[0]


def as_initial(m0, n: int) -> np.ndarray:
    """Coerce ``m0`` (None, InitialLaw, or array-like) to a validated vector."""
    if m0 is None:
        return InitialLaw.delta(n).vector
    if isinstance(m0, InitialLaw):
        law = m0
    else:
        law = InitialLaw(np.asarray(m0, dtype=float))
    if law.n != n:
        raise ValidationError(f"initial law has {law.n} states, chain has {n}")
    return law.vector


def _levels(edges: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first distance from ``start`` in the digraph ``edges``, -1 if unreachable.

    A whole frontier is expanded at once: the next frontier is every unseen
    state that some state of the current one has an edge to.
    """
    dist = np.full(edges.shape[0], -1)
    dist[start] = 0
    frontier = [start]
    level = 0
    while len(frontier):
        level += 1
        reach = np.logical_or.reduce(edges[frontier], axis=0)
        reach &= dist < 0
        frontier = reach.nonzero()[0]
        dist[frontier] = level
    return dist


def _is_aperiodic(u: np.ndarray, v: np.ndarray, dist: np.ndarray) -> bool:
    # gcd of (dist[u] + 1 - dist[v]) over all edges u -> v, for a strongly
    # connected support graph with breadth-first levels dist; the graph is
    # aperiodic iff the gcd is 1
    return bool(np.gcd.reduce(dist[u] + 1 - dist[v]) == 1)


def _classify_support(support: np.ndarray, aperiodicity_matters: bool) -> ChainClass:
    n = support.shape[0]
    d = n - 1
    u, v = np.nonzero(support)
    skip_free_up = not (v > u + 1).any()
    birth_death = skip_free_up and not (u > v + 1).any()
    target_absorbing = not support[d, :d].any()
    target_accessible = bool((_levels(support.T, d) >= 0).all())
    # strongly connected iff every state reaches the target and the target
    # reaches every state; an absorbing target ends the second search at once
    dist = _levels(support, d)
    irreducible = target_accessible and bool((dist >= 0).all())
    ergodic = irreducible and (_is_aperiodic(u, v, dist) if aperiodicity_matters else True)
    superdiag_positive = bool(np.diagonal(support, 1).all())
    return ChainClass(
        skip_free_up=skip_free_up,
        birth_death=birth_death,
        target_absorbing=target_absorbing,
        target_accessible=target_accessible,
        ergodic=ergodic,
        superdiag_positive=superdiag_positive,
    )


def classify_kernel(kernel: TransitionKernel) -> ChainClass:
    """Classify a transition kernel's structure relative to the target."""
    support = kernel.matrix > 0.0
    # the self-loop at an absorbing target is not an off-diagonal edge; keep it,
    # reachability treats "stay" edges harmlessly
    return _classify_support(support, aperiodicity_matters=True)


def classify_generator(gen: RateGenerator) -> ChainClass:
    """Classify a rate generator's structure relative to the target."""
    support = gen.matrix > 0.0
    np.fill_diagonal(support, False)
    cls = _classify_support(support, aperiodicity_matters=False)
    # an absorbing target has no outgoing rate, hence no self-loop either;
    # reachability needs target -> target implicitly, which _levels provides
    return cls


def validate_kernel(matrix) -> tuple[TransitionKernel, ChainClass]:
    """Validate a raw matrix as a transition kernel and classify it.

    Parameters
    ----------
    matrix : array-like
        Proposed row-stochastic matrix; its last state is the target.

    Returns
    -------
    (TransitionKernel, ChainClass)

    Raises
    ------
    NonStochastic
        Rows or entries out of tolerance.
    TargetNotAccessible
        Some state cannot reach the target.
    """
    kernel = TransitionKernel(np.asarray(matrix, dtype=float))
    cls = classify_kernel(kernel)
    if not cls.target_accessible:
        raise TargetNotAccessible("target state is not accessible from every state")
    return kernel, cls


def validate_generator(matrix) -> tuple[RateGenerator, ChainClass]:
    """Validate a raw matrix as a rate generator (last state the target) and classify it."""
    gen = RateGenerator(np.asarray(matrix, dtype=float))
    cls = classify_generator(gen)
    if not cls.target_accessible:
        raise TargetNotAccessible("target state is not accessible from every state")
    return gen, cls


def require_absorbing(chain: TransitionKernel | RateGenerator) -> None:
    """Raise unless the target row is absorbing."""
    if (chain.matrix[chain.d, : chain.d] > 0).any():
        raise PreconditionError("operation requires an absorbing target state")


def stationary_law(kernel: TransitionKernel) -> np.ndarray:
    """Stationary distribution of an ergodic kernel.

    Grassmann-Taksar-Heyman elimination: the states are censored out from
    the last to the first, and the probability of leaving state k is taken
    as the sum of its remaining off-diagonal entries, not as 1 - p(k, k).  No
    step subtracts, so every entry of pi keeps its relative accuracy, however
    small it is.  Raises ``NotErgodic`` for reducible or periodic chains.
    """
    cls = classify_kernel(kernel)
    if not cls.ergodic:
        raise NotErgodic("stationary law requires an irreducible aperiodic kernel")
    a = np.array(kernel.matrix)
    for k in range(kernel.n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(kernel.n)
    for k in range(1, kernel.n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def power_cdf_oracle(kernel: TransitionKernel, m0=None, t_max: int = 0) -> np.ndarray:
    """Hitting-time CDF by brute-force matrix powering.

    Returns the array ``F[0..t_max]`` with ``F[t] = (m0 P^t)(d)``.  Requires an
    absorbing target, so that the mass at d is exactly P(T <= t).
    """
    require_absorbing(kernel)
    v = as_initial(m0, kernel.n)
    out = np.empty(t_max + 1)
    out[0] = v[kernel.d]
    for t in range(1, t_max + 1):
        v = v @ kernel.matrix
        out[t] = v[kernel.d]
    return out


def _fundamental_solve(a: np.ndarray, context: str) -> np.ndarray:
    rhs = np.ones(a.shape[0])
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"{context} system is singular") from exc
    resid = np.abs(a @ x - rhs).max()
    if not np.isfinite(resid) or resid > 1e-8 * max(1.0, np.abs(x).max()):
        raise SingularSystem(f"{context} system is numerically singular (residual {resid!r})")
    return x


def mean_absorption_oracle(kernel: TransitionKernel, m0=None) -> float:
    """Expected hitting time via the fundamental matrix.

    Solves (I - P') x = 1 on the non-target states and returns m0' . x; raises
    ``SingularSystem`` when the target is not accessible from the transient
    part (the system is then singular).
    """
    require_absorbing(kernel)
    d = kernel.d
    x = _fundamental_solve(np.eye(d) - kernel.matrix[:d, :d], "fundamental matrix")
    v = as_initial(m0, kernel.n)
    return float(v[:d] @ x)


def mean_absorption_ctmc_oracle(gen: RateGenerator, m0=None) -> float:
    """Expected absorption time of a CTMC: solves (-G') x = 1."""
    require_absorbing(gen)
    d = gen.d
    x = _fundamental_solve(-gen.matrix[:d, :d], "continuous fundamental matrix")
    v = as_initial(m0, gen.n)
    return float(v[:d] @ x)


def uniformize(gen: RateGenerator, theta: float | None = None) -> tuple[TransitionKernel, float]:
    """Discretize a generator: P = I + G / theta.

    Parameters
    ----------
    gen : RateGenerator
    theta : float, optional
        Uniformization rate.  Defaults to max |g_ii| times (1 + margin); must
        be at least max |g_ii|, else ``ThetaTooSmall``.

    Returns
    -------
    (TransitionKernel, float)
        The uniformized kernel and the rate actually used.
    """
    max_rate = float(np.abs(np.diag(gen.matrix)).max())
    if theta is None:
        theta = max_rate * (1.0 + UNIFORMIZATION_MARGIN) if max_rate > 0 else 1.0
    if theta <= 0 or theta < max_rate * (1.0 - 1e-15):
        raise ThetaTooSmall(f"uniformization rate {theta!r} below max diagonal rate {max_rate!r}")
    mat = np.eye(gen.n) + gen.matrix / theta
    return TransitionKernel(mat), float(theta)


#: uniformization margin used by the CTMC oracle; deliberately different from
#: the library default so oracle and law discretize differently
_ORACLE_MARGIN = 0.5


def ctmc_cdf_oracle(gen: RateGenerator, m0, times) -> np.ndarray | float:
    """Absorption-time CDF of a CTMC through an independent uniformization.

    Evaluates the Poisson mixture of the uniformized chain's hitting CDF with
    a truncation tail below ``TOL_SERIES``.  Uses its own uniformization
    margin so that it does not share a discretization with the exact laws.
    """
    from scipy import stats

    require_absorbing(gen)
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if (ts < 0).any():
        raise ValidationError("times must be nonnegative")
    max_rate = float(np.abs(np.diag(gen.matrix)).max())
    theta = max_rate * (1.0 + _ORACLE_MARGIN) if max_rate > 0 else 1.0
    kernel, _ = uniformize(gen, theta)
    mus = theta * ts
    k_max = int(max(stats.poisson.isf(TOL_SERIES, mu) for mu in mus)) if len(ts) else 0
    f_disc = power_cdf_oracle(kernel, m0, k_max)
    out = np.empty(len(ts))
    ks = np.arange(k_max + 1)
    for i, mu in enumerate(mus):
        pmf = stats.poisson.pmf(ks, mu)
        out[i] = float(pmf @ f_disc + (1.0 - pmf.sum()) * f_disc[-1])
    if np.ndim(times) == 0:
        return float(out[0])
    return out
