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
    "classify_kernel",
    "classify_generator",
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


def _square(matrix, kind: str, square: str) -> np.ndarray:
    """``matrix`` as a new float array: square, of at least two states, finite."""
    mat = np.array(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{kind} must be {square}, got shape {mat.shape}")
    if mat.shape[0] < 2:
        raise ValidationError(f"{kind} needs at least two states")
    if not np.all(np.isfinite(mat)):
        raise NonStochastic(f"{kind} has non-finite entries")
    return mat


@dataclass(frozen=True, slots=True)
class TransitionKernel:
    """A validated row-stochastic matrix with target state d = n - 1.

    Rows are renormalized if (and only if) they are within ``TOL_ROW`` of
    stochastic; anything further off is rejected.  The stored matrix is
    write-locked.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _square(self.matrix, "transition kernel", "a square matrix")
        if mat.min() < -TOL_ROW or mat.max() > 1.0 + TOL_ROW:
            raise NonStochastic("transition kernel entries outside [0, 1] beyond tolerance")
        np.clip(mat, 0.0, None, out=mat)
        sums = mat.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > TOL_ROW:
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise NonStochastic(
                f"transition kernel row {worst} sums to {float(sums[worst])!r}, not 1"
            )
        mat /= sums[:, None]
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
        mat = _square(self.matrix, "rate generator", "square")
        off = ~np.eye(mat.shape[0], dtype=bool)
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


def as_initial(m0, n: int) -> np.ndarray:
    """``m0`` (None for the point mass at state 0, else array-like) as a checked law on n states.

    Entries must be finite and in [0, 1], and sum to 1, all within
    ``TOL_ROW``; the vector is clipped at 0, renormalized and write-locked.
    """
    if m0 is None:
        vec = np.zeros(n)
        vec[0] = 1.0
    else:
        vec = np.array(m0, dtype=float)
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
        if len(vec) != n:
            raise ValidationError(f"initial law has {len(vec)} states, chain has {n}")
    vec.setflags(write=False)
    return vec


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


def _mean_times(chain: TransitionKernel | RateGenerator) -> np.ndarray:
    """Expected times to the target from each other state, without subtraction.

    Solves (D - O) x = 1 on the states 0..d-1, where O holds the transient
    block's off-diagonal entries and D each row's exit mass: its entry into
    the target plus its off-diagonal sum, which is I - P' for a kernel and
    -G' for a generator.  The states are eliminated first to last, GTH-style:
    an eliminated state's paths are added to the entries and target masses of
    the later states, each pivot is the row's remaining target mass plus its
    remaining off-diagonal mass, and the substitutions add positive terms
    only.  A zero pivot (a state that cannot reach the target) raises
    ``SingularSystem``.
    """
    d = chain.d
    off = np.array(chain.matrix[:d, :d])  # its diagonal is never read
    kill = np.array(chain.matrix[:d, d])
    rhs = np.ones(d)
    pivots = np.empty(d)
    for k in range(d):
        pivots[k] = kill[k] + off[k, k + 1 :].sum()
        if not pivots[k] > 0.0:
            raise SingularSystem(f"state {k} cannot reach the target: infinite mean")
        f = off[k + 1 :, k] / pivots[k]
        off[k + 1 :, k + 1 :] += np.outer(f, off[k, k + 1 :])
        kill[k + 1 :] += f * kill[k]
        rhs[k + 1 :] += f * rhs[k]
    x = np.empty(d)
    for k in range(d - 1, -1, -1):
        x[k] = (rhs[k] + off[k, k + 1 :] @ x[k + 1 :]) / pivots[k]
    return x


def mean_absorption_oracle(kernel: TransitionKernel, m0=None) -> float:
    """Expected hitting time via the fundamental matrix.

    Solves (I - P') x = 1 on the non-target states by ``_mean_times``'
    subtraction-free elimination and returns m0' . x; raises
    ``SingularSystem`` when some state cannot reach the target.
    """
    require_absorbing(kernel)
    return float(as_initial(m0, kernel.n)[: kernel.d] @ _mean_times(kernel))


def mean_absorption_ctmc_oracle(gen: RateGenerator, m0=None) -> float:
    """Expected absorption time of a CTMC: solves (-G') x = 1 as ``mean_absorption_oracle`` does."""
    require_absorbing(gen)
    return float(as_initial(m0, gen.n)[: gen.d] @ _mean_times(gen))


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
