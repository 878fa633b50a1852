"""Numerical tolerances and limits shared across the library.

Every threshold that a validation step or a precision gate depends on lives
here, so the meaning of "passes" is pinned in one place.
"""

from types import MappingProxyType

#: Row sums of stochastic matrices (and of rate-generator rows, against zero)
#: must match their target within this before renormalization is allowed.
TOL_ROW = 1e-12

#: Identification tolerance for eigenvalues: the unit eigenvalue of an ergodic
#: kernel, multiset comparisons across factorizations, continuous-time bridges.
TOL_EIG = 1e-9

#: Entries of links, spectral polynomials and mixture weights below -TOL_NONNEG
#: count as genuinely negative; values in [-TOL_NONNEG, 0) are clamped to zero
#: with a diagnostic count.
TOL_NONNEG = 1e-10

#: Truncation tail bound for Poisson mixtures (uniformization series).
TOL_SERIES = 1e-12

#: Relative imaginary-part threshold below which an eigenvalue is treated as
#: real: |Im z| <= REALNESS_TOL * (1 + |z|).
REALNESS_TOL = 1e-9

#: Largest imaginary residue tolerated when a probability is evaluated through
#: complex arithmetic; beyond this the computation raises instead of rounding.
IMAG_PROB_TOL = 1e-8

#: Safety factor above max |g_ii| when choosing a uniformization rate
#: automatically.
UNIFORMIZATION_MARGIN = 0.05

#: Horizon searches (quantiles, separation scans) stop once the remaining tail
#: mass is below this.
CDF_TAIL = 1e-9

#: Hard cap on discrete horizons before HorizonExceeded is raised.
MAX_HORIZON = 10**6

#: Time steps evaluated together by the discrete CDF and the separation scan
#: (baby steps P^0..P^{B-1}, giant step P^B).  Affects speed and rounding only.
_BLOCK_STEPS = 64

#: Coupled traces that ``verify`` simulates together from one Philox stream.
#: Changing it changes seeded reports; the job count never does.
_TRACE_BLOCK = 4096

#: Gates of ``verify``, fixed here and reported by the CLI as ``thresholds``.
_VERIFY_GATES = MappingProxyType({
    # significance level of each gate; a family of tests shares it by Bonferroni
    "significance": 0.01,
    # conditional cells and climb segments with fewer observations are not tested
    "min_cell_count": 50,
    # largest epoch tracked for per-(t, dual-state) conditional cells
    "conditional_t_cap": 64,
    # bins in a chi-square test are merged until each expected count reaches this
    "min_expected": 5.0,
})


def tol_alg(n: int) -> float:
    """Tolerance for algebraic identities (intertwinings, row sums of derived
    matrices) on an n-state chain; scales mildly with size."""
    return 1e-10 * n
