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
#: (baby steps P^0..P^{B-1}, giant step S = P^B); a power of two.  On a dual
#: with at most B levels, and in every separation scan, the baby steps and S
#: come by doubling, in log2 B products and squarings
#: (``duality._power_ladder``); on a larger dual S is built on its band of
#: B + 1 diagonals, about B n min(n, B) / 2 products for n levels.  A
#: continuous CDF's giant step spans B / 4 uniformization steps, the
#: Poisson(B / 4) mixture of the same powers.  The block rows r S^s are grown
#: by doubling from the powers S, S^2, S^4, ... (see ``duality._BlockRows``).
#: A law's baby steps, giant steps and block caches are kept with its
#: ``laws.DiscreteAbsorptionLaw``, which its continuous laws share.
#: Affects speed and rounding only.
_BLOCK_STEPS = 64

#: Multiply-adds of one block product.  The separation scan takes fewer than
#: _BLOCK_STEPS steps per block on chains with n^2 B above it (the largest
#: power of two within it, so that its ladder doubles to it), and the block
#: rows double only up to K rows per product, with K a power of two and
#: K n max(n, c) within it (n x n giant step, c values per block, so the
#: K x n rows times S^K or times the baby steps).  Past K they grow K rows
#: per product, so squaring stops at S^K: on 200 levels K = 4, where
#: uncapped doubling would square 200 x 200 matrices.  Affects speed, memory
#: and rounding only.
_BLOCK_WORK = 2**18

#: Coupled traces that ``verify`` simulates together from one Philox stream.
#: A block advances jump to jump: each pass of its loop moves every trace to
#: the next change of its (dual level, primal state) pair, after a geometric
#: hold in discrete time.  Changing it changes seeded reports; the job count
#: never does.
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
