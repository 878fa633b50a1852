"""Intertwining duals: links, pure-birth dual kernels, mixture weights.

The central objects:

* the link Lambda, whose row i is m0 Q_i (so row 0 is the initial law), which
  intertwines the primal kernel with a pure-birth dual:  Lambda P = Phat Lambda.
  Each row follows from the one before in one vector-matrix product, so the
  link costs O(n^3) time and one n x n array; the matrices Q_i are not formed;
* the dual kernel Phat, upper bidiagonal with diagonal theta_0..theta_d and
  superdiagonal 1 - theta_i;
* the mixture weights a_k = Lambda(k, d) - Lambda(k-1, d) (conventions
  Lambda(-1, d) = 0, Lambda(d+1, d) = 1), which express the hitting law as an
  a-mixture of partial sums of independent geometrics;
* the modified dual, which conditions the dual on not yet having produced the
  target: its kernel splits into a climb-or-hold bidiagonal part and a
  rank-one part that jumps straight to the target.

Separation and the stochastic-monotonicity check of the time reversal support
the strong stationary (ergodic) route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import _BLOCK_WORK, _BLOCK_STEPS, CDF_TAIL, MAX_HORIZON, TOL_NONNEG, tol_alg
from .errors import HorizonExceeded, NotErgodic, NumericalBreakdown
from .chains import TransitionKernel, as_initial, classify_kernel, stationary_law
from .spectral import SpectrumReport

__all__ = [
    "LinkMatrix",
    "DualKernel",
    "IntertwiningReport",
    "MixtureWeights",
    "ModifiedDual",
    "MonotoneReport",
    "SeparationProfile",
    "build_link",
    "build_dual",
    "check_intertwining",
    "mixture_weights",
    "build_modified_dual",
    "check_monotone_reversal",
    "separation",
]


@dataclass(frozen=True, slots=True)
class LinkMatrix:
    """Rows are the conditional laws of the primal state given the dual state.

    ``stochastic`` is true when every entry is real and >= -TOL_NONNEG and the
    rows sum to one within tolerance; tiny negatives in [-TOL_NONNEG, 0) are
    clamped to zero in the stored rows (``clamped`` counts them).
    ``lower_triangular`` reports whether everything above the diagonal
    vanishes within the algebraic tolerance.
    """

    rows: np.ndarray
    stochastic: bool
    lower_triangular: bool
    clamped: int
    rowsum_residual: float


@dataclass(frozen=True, slots=True)
class DualKernel:
    """Upper bidiagonal pure-birth kernel: diagonal thetas, superdiagonal 1 - thetas."""

    matrix: np.ndarray
    thetas: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.n - 1


@dataclass(frozen=True, slots=True)
class IntertwiningReport:
    """Residuals of Lambda P = Phat Lambda, one-step and at requested powers."""

    residual: float
    power_residuals: dict[int, float]
    tol: float
    passed: bool


@dataclass(frozen=True, slots=True)
class MixtureWeights:
    """a_0..a_{d+1} with a_k = Lambda(k, d) - Lambda(k-1, d).

    ``weights[d + 1]`` is the boundary convention term 1 - Lambda(d, d); it
    vanishes for absorbing chains.  ``stochastic`` means real entries that are
    >= -TOL_NONNEG and sum to one within tolerance.
    """

    weights: np.ndarray
    stochastic: bool
    sum_residual: float


@dataclass(frozen=True, slots=True)
class ModifiedDual:
    """Dual conditioned to avoid premature target discovery.

    ``kernel`` is a bidiagonal part that climbs or holds plus a rank-one part
    in column d that jumps straight to the target.  The start is the
    two-point law ``initial`` on {0, d}.  Absorption happens on the states
    absorbing_start, ..., d, and of those only ``absorbing_start`` and d can
    ever be entered.
    """

    link: LinkMatrix
    kernel: np.ndarray
    initial: np.ndarray
    absorbing_start: int
    stochastic: bool
    intertwining_residual: float
    initial_residual: float


@dataclass(frozen=True, slots=True)
class MonotoneReport:
    """Outcome of the stochastic-monotonicity check of the time reversal."""

    monotone: bool
    witness: tuple[int, int] | None
    reversal: np.ndarray


@dataclass(frozen=True, slots=True)
class SeparationProfile:
    """Separation s(t) = 1 - min_x (m0 P^t)(x) / pi(x) and its minimizers."""

    s: np.ndarray
    argmin_state: np.ndarray
    minimized_at_target: bool


def build_link(kernel: TransitionKernel, spectrum: SpectrumReport, m0=None) -> LinkMatrix:
    """Assemble the link whose row k is m0 Q_k.

    Row 0 is the initial law itself; the link is the unique matrix with that
    property intertwining the kernel with the pure-birth dual built from the
    same eigenvalue order.  Since Q_{k+1} = Q_k (P - theta_k I)/(1 - theta_k),
    the rows follow by the recurrence

        r_{k+1} = (r_k P - theta_k r_k) / (1 - theta_k),

    that is d vector-matrix products: O(n^3) time and an n x n array.  The
    rows can grow past double precision on long chains (a birth-death chain
    of a few hundred states); a non-finite row raises ``NumericalBreakdown``.
    """
    n = kernel.n
    rows = np.empty((n, n), dtype=float if spectrum.all_real else complex)
    rows[0] = as_initial(m0, n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, theta in enumerate(spectrum.nonunit):
            rows[k + 1] = (rows[k] @ kernel.matrix - theta * rows[k]) / (1.0 - theta)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise NumericalBreakdown(
            f"link row {int(np.argmin(finite))} is not finite; its recurrence "
            "overflowed double precision"
        )
    rowsum = float(np.abs(rows.sum(axis=1) - 1.0).max())
    clamped = 0
    stochastic = False
    if not np.iscomplexobj(rows):
        neg = rows.min()
        if neg >= -TOL_NONNEG:
            tiny = (rows < 0.0) & (rows >= -TOL_NONNEG)
            clamped = int(tiny.sum())
            rows[tiny] = 0.0
            stochastic = rowsum <= tol_alg(n)
    upper = np.abs(np.triu(rows, k=1)).max() if n > 1 else 0.0
    rows.setflags(write=False)
    return LinkMatrix(
        rows=rows,
        stochastic=stochastic,
        lower_triangular=bool(upper <= tol_alg(n)),
        clamped=clamped,
        rowsum_residual=rowsum,
    )


def build_dual(spectrum: SpectrumReport) -> DualKernel:
    """Pure-birth dual kernel from the ordered eigenvalues."""
    thetas = spectrum.values
    mat = _dense(np.stack([thetas, 1.0 - thetas]))
    mat.setflags(write=False)
    return DualKernel(matrix=mat, thetas=thetas)


def _dense(band: np.ndarray) -> np.ndarray:
    """The n x n upper triangular matrix whose diagonal k is row k of ``band``."""
    n = band.shape[1]
    out = np.zeros((n, n), dtype=band.dtype)
    flat = out.reshape(-1)
    for k in range(band.shape[0]):
        flat[k : (n - k) * (n + 1) : n + 1] = band[k, : n - k]
    return out


def check_intertwining(
    link: LinkMatrix,
    kernel: TransitionKernel,
    dual: DualKernel,
    powers: tuple[int, ...] = (),
) -> IntertwiningReport:
    """Residuals of Lambda P^t = Phat^t Lambda for t = 1 and any extra powers."""
    lam = link.rows
    residual = float(np.abs(lam @ kernel.matrix - dual.matrix @ lam).max())
    power_residuals: dict[int, float] = {}
    for t in powers:
        pt = np.linalg.matrix_power(kernel.matrix, t)
        qt = np.linalg.matrix_power(dual.matrix, t)
        power_residuals[t] = float(np.abs(lam @ pt - qt @ lam).max())
    tol = tol_alg(kernel.n)
    worst = max([residual, *power_residuals.values()])
    return IntertwiningReport(
        residual=residual, power_residuals=power_residuals, tol=tol, passed=worst <= tol
    )


def mixture_weights(link: LinkMatrix, normalizer: float = 1.0) -> MixtureWeights:
    """Successive differences of the link's target column.

    ``normalizer`` rescales the target column first (used by the strong
    stationary route, where the column tends to pi(d) rather than 1).
    """
    col = link.rows[:, -1] / normalizer
    d = len(col) - 1
    weights = np.empty(d + 2, dtype=col.dtype)
    weights[0] = col[0]
    weights[1 : d + 1] = np.diff(col)
    weights[d + 1] = 1.0 - col[d]
    total = weights.sum()
    sum_residual = float(abs(total - 1.0))
    stochastic = bool(
        not np.iscomplexobj(weights)
        and weights.min() >= -TOL_NONNEG
        and sum_residual <= tol_alg(d + 1)
    )
    weights.setflags(write=False)
    return MixtureWeights(weights=weights, stochastic=stochastic, sum_residual=sum_residual)


def build_modified_dual(
    kernel: TransitionKernel,
    link: LinkMatrix,
    spectrum: SpectrumReport,
    m0=None,
) -> ModifiedDual:
    """Condition the dual on not having discovered the target yet.

    Row i of the modified link is the law of the primal state given dual
    state i and target not yet produced; rows whose original law already
    sits on the target collapse to the point mass there.  The modified dual
    kernel keeps the climb-or-hold structure plus a rank-one jump to the
    target state, and the modified start splits the initial mass between
    dual state 0 and the target.
    """
    vec = as_initial(m0, kernel.n)
    lam = link.rows
    n = kernel.n
    d = kernel.d
    tol = tol_alg(n)
    thetas = spectrum.values
    a = mixture_weights(link).weights

    lam_d = lam[:, d]
    at_target = np.abs(lam_d - 1.0) <= tol

    dtype = lam.dtype
    lam_bar = np.zeros_like(lam)
    delta_d = np.zeros(n, dtype=dtype)
    delta_d[d] = 1.0
    for i in range(n):
        if at_target[i]:
            lam_bar[i] = delta_d
        else:
            lam_bar[i] = (lam[i] - lam_d[i] * delta_d) / (1.0 - lam_d[i])

    bidiag = np.zeros((n, n), dtype=dtype)
    column = np.zeros((n, n), dtype=dtype)
    for i in range(n):
        if at_target[i]:
            bidiag[i, i] = 1.0
            continue
        bidiag[i, i] = thetas[i]
        if i + 1 <= d:
            bidiag[i, i + 1] = (1.0 - lam_d[i + 1]) / (1.0 - lam_d[i]) * (1.0 - thetas[i])
            column[i, d] = a[i + 1] / (1.0 - lam_d[i]) * (1.0 - thetas[i])

    m_bar = np.zeros(n, dtype=dtype)
    m0_d = vec[d]
    m_bar[0] = 1.0 - m0_d
    m_bar[d] += m0_d

    start_candidates = np.nonzero(at_target)[0]
    absorbing_start = int(start_candidates[0]) if len(start_candidates) else d

    clamped = 0
    stochastic = False
    if not np.iscomplexobj(bidiag):
        if min(bidiag.min(), column.min(), lam_bar.min()) >= -TOL_NONNEG:
            for arr in (bidiag, column, lam_bar):
                tiny = (arr < 0.0) & (arr >= -TOL_NONNEG)
                clamped += int(tiny.sum())
                arr[tiny] = 0.0
            stochastic = True
    kernel_bar = bidiag + column
    rowsum = float(np.abs(kernel_bar.sum(axis=1) - 1.0).max())
    stochastic = stochastic and rowsum <= tol

    link_bar = LinkMatrix(
        rows=lam_bar,
        stochastic=stochastic,
        lower_triangular=bool(np.abs(np.triu(lam_bar, k=1)).max() <= tol) if n > 1 else True,
        clamped=clamped,
        rowsum_residual=float(np.abs(lam_bar.sum(axis=1) - 1.0).max()),
    )
    intertwining_residual = float(np.abs(lam_bar @ kernel.matrix - kernel_bar @ lam_bar).max())
    initial_residual = float(np.abs(m_bar @ lam_bar - vec).max())

    for arr in (kernel_bar, m_bar):
        arr.setflags(write=False)
    return ModifiedDual(
        link=link_bar,
        kernel=kernel_bar,
        initial=m_bar,
        absorbing_start=absorbing_start,
        stochastic=stochastic,
        intertwining_residual=intertwining_residual,
        initial_residual=initial_residual,
    )


def check_monotone_reversal(kernel: TransitionKernel, pi: np.ndarray) -> MonotoneReport:
    """Check that the time reversal is stochastically monotone.

    The reversal is Ptilde(x, y) = pi(y) P(y, x) / pi(x), with ``pi`` the
    kernel's stationary law; monotone means the partial sums of row x
    dominate those of row x + 1 for every x.  Returns the first violating
    pair as witness.
    """
    rev = (kernel.matrix.T * pi[None, :]) / pi[:, None]
    prefix = np.cumsum(rev, axis=1)
    n = kernel.n
    witness = None
    for x in range(n - 1):
        bad = np.nonzero(prefix[x] < prefix[x + 1] - tol_alg(n))[0]
        if len(bad):
            witness = (x, x + 1)
            break
    rev.setflags(write=False)
    return MonotoneReport(monotone=witness is None, witness=witness, reversal=rev)


class _BlockRows:
    """Blocks r S^s R, s = 0, 1, ..., of a start row r, a square step S and baby steps R.

    Row s = r S^s is row s - K times S^K, with K the largest power of two
    <= s, capped at K_max: the largest power of two with
    K_max n max(n, c) <= _BLOCK_WORK for an n x n step and c columns of R,
    so that no product takes more multiply-adds.
    The rows with one K form a span [lo, lo + K), lo = s - s % K, whose rows
    are one product of the K rows before it with S^K, and whose blocks are
    one product with R; a request of b blocks costs about log2(b) + b / K_max
    products.  A block is always formed by its span's products, so its bits
    depend on s alone: growing in steps gives the blocks of one request.

    ``span_blocks`` and ``upto`` take ``step``, a function that gives S, and
    call it when row 1 is first needed; S^2, S^4, ... are squared from it and
    kept in ``powers``.  (The step is not stored: a law's step is its own
    attribute, and a law holding it would be a reference cycle that
    outlives the law.)  Rows are kept back to the last span that the
    doubling still reads, so blocks are asked for in rising order.
    """

    def __init__(self, first: np.ndarray, baby: np.ndarray):
        n, c = baby.shape
        self.baby = baby
        self.powers: list[np.ndarray] = []
        self._cap = 1 << max(0, (_BLOCK_WORK // (n * max(n, c))).bit_length() - 1)
        self._rows = first[None, :]  # rows _base .. _base + len - 1
        self._base = 0
        self._blocks = np.empty((0, c), dtype=baby.dtype)  # blocks 0 .. len - 1, for upto

    def span(self, s: int) -> tuple[int, int]:
        """The span [lo, hi) of rows formed together with row s."""
        k = min(1 << max(0, s.bit_length() - 1), self._cap)
        lo = s - s % k
        return lo, lo + k

    def span_blocks(self, lo: int, hi: int, step) -> np.ndarray:
        """Blocks lo..hi-1 of the span [lo, hi), as rows; S = step()."""
        if lo < self._base:
            raise ValueError("block rows are formed in rising order")
        top = self._base + len(self._rows)
        while top < hi:
            k = self.span(top)[1] - top
            i = k.bit_length() - 1
            while len(self.powers) <= i:  # powers[i] = S^(2^i)
                self.powers.append(self.powers[-1] @ self.powers[-1] if self.powers else step())
            new = self._rows[top - k - self._base : top - self._base] @ self.powers[i]
            if k == self._cap:  # every later span reads this one only
                self._rows, self._base = new, top
            else:
                self._rows = np.concatenate([self._rows, new])
            top += k
        return self._rows[lo - self._base : hi - self._base] @ self.baby

    def upto(self, s: int, cap: int, step) -> np.ndarray:
        """The kept blocks 0, 1, ..., s at least, as the rows of an array; S = step().

        They grow to s + 1 blocks or to twice their count, whichever is more,
        the doubling capped at ``cap`` blocks, so reads at rising times take
        about log2 of the blocks' count such growths.
        """
        have = len(self._blocks)
        if s >= have:
            want, parts = max(s + 1, min(2 * have, cap)), [self._blocks]
            while have < want:
                lo, hi = self.span(have)
                parts.append(self.span_blocks(lo, hi, step)[have - lo : min(hi, want) - lo])
                have = hi
            self._blocks = np.concatenate(parts)
        return self._blocks


def _power_ladder(step: np.ndarray, cols: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """[C, X C, ..., X^{count-1} C] side by side, and X^count, for count a power of two.

    By doubling: from the first m blocks and X^m, the next m blocks are X^m
    times them and X^{2m} = X^m X^m.  That is log2(count) products and as
    many squarings, where stepping takes count products of X, one per call.
    """
    out, power = cols, step
    while out.shape[1] < count * cols.shape[1]:
        out = np.hstack([out, power @ out])
        power = power @ power
    return out, power


def separation(kernel: TransitionKernel, m0=None, t_max: int | None = None) -> SeparationProfile:
    """Separation from stationarity along time.

    s(t) = 1 - min_x (m0 P^t)(x) / pi(x).  When ``t_max`` is None the scan
    runs until s(t) < CDF_TAIL (raising ``HorizonExceeded`` past the cap).
    ``minimized_at_target`` records whether the minimizing state was the
    target at every step, ties counted in the target's favor.

    The laws m0 P^t are formed a block of B steps at a time: with the baby
    steps [I, P, ..., P^{B-1}] and P^B formed once by doubling
    (``_power_ladder``, so B is a power of two), block s is the row m0 P^{sB}
    times them.  The rows grow by doubling (``_BlockRows``): row s is row
    s - K times P^{KB}, K the largest power of two <= s up to a cap set by
    the chain's size, so the blocks come in spans of 1, 1, 2, 4, ... up to K
    blocks, each span one product.  The scan reads whole spans and cuts the
    profile at ``t_max``, or without it at the first step below CDF_TAIL, so
    a scan cut at t and a scan to t give the same bits.  The values agree
    with a step-by-step scan to rounding, not bit for bit.  A negative
    ``t_max`` raises ``ValueError``.
    """
    if t_max is not None and t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if not classify_kernel(kernel).ergodic:
        raise NotErgodic("separation requires an ergodic kernel")
    return _separation(kernel, stationary_law(kernel), as_initial(m0, kernel.n), t_max)


def _separation(kernel: TransitionKernel, pi: np.ndarray, vec: np.ndarray,
                t_max: int | None) -> SeparationProfile:
    """``separation`` of an ergodic kernel with stationary law ``pi``, from the law ``vec``."""
    n, d = kernel.n, kernel.d
    block = 1 << (max(1, min(_BLOCK_STEPS, _BLOCK_WORK // (n * n))).bit_length() - 1)
    baby, giant = _power_ladder(kernel.matrix, np.eye(n), block)
    rows = _BlockRows(vec, baby)

    last = MAX_HORIZON if t_max is None else t_max
    s_parts, arg_parts = [], []
    done = 0
    while done <= last:
        # the laws m0 P^t of one span of blocks, t = done, done + 1, ...
        lo, hi = rows.span(done // block)
        ratios = rows.span_blocks(lo, hi, lambda: giant).reshape(-1, n)[: last + 1 - done] / pi
        # the minimum of each row and its first position, by vector passes
        # down the n columns of the transpose: on small chains these beat
        # per-row reductions of n entries; the minimum is exact either way
        by_state = np.ascontiguousarray(ratios.T)
        m = by_state.min(axis=0)
        tie = m + 1e-12 * (1.0 + np.abs(m))
        s_part = 1.0 - m
        arg_part = np.where(by_state[d] <= tie, d, (by_state == m).argmax(axis=0))
        if t_max is None:
            below = np.flatnonzero(s_part < CDF_TAIL)
            stop = below[0] + 1 if len(below) else len(s_part)
            s_part, arg_part = s_part[:stop], arg_part[:stop]
        s_parts.append(s_part)
        arg_parts.append(arg_part)
        done += len(s_part)
        if t_max is None and s_part[-1] < CDF_TAIL:
            break
    s = np.concatenate(s_parts)
    if t_max is None and s[-1] >= CDF_TAIL:
        raise HorizonExceeded(f"separation did not fall below {CDF_TAIL} within {last} steps")
    argmins = np.concatenate(arg_parts)
    return SeparationProfile(s=s, argmin_state=argmins, minimized_at_target=bool(np.all(argmins == d)))
