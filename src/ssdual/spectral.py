"""Eigenvalue extraction and spectral polynomials.

For a kernel with absorbing target, the relevant spectrum is that of the
leading principal submatrix P' together with the unit eigenvalue; for an
ergodic kernel it is the full spectrum with its unique unit eigenvalue.
A block that satisfies detailed balance (every birth-death block does) is
similar, through a positive diagonal, to the symmetric matrix with the same
diagonal and off-diagonal sqrt(p(i,j) p(j,i)), whose eigenvalues come from
numpy's symmetric solver.  Triangular blocks read their spectrum off the
diagonal, and all others go to numpy's general dense solver.

The spectral polynomials are built by the recurrence

    Q_0 = I,    Q_{k+1} = (Q_k P - theta_k Q_k) / (1 - theta_k),

so Q_k is the product of (P - theta_r I)/(1 - theta_r) over r < k.  Their rows
sum to one, and Q_d is P-invariant (Q_d P = Q_d).  The (n, n, n) tensor costs
O(n^4) time and 8 n^3 bytes, so only the tests build it, as a reference:
the ``spectrum`` command's residuals carry one Q_k at a time
(``polynomial_residuals``), and the link needs only the rows m0 Q_k, which
``duality.build_link`` forms directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import REALNESS_TOL, TOL_EIG, TOL_NONNEG, TOL_ROW
from .errors import EigenFailure, NumericalBreakdown
from .chains import ChainClass, TransitionKernel, classify_kernel

__all__ = [
    "SpectrumReport",
    "SpectralPolynomials",
    "PolynomialResiduals",
    "eigenvalues",
    "spectral_polynomials",
    "polynomial_residuals",
]


@dataclass(frozen=True, slots=True)
class SpectrumReport:
    """Eigenvalues of a kernel in canonical order.

    ``values`` holds all n eigenvalues sorted by nondecreasing real part, ties
    by nondecreasing imaginary part (conjugate pairs adjacent), with the unit
    eigenvalue snapped to exactly 1 in the last slot.  The dtype is real when
    every eigenvalue passed the realness test, complex otherwise.

    ``clamped`` counts real eigenvalues in [-TOL_NONNEG, 0) that were clamped
    to zero.
    """

    values: np.ndarray
    all_real: bool
    all_nonneg_real: bool
    clamped: int
    method: str

    @property
    def nonunit(self) -> np.ndarray:
        """The d eigenvalues other than the trailing unit one."""
        return self.values[:-1]


@dataclass(frozen=True, slots=True)
class SpectralPolynomials:
    """The matrices Q_0..Q_d of the spectral recurrence.

    ``mats`` has shape (d+1, n, n).  ``nonneg`` records whether every entry is
    real and >= -TOL_NONNEG.  ``cayley_residual`` is the max-norm of
    Q_d P - Q_d, and ``rowsum_residual`` the largest deviation of any row sum
    from one; both are small multiples of machine precision when the
    eigenvalues are accurate.
    """

    mats: np.ndarray
    nonneg: bool
    cayley_residual: float
    rowsum_residual: float


@dataclass(frozen=True, slots=True)
class PolynomialResiduals:
    """The health of Q_0..Q_d, without the matrices.

    The same ``nonneg``, ``cayley_residual`` and ``rowsum_residual`` as
    ``SpectralPolynomials``, from a recurrence that holds one Q_k at a time.
    """

    nonneg: bool
    cayley_residual: float
    rowsum_residual: float


def _symmetrized(mat: np.ndarray) -> np.ndarray | None:
    """diag(P) + sqrt(P o P^T) off the diagonal, when P is similar to it; else None.

    P = D^-1 S D for a positive diagonal D exactly when P satisfies detailed
    balance: its support is symmetric and some potentials pi have
    pi_i p(i, j) = pi_j p(j, i) on every edge.  A support inside the
    tridiagonal band (every birth-death block) has no cycle, so potentials
    exist.  Otherwise the log potentials are summed along a breadth-first
    spanning forest of the support, and every edge must agree to TOL_ROW,
    relative, times 1 + 2 max |log pi| for the rounding of those sums.
    """
    n = mat.shape[0]
    edges = mat > 0.0
    np.fill_diagonal(edges, False)
    if not np.array_equal(edges, edges.T):
        return None
    sym = np.sqrt(mat * mat.T)
    np.fill_diagonal(sym, np.diagonal(mat))
    if not np.triu(edges, 2).any():
        return sym
    parent = np.arange(n)
    unseen = np.ones(n, dtype=bool)
    for root in range(n):
        if not unseen[root]:
            continue
        unseen[root] = False
        queue = [root]
        for i in queue:  # grows while it is read: breadth-first order
            new = (edges[i] & unseen).nonzero()[0]
            unseen[new] = False
            parent[new] = i
            queue.extend(new.tolist())
    states = np.arange(n)
    roots = parent == states
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(mat)
        gap = log_p - log_p.T  # log(pi_j / pi_i) on an edge (i, j)
        # potential of each state against its root, by pointer jumping
        psi = np.where(roots, 0.0, gap[parent, states])
        up = parent
        while not roots[up].all():
            psi = psi + psi[up]
            up = up[up]
        dev = psi[:, None] + gap - psi[None, :]
    if np.abs(dev[edges]).max(initial=0.0) > TOL_ROW * (1.0 + 2.0 * np.abs(psi).max()):
        return None
    return sym


def _canonical_order(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def eigenvalues(kernel: TransitionKernel, chain_class: ChainClass | None = None) -> SpectrumReport:
    """Eigenvalues of a kernel, ordered and cleaned for the duality machinery.

    Parameters
    ----------
    kernel : TransitionKernel
    chain_class : ChainClass, optional
        Reused if the caller already classified the kernel.

    Returns
    -------
    SpectrumReport

    Raises
    ------
    EigenFailure
        Ergodic kernel without a unique unit eigenvalue within TOL_EIG.  On
        the symmetric routes of a connected block the largest eigenvalue is
        the unit one, and it must lie within TOL_EIG of 1; the general route
        needs exactly one eigenvalue in that window.
        With an absorbing target, a transient eigenvalue within 1e-13 of 1
        when the target is unreachable from some state.
    NumericalBreakdown
        Such an eigenvalue although the target is reachable from every state.

    Notes
    -----
    Absorbing target: spectrum of P' plus the unit eigenvalue.  Ergodic:
    full spectrum with the Perron eigenvalue snapped to 1.  A block that
    satisfies detailed balance is symmetrized through a positive diagonal
    and goes to ``np.linalg.eigvalsh`` (route "tridiagonal" for birth-death
    chains, "symmetric" when the block already is, "reversible" otherwise);
    triangular blocks read the diagonal; everything else uses the general
    dense solver.
    """
    cls = chain_class or classify_kernel(kernel)
    mat = kernel.matrix
    d = kernel.d

    block = mat[:d, :d] if cls.target_absorbing else mat
    sym = _symmetrized(block)
    if sym is not None and cls.birth_death:
        method = "tridiagonal"
    elif cls.target_absorbing and (not np.tril(block, -1).any() or not np.triu(block, 1).any()):
        method = "triangular"
    elif sym is not None:
        method = "symmetric" if np.array_equal(block, block.T) else "reversible"
    else:
        method = "general"
    if method == "triangular":
        vals = np.sort(np.diag(block)).astype(complex)
    elif method == "general":
        vals = np.linalg.eigvals(block)
    else:
        vals = np.linalg.eigvalsh(sym).astype(complex)

    if cls.target_absorbing:
        if np.any(np.abs(vals - 1.0) < 1e-13):
            if cls.target_accessible:
                raise NumericalBreakdown(
                    "transient block has an eigenvalue within 1e-13 of 1 although the target "
                    "is reachable: the slowest mode is below double precision"
                )
            raise EigenFailure("transient block has a unit eigenvalue; target unreachable")
    else:
        near_unit = np.nonzero(np.abs(vals - 1.0) <= TOL_EIG)[0]
        if method != "general" and cls.target_accessible and len(near_unit):
            # eigvalsh sorts ascending, and a connected symmetrizable block has
            # a simple unit eigenvalue: the largest, however close the next is
            near_unit = near_unit[-1:]
        if len(near_unit) != 1:
            raise EigenFailure(
                f"expected a unique unit eigenvalue, found {len(near_unit)} within {TOL_EIG}"
            )
        vals = np.delete(vals, near_unit[0])
    vals = np.append(vals, 1.0 + 0.0j)

    head = vals[:-1]
    real_mask = np.abs(head.imag) <= REALNESS_TOL * (1.0 + np.abs(head))
    head = np.where(real_mask, head.real + 0.0j, head)
    all_real = bool(real_mask.all())

    clamped = 0
    if all_real:
        re = head.real.copy()
        tiny_neg = (re < 0.0) & (re >= -TOL_NONNEG)
        clamped = int(tiny_neg.sum())
        re[tiny_neg] = 0.0
        head = re.astype(complex)

    vals = np.append(_canonical_order(head), 1.0 + 0.0j)
    if all_real:
        vals = vals.real
    all_nonneg_real = bool(all_real and vals.min() >= 0.0)
    vals.setflags(write=False)
    return SpectrumReport(
        values=vals,
        all_real=all_real,
        all_nonneg_real=all_nonneg_real,
        clamped=clamped,
        method=method,
    )


def spectral_polynomials(kernel: TransitionKernel, spectrum: SpectrumReport) -> SpectralPolynomials:
    """Build Q_0..Q_d by the recurrence Q_{k+1} = (Q_k P - theta_k Q_k)/(1 - theta_k)."""
    mat = kernel.matrix
    n = kernel.n
    thetas = spectrum.nonunit
    dtype = float if spectrum.all_real else complex
    mats = np.zeros((n, n, n), dtype=dtype)
    mats[0] = np.eye(n)
    for k, theta in enumerate(thetas):
        mats[k + 1] = (mats[k] @ mat - theta * mats[k]) / (1.0 - theta)
    cayley = float(np.abs(mats[-1] @ mat - mats[-1]).max())
    rowsum = float(np.abs(mats.sum(axis=2) - 1.0).max())
    if spectrum.all_real:
        nonneg = bool(mats.min() >= -TOL_NONNEG)
    else:
        nonneg = False
    return SpectralPolynomials(
        mats=mats,
        nonneg=nonneg,
        cayley_residual=cayley,
        rowsum_residual=rowsum,
    )


def polynomial_residuals(kernel: TransitionKernel, spectrum: SpectrumReport) -> PolynomialResiduals:
    """``spectral_polynomials``' residuals and sign test in O(n^2) memory.

    Runs the same recurrence and keeps only the current Q_k, so every number
    equals the tensor's bit for bit.
    """
    mat = kernel.matrix
    q = np.eye(kernel.n, dtype=float if spectrum.all_real else complex)
    rowsum = np.abs(q.sum(axis=1) - 1.0).max()
    low = q.real.min()
    for theta in spectrum.nonunit:
        q = (q @ mat - theta * q) / (1.0 - theta)
        # np.maximum and np.minimum propagate a NaN, as the tensor's max and min do
        rowsum = np.maximum(rowsum, np.abs(q.sum(axis=1) - 1.0).max())
        low = np.minimum(low, q.real.min())
    return PolynomialResiduals(
        nonneg=bool(spectrum.all_real and low >= -TOL_NONNEG),
        cayley_residual=float(np.abs(q @ mat - q).max()),
        rowsum_residual=float(rowsum),
    )

