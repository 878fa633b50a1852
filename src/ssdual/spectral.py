"""Eigenvalue extraction and spectral polynomials.

For a kernel with absorbing target, the relevant spectrum is that of the
leading principal submatrix P' together with the unit eigenvalue; for an
ergodic kernel it is the full spectrum with its unique unit eigenvalue.
Birth-death structure is exploited through the diagonal similarity to a
symmetric tridiagonal matrix (off-diagonal sqrt(p(i,i+1) p(i+1,i))), and
triangular kernels read their spectrum off the diagonal.

The spectral polynomials are built by the recurrence

    Q_0 = I,    Q_{k+1} = (Q_k P - theta_k Q_k) / (1 - theta_k),

so Q_k is the product of (P - theta_r I)/(1 - theta_r) over r < k.  Their rows
sum to one, and Q_d is P-invariant (Q_d P = Q_d).  The (n, n, n) tensor costs
O(n^4) time, so only the ``spectrum`` command's residuals and the tests build
it; the link needs only the rows m0 Q_k, which ``duality.build_link`` forms
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import REALNESS_TOL, TOL_EIG, TOL_NONNEG
from .errors import EigenFailure
from .chains import ChainClass, TransitionKernel, classify_kernel

__all__ = [
    "SpectrumReport",
    "SpectralPolynomials",
    "SpectrumClassification",
    "eigenvalues",
    "spectral_polynomials",
    "classify_spectrum",
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
class SpectrumClassification:
    """Which analytic route the spectrum admits."""

    real_nonneg: bool
    polys_nonneg: bool
    diagnosis: str


def _symmetrizable_tridiagonal(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Diagonal and symmetrized off-diagonal of a tridiagonal matrix, or None.

    Valid whenever super- and subdiagonal entries have products >= 0 and share
    support (the similarity transform needs sqrt of the products); stochastic
    birth-death matrices always qualify.
    """
    n = mat.shape[0]
    if n == 1:
        return np.array([mat[0, 0]]), np.zeros(0)
    if np.any(np.triu(mat, 2) != 0.0) or np.any(np.tril(mat, -2) != 0.0):
        return None
    sup = np.array([mat[i, i + 1] for i in range(n - 1)])
    sub = np.array([mat[i + 1, i] for i in range(n - 1)])
    if ((sup > 0) != (sub > 0)).any():
        return None
    return np.diag(mat).copy(), np.sqrt(sup * sub)


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
        Ergodic kernel without a unique unit eigenvalue within TOL_EIG.

    Notes
    -----
    Absorbing target: spectrum of P' plus the unit eigenvalue.  Ergodic:
    full spectrum with the Perron eigenvalue snapped to 1.  Tridiagonal
    structure goes through a symmetric solver, triangular kernels read the
    diagonal, everything else uses the general dense solver.
    """
    # imported here: scipy.linalg is most of the cost of importing ssdual
    from scipy.linalg import eigvalsh_tridiagonal

    cls = chain_class or classify_kernel(kernel)
    mat = kernel.matrix
    d = kernel.d

    if cls.target_absorbing:
        sub = mat[:d, :d]
        tri = _symmetrizable_tridiagonal(sub) if cls.birth_death else None
        if tri is not None:
            vals = eigvalsh_tridiagonal(*tri).astype(complex)
            method = "tridiagonal"
        elif not np.any(np.tril(sub, -1) != 0.0) or not np.any(np.triu(sub, 1) != 0.0):
            vals = np.sort(np.diag(sub)).astype(complex)
            method = "triangular"
        elif np.array_equal(sub, sub.T):
            vals = np.linalg.eigvalsh(sub).astype(complex)
            method = "symmetric"
        else:
            vals = np.linalg.eigvals(sub)
            method = "general"
        if np.any(np.abs(vals - 1.0) < 1e-13):
            raise EigenFailure("transient block has a unit eigenvalue; target unreachable")
        vals = np.append(vals, 1.0 + 0.0j)
    else:
        tri = _symmetrizable_tridiagonal(mat)
        if tri is not None:
            vals = eigvalsh_tridiagonal(*tri).astype(complex)
            method = "tridiagonal"
        else:
            vals = np.linalg.eigvals(mat)
            method = "general"
        near_unit = np.nonzero(np.abs(vals - 1.0) <= TOL_EIG)[0]
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


def classify_spectrum(
    spectrum: SpectrumReport, polys: SpectralPolynomials
) -> SpectrumClassification:
    """Decide between the closed-form mixture route and the numeric fallback."""
    real_nonneg = spectrum.all_nonneg_real
    polys_nonneg = polys.nonneg
    if real_nonneg and polys_nonneg:
        diagnosis = "real nonnegative spectrum with nonnegative spectral polynomials"
    elif not spectrum.all_real:
        diagnosis = "complex eigenvalue pairs present; numeric-CDF route"
    elif not real_nonneg:
        diagnosis = "negative real eigenvalues present; numeric-CDF route"
    else:
        diagnosis = "spectral polynomials have negative entries; numeric-CDF route"
    return SpectrumClassification(
        real_nonneg=real_nonneg, polys_nonneg=polys_nonneg, diagnosis=diagnosis
    )
