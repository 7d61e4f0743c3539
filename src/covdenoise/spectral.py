"""Symmetric-matrix machinery: eigendecomposition with fixed conventions,
the floored spectrum and eigenvalues used to invert near-singular matrices,
PSD projection, correlation scaling, the Stieltjes transform, and spectral
seriation of correlation matrices.

For a :class:`~covdenoise.covariance.CovarianceMatrix` every spectral helper
here reads the matrix's cached ``spectrum`` or its validation eigenvalues
instead of calling LAPACK again.

Eigenvalues without vectors come from :func:`symmetric_eigenvalues`, which
calls LAPACK's ``dsyevd`` as ``np.linalg.eigvalsh`` does, with the same bytes,
but outside the interpreter lock, so Monte Carlo pool threads validate their
matrices at the same time.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import _blas
from .covariance import CovarianceMatrix, as_matrix, symmetrize
from .errors import NumericError, ParameterError, SingularMatrixError

logger = logging.getLogger(__name__)

# eigenvalues at or below this multiple of the largest count as zero
EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues sorted descending; eigenvector k in column k.

    Sign convention: in every column the entry of largest absolute value is
    nonnegative (first such entry on ties), so decompositions are reproducible
    targets for regression.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return symmetrize((self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T)


def apply_sign_convention(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is nonnegative."""
    vectors = np.array(vectors)
    anchor = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[anchor, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return vectors * signs


def ascending_spectrum(m) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``np.linalg.eigh`` (eigenvalues, eigenvectors) of a symmetric
    matrix; a CovarianceMatrix's cached spectrum is returned as is."""
    if isinstance(m, CovarianceMatrix):
        return m.spectrum
    try:
        return np.linalg.eigh(np.asarray(m, dtype=float))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigendecomposition failed to converge: {exc}") from exc


def symmetric_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix read from its lower
    triangle: the bytes of ``np.linalg.eigvalsh(values)``, its
    ``LinAlgError`` included.

    A non-empty square float64 matrix goes to the loaded OpenBLAS's
    ``dsyevd`` as NumPy sends it: a Fortran-ordered copy, jobz ``'N'``, uplo
    ``'L'``, and the workspace of one size query per dimension.  The call
    releases the interpreter lock.  Anything else, and every matrix where no
    ``dsyevd`` is loaded, goes to ``np.linalg.eigvalsh``.
    """
    library = _blas._lookup()
    if (library is None or library.dsyevd is None or values.dtype != np.float64
            or values.ndim != 2 or values.shape[0] != values.shape[1] or values.size == 0):
        return np.linalg.eigvalsh(values)
    n = values.shape[0]
    lwork, liwork = _dsyevd_workspace(n)
    a = np.array(values, order="F")
    eigenvalues = np.empty(n)
    info = _call_dsyevd(library, a, eigenvalues, np.empty(lwork),
                   np.empty(liwork, dtype=library.integer), (lwork, liwork))
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return eigenvalues


@functools.cache
def _dsyevd_workspace(n: int) -> tuple[int, int]:
    """The (lwork, liwork) that dsyevd asks for at dimension ``n``.  Only the
    sizes are cached: the arrays are made per call, so threads share none."""
    library = _blas._lookup()
    work, iwork = np.zeros(1), np.zeros(1, dtype=library.integer)
    _call_dsyevd(library, np.zeros(1), np.zeros(n), work, iwork, (-1, -1))
    return int(work[0]), int(iwork[0])


def _call_dsyevd(library, a, eigenvalues, work, iwork, sizes) -> int:
    """One dsyevd('N', 'L') call on the Fortran-ordered ``a``, with
    ``sizes`` = (lwork, liwork), (-1, -1) for the size query; returns info."""
    n = eigenvalues.size
    integers = np.array([n, n, *sizes, 0], dtype=library.integer)
    at, step = integers.ctypes.data, integers.itemsize
    library.dsyevd(b"N", b"L", at, a.ctypes.data, at + step, eigenvalues.ctypes.data,
                   work.ctypes.data, at + 2 * step, iwork.ctypes.data, at + 3 * step,
                   at + 4 * step, 1, 1)
    return int(integers[4])


def eigendecompose_sym(m) -> SpectralDecomposition:
    """Descending-ordered eigendecomposition of a symmetric matrix."""
    if not isinstance(m, CovarianceMatrix):
        values = as_matrix(m)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ParameterError(f"expected a square matrix, got shape {values.shape}")
        if np.max(np.abs(values - values.T)) > 1e-8 * max(np.max(np.abs(values)), 1.0):
            raise ParameterError("matrix is not symmetric")
        m = symmetrize(values)
    eigenvalues, vectors = ascending_spectrum(m)
    order = np.arange(eigenvalues.size - 1, -1, -1)
    return SpectralDecomposition(
        eigenvalues=np.ascontiguousarray(eigenvalues[order]),
        eigenvectors=apply_sign_convention(vectors[:, order]),
    )


def _floor(eigenvalues: np.ndarray, name: str, singular_ok: bool) -> np.ndarray:
    """Ascending eigenvalues raised to at least ``EIGENVALUE_FLOOR`` times the
    largest: the one floor rule of :func:`floored_spectrum` and
    :func:`floored_eigenvalues`."""
    top = eigenvalues[-1]
    if top <= 0.0:
        raise SingularMatrixError(f"{name} has no positive eigenvalues")
    floor = EIGENVALUE_FLOOR * top
    deficient = int(np.sum(eigenvalues <= floor))
    if deficient:
        if not singular_ok:
            raise SingularMatrixError(
                f"{name} is singular ({deficient} eigenvalues at or below {floor:.3e})"
            )
        logger.debug("floored %d eigenvalues of %s", deficient, name)
    return np.maximum(eigenvalues, floor)


def floored_spectrum(m, name: str, singular_ok: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectrum with every eigenvalue raised to at least
    ``EIGENVALUE_FLOOR`` times the largest, so the matrix can be inverted.

    Raises :class:`SingularMatrixError` when no eigenvalue is positive, and
    when ``singular_ok`` is false and any eigenvalue lies at or below the
    floor.
    """
    eigenvalues, vectors = ascending_spectrum(m)
    return _floor(eigenvalues, name, singular_ok), vectors


def floored_eigenvalues(m, name: str) -> np.ndarray:
    """The eigenvalues of :func:`floored_spectrum` with ``singular_ok``,
    without the vectors: a CovarianceMatrix's validation eigenvalues, or the
    :func:`symmetric_eigenvalues` of a plain array, floored by the same rule."""
    if isinstance(m, CovarianceMatrix):
        eigenvalues = m.eigenvalues
    else:
        try:
            eigenvalues = symmetric_eigenvalues(np.asarray(m, dtype=float))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigenvalue computation failed to converge: {exc}") from exc
    return _floor(eigenvalues, name, singular_ok=True)


def psd_project(m, floor: float = 0.0) -> np.ndarray:
    """Clamp eigenvalues of (M + M^T)/2 to at least ``floor``."""
    if floor < 0.0:
        raise ParameterError("floor must be nonnegative")
    sym = symmetrize(as_matrix(m))
    eigenvalues, vectors = ascending_spectrum(sym)
    if eigenvalues[0] >= floor:
        return sym
    clamped = np.maximum(eigenvalues, floor)
    return symmetrize((vectors * clamped) @ vectors.T)


def stieltjes(z: complex, eigenvalues: np.ndarray) -> complex:
    """(1/p) * sum_j 1 / (lambda_j - z); pole if z hits the spectrum exactly."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ParameterError("eigenvalues must be a nonempty vector")
    z = complex(z)
    if z.imag == 0.0 and np.any(lam == z.real):
        raise NumericError(f"Stieltjes transform pole: z={z.real} is an eigenvalue")
    return complex(np.mean(1.0 / (lam - z)))


def cov_to_corr(m) -> tuple[np.ndarray, np.ndarray]:
    """Correlation matrix plus the variance diagonal needed to invert it."""
    values = as_matrix(m)
    variances = np.diag(values).copy()
    if np.any(variances <= 0.0):
        raise ParameterError("cov_to_corr requires a strictly positive diagonal")
    scale = np.sqrt(variances)
    corr = values / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return corr, variances


def corr_to_cov(corr: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`cov_to_corr`."""
    variances = np.asarray(variances, dtype=float)
    if np.any(variances <= 0.0):
        raise ParameterError("variances must be strictly positive")
    scale = np.sqrt(variances)
    cov = np.asarray(corr, dtype=float) * np.outer(scale, scale)
    np.fill_diagonal(cov, variances)
    return cov


def spectral_seriation(corr: np.ndarray) -> np.ndarray:
    """Reorder assets along the Fiedler vector of the similarity Laplacian.

    Similarity A = (C + 1)/2 keeps weights nonnegative; L = D - A.  Ties sort
    by ascending index, and the global sign is fixed so the Fiedler vector's
    first entry does not exceed its last.
    """
    c = np.asarray(corr, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ParameterError("correlation matrix must be square")
    p = c.shape[0]
    if p == 1:
        return np.zeros(1, dtype=int)
    if np.max(np.abs(np.diag(c) - 1.0)) > 1e-8:
        raise ParameterError("correlation matrix must have a unit diagonal")
    affinity = (symmetrize(c) + 1.0) / 2.0
    laplacian = np.diag(affinity.sum(axis=1)) - affinity
    _, vectors = ascending_spectrum(laplacian)
    fiedler = vectors[:, 1]
    if fiedler[0] > fiedler[-1]:
        fiedler = -fiedler
    return np.lexsort((np.arange(p), fiedler))
