"""Symmetric-matrix machinery: eigendecomposition with fixed conventions,
the floored spectrum and eigenvalues used to invert near-singular matrices,
PSD projection, correlation scaling, the Stieltjes transform, and spectral
seriation of correlation matrices.

For a :class:`~covdenoise.covariance.CovarianceMatrix` every spectral helper
here reads the matrix's cached ``spectrum`` or its validation eigenvalues
instead of calling LAPACK again; a plain array is decomposed by
:func:`covdenoise._blas.eigh`, the package's one eigensolver boundary.
"""

from __future__ import annotations

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
    """Ascending (eigenvalues, eigenvectors) of a symmetric matrix: a
    CovarianceMatrix's cached spectrum, or a plain array's ``_blas.eigh``."""
    return m.spectrum if isinstance(m, CovarianceMatrix) else _blas.eigh(as_matrix(m))


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


def floored_eigenvalues(m: CovarianceMatrix, name: str) -> np.ndarray:
    """The eigenvalues of :func:`floored_spectrum` with ``singular_ok``, read
    from the validation eigenvalues of ``m``: no LAPACK call."""
    return _floor(m.eigenvalues, name, singular_ok=True)


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
