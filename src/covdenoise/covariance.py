"""The validated covariance-matrix value type and the window covariance of
returns.

A :class:`CovarianceMatrix` is frozen after validation, so its ascending
spectrum is computed once and cached; the descending decomposition
(:func:`~covdenoise.spectral.eigendecompose_sym` reorders it), the sampling
root and the closed-form portfolio allocation all read it.  The eigenvalues
that validation computes are kept too; the minimum-variance loss, the
backtest's condition number and the long-only QP of a full-rank matrix need
nothing more.  A matrix whose eigenvectors will be read is validated from
that one decomposition instead (:meth:`CovarianceMatrix.decomposed`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError

SYMMETRY_ABS_TOL = 1e-12
PSD_REL_TOL = 1e-10

_PROVENANCE_FIXED = {"model-1", "model-2", "model-3", "sample"}


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def window_covariance(returns: np.ndarray) -> np.ndarray:
    """Uncentred covariance R R^T / T of an (assets, days) returns window."""
    cov = symmetrize(returns @ returns.T / returns.shape[1])
    if np.any(np.diag(cov) <= 0.0):
        raise DataError("degenerate variance: an asset has zero variance in the window")
    return cov


def as_matrix(m) -> np.ndarray:
    """Accept a CovarianceMatrix or a plain array; return the ndarray view."""
    return m.values if isinstance(m, CovarianceMatrix) else np.asarray(m, dtype=float)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric PSD matrix with provenance.

    Invariants checked at construction: symmetry to 1e-12 absolute, minimum
    eigenvalue >= -1e-10 * maximum eigenvalue, strictly positive diagonal.
    The array is frozen (read-only) after validation, so its spectrum is
    computed on first use and cached.  ``eigenvalues`` holds the ascending
    eigenvalues of the validation, read-only.  ``CovarianceMatrix(values)``
    validates with :func:`~covdenoise.spectral.symmetric_eigenvalues` (the
    bytes of ``np.linalg.eigvalsh``), whose values may differ from
    ``spectrum[0]`` in the last bits; a :meth:`decomposed` matrix is validated
    from its one ``eigh``, so its eigenvalues are ``spectrum[0]`` itself; a
    :meth:`recomposed` one takes the eigenvalues it was built from.
    """

    values: np.ndarray
    provenance: str = "sample"
    dim: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    # lazily filled; shared with every retagged copy of these values
    _cache: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        from .spectral import symmetric_eigenvalues

        values = _checked(self.values)
        self._seal(values, self.provenance, symmetric_eigenvalues(values))

    @classmethod
    def decomposed(cls, values, provenance: str = "sample") -> "CovarianceMatrix":
        """The matrix validated from one ``np.linalg.eigh``, whose ascending
        spectrum is cached: for a caller that reads the eigenvectors, this
        saves the ``eigvalsh`` of the validation.  Same checks and messages as
        the constructor; ``eigenvalues`` is ``spectrum[0]``."""
        from .spectral import ascending_spectrum

        values = _checked(values)
        eigenvalues, vectors = ascending_spectrum(values)
        matrix = object.__new__(cls)
        matrix._seal(values, provenance, eigenvalues)
        vectors.flags.writeable = False
        matrix._cache["spectrum"] = (matrix.eigenvalues, vectors)
        return matrix

    @classmethod
    def recomposed(
        cls, eigenvalues: np.ndarray, vectors: np.ndarray, provenance: str
    ) -> "CovarianceMatrix":
        """V diag(eigenvalues) V' for orthonormal ``vectors`` V (the columns of
        an ``eigh``), validated without LAPACK: ``eigenvalues``, sorted, are
        its eigenvalues to rounding, and the PSD check reads them.  Vectors
        that are not orthonormal make those eigenvalues wrong; recompose such
        a matrix with the constructor instead."""
        values = _checked(symmetrize((vectors * eigenvalues) @ vectors.T))
        matrix = object.__new__(cls)
        matrix._seal(values, provenance, np.sort(eigenvalues))
        return matrix

    def _seal(self, values: np.ndarray, provenance: str, eigenvalues: np.ndarray) -> None:
        """The PSD and provenance checks on :func:`_checked` ``values`` and
        their ascending ``eigenvalues``; then freeze both and fill the fields."""
        lo, hi = eigenvalues[0], eigenvalues[-1]
        if lo < -PSD_REL_TOL * max(hi, 0.0):
            raise ParameterError(
                f"covariance not positive semidefinite (min eig {lo:.3e}, max eig {hi:.3e})"
            )
        _check_provenance(provenance)
        values.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "dim", values.shape[0])
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "_cache", {})

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending ``np.linalg.eigh`` of the values as read-only
        (eigenvalues, eigenvectors), computed once.

        Not locked: a matrix shared between threads must have its spectrum
        filled before the threads start.
        """
        if "spectrum" not in self._cache:
            from .spectral import ascending_spectrum

            eigenvalues, vectors = ascending_spectrum(self.values)
            eigenvalues.flags.writeable = False
            vectors.flags.writeable = False
            self._cache["spectrum"] = (eigenvalues, vectors)
        return self._cache["spectrum"]

    def retagged(self, provenance: str) -> "CovarianceMatrix":
        """The same validated, frozen values, eigenvalues and spectrum cache
        under a new provenance tag; only the tag is checked."""
        _check_provenance(provenance)
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, provenance=provenance)
        return clone


def _checked(values) -> np.ndarray:
    """A float copy of ``values`` that is square, finite, symmetric to
    ``SYMMETRY_ABS_TOL`` and strictly positive on the diagonal."""
    values = np.array(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ParameterError(f"covariance must be square, got shape {values.shape}")
    if values.shape[0] < 1:
        raise ParameterError("covariance must have dimension >= 1")
    if not np.all(np.isfinite(values)):
        raise ParameterError("covariance contains non-finite entries")
    asym = np.max(np.abs(values - values.T))
    if asym > SYMMETRY_ABS_TOL:
        raise ParameterError(f"covariance not symmetric (max asymmetry {asym:.3e})")
    if np.any(np.diag(values) <= 0.0):
        raise ParameterError("covariance diagonal must be strictly positive")
    return values


def _check_provenance(provenance: str) -> None:
    if not (provenance in _PROVENANCE_FIXED or provenance.startswith("estimator:")):
        raise ParameterError(f"unknown provenance tag {provenance!r}")
