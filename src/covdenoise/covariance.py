"""The validated covariance-matrix value type and the window covariance of
returns.

A :class:`CovarianceMatrix` is frozen after validation, so its ascending
spectrum is computed once and cached; the descending decomposition
(:func:`~covdenoise.spectral.eigendecompose_sym` reorders it), the sampling
root and the portfolio allocation all read it.  The eigenvalues that
validation computes are kept too; the minimum-variance loss and the
backtest's condition number need nothing more.
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


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric PSD matrix with provenance.

    Invariants checked at construction: symmetry to 1e-12 absolute, minimum
    eigenvalue >= -1e-10 * maximum eigenvalue, strictly positive diagonal.
    The array is frozen (read-only) after validation, so its spectrum is
    computed on first use and cached.  ``eigenvalues`` holds the ascending
    ``np.linalg.eigvalsh`` values of the validation, read-only; they may
    differ from ``spectrum[0]`` in the last bits.
    """

    values: np.ndarray
    provenance: str = "sample"
    dim: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    # lazily filled; shared with every retagged copy of these values
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ParameterError(f"covariance must be square, got shape {values.shape}")
        if values.shape[0] < 1:
            raise ParameterError("covariance must have dimension >= 1")
        if not np.all(np.isfinite(values)):
            raise ParameterError("covariance contains non-finite entries")
        asym = np.max(np.abs(values - values.T))
        if asym > SYMMETRY_ABS_TOL:
            raise ParameterError(f"covariance not symmetric (max asymmetry {asym:.3e})")
        diag = np.diag(values)
        if np.any(diag <= 0.0):
            raise ParameterError("covariance diagonal must be strictly positive")
        eigenvalues = np.linalg.eigvalsh(values)
        lo, hi = eigenvalues[0], eigenvalues[-1]
        if lo < -PSD_REL_TOL * max(hi, 0.0):
            raise ParameterError(
                f"covariance not positive semidefinite (min eig {lo:.3e}, max eig {hi:.3e})"
            )
        _check_provenance(self.provenance)
        values.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "values", values)
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


def _check_provenance(provenance: str) -> None:
    if not (provenance in _PROVENANCE_FIXED or provenance.startswith("estimator:")):
        raise ParameterError(f"unknown provenance tag {provenance!r}")
