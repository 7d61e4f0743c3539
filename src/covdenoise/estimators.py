"""Covariance estimators: naive, nonlinear eigenvalue shrinkage, hierarchical
correlation filtering, the trained-network estimators, and the two-step
compositions used by the evaluation harness.

The shrinkage estimator keeps the sample eigenvectors and replaces each
eigenvalue by the Ledoit-Wolf quadratic-inverse shrinkage value, a kernel
estimate of the rotation-equivariant optimum that remains well behaved for
heterogeneous spectra and in the singular p > n regime.

One private table maps every estimator name to the mode of the network it
needs (``"covariance"``, ``"eigenvectors"`` or none), to its estimate
function, and to whether that reads the sample's eigenvectors, which decides
how :func:`validated_sample` validates a sample for it.  Each
``2s-<first>`` entry is derived from its first stage, whose estimate is kept
in the sample's cache so that the two-step estimator on a sample reuses the
first-stage estimate already made from it.
:func:`network_mode` is the one place a name is validated, and
:func:`make_estimator` checks that the weights it binds were trained in that
mode.  Entries reach the estimate functions through their module-global
names at call time, so a wrapper installed on the module sees every call.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from .covariance import CovarianceMatrix, symmetrize
from .errors import ParameterError
from .hierarchy import cophenetic_matrix, correlation_distance, linkage
from .spectral import corr_to_cov, cov_to_corr, eigendecompose_sym


def shrink_eigenvalues(eigenvalues: np.ndarray, n: int) -> np.ndarray:
    """Shrunk spectrum for sample eigenvalues given n observations.

    Accepts eigenvalues sorted ascending and returns the shrunk values in the
    same order.  The p > n case assigns the common positive value prescribed
    for the null directions; the total trace is preserved.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ParameterError("eigenvalues must be a nonempty vector")
    if np.any(np.diff(lam) < 0):
        raise ParameterError("eigenvalues must be sorted ascending")
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    p = lam.size
    lam = np.clip(lam, 0.0, None)
    top = lam[-1]
    if top <= 0.0:
        raise ParameterError("cannot shrink an all-zero spectrum")
    c = p / n
    h = min(c * c, 1.0 / (c * c)) ** 0.35 / p ** 0.35
    n_null = max(p - n, 0)
    positive = np.maximum(lam[n_null:], top * 1e-14)
    inv = 1.0 / positive
    col = inv[:, None]
    diff = col - col.T
    denom = diff * diff + (col * h) ** 2
    theta = np.mean(col * diff / denom, axis=0)
    htheta = np.mean((col * col) * h / denom, axis=0)
    amp2 = theta * theta + htheta * htheta
    if p <= n:
        shrunk = 1.0 / ((1 - c) ** 2 * inv + 2 * c * (1 - c) * inv * theta + c * c * inv * amp2)
    else:
        null_value = 1.0 / ((c - 1.0) * float(np.mean(inv)))
        shrunk = np.concatenate((np.full(n_null, null_value), 1.0 / (inv * amp2)))
    return shrunk * (lam.sum() / shrunk.sum())


def estimate_naive(s: CovarianceMatrix) -> CovarianceMatrix:
    """The sample covariance itself."""
    return s.retagged("estimator:naive")


def estimate_lp(s: CovarianceMatrix, n: int) -> CovarianceMatrix:
    """Nonlinear shrinkage of the sample spectrum; sample eigenvectors kept.

    The estimate is recomposed from the sample's orthonormal eigenvectors, so
    its eigenvalues are the shrunk values and no LAPACK call validates it."""
    dec = eigendecompose_sym(s)
    shrunk = shrink_eigenvalues(dec.eigenvalues[::-1], n)[::-1]
    return CovarianceMatrix.recomposed(shrunk, dec.eigenvectors, "estimator:lp")


def filter_correlation(corr: np.ndarray) -> np.ndarray:
    """Replace a correlation matrix by its average-linkage cophenetic filtrate."""
    coph = cophenetic_matrix(linkage(correlation_distance(corr), "average"), corr.shape[0])
    filtered = 1.0 - coph
    np.fill_diagonal(filtered, 1.0)
    return filtered


def estimate_alca(s: CovarianceMatrix) -> CovarianceMatrix:
    """Hierarchical filtering: cluster the correlation distances, replace each
    correlation by one minus the cophenetic distance, rescale to covariance."""
    corr, variances = cov_to_corr(s)
    values = corr_to_cov(filter_correlation(corr), variances)
    return CovarianceMatrix(values, "estimator:alca")


def assemble_hybrid(v_denoised: np.ndarray, xi: np.ndarray) -> CovarianceMatrix:
    """Recompose V diag(xi) V^T from denoised vectors and shrunk eigenvalues."""
    v = np.asarray(v_denoised, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ParameterError(f"eigenvector matrix must be square, got {v.shape}")
    if xi.shape != (v.shape[0],):
        raise ParameterError(
            f"eigenvalue vector length {xi.shape} does not match matrix dim {v.shape[0]}"
        )
    if np.any(xi < -1e-12):
        raise ParameterError("shrunk eigenvalues must be nonnegative")
    xi = np.clip(xi, 0.0, None)
    values = symmetrize((v * xi) @ v.T)
    return CovarianceMatrix(values, "estimator:hybrid")


def estimate_cnn(s: CovarianceMatrix, weights) -> CovarianceMatrix:
    """Trained-network denoising of the covariance matrix itself."""
    from .denoiser import forward

    return CovarianceMatrix(forward(weights, s.values), "estimator:cnn")


def estimate_hybrid(s: CovarianceMatrix, n: int, weights) -> CovarianceMatrix:
    """Denoised eigenvectors recombined with the shrunk sample spectrum."""
    from .denoiser import forward

    dec = eigendecompose_sym(s)
    shrunk = shrink_eigenvalues(dec.eigenvalues[::-1], n)[::-1]
    denoised = forward(weights, dec.eigenvectors)
    return assemble_hybrid(denoised, shrunk)


class _Entry(NamedTuple):
    mode: str | None  # DenoiserConfig.mode of the network needed, or None
    estimate: Callable[[CovarianceMatrix, int, Any], CovarianceMatrix]  # (s, n, weights)
    vectors: bool = False  # whether the estimate reads the sample's eigenvectors


def _kept(name: str, stage: _Entry) -> _Entry:
    """The stage, keeping its estimate in the sample's cache under (name, n)
    beside the weights object, so that the same sample, n and weights (by
    identity) reuse it: ``lp`` and ``2s-lp`` of one realization estimate
    ``lp`` once.  Weights changed in place after use are not noticed."""

    def estimate(s: CovarianceMatrix, n: int, weights) -> CovarianceMatrix:
        key = ("estimate", name, n)
        kept = s._cache.get(key)
        if kept is not None and kept[0] is weights:
            return kept[1]
        result = stage.estimate(s, n, weights)
        s._cache[key] = (weights, result)
        return result

    return stage._replace(estimate=estimate)


def _two_step(first: str, stage: _Entry) -> _Entry:
    """The first stage followed by the hierarchical filter."""
    provenance = f"estimator:2s-{first}"
    return stage._replace(
        estimate=lambda s, n, w: estimate_alca(stage.estimate(s, n, w)).retagged(provenance)
    )


_ESTIMATORS = {
    "naive": _Entry(None, lambda s, n, w: estimate_naive(s)),
    "lp": _Entry(None, lambda s, n, w: estimate_lp(s, n), vectors=True),
    "cnn": _Entry("covariance", lambda s, n, w: estimate_cnn(s, w)),
    "hybrid": _Entry("eigenvectors", lambda s, n, w: estimate_hybrid(s, n, w), vectors=True),
    "alca": _Entry(None, lambda s, n, w: estimate_alca(s)),
}
for first in ("lp", "cnn", "hybrid"):
    _ESTIMATORS[first] = _kept(first, _ESTIMATORS[first])
    _ESTIMATORS[f"2s-{first}"] = _two_step(first, _ESTIMATORS[first])

ESTIMATOR_NAMES = tuple(_ESTIMATORS)


def network_mode(name: str) -> str | None:
    """The mode of the trained network the estimator needs, or None."""
    if name not in _ESTIMATORS:
        raise ParameterError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
    return _ESTIMATORS[name].mode


def validated_sample(name: str, values) -> CovarianceMatrix:
    """The sample covariance ``values`` as a ``"sample"`` CovarianceMatrix for
    estimator ``name``: validated from one ``eigh`` whose spectrum is cached
    (:meth:`CovarianceMatrix.decomposed`) when the estimator reads the
    sample's eigenvectors, from ``eigvalsh`` otherwise."""
    network_mode(name)
    if _ESTIMATORS[name].vectors:
        return CovarianceMatrix.decomposed(values, "sample")
    return CovarianceMatrix(values, "sample")


def _check_weights(name: str, weights) -> None:
    mode = network_mode(name)
    if mode is None:
        return
    if weights is None:
        raise ParameterError(f"estimator {name!r} requires {mode}-mode weights")
    if weights.config.mode != mode:
        raise ParameterError(
            f"estimator {name!r} requires {mode}-mode weights, "
            f"got {weights.config.mode}-mode weights"
        )


def make_estimator(
    name: str, n: int, weights=None
) -> Callable[[CovarianceMatrix], CovarianceMatrix]:
    """Bind an estimator name, its sample size and (for the trained
    estimators) the network weights to a single-argument callable."""
    _check_weights(name, weights)
    estimate = _ESTIMATORS[name].estimate
    return lambda s: estimate(s, n, weights)


def estimate_two_step(s: CovarianceMatrix, n: int, first: str, *, weights=None) -> CovarianceMatrix:
    """First-step estimator (lp, cnn or hybrid) followed by the hierarchical filter."""
    return make_estimator(f"2s-{first}", n, weights)(s)
