"""Covariance estimators: naive, nonlinear eigenvalue shrinkage, hierarchical
correlation filtering, and the compositions used by the evaluation harness.

The shrinkage estimator keeps the sample eigenvectors and replaces each
eigenvalue by the Ledoit-Wolf quadratic-inverse shrinkage value, a kernel
estimate of the rotation-equivariant optimum that remains well behaved for
heterogeneous spectra and in the singular p > n regime.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .covariance import CovarianceMatrix, symmetrize
from .errors import DataError, ParameterError
from .hierarchy import cophenetic_matrix, linkage
from .spectral import corr_to_cov, cov_to_corr

ESTIMATOR_NAMES = ("naive", "lp", "cnn", "hybrid", "alca", "2s-lp", "2s-cnn", "2s-hybrid")

TRAINED_COVARIANCE = ("cnn", "2s-cnn")
TRAINED_EIGENVECTOR = ("hybrid", "2s-hybrid")


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
    """Nonlinear shrinkage of the sample spectrum; sample eigenvectors kept."""
    dec = s.decomposition
    shrunk = shrink_eigenvalues(dec.eigenvalues[::-1], n)[::-1]
    values = symmetrize((dec.eigenvectors * shrunk) @ dec.eigenvectors.T)
    return CovarianceMatrix(values, "estimator:lp")


def filter_correlation(corr: np.ndarray) -> np.ndarray:
    """Replace a correlation matrix by its average-linkage cophenetic filtrate."""
    overshoot = np.max(np.abs(corr)) - 1.0
    if overshoot > 1e-10:
        raise DataError(f"invalid correlation: |C_ij| exceeds 1 by {overshoot:.3e}")
    distance = 1.0 - np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(distance, 0.0)
    coph = cophenetic_matrix(linkage(distance, "average"), corr.shape[0])
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

    dec = s.decomposition
    shrunk = shrink_eigenvalues(dec.eigenvalues[::-1], n)[::-1]
    denoised = forward(weights, dec.eigenvectors)
    return assemble_hybrid(denoised, shrunk)


def estimate_two_step(s: CovarianceMatrix, n: int, first: str, *, weights=None) -> CovarianceMatrix:
    """First-step estimator followed by the hierarchical filter."""
    if first not in ("lp", "cnn", "hybrid"):
        raise ParameterError(f"two-step first stage must be lp, cnn or hybrid, got {first!r}")
    if first == "lp":
        stage = estimate_lp(s, n)
    elif first == "cnn":
        if weights is None:
            raise ParameterError("two-step cnn stage requires trained weights")
        stage = estimate_cnn(s, weights)
    else:
        if weights is None:
            raise ParameterError("two-step hybrid stage requires trained weights")
        stage = estimate_hybrid(s, n, weights)
    return estimate_alca(stage).retagged(f"estimator:2s-{first}")


def make_estimator(
    name: str,
    n: int,
    *,
    cov_weights=None,
    vec_weights=None,
) -> Callable[[CovarianceMatrix], CovarianceMatrix]:
    """Bind an estimator name to a single-argument callable."""
    if name not in ESTIMATOR_NAMES:
        raise ParameterError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
    if name in TRAINED_COVARIANCE and cov_weights is None:
        raise ParameterError(f"estimator {name!r} requires covariance-mode weights")
    if name in TRAINED_EIGENVECTOR and vec_weights is None:
        raise ParameterError(f"estimator {name!r} requires eigenvector-mode weights")
    if name == "naive":
        return estimate_naive
    if name == "lp":
        return lambda s: estimate_lp(s, n)
    if name == "cnn":
        return lambda s: estimate_cnn(s, cov_weights)
    if name == "hybrid":
        return lambda s: estimate_hybrid(s, n, vec_weights)
    if name == "alca":
        return estimate_alca
    first = name.split("-", 1)[1]
    stage_weights = cov_weights if first == "cnn" else vec_weights if first == "hybrid" else None
    return lambda s: estimate_two_step(s, n, first, weights=stage_weights)
