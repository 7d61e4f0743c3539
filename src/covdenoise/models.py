"""Population covariance models and the Gaussian sampling process.

Three generative families are provided: equicorrelated diagonal blocks,
a fully nested (anti-triangular factor) hierarchy, and a power-law spectrum
conjugated by a random orthogonal matrix.  Sampling draws Y = sqrt(Sigma) X
with i.i.d. standard-normal X and returns S = Y Y^T / n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .covariance import PSD_REL_TOL, CovarianceMatrix, as_covariance, symmetrize, window_covariance
from .errors import NumericError, ParameterError
from .randomness import generator


class ModelKind(str, Enum):
    BLOCK = "block"
    NESTED = "nested"
    POWERLAW = "powerlaw"


@dataclass(frozen=True)
class ModelSpec:
    """Serializable description of one population model."""

    kind: ModelKind
    p: int
    block_sizes: tuple[int, ...] | None = None
    gamma: float | None = None
    alpha: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        kind = ModelKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.p < 1:
            raise ParameterError("p must be a positive integer")
        if kind is ModelKind.BLOCK:
            if not self.block_sizes:
                raise ParameterError("block model requires block_sizes")
            sizes = tuple(int(s) for s in self.block_sizes)
            if any(s < 1 for s in sizes):
                raise ParameterError("block sizes must be positive")
            if sum(sizes) != self.p:
                raise ParameterError(f"block sizes sum to {sum(sizes)}, expected p={self.p}")
            object.__setattr__(self, "block_sizes", sizes)
            if self.gamma is None or not 0.0 <= self.gamma < 1.0:
                raise ParameterError("block model requires gamma in [0, 1)")
        elif kind is ModelKind.NESTED:
            if self.gamma is None or not 0.0 < self.gamma < np.inf:
                raise ParameterError(
                    f"nested model requires gamma > 0 and finite, got {self.gamma}")
        else:
            if self.alpha is None or not 0.0 <= self.alpha < np.inf:
                raise ParameterError(
                    f"power-law model requires alpha >= 0 and finite, got {self.alpha}")

    def build(self) -> CovarianceMatrix:
        if self.kind is ModelKind.BLOCK:
            return build_block_model(self.block_sizes, self.gamma)
        if self.kind is ModelKind.NESTED:
            return build_nested_model(self.p, self.gamma)
        return build_powerlaw_model(self.p, self.alpha, self.seed)

    def to_config(self) -> dict[str, str]:
        cfg = {"kind": self.kind.value, "p": str(self.p), "seed": str(self.seed)}
        if self.block_sizes is not None:
            cfg["block_sizes"] = ",".join(str(s) for s in self.block_sizes)
        if self.gamma is not None:
            cfg["gamma"] = repr(float(self.gamma))
        if self.alpha is not None:
            cfg["alpha"] = repr(float(self.alpha))
        return cfg

    @classmethod
    def from_config(cls, cfg: Mapping[str, str]) -> "ModelSpec":
        known = {"kind", "p", "block_sizes", "gamma", "alpha", "seed"}
        unknown = set(cfg) - known
        if unknown:
            raise ParameterError(f"unknown model config keys: {sorted(unknown)}")
        try:
            kind = ModelKind(cfg["kind"])
            p = int(cfg["p"])
        except KeyError as exc:
            raise ParameterError(f"model config missing key {exc.args[0]!r}") from None
        sizes = None
        if "block_sizes" in cfg and cfg["block_sizes"]:
            sizes = tuple(int(tok) for tok in str(cfg["block_sizes"]).split(","))
        return cls(
            kind=kind,
            p=p,
            block_sizes=sizes,
            gamma=float(cfg["gamma"]) if "gamma" in cfg else None,
            alpha=float(cfg["alpha"]) if "alpha" in cfg else None,
            seed=int(cfg.get("seed", 0)),
        )


@dataclass(frozen=True, eq=False)
class SampleDraw:
    """One realization (p x n data matrix) and its sample covariance."""

    data: np.ndarray
    sample: CovarianceMatrix
    n: int
    seed: int


def build_block_model(block_sizes: Sequence[int], gamma: float) -> CovarianceMatrix:
    """Equicorrelation blocks: unit diagonal, ``gamma`` inside each block, 0 across."""
    sizes = [int(s) for s in block_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ParameterError("block sizes must be positive integers")
    if not 0.0 <= gamma < 1.0:
        raise ParameterError(f"gamma must lie in [0, 1), got {gamma}")
    p = sum(sizes)
    values = np.zeros((p, p))
    offset = 0
    for size in sizes:
        values[offset:offset + size, offset:offset + size] = gamma
        offset += size
    np.fill_diagonal(values, 1.0)
    return CovarianceMatrix(values, "model-1")


def build_nested_model(p: int, gamma: float) -> CovarianceMatrix:
    """Nested hierarchy L L^T with anti-triangular L; entries gamma^2 (p+1-max(i,j))."""
    if p < 1:
        raise ParameterError("p must be a positive integer")
    if gamma <= 0.0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if not np.isfinite(gamma):
        raise ParameterError(f"gamma must be finite, got {gamma}")
    idx = np.arange(1, p + 1)
    counts = (p + 1 - np.maximum.outer(idx, idx)).astype(float)
    return CovarianceMatrix(gamma * gamma * counts, "model-2")


def build_powerlaw_model(p: int, alpha: float, seed: int) -> CovarianceMatrix:
    """Spectrum i^(-alpha) conjugated by a seeded Haar-orthogonal matrix."""
    if p < 1:
        raise ParameterError("p must be a positive integer")
    if alpha < 0.0:
        raise ParameterError(f"alpha must be nonnegative, got {alpha}")
    if not np.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    spectrum = np.arange(1, p + 1, dtype=float) ** (-alpha)
    gauss = generator(seed).standard_normal((p, p))
    q, r = np.linalg.qr(gauss)
    # sign-fix the QR factor so the orthogonal draw is Haar and unambiguous
    q = q * np.sign(np.diag(r))
    values = symmetrize((q * spectrum) @ q.T)
    return CovarianceMatrix(values, "model-3")


def matrix_sqrt_psd(sigma: CovarianceMatrix) -> np.ndarray:
    """Symmetric PSD square root from the cached spectrum; clamps tiny negatives.

    Computed once per matrix and cached, read-only, beside its spectrum.  Not
    locked: a matrix shared between threads must have its root filled before
    the threads start.  A non-PSD input raises and caches nothing.
    """
    if "sqrt" not in sigma._cache:
        eigenvalues, vectors = sigma.spectrum
        if eigenvalues[0] < -PSD_REL_TOL * max(eigenvalues[-1], 0.0):
            raise NumericError(
                f"matrix square root of a non-PSD input (min eig {eigenvalues[0]:.3e})"
            )
        root = np.sqrt(np.clip(eigenvalues, 0.0, None))
        values = symmetrize((vectors * root) @ vectors.T)
        values.flags.writeable = False
        sigma._cache["sqrt"] = values
    return sigma._cache["sqrt"]


def sample_covariance(sigma: CovarianceMatrix, n: int, seed: int) -> SampleDraw:
    """Draw Y = sqrt(Sigma) X with X ~ N(0,1)^(p x n); S = Y Y^T / n.  A
    plain-array ``sigma`` is validated as a CovarianceMatrix first."""
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    sigma = as_covariance(sigma)
    root = matrix_sqrt_psd(sigma)
    x = generator(seed).standard_normal((sigma.dim, n))
    y = root @ x
    sample = CovarianceMatrix(window_covariance(y), "sample")
    return SampleDraw(data=y, sample=sample, n=n, seed=seed)
