"""Loss functions and the Monte Carlo evaluation harness.

The harness draws m sample covariances from a population model, applies each
configured estimator, and reports mean and standard error of the Frobenius
and minimum-variance losses per estimator.  Realizations run on independent
sub-seeds and may be evaluated on a thread pool; aggregation is by
realization index, so thread scheduling never changes the results.

The harness parallelizes over realizations, never inside BLAS: everything
after the denoiser training runs with the loaded OpenBLAS pinned to one
thread, so ``threads`` pool threads use ``threads`` cores and the results do
not depend on the host's ``OPENBLAS_NUM_THREADS``.  Training keeps the host's
BLAS threads.

Each realization calls ``models.sample_covariance`` and :func:`mv_loss`
directly.  Both read the cached spectrum of their ``CovarianceMatrix``
arguments, so the population matrix is decomposed once per run and each
sample once, shared by every estimator and loss that needs its spectrum.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from ._blas import single_blas_thread
from .covariance import as_matrix
from .errors import CovDenoiseError, ParameterError
from .estimators import make_estimator, network_mode
from .ingest import table_text
from .models import ModelSpec, sample_covariance
from .randomness import STREAM_REALIZATION, child_seed
from .spectral import floored_spectrum


def frobenius_loss(xi, sigma) -> float:
    """(1/p) Tr[(Xi - Sigma)(Xi - Sigma)^T]."""
    xi = as_matrix(xi)
    sigma = as_matrix(sigma)
    if xi.shape != sigma.shape:
        raise ParameterError(f"dimension mismatch: {xi.shape} vs {sigma.shape}")
    diff = xi - sigma
    return float(np.sum(diff * diff) / sigma.shape[0])


def _floored_inverse(m, name: str, singular_ok: bool) -> np.ndarray:
    eigenvalues, vectors = floored_spectrum(m, name, singular_ok)
    return (vectors / eigenvalues) @ vectors.T


def mv_loss(xi, sigma) -> float:
    """Minimum-variance loss of an estimate against the population matrix.

    Near-singular estimates are inverted after flooring eigenvalues at
    1e-12 times the largest; a singular population matrix is an error.
    """
    xi_values = as_matrix(xi)
    sigma_values = as_matrix(sigma)
    if xi_values.shape != sigma_values.shape:
        raise ParameterError(f"dimension mismatch: {xi_values.shape} vs {sigma_values.shape}")
    p = sigma_values.shape[0]
    sigma_inv = _floored_inverse(sigma, "sigma", singular_ok=False)
    xi_inv = _floored_inverse(xi, "xi", singular_ok=True)
    numerator = float(np.trace(sigma_inv @ xi_values @ sigma_inv)) / p
    denominator = (float(np.trace(sigma_inv)) / p) ** 2
    return numerator / denominator - 1.0 / (float(np.trace(xi_inv)) / p)


@dataclass(frozen=True)
class EstimatorRow:
    mean_f: float
    se_f: float
    mean_mv: float
    se_mv: float
    failures: int


@dataclass(frozen=True)
class MonteCarloReport:
    model: ModelSpec
    p: int
    n: int
    m: int
    seed: int
    estimators: tuple[str, ...]
    rows: dict[str, EstimatorRow]

    def to_csv_text(self) -> str:
        header = ("estimator", *(column.name for column in fields(EstimatorRow)))
        return table_text(header, ((name, *astuple(self.rows[name])) for name in self.estimators))

    def to_json_text(self) -> str:
        payload = {
            "model": self.model.to_config(),
            "p": self.p,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "estimators": list(self.estimators),
            "rows": {name: asdict(row) for name, row in self.rows.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# training seed stream of each network mode
_TRAINING_STREAMS = {"covariance": 10, "eigenvectors": 11}


def _train_harness_weights(model, n, modes, seed, denoiser_config, train_count):
    """Train one net per network mode in ``modes``, once per run, on seeds
    disjoint from the evaluation realizations."""
    from .denoiser import build_training_set_simulation, train

    weights = {}
    for mode, stream in _TRAINING_STREAMS.items():
        if mode in modes:
            data = build_training_set_simulation(
                model, n, train_count, child_seed(seed, stream), mode=mode
            )
            weights[mode], _ = train(replace(denoiser_config, mode=mode), data)
    return weights


def run_monte_carlo(
    model: ModelSpec,
    n: int,
    m: int,
    estimators: list[str],
    seed: int,
    denoiser_config=None,
    train_count: int = 100,
    threads: int = 1,
) -> MonteCarloReport:
    """Average both losses over m realizations for each estimator."""
    if m < 1:
        raise ParameterError("m must be >= 1")
    names = tuple(estimators)
    modes = {name: network_mode(name) for name in names}
    needs_training = [name for name in names if modes[name]]
    if needs_training and denoiser_config is None:
        raise ParameterError(f"estimators {needs_training} require a denoiser configuration")
    weights = _train_harness_weights(
        model, n, set(modes.values()), seed, denoiser_config, train_count
    )
    with single_blas_thread():
        sigma = model.build()
        bound = {name: make_estimator(name, n, weights=weights.get(modes[name])) for name in names}
        sigma.spectrum  # filled before any realization runs; pool threads only read it

        losses_f = {name: np.full(m, np.nan) for name in names}
        losses_mv = {name: np.full(m, np.nan) for name in names}

        def one_realization(index: int) -> None:
            draw = sample_covariance(sigma, n, child_seed(seed, STREAM_REALIZATION, index))
            for name in names:
                try:
                    estimate = bound[name](draw.sample)
                    losses_f[name][index] = frobenius_loss(estimate, sigma)
                    losses_mv[name][index] = mv_loss(estimate, sigma)
                except (CovDenoiseError, np.linalg.LinAlgError):
                    losses_f[name][index] = np.nan
                    losses_mv[name][index] = np.nan

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(one_realization, range(m)))
        else:
            for index in range(m):
                one_realization(index)

        rows = {}
        for name in names:
            f_vals = losses_f[name]
            mv_vals = losses_mv[name]
            ok = np.isfinite(f_vals) & np.isfinite(mv_vals)
            count = int(ok.sum())
            if count:
                f_ok, mv_ok = f_vals[ok], mv_vals[ok]
                se = 1.0 / np.sqrt(count)
                rows[name] = EstimatorRow(
                    mean_f=float(f_ok.mean()),
                    se_f=float(f_ok.std(ddof=1) * se) if count > 1 else 0.0,
                    mean_mv=float(mv_ok.mean()),
                    se_mv=float(mv_ok.std(ddof=1) * se) if count > 1 else 0.0,
                    failures=m - count,
                )
            else:
                rows[name] = EstimatorRow(np.nan, np.nan, np.nan, np.nan, m)
        return MonteCarloReport(
            model=model, p=sigma.dim, n=n, m=m, seed=seed, estimators=names, rows=rows
        )
