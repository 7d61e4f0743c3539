"""Loss functions and the Monte Carlo evaluation harness.

The harness draws m sample covariances from a population model, applies each
configured estimator, and reports mean and standard error of the Frobenius
and minimum-variance losses per estimator.  Realizations run on independent
sub-seeds and may be evaluated on a thread pool; aggregation is by
realization index, so thread scheduling never changes the results.

The whole run, the denoiser training included, runs on one BLAS thread, by
the package's BLAS rule (:mod:`covdenoise._blas`): the harness parallelizes
over realizations, and training over samples, never inside BLAS.

Each realization calls ``models.sample_covariance`` and :func:`mv_loss`
directly.  Both read what their ``CovarianceMatrix`` arguments cache, so the
population matrix is decomposed once per run and its square root and
Sigma^-2 built once, before any realization runs.  :func:`mv_loss` reads
only the estimate's eigenvalues, which its validation already computed, so
the one eigendecomposition of a realization is the sample's, for the
estimators that need its vectors.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from ._blas import single_blas_thread
from .covariance import CovarianceMatrix, as_matrix
from .errors import CovDenoiseError, ParameterError, SingularMatrixError
from .estimators import make_estimator, network_mode
from .ingest import table_text
from .models import ModelSpec, matrix_sqrt_psd, sample_covariance
from .randomness import (
    STREAM_HARNESS_COVARIANCE,
    STREAM_HARNESS_EIGENVECTORS,
    STREAM_REALIZATION,
    child_seed,
)
from .spectral import floored_eigenvalues, floored_spectrum


def frobenius_loss(xi, sigma) -> float:
    """(1/p) Tr[(Xi - Sigma)(Xi - Sigma)^T]."""
    xi = as_matrix(xi)
    sigma = as_matrix(sigma)
    if xi.shape != sigma.shape:
        raise ParameterError(f"dimension mismatch: {xi.shape} vs {sigma.shape}")
    diff = xi - sigma
    return float(np.sum(diff * diff) / sigma.shape[0])


def _population_inverse(sigma) -> tuple[np.ndarray, float]:
    """Sigma^-2 and Tr Sigma^-1 from Sigma's floored spectrum, cached on a
    CovarianceMatrix beside its spectrum.

    Not locked: a matrix shared between threads must have them filled before
    the threads start.  A singular Sigma raises and caches nothing.
    """
    cache = sigma._cache if isinstance(sigma, CovarianceMatrix) else {}
    if "mv_loss" not in cache:
        eigenvalues, vectors = floored_spectrum(sigma, "sigma", singular_ok=False)
        inverse_square = (vectors / eigenvalues**2) @ vectors.T
        inverse_square.flags.writeable = False
        cache["mv_loss"] = (inverse_square, float(np.sum(1.0 / eigenvalues)))
    return cache["mv_loss"]


def mv_loss(xi, sigma) -> float:
    """Minimum-variance loss of an estimate against the population matrix,

        p Tr(Sigma^-1 Xi Sigma^-1) / (Tr Sigma^-1)^2 - p / Tr Xi^-1.

    The numerator is read as the inner product <Sigma^-2, Xi>, with Sigma^-2
    built once per population matrix (:func:`_population_inverse`), so the
    estimate contributes only its eigenvalues: the validation eigenvalues of
    a CovarianceMatrix, or one ``eigvalsh`` of a plain array.  This agrees
    with the explicit product of inverses within 1e-12 relative.

    Near-singular estimates are inverted after flooring eigenvalues at
    1e-12 times the largest; a singular population matrix is an error.
    """
    xi_values = as_matrix(xi)
    sigma_values = as_matrix(sigma)
    if xi_values.shape != sigma_values.shape:
        raise ParameterError(f"dimension mismatch: {xi_values.shape} vs {sigma_values.shape}")
    p = sigma_values.shape[0]
    inverse_square, sigma_inv_trace = _population_inverse(sigma)
    xi_eigenvalues = floored_eigenvalues(xi, "xi")
    numerator = float(np.vdot(inverse_square, xi_values)) / p
    denominator = (sigma_inv_trace / p) ** 2
    return numerator / denominator - 1.0 / (float(np.sum(1.0 / xi_eigenvalues)) / p)


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


def _estimator_row(losses: np.ndarray) -> EstimatorRow:
    """Mean and standard error of each of the (2, m) ``losses`` over the
    realizations where both are finite; the rest count as failures."""
    ok = np.isfinite(losses).all(axis=0)
    count = int(ok.sum())
    if not count:
        return EstimatorRow(np.nan, np.nan, np.nan, np.nan, losses.shape[1])
    f_ok, mv_ok = losses[0, ok], losses[1, ok]
    se = 1.0 / np.sqrt(count)
    return EstimatorRow(
        mean_f=float(f_ok.mean()),
        se_f=float(f_ok.std(ddof=1) * se) if count > 1 else 0.0,
        mean_mv=float(mv_ok.mean()),
        se_mv=float(mv_ok.std(ddof=1) * se) if count > 1 else 0.0,
        failures=losses.shape[1] - count,
    )


# training seed stream of each network mode
_TRAINING_STREAMS = {
    "covariance": STREAM_HARNESS_COVARIANCE,
    "eigenvectors": STREAM_HARNESS_EIGENVECTORS,
}


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
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    names = tuple(estimators)
    if not names:
        raise ParameterError("no estimators given")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ParameterError(f"estimators {repeated} are listed more than once")
    modes = {name: network_mode(name) for name in names}
    needs_training = [name for name in names if modes[name]]
    if needs_training and denoiser_config is None:
        raise ParameterError(f"estimators {needs_training} require a denoiser configuration")
    with single_blas_thread():
        weights = _train_harness_weights(
            model, n, set(modes.values()), seed, denoiser_config, train_count
        )
        sigma = model.build()
        bound = {name: make_estimator(name, n, weights=weights.get(modes[name])) for name in names}
        # sigma's spectrum, square root and Sigma^-2 are filled before any
        # realization runs, so pool threads only read them.  A singular sigma
        # caches no Sigma^-2: every mv_loss raises and counts as a failure
        matrix_sqrt_psd(sigma)
        with suppress(SingularMatrixError):
            _population_inverse(sigma)

        def one_realization(index: int) -> np.ndarray:
            """(Frobenius, MV) losses per estimator, NaN where it raised."""
            draw = sample_covariance(sigma, n, child_seed(seed, STREAM_REALIZATION, index))
            losses = np.full((len(names), 2), np.nan)
            for row, name in enumerate(names):
                with suppress(CovDenoiseError, np.linalg.LinAlgError):
                    estimate = bound[name](draw.sample)
                    losses[row] = frobenius_loss(estimate, sigma), mv_loss(estimate, sigma)
            return losses

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                per_realization = list(pool.map(one_realization, range(m)))
        else:
            per_realization = [one_realization(index) for index in range(m)]
        # (estimators, 2, m): each loss series is one contiguous row
        losses = np.stack(per_realization, axis=-1)
        rows = {name: _estimator_row(series) for name, series in zip(names, losses, strict=True)}
        return MonteCarloReport(
            model=model, p=sigma.dim, n=n, m=m, seed=seed, estimators=names, rows=rows
        )
