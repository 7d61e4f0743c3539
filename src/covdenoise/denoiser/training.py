"""Training loop (Adam on MSE), training-set builders for simulated and
rolling empirical data, and eigenvector-target alignment.

Training follows the package's BLAS rule (:mod:`covdenoise._blas`): it runs
on one BLAS thread and parallelizes over samples instead.  A batch's loss and
gradients, and the validation MSE, are means of one-sample results computed
on a pool as large as the host's BLAS thread count and summed in sample
order, so the trained bits depend on neither the pool's size nor
``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .._blas import single_blas_thread
from ..covariance import as_matrix, window_covariance
from ..errors import NumericError, ParameterError
from ..models import ModelSpec, sample_covariance
from ..randomness import STREAM_SHUFFLE, STREAM_TRAINING, child_seed, generator
from ..spectral import apply_sign_convention, eigendecompose_sym
from .network import DenoiserConfig, DenoiserWeights, forward_batch, init_weights, loss_and_gradients

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Paired noisy inputs and targets, stacked (count, p, p)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if inputs.shape != targets.shape or inputs.ndim != 3:
            raise ParameterError(
                f"inputs {inputs.shape} and targets {targets.shape} must be matching stacks"
            )
        if inputs.shape[1] != inputs.shape[2]:
            raise ParameterError("training matrices must be square")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise ParameterError("training data contains non-finite values")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def count(self) -> int:
        return self.inputs.shape[0]


@dataclass
class TrainingHistory:
    train_mse: list[float] = field(default_factory=list)
    validation_mse: list[float] = field(default_factory=list)


def _match_eigenvector_targets(target_vectors: np.ndarray, input_vectors: np.ndarray) -> np.ndarray:
    """Reorder target columns onto input columns by greedy max |inner product|.

    The reordered matrix is re-signed under the global convention so targets
    stay well defined no matter which column permutation the noise induced.
    """
    overlap = np.abs(target_vectors.T @ input_vectors)
    p = overlap.shape[0]
    matched = np.empty_like(target_vectors)
    work = overlap.copy()
    for _ in range(p):
        flat = int(np.argmax(work))
        t_idx, i_idx = divmod(flat, p)
        matched[:, i_idx] = target_vectors[:, t_idx]
        work[t_idx, :] = -1.0
        work[:, i_idx] = -1.0
    return apply_sign_convention(matched)


def _training_pair(noisy, clean, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(input, target) for a noisy matrix and its clean counterpart: the
    matrices themselves in covariance mode; in eigenvector mode the noisy
    eigenvectors and the clean ones matched onto them."""
    if mode == "covariance":
        return as_matrix(noisy), as_matrix(clean)
    if mode != "eigenvectors":
        raise ParameterError(f"unknown training mode {mode!r}")
    vectors = eigendecompose_sym(noisy).eigenvectors
    return vectors, _match_eigenvector_targets(eigendecompose_sym(clean).eigenvectors, vectors)


def _stacked(pairs) -> TrainingSet:
    inputs, targets = zip(*pairs)
    return TrainingSet(inputs=np.stack(inputs), targets=np.stack(targets))


def build_training_set_simulation(
    model: ModelSpec, n: int, count: int, seed: int, mode: str = "covariance"
) -> TrainingSet:
    """Sample-covariance inputs (independent sub-seeds) against the population
    target; in eigenvector mode both sides are decomposed and aligned.  The
    population's spectrum is computed once and reused for every pair."""
    if count < 2:
        raise ParameterError("training set needs count >= 2")
    sigma = model.build()
    samples = (
        sample_covariance(sigma, n, child_seed(seed, STREAM_TRAINING, i)).sample
        for i in range(count)
    )
    return _stacked(_training_pair(sample, sigma, mode) for sample in samples)


def build_training_set_rolling(
    returns, window_length: int, count: int, stride: int = 1, mode: str = "covariance"
) -> TrainingSet:
    """Rolling covariance pairs from a returns panel.

    Each pair uses a ``window_length``-day input window and the immediately
    following non-overlapping window of equal length as its reduced-noise
    target.  Windows are anchored at the panel end: the last pair's target is
    the most recent window.
    """
    matrix = returns.values if hasattr(returns, "values") else np.asarray(returns, dtype=float)
    if count < 2:
        raise ParameterError("training set needs count >= 2")
    if stride < 1 or window_length < 2:
        raise ParameterError("window_length must be >= 2 and stride >= 1")
    length = matrix.shape[1]
    needed = 2 * window_length + (count - 1) * stride
    if length < needed:
        raise ParameterError(
            f"panel has {length} return days but {needed} are required "
            f"({count} windows of {window_length} days at stride {stride})"
        )
    return _stacked(
        _training_pair(
            window_covariance(matrix[:, start:start + window_length]),
            window_covariance(matrix[:, start + window_length:start + 2 * window_length]),
            mode,
        )
        for start in range(length - needed, length - needed + count * stride, stride)
    )


def _normalizer(config: DenoiserConfig, inputs: np.ndarray) -> float:
    if config.mode != "covariance":
        return 1.0
    scale = float(np.mean([np.mean(np.diag(m)) for m in inputs]))
    return scale if scale > 0.0 else 1.0


def _sample_loss(weights: DenoiserWeights, x: np.ndarray, t: np.ndarray, with_gradients: bool):
    """One (1, p, p) sample's MSE, with its parameter gradients or None."""
    # np.errstate is per context, and pool threads do not inherit the caller's
    with np.errstate(over="ignore", invalid="ignore"):
        if with_gradients:
            return loss_and_gradients(weights, x[None], t[None])
        residual = forward_batch(weights, x[None]) - t[None]
        return float(np.mean(residual * residual)), None


def _mean_loss(pool, weights, inputs, targets, with_gradients: bool = True):
    """Mean MSE over paired samples, and mean gradients or None: one-sample
    results from the pool, summed in sample order."""
    results = pool.map(_sample_loss, repeat(weights), inputs, targets, repeat(with_gradients))
    loss, grads = next(results)
    for sample_loss, sample_grads in results:
        loss += sample_loss
        if grads is not None:
            for total, grad in zip(grads, sample_grads):
                total += grad
    for total in grads or ():
        total /= len(inputs)
    return loss / len(inputs), grads


def train(config: DenoiserConfig, data: TrainingSet) -> tuple[DenoiserWeights, TrainingHistory]:
    """Adam on MSE with a chronological validation split; returns the final
    weights and the per-epoch loss curves."""
    minimum = math.ceil(1.0 / (1.0 - config.validation_fraction))
    if data.count < minimum:
        raise ParameterError(f"training set needs at least {minimum} samples, got {data.count}")
    if data.inputs.shape[1] != config.input_size:
        raise ParameterError(
            f"training matrices are {data.inputs.shape[1]}x{data.inputs.shape[2]} "
            f"but the configuration expects {config.input_size}"
        )
    n_val = int(math.floor(data.count * config.validation_fraction))
    n_train = data.count - n_val
    if n_train < 1:
        raise ParameterError("validation split leaves an empty training set")

    weights = init_weights(config)
    weights.normalizer = _normalizer(config, data.inputs[:n_train])
    scale = weights.normalizer
    inputs = data.inputs[:, None, :, :] / scale
    targets = data.targets[:, None, :, :] / scale
    train_x, train_t = inputs[:n_train], targets[:n_train]
    val_x, val_t = inputs[n_train:], targets[n_train:]

    params = weights.tensors()
    adam_m = [np.zeros_like(t) for t in params]
    adam_v = [np.zeros_like(t) for t in params]
    step = 0
    history = TrainingHistory()
    with single_blas_thread() as threads, ThreadPoolExecutor(max_workers=threads) as pool:
        for epoch in range(config.epochs):
            order = generator(config.seed, STREAM_SHUFFLE, epoch).permutation(n_train)
            epoch_loss = 0.0
            for start in range(0, n_train, config.batch_size):
                batch = order[start:start + config.batch_size]
                loss, grads = _mean_loss(pool, weights, train_x[batch], train_t[batch])
                if not np.isfinite(loss):
                    raise NumericError(f"training diverged: non-finite loss at epoch {epoch}")
                epoch_loss += loss * batch.size
                step += 1
                lr_t = config.learning_rate * math.sqrt(1.0 - ADAM_BETA2 ** step) / (
                    1.0 - ADAM_BETA1 ** step
                )
                for tensor, grad, m, v in zip(params, grads, adam_m, adam_v):
                    m *= ADAM_BETA1
                    m += (1.0 - ADAM_BETA1) * grad
                    v *= ADAM_BETA2
                    v += (1.0 - ADAM_BETA2) * grad * grad
                    tensor -= lr_t * m / (np.sqrt(v) + ADAM_EPS)
            history.train_mse.append(epoch_loss / n_train)
            if n_val:
                validation, _ = _mean_loss(pool, weights, val_x, val_t, with_gradients=False)
                if not np.isfinite(validation):
                    raise NumericError(
                        f"training diverged: non-finite validation loss at epoch {epoch}"
                    )
                history.validation_mse.append(validation)
    return weights, history
