import datetime as dt
import hashlib

import numpy as np
import pytest

from covdenoise import ModelKind, ModelSpec
from covdenoise.denoiser import (
    DenoiserConfig,
    TrainingSet,
    build_training_set_rolling,
    build_training_set_simulation,
    train,
)
from covdenoise.errors import DataError, NumericError, ParameterError
from covdenoise.ingest import ReturnsPanel


def _panel(values):
    values = np.asarray(values, dtype=float)
    first = dt.date(2024, 1, 1)
    dates = tuple((first + dt.timedelta(days=day)).isoformat() for day in range(values.shape[1]))
    symbols = tuple(f"A{i}" for i in range(values.shape[0]))
    return ReturnsPanel(dates=dates, symbols=symbols, values=values)


def test_simulation_builder_shares_population_target():
    model = ModelSpec(kind=ModelKind.BLOCK, p=4, block_sizes=(4,), gamma=0.3)
    data = build_training_set_simulation(model, 30, 2, seed=1, mode="covariance")
    assert data.count == 2
    assert not np.array_equal(data.inputs[0], data.inputs[1])
    assert np.array_equal(data.targets[0], data.targets[1])
    assert np.allclose(data.targets[0], model.build().values)


def test_simulation_builder_eigenvector_targets_signed_permutations():
    model = ModelSpec(kind=ModelKind.BLOCK, p=4, block_sizes=(1, 1, 1, 1), gamma=0.0)
    data = build_training_set_simulation(model, 25, 3, seed=2, mode="eigenvectors")
    for target in data.targets:
        # one +-1 entry per row/column, and the convention pins the sign to +1
        assert np.allclose(np.abs(target).sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.abs(target).sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(target.max(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("mode", ["covariance", "eigenvectors"])
def test_simulation_builder_decomposes_sigma_once_per_set(monkeypatch, mode):
    from covdenoise.denoiser.training import _match_eigenvector_targets
    from covdenoise.models import sample_covariance
    from covdenoise.randomness import STREAM_TRAINING, child_seed
    from covdenoise.spectral import eigendecompose_sym

    model = ModelSpec(kind=ModelKind.POWERLAW, p=6, alpha=1.0, seed=4)
    n, count, seed = 20, 4, 9
    # the reference decomposes a freshly built sigma for every sample
    inputs, targets = [], []
    for i in range(count):
        draw = sample_covariance(model.build(), n, child_seed(seed, STREAM_TRAINING, i))
        if mode == "covariance":
            inputs.append(draw.sample.values)
            targets.append(model.build().values)
        else:
            vectors = eigendecompose_sym(draw.sample.values).eigenvectors
            inputs.append(vectors)
            target_vectors = eigendecompose_sym(model.build().values).eigenvectors
            targets.append(_match_eigenvector_targets(target_vectors, vectors))
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or real(m))
    data = build_training_set_simulation(model, n, count, seed, mode=mode)
    # sigma once per set; eigenvector inputs add one spectrum per sample
    assert len(calls) == 1 + (count if mode == "eigenvectors" else 0)
    assert np.array_equal(data.inputs, np.stack(inputs))
    assert np.array_equal(data.targets, np.stack(targets))


def test_simulation_builder_large_n_recovers_target():
    model = ModelSpec(kind=ModelKind.BLOCK, p=4, block_sizes=(2, 2), gamma=0.4)
    data = build_training_set_simulation(model, 10**6, 2, seed=3, mode="covariance")
    relative = np.max(np.abs(data.inputs[0] - data.targets[0])) / np.max(np.abs(data.targets[0]))
    assert relative < 0.01


def test_rolling_builder_window_bookkeeping(rng):
    values = rng.standard_normal((3, 104)) * 0.01
    panel = _panel(values)
    data = build_training_set_rolling(panel, window_length=50, count=3, stride=1)
    assert data.count == 3
    # last pair is anchored at the panel end
    last_input = values[:, 3:53] @ values[:, 3:53].T / 50
    last_target = values[:, 53:103] @ values[:, 53:103].T / 50
    assert np.allclose(data.inputs[2], values[:, 4:54] @ values[:, 4:54].T / 50)
    assert np.allclose(data.targets[2], values[:, 54:104] @ values[:, 54:104].T / 50)
    assert np.allclose(data.inputs[1], last_input)
    assert np.allclose(data.targets[1], last_target)


def test_rolling_builder_full_history_profile(rng):
    # one pre-history year (282 days) plus the in-sample window supports
    # exactly 100 windows of 182 days at stride 1
    values = rng.standard_normal((2, 464)) * 0.02
    data = build_training_set_rolling(_panel(values), window_length=182, count=100, stride=1)
    assert data.count == 100


@pytest.mark.parametrize("builder", ["simulation", "rolling"])
def test_builders_reject_an_unknown_mode_alike(rng, builder):
    with pytest.raises(ParameterError, match="unknown training mode 'magic'"):
        if builder == "simulation":
            model = ModelSpec(kind=ModelKind.BLOCK, p=4, block_sizes=(2, 2), gamma=0.3)
            build_training_set_simulation(model, 20, 2, seed=1, mode="magic")
        else:
            values = rng.standard_normal((3, 40)) * 0.01
            build_training_set_rolling(_panel(values), window_length=10, count=2, mode="magic")


def test_rolling_builder_eigenvector_pairs(rng):
    from covdenoise.denoiser.training import _match_eigenvector_targets
    from covdenoise.spectral import eigendecompose_sym

    values = rng.standard_normal((4, 60)) * 0.01
    data = build_training_set_rolling(
        _panel(values), window_length=20, count=3, stride=5, mode="eigenvectors"
    )
    for j, start in enumerate((10, 15, 20)):
        left = values[:, start:start + 20]
        right = values[:, start + 20:start + 40]
        vectors = eigendecompose_sym(left @ left.T / 20).eigenvectors
        right_vectors = eigendecompose_sym(right @ right.T / 20).eigenvectors
        target = _match_eigenvector_targets(right_vectors, vectors)
        assert np.allclose(data.inputs[j], vectors, rtol=0.0, atol=1e-12)
        assert np.allclose(data.targets[j], target, rtol=0.0, atol=1e-12)


_NAN_STACK = np.zeros((2, 3, 3))
_NAN_STACK[1, 0, 2] = np.nan


@pytest.mark.parametrize(
    "inputs, targets, message",
    [(np.zeros((2, 3, 3)), np.zeros((2, 4, 4)), "must be matching stacks"),
     (np.zeros((3, 3)), np.zeros((3, 3)), "must be matching stacks"),
     (np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), "training matrices must be square"),
     (_NAN_STACK, np.zeros((2, 3, 3)), "training data contains non-finite values"),
     (np.zeros((2, 3, 3)), np.full((2, 3, 3), np.inf), "training data contains non-finite values")],
    ids=["shapes", "not stacked", "not square", "nan input", "inf target"],
)
def test_training_set_rejects_each_malformed_stack(inputs, targets, message):
    with pytest.raises(ParameterError, match=message):
        TrainingSet(inputs=inputs, targets=targets)


def test_rolling_builder_rejects_short_history(rng):
    values = rng.standard_normal((2, 120)) * 0.02
    with pytest.raises(ParameterError, match="121"):
        build_training_set_rolling(_panel(values), window_length=60, count=2, stride=1)


def test_rolling_builder_rejects_constant_prices():
    values = np.zeros((2, 60))
    with pytest.raises(DataError):
        build_training_set_rolling(_panel(values), window_length=20, count=2, stride=1)


def test_training_reduces_loss_on_identity_task(rng):
    inputs = rng.standard_normal((24, 10, 10))
    data = TrainingSet(inputs=inputs, targets=inputs.copy())
    config = DenoiserConfig(
        input_size=10, num_blocks=2, num_filters=8, kernel=3, seed=5,
        batch_size=4, epochs=10, mode="eigenvectors",
    )
    weights, history = train(config, data)
    assert len(history.train_mse) == 10
    assert history.train_mse[-1] < 0.5 * history.train_mse[0]
    assert len(history.validation_mse) == 10


# sha256 of the trained float64 tensors in declaration order, recorded before
# backpropagation released activation grids early and summed bias gradients
# eight channels at a time; 32 filters span four such chunks.
TRAINED_TENSORS_DIGEST = "202a3913305f22ea5841b6646d0de73651c8a9934d7b41f502d4085d79be01ec"


def test_trained_tensors_keep_their_bytes(rng):
    inputs = rng.standard_normal((10, 8, 8))
    targets = rng.standard_normal((10, 8, 8))
    config = DenoiserConfig(
        input_size=8, num_blocks=2, num_filters=32, kernel=3, seed=4,
        batch_size=4, epochs=2, mode="eigenvectors",
    )
    weights, _ = train(config, TrainingSet(inputs=inputs, targets=targets))
    digest = hashlib.sha256()
    for tensor in weights.tensors():
        assert tensor.dtype == np.float64 and tensor.flags.c_contiguous
        digest.update(tensor.tobytes())
    assert digest.hexdigest() == TRAINED_TENSORS_DIGEST


def test_zero_learning_rate_freezes_weights(rng):
    inputs = rng.standard_normal((6, 4, 4))
    data = TrainingSet(inputs=inputs, targets=inputs.copy())
    config = DenoiserConfig(
        input_size=4, num_blocks=1, num_filters=2, kernel=3, seed=7,
        batch_size=2, epochs=3, learning_rate=0.0, mode="eigenvectors",
    )
    from covdenoise.denoiser import init_weights

    weights, history = train(config, data)
    reference = init_weights(config)
    for got, want in zip(weights.tensors(), reference.tensors()):
        assert np.array_equal(got, want)
    assert np.allclose(history.train_mse, history.train_mse[0])


def test_a_non_finite_validation_loss_raises(rng):
    # one batch per epoch: the training loss is taken before the update that
    # blows the weights up, so only the validation pass sees the divergence
    inputs = rng.standard_normal((5, 4, 4))
    data = TrainingSet(inputs=inputs, targets=inputs.copy())
    config = DenoiserConfig(
        input_size=4, num_blocks=1, num_filters=2, kernel=3, seed=7,
        batch_size=4, epochs=1, learning_rate=1e300, mode="eigenvectors",
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericError, match="non-finite validation loss at epoch 0"
    ):
        train(config, data)


def test_training_is_deterministic(rng):
    inputs = rng.standard_normal((10, 4, 4))
    targets = rng.standard_normal((10, 4, 4))
    data = TrainingSet(inputs=inputs, targets=targets)
    config = DenoiserConfig(
        input_size=4, num_blocks=1, num_filters=3, kernel=3, seed=11,
        batch_size=4, epochs=4, mode="eigenvectors",
    )
    first, _ = train(config, data)
    second, _ = train(config, data)
    for a, b in zip(first.tensors(), second.tensors()):
        assert np.array_equal(a, b)


def test_validation_split_is_chronological(rng):
    inputs = rng.standard_normal((10, 4, 4))
    data = TrainingSet(inputs=inputs, targets=inputs.copy())
    config = DenoiserConfig(
        input_size=4, num_blocks=1, num_filters=2, kernel=3, seed=1,
        batch_size=4, epochs=1, validation_fraction=0.2, mode="eigenvectors",
    )
    _, history = train(config, data)
    assert len(history.validation_mse) == 1
    no_val = DenoiserConfig(
        input_size=4, num_blocks=1, num_filters=2, kernel=3, seed=1,
        batch_size=4, epochs=1, validation_fraction=0.0, mode="eigenvectors",
    )
    _, history = train(no_val, data)
    assert history.validation_mse == []


def test_training_requires_enough_samples(rng):
    inputs = rng.standard_normal((1, 4, 4))
    data = TrainingSet.__new__(TrainingSet)
    object.__setattr__(data, "inputs", inputs)
    object.__setattr__(data, "targets", inputs.copy())
    config = DenoiserConfig(
        input_size=4, num_blocks=1, num_filters=2, kernel=3, seed=1, mode="eigenvectors"
    )
    with pytest.raises(ParameterError):
        train(config, data)


def test_covariance_normalizer_uses_mean_diagonal(rng):
    scale = 25.0
    base = np.stack([np.eye(6) * scale for _ in range(5)])
    data = TrainingSet(inputs=base, targets=base.copy())
    config = DenoiserConfig(
        input_size=6, num_blocks=1, num_filters=2, kernel=3, seed=2,
        batch_size=2, epochs=1, validation_fraction=0.0, mode="covariance",
    )
    weights, _ = train(config, data)
    assert np.isclose(weights.normalizer, scale)


def _tiny_config(**changes):
    fields = dict(input_size=4, num_blocks=1, num_filters=2, kernel=3, seed=7, mode="eigenvectors")
    return DenoiserConfig(**(fields | changes))


@pytest.mark.parametrize(
    "call, message",
    [(lambda: build_training_set_simulation(ModelSpec(kind=ModelKind.NESTED, p=3, gamma=0.3),
                                            20, 1, 0), "training set needs count >= 2"),
     (lambda: build_training_set_rolling(np.zeros((3, 50)), 5, 1), "training set needs count >= 2"),
     (lambda: build_training_set_rolling(np.zeros((3, 50)), 1, 2),
      "window_length must be >= 2 and stride >= 1"),
     (lambda: build_training_set_rolling(np.zeros((3, 50)), 5, 2, stride=0),
      "window_length must be >= 2 and stride >= 1"),
     (lambda: train(_tiny_config(input_size=5),
                    TrainingSet(inputs=np.zeros((6, 4, 4)), targets=np.zeros((6, 4, 4)))),
      "training matrices are 4x4 but the configuration expects 5")],
    ids=["simulation-count", "rolling-count", "rolling-window", "rolling-stride", "size-mismatch"],
)
def test_training_inputs_are_rejected(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_a_non_finite_training_loss_raises(rng):
    # two batches and no validation split: the first update blows the
    # weights up, so the second batch's training loss is non-finite
    inputs = rng.standard_normal((4, 4, 4))
    data = TrainingSet(inputs=inputs, targets=inputs.copy())
    config = _tiny_config(batch_size=2, epochs=1, learning_rate=1e300, validation_fraction=0.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericError, match="training diverged: non-finite loss at epoch 0"
    ):
        train(config, data)
