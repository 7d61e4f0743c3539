import numpy as np
import pytest

from covdenoise.denoiser import (
    DenoiserConfig,
    conv2d_same,
    forward,
    forward_batch,
    init_weights,
    loss_and_gradients,
    relu,
)
from covdenoise.denoiser import ops
from covdenoise.errors import NumericError, ParameterError


def tiny_config(**overrides):
    base = dict(
        input_size=4, num_blocks=1, num_filters=2, kernel=3, seed=3, mode="eigenvectors"
    )
    base.update(overrides)
    return DenoiserConfig(**base)


def test_config_validation():
    with pytest.raises(ParameterError):
        tiny_config(kernel=4)
    with pytest.raises(ParameterError):
        tiny_config(validation_fraction=1.0)
    with pytest.raises(ParameterError):
        tiny_config(mode="magic")


def test_zero_weights_give_zero_output(rng):
    weights = init_weights(tiny_config())
    for tensor in weights.tensors():
        tensor[...] = 0.0
    out = forward(weights, rng.standard_normal((4, 4)))
    assert np.array_equal(out, np.zeros((4, 4)))


def test_constant_bias_output_for_zero_kernels():
    weights = init_weights(tiny_config())
    for tensor in weights.tensors():
        tensor[...] = 0.0
    weights.head_bias[...] = 0.75
    out = forward(weights, np.eye(4))
    assert np.allclose(out, 0.75)


def test_forward_is_deterministic(rng):
    weights = init_weights(tiny_config(seed=9))
    x = rng.standard_normal((4, 4))
    assert np.array_equal(forward(weights, x), forward(weights, x))


def test_forward_matches_manual_composition(rng):
    weights = init_weights(tiny_config(num_filters=1, seed=21))
    x = rng.standard_normal((1, 1, 4, 4))
    block = weights.blocks[0]
    stem = relu(conv2d_same(x, weights.stem_kernel, weights.stem_bias))
    h1 = relu(conv2d_same(stem, block.conv1_kernel, block.conv1_bias))
    z2 = conv2d_same(h1, block.conv2_kernel, block.conv2_bias)
    out = conv2d_same(relu(z2 + stem), weights.head_kernel, weights.head_bias)
    assert np.max(np.abs(forward_batch(weights, x) - out)) <= 1e-14


def test_residual_block_with_zero_convs_is_relu_identity(rng):
    weights = init_weights(tiny_config(seed=5))
    block = weights.blocks[0]
    for tensor in (block.conv1_kernel, block.conv1_bias, block.conv2_kernel, block.conv2_bias):
        tensor[...] = 0.0
    x = rng.standard_normal((1, 1, 4, 4))
    stem = relu(conv2d_same(x, weights.stem_kernel, weights.stem_bias))
    expected = conv2d_same(relu(stem), weights.head_kernel, weights.head_bias)
    assert np.max(np.abs(forward_batch(weights, x) - expected)) <= 1e-14


def test_covariance_mode_output_is_symmetric_psd(rng):
    config = tiny_config(input_size=6, num_filters=4, mode="covariance", seed=8)
    weights = init_weights(config)
    weights.normalizer = 1.0
    out = forward(weights, rng.standard_normal((6, 6)))
    assert np.array_equal(out, out.T)
    assert np.linalg.eigvalsh(out)[0] >= -1e-10


def test_eigenvector_mode_output_is_raw(rng):
    weights = init_weights(tiny_config(input_size=6, num_filters=4, seed=8))
    out = forward(weights, rng.standard_normal((6, 6)))
    assert np.max(np.abs(out - out.T)) > 1e-8  # no symmetrization applied


def test_forward_rejects_wrong_size(rng):
    weights = init_weights(tiny_config())
    with pytest.raises(ParameterError):
        forward(weights, rng.standard_normal((5, 5)))


def test_forward_flags_nonfinite_activations(rng):
    weights = init_weights(tiny_config())
    weights.stem_kernel[...] = 1e300
    weights.blocks[0].conv1_kernel[...] = 1e300
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        forward(weights, rng.standard_normal((4, 4)) + 10.0)


def test_full_scale_default_profile_forward(rng):
    config = DenoiserConfig(input_size=100)  # 10 blocks, 64 filters, 3x3
    weights = init_weights(config)
    out = forward(weights, rng.standard_normal((100, 100)))
    assert out.shape == (100, 100)
    assert np.array_equal(out, out.T)


@pytest.mark.parametrize("num_blocks", [1, 3])
def test_training_step_skips_the_stem_input_gradient(rng, monkeypatch, num_blocks):
    # forward: stem, two per block, head; backward: the input gradient of the
    # head and of both block convolutions, but not of the stem
    calls = []
    real = ops._correlate
    monkeypatch.setattr(ops, "_correlate", lambda *args: calls.append(args) or real(*args))
    weights = init_weights(tiny_config(num_blocks=num_blocks))
    x = rng.standard_normal((2, 1, 4, 4))
    loss_and_gradients(weights, x, rng.standard_normal(x.shape))
    assert len(calls) == 4 * num_blocks + 3
