import numpy as np
import pytest
from conftest import traced_peak

from covdenoise.denoiser import (
    DenoiserConfig,
    conv2d_backward,
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


@pytest.mark.parametrize(
    "overrides, message",
    [({"input_size": 0}, "input_size must be positive"),
     ({"num_blocks": 0}, "num_blocks and num_filters must be positive"),
     ({"num_filters": 0}, "num_blocks and num_filters must be positive"),
     ({"batch_size": 0}, "batch_size must be >= 1 and epochs >= 0"),
     ({"epochs": -1}, "batch_size must be >= 1 and epochs >= 0")],
    ids=["input_size", "num_blocks", "num_filters", "batch_size", "epochs"],
)
def test_config_rejects_each_nonpositive_size(overrides, message):
    with pytest.raises(ParameterError, match=message):
        tiny_config(**overrides)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), -1e-3])
def test_config_rejects_a_learning_rate_that_is_not_finite_and_nonnegative(rate):
    with pytest.raises(ParameterError, match="learning_rate must be finite and nonnegative"):
        tiny_config(learning_rate=rate)


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
    stem_rotated = weights.stem_kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    assert not any(np.array_equal(kernel, stem_rotated) for _, kernel, *_ in calls)


def reference_loss_and_gradients(weights, inputs, targets):
    """Per-layer composition through the public (B, C, H, W) convolutions:
    each layer convolves, crops, then applies ReLU, and backward rebuilds
    every grid from the cached arrays."""
    stem = relu(conv2d_same(inputs, weights.stem_kernel, weights.stem_bias))
    activations, hidden = [stem], []
    for block in weights.blocks:
        hidden.append(relu(conv2d_same(activations[-1], block.conv1_kernel, block.conv1_bias)))
        z2 = conv2d_same(hidden[-1], block.conv2_kernel, block.conv2_bias)
        activations.append(relu(z2 + activations[-1]))
    out = conv2d_same(activations[-1], weights.head_kernel, weights.head_bias)
    diff = out - targets
    grad, gk_head, gb_head = conv2d_backward(2.0 * diff / diff.size, activations[-1],
                                             weights.head_kernel)
    grads = [gk_head, gb_head]
    for index in range(len(weights.blocks) - 1, -1, -1):
        block = weights.blocks[index]
        grad = grad * (activations[index + 1] > 0.0)
        grad_h1, gk2, gb2 = conv2d_backward(grad, hidden[index], block.conv2_kernel)
        grad_h1 = grad_h1 * (hidden[index] > 0.0)
        grad_in, gk1, gb1 = conv2d_backward(grad_h1, activations[index], block.conv1_kernel)
        grads[:0] = (gk1, gb1, gk2, gb2)
        grad = grad_in + grad
    grad = grad * (activations[0] > 0.0)
    _, gk_stem, gb_stem = conv2d_backward(grad, inputs, weights.stem_kernel)
    return out, float(np.mean(diff * diff)), [gk_stem, gb_stem] + grads


def _close(actual, expected, rtol=1e-12):
    # an all-zero reference must be matched exactly
    return np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "overrides,batch",
    [
        (dict(kernel=1), 2),
        (dict(kernel=3), 2),
        (dict(kernel=5), 2),
        (dict(num_blocks=2), 1),
        (dict(input_size=1, kernel=5), 3),
        (dict(num_filters=1, num_blocks=2), 2),  # every conv has one channel each side
        (dict(num_blocks=2, zero_block=0), 2),  # first residual block's convs are zero
    ],
)
def test_grid_network_matches_the_per_layer_oracle(rng, overrides, batch):
    overrides = dict(overrides)
    zero_block = overrides.pop("zero_block", None)
    config = tiny_config(**{"input_size": 5, "num_filters": 3, **overrides})
    weights = init_weights(config)
    for tensor in weights.tensors():
        if tensor.ndim == 1:  # nonzero biases, so ReLU masks are exercised at both signs
            tensor[...] = 0.1 * rng.standard_normal(tensor.shape)
    if zero_block is not None:
        for tensor in weights.tensors()[2 + 4 * zero_block:6 + 4 * zero_block]:
            tensor[...] = 0.0
    p = config.input_size
    x = rng.standard_normal((batch, 1, p, p))
    targets = rng.standard_normal(x.shape)
    expected_out, expected_loss, expected_grads = reference_loss_and_gradients(weights, x, targets)
    assert _close(forward_batch(weights, x), expected_out)
    loss, grads = loss_and_gradients(weights, x, targets)
    assert abs(loss - expected_loss) <= 1e-12 * expected_loss
    assert len(grads) == len(expected_grads)
    for actual, expected in zip(grads, expected_grads):
        assert actual.shape == expected.shape
        assert _close(actual, expected)


@pytest.mark.parametrize("num_blocks,bound", [(1, 5.0), (3, 9.5)])
def test_training_step_peak_memory(rng, num_blocks, bound):
    # In units of one (B, C, p, p) activation.  With each grid replaced by its
    # ReLU mask once its kernel gradient has read it, and bias gradients
    # summed a few channels at a time, the backward pass holds no more grids
    # than the forward cache: 4.5 (one block) and 9.0 (three blocks).
    # Keeping a block's grids until its gradients are formed, with a
    # full-size copy per bias gradient, peaks at 5.5 and 10.0.
    config = DenoiserConfig(input_size=40, num_blocks=num_blocks, num_filters=16, seed=1,
                            mode="eigenvectors")
    weights = init_weights(config)
    x = rng.standard_normal((2, 1, 40, 40))
    targets = rng.standard_normal(x.shape)
    activation = 2 * 16 * 40 * 40 * 8
    peak = traced_peak(lambda: loss_and_gradients(weights, x, targets))
    assert peak <= bound * activation


def test_forward_without_a_cache_drops_each_grid_once_read(rng):
    # In units of one (B, C, p, p) activation: holding the stem grid for the
    # whole pass peaks at 4.6; dropping it once block 1 has read it, at 3.5.
    config = DenoiserConfig(input_size=40, num_blocks=3, num_filters=16, seed=1,
                            mode="eigenvectors")
    weights = init_weights(config)
    x = rng.standard_normal((2, 1, 40, 40))
    activation = 2 * 16 * 40 * 40 * 8
    assert traced_peak(lambda: forward_batch(weights, x)) <= 4.0 * activation


@pytest.mark.parametrize("shape", [(2, 6, 6), (1, 1, 6, 6), (6, 6), (2, 1, 6, 5)])
def test_loss_rejects_targets_that_are_not_the_output_shape(rng, shape):
    # broadcasting would give a wrong loss, and for (2, 6, 6) gradients of
    # the wrong shape
    weights = init_weights(tiny_config(input_size=6, num_filters=4))
    inputs = rng.standard_normal((2, 1, 6, 6))
    message = rf"targets shape \({shape[0]}, .*\) does not match .* \(2, 1, 6, 6\)"
    with pytest.raises(ParameterError, match=message):
        loss_and_gradients(weights, inputs, rng.standard_normal(shape))
