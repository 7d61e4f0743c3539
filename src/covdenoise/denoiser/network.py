"""Residual convolutional denoiser: configuration, weights, forward pass and
exact backpropagation.

Topology: a stem convolution with ReLU lifts the single input channel to
``num_filters`` feature maps; each residual block applies conv+ReLU then a
linear conv, adds the block input, and applies a final ReLU; a linear head
convolution returns to one channel.  In covariance mode the head output is
symmetrized and eigenvalue-clamped so the result is a usable covariance
matrix; in eigenvector mode it is returned raw.

Every activation lives on the padded grid of :mod:`.ops` from the moment it
is written until its last reader is done with it.  The input batch is laid
onto a grid once; each layer writes the next grid, with bias, residual and
ReLU applied in place and the padding re-zeroed; only the head's one-channel
output is cropped back to (batch, 1, p, p).  A pass without a cache drops
each grid once the next layer has read it.  A training step keeps the input,
stem and block grids; its backward pass reads each as it is for the one
kernel gradient that needs it, then keeps only its boolean ReLU pattern,
which masks the gradient grid flowing into that activation (and zeroes its
padding).  The backward pass therefore never holds more grids than the
forward cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericError, ParameterError
from ..randomness import STREAM_INIT, generator
from ..spectral import psd_project
from .ops import (
    GridLayout,
    _check_conv_shapes,
    conv_layer,
    conv_output,
    input_gradient,
    parameter_gradients,
)

MODES = ("covariance", "eigenvectors")


@dataclass(frozen=True)
class DenoiserConfig:
    input_size: int
    num_blocks: int = 10
    num_filters: int = 64
    kernel: int = 3
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 10
    validation_fraction: float = 0.2
    seed: int = 0
    mode: str = "covariance"

    def __post_init__(self) -> None:
        if self.input_size < 1:
            raise ParameterError("input_size must be positive")
        if self.num_blocks < 1 or self.num_filters < 1:
            raise ParameterError("num_blocks and num_filters must be positive")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ParameterError(f"kernel size must be odd, got {self.kernel}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ParameterError("validation_fraction must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ParameterError("batch_size must be >= 1 and epochs >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ParameterError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate}"
            )
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(eq=False)
class ResidualBlockWeights:
    conv1_kernel: np.ndarray
    conv1_bias: np.ndarray
    conv2_kernel: np.ndarray
    conv2_bias: np.ndarray


@dataclass(eq=False)
class DenoiserWeights:
    config: DenoiserConfig
    stem_kernel: np.ndarray
    stem_bias: np.ndarray
    blocks: list[ResidualBlockWeights]
    head_kernel: np.ndarray
    head_bias: np.ndarray
    normalizer: float = 1.0

    def tensors(self) -> list[np.ndarray]:
        """All parameter tensors in declaration order (also the file order)."""
        out = [self.stem_kernel, self.stem_bias]
        for block in self.blocks:
            out += [block.conv1_kernel, block.conv1_bias, block.conv2_kernel, block.conv2_bias]
        out += [self.head_kernel, self.head_bias]
        return out

    @classmethod
    def _from_tensors(
        cls, config: DenoiserConfig, tensors: list[np.ndarray], normalizer: float = 1.0
    ) -> "DenoiserWeights":
        """Assemble weights from tensors in :func:`tensor_shapes` order."""
        stem_kernel, stem_bias, *inner, head_kernel, head_bias = tensors
        blocks = [ResidualBlockWeights(*inner[i:i + 4]) for i in range(0, len(inner), 4)]
        return cls(config, stem_kernel, stem_bias, blocks, head_kernel, head_bias, normalizer)


def tensor_shapes(config: DenoiserConfig) -> list[tuple[int, ...]]:
    """Parameter shapes in declaration order, derived from the configuration."""
    f, k = config.num_filters, config.kernel
    shapes: list[tuple[int, ...]] = [(f, 1, k, k), (f,)]
    for _ in range(config.num_blocks):
        shapes += [(f, f, k, k), (f,), (f, f, k, k), (f,)]
    shapes += [(1, f, k, k), (1,)]
    return shapes


def init_weights(config: DenoiserConfig) -> DenoiserWeights:
    """He-style Gaussian kernels (std sqrt(2/fan_in)), zero biases, seeded;
    kernels are drawn in :func:`tensor_shapes` order."""
    rng = generator(config.seed, STREAM_INIT)
    k = config.kernel

    def draw(shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 1:
            return np.zeros(shape)
        fan_in = shape[1] * k * k
        return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)

    return DenoiserWeights._from_tensors(config, [draw(shape) for shape in tensor_shapes(config)])


def forward_batch(weights: DenoiserWeights, x: np.ndarray, keep_cache: bool = False):
    """Raw network output for a (batch, 1, p, p) input in normalized units.

    With ``keep_cache`` the input and activation grids needed by
    :func:`backward_batch` are returned alongside the output; without it a
    grid is dropped as soon as the next layer has read it.
    """
    x = np.asarray(x, dtype=float)
    _check_conv_shapes(x, weights.stem_kernel)
    batch, _, height, width = x.shape
    layout = GridLayout(batch, height, width, weights.config.kernel // 2)
    x_grid = layout.grid(x)
    current = conv_layer(x_grid, weights.stem_kernel, weights.stem_bias, layout)
    activations: list[np.ndarray] = []
    hidden: list[np.ndarray] = []
    for block in weights.blocks:
        h1 = conv_layer(current, block.conv1_kernel, block.conv1_bias, layout)
        if keep_cache:
            activations.append(current)
            hidden.append(h1)
        current = conv_layer(h1, block.conv2_kernel, block.conv2_bias, layout, residual=current)
    out = conv_output(current, weights.head_kernel, weights.head_bias, layout)
    if keep_cache:
        activations.append(current)
        return out, (layout, x_grid, activations, hidden)
    return out


def backward_batch(
    weights: DenoiserWeights, grad_out: np.ndarray, cache
) -> list[np.ndarray]:
    """Parameter gradients in declaration order for a cached forward pass.

    The cache is consumed.  Each activation grid is replaced by its boolean
    ReLU mask as soon as the one kernel gradient that reads it is formed (a
    block's output after the head or the next block's conv1, a block's h1
    after its conv2) and before the next gradient grid is allocated, so the
    pass never holds more grids than the forward cache did.
    """
    layout, x_grid, activations, hidden = cache
    grad_grid = layout.grid(grad_out)
    grads = list(parameter_gradients(grad_grid, activations[-1], layout))
    activations[-1] = activations[-1] > 0.0
    grad = input_gradient(grad_grid, weights.head_kernel, layout)
    del grad_grid
    for block in reversed(weights.blocks):
        # ReLU masks are zero at every padding position, so masking also
        # clears the garbage an input gradient leaves there.
        grad *= activations.pop()
        gk2, gb2 = parameter_gradients(grad, hidden[-1], layout)
        hidden_mask = hidden.pop() > 0.0
        grad_h1 = input_gradient(grad, block.conv2_kernel, layout)
        grad_h1 *= hidden_mask
        del hidden_mask
        gk1, gb1 = parameter_gradients(grad_h1, activations[-1], layout)
        activations[-1] = activations[-1] > 0.0
        grad_in = input_gradient(grad_h1, block.conv1_kernel, layout)
        del grad_h1
        grad_in += grad  # skip connection
        grad = grad_in
        grads[:0] = (gk1, gb1, gk2, gb2)
    grad *= activations.pop()
    # the stem's input gradient would only reach the data, so it is not formed
    grads[:0] = parameter_gradients(grad, x_grid, layout)
    return grads


def loss_and_gradients(
    weights: DenoiserWeights, inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean-squared error over a batch plus its parameter gradients.

    ``targets`` must have the network output's shape, (batch, 1, p, p).
    """
    out, cache = forward_batch(weights, inputs, keep_cache=True)
    if np.shape(targets) != out.shape:
        raise ParameterError(
            f"targets shape {np.shape(targets)} does not match the network output "
            f"shape {out.shape}"
        )
    diff = out - targets
    loss = float(np.mean(diff * diff))
    grad_out = 2.0 * diff / diff.size
    return loss, backward_batch(weights, grad_out, cache)


def forward(weights: DenoiserWeights, matrix: np.ndarray) -> np.ndarray:
    """Denoise one p x p matrix (input units; normalization handled here)."""
    matrix = np.asarray(matrix, dtype=float)
    p = weights.config.input_size
    if matrix.shape != (p, p):
        raise ParameterError(f"expected a {p}x{p} input, got {matrix.shape}")
    scale = weights.normalizer
    out = forward_batch(weights, matrix[None, None, :, :] / scale)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite activation in the network head output")
    result = out[0, 0] * scale
    if weights.config.mode == "covariance":
        return psd_project(result, 0.0)
    return result
