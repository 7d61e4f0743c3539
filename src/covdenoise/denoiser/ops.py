"""Dense 2-D convolution with 'same' zero padding, plus its exact backward
pass.  Batches are laid out (batch, channels, height, width); kernels are
(out_channels, in_channels, k, k) with odd k, cross-correlation semantics.

No column (im2col) buffer is built.  The batch is zero-padded once into a
channel-major flat grid of shape (channels, B*Hp*Wp + tail), with
Hp = H + 2r, Wp = W + 2r and r = k // 2.  On that grid the (di, dj) tap of
every output pixel is the contiguous column slice at offset di*Wp + dj, so a
convolution is k*k GEMMs, ``kernel[:, :, di, dj] @ grid[:, off:off + N]``,
summed into one output buffer whose pad positions are cropped away.  Peak
memory is a few copies of the input, not k*k of them.

The backward pass rebuilds the input's grid from the stored layer input, so
nothing but activations is cached between passes, and pads the upstream
gradient onto a grid of the same geometry.  The kernel gradient is k*k GEMMs
of that gradient against the input's tap slices.  The input gradient is the
forward convolution of the padded gradient with the kernel rotated 180 degrees
and its channel axes swapped, which is exact for odd k with symmetric padding;
a layer whose input is the data (the network stem) skips it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _check_conv_shapes(x: np.ndarray, kernel: np.ndarray) -> None:
    if x.ndim != 4:
        raise ParameterError(f"input must be 4-d (batch, channels, h, w), got {x.shape}")
    if kernel.ndim != 4:
        raise ParameterError(f"kernel must be 4-d (out, in, k, k), got {kernel.shape}")
    _, in_ch, kh, kw = kernel.shape
    if kh != kw or kh % 2 == 0:
        raise ParameterError(f"kernel must be square with odd size, got {kh}x{kw}")
    if x.shape[1] != in_ch:
        raise ParameterError(
            f"input channels {x.shape[1]} do not match kernel input channels {in_ch}"
        )


def _flat_grid(x: np.ndarray, pad: int) -> np.ndarray:
    """(B, C, H, W) -> zero-padded channel-major grid (C, B*Hp*Wp + tail).

    The zero tail lets the last tap slice run past the final padded image.
    """
    batch, channels, height, width = x.shape
    hp, wp = height + 2 * pad, width + 2 * pad
    size = batch * hp * wp
    grid = np.zeros((channels, size + 2 * pad * wp + 2 * pad))
    images = grid[:, :size].reshape(channels, batch, hp, wp)
    images[:, :, pad:pad + height, pad:pad + width] = x.transpose(1, 0, 2, 3)
    return grid


def _correlate(grid: np.ndarray, kernel: np.ndarray, batch: int, height: int, width: int) -> np.ndarray:
    """Same-padded cross-correlation of a :func:`_flat_grid` with ``kernel``.

    Returns the (B, O, H, W) view of the valid pixels of the accumulator.
    """
    out_ch, in_ch, k, _ = kernel.shape
    pad = k // 2
    hp, wp = height + 2 * pad, width + 2 * pad
    size = batch * hp * wp
    taps = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1))  # (k, k, O, C)
    # With one input channel each tap is an outer product; BLAS runs that
    # rank-1 GEMM several times slower than the broadcast multiply.
    product = np.multiply if in_ch == 1 else np.matmul
    out = product(taps[0, 0], grid[:, :size])
    term = np.empty_like(out)
    for index in range(1, k * k):
        di, dj = divmod(index, k)
        offset = di * wp + dj
        product(taps[di, dj], grid[:, offset:offset + size], out=term)
        out += term
    return out.reshape(out_ch, batch, hp, wp)[:, :, :height, :width].transpose(1, 0, 2, 3)


def conv2d_same(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Convolve with zero padding (k-1)/2 so spatial size is preserved."""
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    bias = np.asarray(bias, dtype=float)
    _check_conv_shapes(x, kernel)
    out_ch = kernel.shape[0]
    if bias.shape != (out_ch,):
        raise ParameterError(f"bias must have shape ({out_ch},), got {bias.shape}")
    batch, _, height, width = x.shape
    valid = _correlate(_flat_grid(x, kernel.shape[2] // 2), kernel, batch, height, width)
    return np.add(valid, bias[:, None, None], out=np.empty((batch, out_ch, height, width)))


def _parameter_gradients(
    grad_out: np.ndarray, x: np.ndarray, kernel: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(padded upstream grid, d_kernel, d_bias) of conv2d_same at (x, kernel).

    Shapes are not checked here; :func:`conv2d_backward` checks them.
    """
    out_ch, in_ch, k, _ = kernel.shape
    batch, _, height, width = x.shape
    pad = k // 2
    wp = width + 2 * pad
    size = batch * (height + 2 * pad) * wp
    grad_grid = _flat_grid(grad_out, pad)
    # Output pixel n's gradient sits at n + pad*wp + pad on the padded grid,
    # and every pad position of the output lines up with a zero there.
    shift = pad * wp + pad
    upstream = grad_grid[:, shift:shift + size]
    x_grid = _flat_grid(x, pad)
    grad_kernel = np.empty((k, k, out_ch, in_ch))
    for di in range(k):
        for dj in range(k):
            offset = di * wp + dj
            np.matmul(upstream, x_grid[:, offset:offset + size].T, out=grad_kernel[di, dj])
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    return grad_grid, np.ascontiguousarray(grad_kernel.transpose(2, 3, 0, 1)), grad_bias


def conv2d_backward(
    grad_out: np.ndarray, x: np.ndarray, kernel: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_kernel, d_bias) of conv2d_same at (x, kernel)."""
    grad_out = np.asarray(grad_out, dtype=float)
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    _check_conv_shapes(x, kernel)
    out_ch = kernel.shape[0]
    batch, _, height, width = x.shape
    if grad_out.shape != (batch, out_ch, height, width):
        raise ParameterError(
            f"grad_out shape {grad_out.shape} does not match the output shape "
            f"{(batch, out_ch, height, width)} of input {x.shape} and kernel {kernel.shape}"
        )
    grad_grid, grad_kernel, grad_bias = _parameter_gradients(grad_out, x, kernel)
    rotated = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    grad_x = np.ascontiguousarray(_correlate(grad_grid, rotated, batch, height, width))
    return grad_x, grad_kernel, grad_bias
