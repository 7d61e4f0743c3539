"""Dense 2-D convolution with 'same' zero padding, plus its exact backward
pass.  Batches are laid out (batch, channels, height, width); kernels are
(out_channels, in_channels, k, k) with odd k, cross-correlation semantics.

No column (im2col) buffer is built.  Convolutions work on a channel-major
padded grid of shape (channels, B*Hp*Wp + 2*(r*Wp + r)), with r = k // 2,
Hp = H + 2r and Wp = W + 2r (:class:`GridLayout`).  On a grid the (di, dj)
tap of every output pixel is the contiguous column slice at offset
di*Wp + dj, so a convolution is k*k GEMMs, ``kernel[:, :, di, dj] @
grid[:, off:off + N]``.  The first writes the output; each later one adds its
product into the output inside BLAS (``cblas_dgemm`` with beta = 1, through
:func:`covdenoise._blas.add_matmul`), so no tap's product is stored on its own
and the sum rounds exactly as adding the k*k products in tap order would.
Output pixel n lands at n + r*Wp + r on a grid of the same geometry: the
output is written straight into the *body* of the next grid, and the body
positions that are padding are re-zeroed afterwards.  A layer whose input or
output has one channel skips the k*k GEMMs: its k*k shifted copies of that
one row are stacked (k*k rows) and the layer is a single GEMM against the
stack.

A grid is made once, where the data enters (:meth:`GridLayout.grid`), and
every later grid is made by the layer that writes it (:func:`conv_layer`,
:func:`input_gradient`).  The network keeps its activation grids for the
backward pass, which reads them as they are: the kernel gradient is k*k GEMMs
of the upstream gradient's body against the input grid's tap slices, and the
input gradient is the forward convolution of the upstream gradient grid with
the kernel rotated 180 degrees and its channel axes swapped, which is exact
for odd k with symmetric padding.  Its padding positions hold garbage until
the caller masks them with the ReLU pattern of the input, whose pads are zero.
The bias gradient sums the upstream gradient's valid pixels from contiguous
copies of a few channels of one image at a time (:func:`_bias_gradient`).
Only the output leaves the grid, cropped by :meth:`GridLayout.crop`.

:func:`conv2d_same` and :func:`conv2d_backward` are the same kernels behind
a (B, C, H, W) interface: they lay the arrays onto grids, run them and crop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._blas import add_matmul
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


@dataclass(frozen=True)
class GridLayout:
    """Where a (B, C, H, W) batch sits on a padded grid for a (2*pad + 1)-wide kernel.

    A grid is (C, length): the B padded images back to back (the first
    ``size`` columns), then a zero tail that lets the last tap slice run
    past the final image.  The *body* is the ``size`` columns starting at
    ``shift``, where output pixel 0 lands.
    """

    batch: int
    height: int
    width: int
    pad: int

    @property
    def padded_height(self) -> int:
        return self.height + 2 * self.pad

    @property
    def padded_width(self) -> int:
        return self.width + 2 * self.pad

    @property
    def size(self) -> int:
        return self.batch * self.padded_height * self.padded_width

    @property
    def shift(self) -> int:
        return self.pad * self.padded_width + self.pad

    @property
    def offsets(self) -> list[int]:
        """Column offset of each kernel tap, in (di, dj) row-major order."""
        k = 2 * self.pad + 1
        return [di * self.padded_width + dj for di in range(k) for dj in range(k)]

    def zeros(self, channels: int) -> np.ndarray:
        return np.zeros((channels, self.size + 2 * self.shift))

    def grid(self, x: np.ndarray) -> np.ndarray:
        """(B, C, H, W) -> a new zero-padded grid holding x."""
        grid = self.zeros(x.shape[1])
        self._images(self.body(grid))[:, :, :self.height, :self.width] = x.transpose(1, 0, 2, 3)
        return grid

    def body(self, grid: np.ndarray) -> np.ndarray:
        return grid[:, self.shift:self.shift + self.size]

    def crop(self, grid: np.ndarray) -> np.ndarray:
        """The (B, C, H, W) view of a grid's valid pixels."""
        return self._images(self.body(grid))[:, :, :self.height, :self.width].transpose(1, 0, 2, 3)

    def zero_pads(self, grid: np.ndarray) -> None:
        """Zero the padding positions inside a grid's body."""
        images = self._images(self.body(grid))
        images[:, :, self.height:] = 0.0
        images[:, :, :self.height, self.width:] = 0.0

    def _images(self, body: np.ndarray) -> np.ndarray:
        # Body position b*Hp*Wp + i*Wp + j holds pixel (b, i, j), which is a
        # padding position unless i < H and j < W.
        return body.reshape(body.shape[0], self.batch, self.padded_height, self.padded_width)


def _shifted_rows(row: np.ndarray, layout: GridLayout) -> np.ndarray:
    """(k*k, size) stack of a one-channel grid's tap slices."""
    size = layout.size
    return np.stack([row[offset:offset + size] for offset in layout.offsets])


def _correlate(grid: np.ndarray, kernel: np.ndarray, layout: GridLayout, out: np.ndarray) -> None:
    """Write the same-padded cross-correlation of a grid with ``kernel`` into
    ``out`` (O, size): position n holds the output at body position n.  With
    several input and output channels, tap 0's GEMM writes ``out`` and every
    later tap's GEMM accumulates into it (beta = 1), in tap order."""
    out_ch, in_ch, k, _ = kernel.shape
    offsets = layout.offsets
    size = layout.size
    if in_ch == 1:
        np.matmul(kernel.reshape(out_ch, k * k), _shifted_rows(grid[0], layout), out=out)
        return
    if out_ch == 1:
        # Row t of the products is tap t's contribution at every grid column.
        products = kernel.reshape(in_ch, k * k).T @ grid
        np.copyto(out[0], products[0, :size])
        for tap in range(1, k * k):
            out[0] += products[tap, offsets[tap]:offsets[tap] + size]
        return
    taps = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1), dtype=float)
    taps = taps.reshape(k * k, out_ch, in_ch)
    np.matmul(taps[0], grid[:, :size], out=out)
    for tap in range(1, k * k):
        offset = offsets[tap]
        add_matmul(out, taps[tap], grid[:, offset:offset + size])


def conv_layer(
    grid: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray,
    layout: GridLayout,
    residual: np.ndarray | None = None,
) -> np.ndarray:
    """New grid of ReLU(conv(grid) + bias [+ residual grid]), pads zero."""
    out = layout.zeros(kernel.shape[0])
    body = layout.body(out)
    _correlate(grid, kernel, layout, body)
    body += bias[:, None]
    if residual is not None:
        body += layout.body(residual)
    np.maximum(body, 0.0, out=body)
    layout.zero_pads(out)
    return out


def conv_output(
    grid: np.ndarray, kernel: np.ndarray, bias: np.ndarray, layout: GridLayout
) -> np.ndarray:
    """(B, O, H, W) array of conv(grid) + bias, cropped off the grid."""
    out = layout.zeros(kernel.shape[0])
    _correlate(grid, kernel, layout, layout.body(out))
    shape = (layout.batch, kernel.shape[0], layout.height, layout.width)
    return np.add(layout.crop(out), bias[:, None, None], out=np.empty(shape))


def parameter_gradients(
    grad_grid: np.ndarray, x_grid: np.ndarray, layout: GridLayout
) -> tuple[np.ndarray, np.ndarray]:
    """(d_kernel, d_bias) of a layer from its upstream gradient grid and its
    input grid.  Both must be zero at every padding position."""
    out_ch, in_ch = grad_grid.shape[0], x_grid.shape[0]
    k = 2 * layout.pad + 1
    size = layout.size
    upstream = layout.body(grad_grid)
    if in_ch == 1:
        grad_kernel = (upstream @ _shifted_rows(x_grid[0], layout).T).reshape(out_ch, 1, k, k)
    elif out_ch == 1:
        # sum_n g[n] x[n + off(t)] = sum_n body(x)[n] g_grid[n + off(t')] with
        # t' the tap rotated 180 degrees, so the stack yields the taps reversed.
        rotated = layout.body(x_grid) @ _shifted_rows(grad_grid[0], layout).T
        grad_kernel = np.ascontiguousarray(rotated[:, ::-1]).reshape(1, in_ch, k, k)
    else:
        taps = np.empty((k * k, out_ch, in_ch))
        for tap, offset in enumerate(layout.offsets):
            np.matmul(upstream, x_grid[:, offset:offset + size].T, out=taps[tap])
        grad_kernel = np.ascontiguousarray(taps.reshape(k, k, out_ch, in_ch).transpose(2, 3, 0, 1))
    return grad_kernel, _bias_gradient(grad_grid, layout)


_BIAS_CHUNK = 8


def _bias_gradient(grad_grid: np.ndarray, layout: GridLayout) -> np.ndarray:
    """Per-channel sum of a gradient grid's valid pixels, bytewise equal to
    ``np.ascontiguousarray(layout.crop(grad_grid)).sum(axis=(0, 2, 3))``.

    With several channels NumPy's reduction adds, image by image, one
    pairwise sum over each channel's H*W pixels.  The same sums are taken
    from contiguous copies of at most ``_BIAS_CHUNK`` channels of one image
    in one reused buffer, so no (B, C, H, W) copy is made.  One channel is
    one pairwise sum over all B*H*W pixels, and its copy is small.
    """
    crop = layout.crop(grad_grid)
    channels = crop.shape[1]
    if channels == 1:
        return np.ascontiguousarray(crop).sum(axis=(0, 2, 3))
    total = np.zeros(channels)
    buffer = np.empty((min(channels, _BIAS_CHUNK), layout.height, layout.width))
    for image in crop:
        for start in range(0, channels, _BIAS_CHUNK):
            chunk = buffer[:min(_BIAS_CHUNK, channels - start)]
            np.copyto(chunk, image[start:start + _BIAS_CHUNK])
            total[start:start + _BIAS_CHUNK] += chunk.sum(axis=(1, 2))
    return total


def input_gradient(grad_grid: np.ndarray, kernel: np.ndarray, layout: GridLayout) -> np.ndarray:
    """New grid of the layer input's gradient; its padding positions are not zeroed."""
    rotated = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    out = layout.zeros(rotated.shape[0])
    _correlate(grad_grid, rotated, layout, layout.body(out))
    return out


def _layout(x: np.ndarray, kernel: np.ndarray) -> GridLayout:
    batch, _, height, width = x.shape
    return GridLayout(batch, height, width, kernel.shape[2] // 2)


def conv2d_same(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Convolve with zero padding (k-1)/2 so spatial size is preserved."""
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    bias = np.asarray(bias, dtype=float)
    _check_conv_shapes(x, kernel)
    out_ch = kernel.shape[0]
    if bias.shape != (out_ch,):
        raise ParameterError(f"bias must have shape ({out_ch},), got {bias.shape}")
    layout = _layout(x, kernel)
    return conv_output(layout.grid(x), kernel, bias, layout)


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
    layout = _layout(x, kernel)
    grad_grid = layout.grid(grad_out)
    grad_kernel, grad_bias = parameter_gradients(grad_grid, layout.grid(x), layout)
    grad_x = np.ascontiguousarray(layout.crop(input_gradient(grad_grid, kernel, layout)))
    return grad_x, grad_kernel, grad_bias
