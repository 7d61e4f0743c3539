import numpy as np
import pytest
from conftest import traced_peak

from covdenoise.denoiser import conv2d_backward, conv2d_same, ops
from covdenoise.errors import ParameterError


def naive_conv_same(x, kernel, bias):
    """Quadruple-loop oracle for same-padded cross-correlation."""
    batch, in_ch, height, width = x.shape
    out_ch, _, k, _ = kernel.shape
    pad = k // 2
    padded = np.zeros((batch, in_ch, height + 2 * pad, width + 2 * pad))
    padded[:, :, pad:pad + height, pad:pad + width] = x
    out = np.zeros((batch, out_ch, height, width))
    for b in range(batch):
        for c in range(out_ch):
            for i in range(height):
                for j in range(width):
                    out[b, c, i, j] = np.sum(padded[b, :, i:i + k, j:j + k] * kernel[c]) + bias[c]
    return out


def _im2col(x, k):
    """(B, C, H, W) -> (B, C*k*k, H*W) columns of the zero-padded input."""
    batch, channels, height, width = x.shape
    pad = k // 2
    padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad))
    padded[:, :, pad:pad + height, pad:pad + width] = x
    cols = np.empty((batch, channels, k * k, height, width))
    for di in range(k):
        for dj in range(k):
            cols[:, :, di * k + dj] = padded[:, :, di:di + height, dj:dj + width]
    return cols.reshape(batch, channels * k * k, height * width)


def _col2im(cols, shape, k):
    """Adjoint of :func:`_im2col`: scatter-add columns back onto the grid."""
    batch, channels, height, width = shape
    pad = k // 2
    acc = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad))
    cols = cols.reshape(batch, channels, k * k, height, width)
    for di in range(k):
        for dj in range(k):
            acc[:, :, di:di + height, dj:dj + width] += cols[:, :, di * k + dj]
    return acc[:, :, pad:pad + height, pad:pad + width]


def im2col_conv_same(x, kernel, bias):
    """Column-buffer oracle: one matmul against the im2col lowering."""
    batch, _, height, width = x.shape
    out_ch, k = kernel.shape[0], kernel.shape[2]
    out = np.matmul(kernel.reshape(out_ch, -1), _im2col(x, k)) + bias[:, None]
    return out.reshape(batch, out_ch, height, width)


def im2col_conv_backward(grad_out, x, kernel):
    """Column-buffer oracle for (d_input, d_kernel, d_bias)."""
    batch, out_ch, height, width = grad_out.shape
    k = kernel.shape[2]
    cols = _im2col(x, k)
    grad_flat = grad_out.reshape(batch, out_ch, height * width)
    grad_kernel = np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape)
    grad_cols = np.matmul(kernel.reshape(out_ch, -1).T, grad_flat)
    return _col2im(grad_cols, x.shape, k), grad_kernel, grad_out.sum(axis=(0, 2, 3))


def relative_error(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize(
    "batch,in_ch,out_ch,height,width",
    [
        (1, 1, 6, 7, 5),  # stem: one channel in
        (2, 6, 1, 5, 9),  # head: one channel out
        (3, 4, 5, 6, 4),
        (2, 3, 3, 1, 8),  # a single row, narrower than the padded kernel
    ],
)
def test_matches_im2col_oracle(rng, k, batch, in_ch, out_ch, height, width):
    x = rng.standard_normal((batch, in_ch, height, width))
    kernel = rng.standard_normal((out_ch, in_ch, k, k))
    bias = rng.standard_normal(out_ch)
    upstream = rng.standard_normal((batch, out_ch, height, width))
    assert relative_error(conv2d_same(x, kernel, bias), im2col_conv_same(x, kernel, bias)) <= 1e-12
    grads = conv2d_backward(upstream, x, kernel)
    for actual, expected in zip(grads, im2col_conv_backward(upstream, x, kernel)):
        assert actual.shape == expected.shape
        assert relative_error(actual, expected) <= 1e-12


def test_conv_peak_memory_stays_near_input_size(rng):
    # A column buffer alone is k*k times the input: the im2col version peaks
    # at about 11x (forward) and 19x (backward) here.
    x = rng.standard_normal((2, 16, 40, 56))
    kernel = rng.standard_normal((16, 16, 3, 3))
    bias = rng.standard_normal(16)
    upstream = rng.standard_normal(x.shape)
    assert traced_peak(lambda: conv2d_same(x, kernel, bias)) <= 4 * x.nbytes
    assert traced_peak(lambda: conv2d_backward(upstream, x, kernel)) <= 4 * x.nbytes


@pytest.mark.parametrize("size", [(7, 5), (100, 100)], ids=["7x5", "100x100"])
@pytest.mark.parametrize("channels", [1, 3, 8, 9, 64])
@pytest.mark.parametrize("batch", [1, 2, 5])
def test_bias_gradient_is_bytewise_the_full_copy_sum(rng, batch, channels, size):
    # The chunked sum relies on NumPy's reduction order over a contiguous
    # (B, C, H, W) array: per image, one pairwise sum per channel, or one over
    # all B*H*W pixels when C is 1.  Magnitudes spanning 1e-9..1e9 make any
    # other order show; 100x100 pixels outnumber NumPy's default 8192-element
    # buffer.
    layout = ops.GridLayout(batch, *size, 1)
    grad_grid = layout.zeros(channels)
    values = rng.standard_normal((batch, channels, *size))
    values *= np.exp(rng.uniform(-20.0, 20.0, values.shape))
    values[rng.random(values.shape) < 0.25] = -0.0
    layout.crop(grad_grid)[...] = values
    _, grad_bias = ops.parameter_gradients(grad_grid, layout.grid(values[:, :1]), layout)
    expected = np.ascontiguousarray(layout.crop(grad_grid)).sum(axis=(0, 2, 3))
    assert grad_bias.tobytes() == expected.tobytes()


def test_identity_kernel_passthrough():
    x = np.arange(9.0).reshape(1, 1, 3, 3)
    kernel = np.zeros((1, 1, 3, 3))
    kernel[0, 0, 1, 1] = 1.0
    out = conv2d_same(x, kernel, np.zeros(1))
    assert np.array_equal(out, x)


def test_all_ones_padding_profile():
    x = np.ones((1, 1, 3, 3))
    kernel = np.ones((1, 1, 3, 3))
    out = conv2d_same(x, kernel, np.zeros(1))[0, 0]
    assert out[1, 1] == 9.0
    assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0
    assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6.0


def test_matches_quadruple_loop_oracle(rng):
    x = rng.standard_normal((2, 3, 6, 6))
    kernel = rng.standard_normal((4, 3, 3, 3))
    bias = rng.standard_normal(4)
    assert np.max(np.abs(conv2d_same(x, kernel, bias) - naive_conv_same(x, kernel, bias))) <= 1e-12


def test_five_by_five_kernel(rng):
    x = rng.standard_normal((1, 2, 7, 7))
    kernel = rng.standard_normal((3, 2, 5, 5))
    bias = np.zeros(3)
    assert np.max(np.abs(conv2d_same(x, kernel, bias) - naive_conv_same(x, kernel, bias))) <= 1e-12


def test_backward_matches_finite_differences(rng):
    x = rng.standard_normal((2, 2, 4, 4))
    kernel = rng.standard_normal((3, 2, 3, 3))
    bias = rng.standard_normal(3)
    upstream = rng.standard_normal((2, 3, 4, 4))

    def objective():
        return float(np.sum(conv2d_same(x, kernel, bias) * upstream))

    grad_x, grad_kernel, grad_bias = conv2d_backward(upstream, x, kernel)
    h = 1e-6
    for array, grad in ((x, grad_x), (kernel, grad_kernel), (bias, grad_bias)):
        flat = array.ravel()
        indices = rng.choice(flat.size, size=min(12, flat.size), replace=False)
        for index in indices:
            original = flat[index]
            flat[index] = original + h
            up = objective()
            flat[index] = original - h
            down = objective()
            flat[index] = original
            fd = (up - down) / (2 * h)
            assert abs(fd - grad.ravel()[index]) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize(
    "x_shape,k_shape,b_shape",
    [
        ((1, 2, 4, 4), (3, 1, 3, 3), (3,)),  # channel mismatch
        ((1, 1, 4, 4), (2, 1, 2, 2), (2,)),  # even kernel
        ((1, 1, 4, 4), (2, 1, 3, 3), (3,)),  # bias mismatch
        ((1, 4, 4), (2, 1, 3, 3), (2,)),  # bad rank
    ],
)
def test_shape_validation(x_shape, k_shape, b_shape):
    with pytest.raises(ParameterError):
        conv2d_same(np.zeros(x_shape), np.zeros(k_shape), np.zeros(b_shape))


@pytest.mark.parametrize(
    "g_shape,x_shape,k_shape",
    [
        ((1, 1, 6, 4), (1, 1, 4, 6), (1, 1, 3, 3)),  # height and width swapped
        ((2, 1, 4, 6), (1, 1, 4, 6), (1, 1, 3, 3)),  # batch mismatch
        ((1, 2, 4, 6), (1, 1, 4, 6), (1, 1, 3, 3)),  # output channels mismatch
        ((1, 3, 4, 4), (1, 2, 4, 4), (3, 1, 3, 3)),  # input channel mismatch
        ((1, 2, 4, 4), (1, 1, 4, 4), (2, 1, 2, 2)),  # even kernel
        ((1, 2, 4, 4), (1, 1, 4, 4), (2, 1, 3, 5)),  # non-square kernel
        ((1, 2, 4, 4), (1, 4, 4), (2, 1, 3, 3)),  # bad input rank
        ((1, 2, 4, 4), (1, 1, 4, 4), (2, 1, 3)),  # bad kernel rank
    ],
)
def test_backward_shape_validation(g_shape, x_shape, k_shape):
    with pytest.raises(ParameterError):
        conv2d_backward(np.zeros(g_shape), np.zeros(x_shape), np.zeros(k_shape))


def test_backward_rejection_names_both_shapes():
    with pytest.raises(ParameterError, match=r"\(1, 1, 6, 4\).*\(1, 1, 4, 6\)"):
        conv2d_backward(np.zeros((1, 1, 6, 4)), np.zeros((1, 1, 4, 6)), np.zeros((1, 1, 3, 3)))
