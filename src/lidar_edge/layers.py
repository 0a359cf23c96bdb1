"""Tensor primitives for the from-scratch networks.

Activations are (..., channels, height, width) float64 arrays. Leading
axes are batch axes: every layer treats each example alone, so a batch
gives the stack of its examples' results, bit for bit. Convolution is
cross-correlation (no kernel flip) with stride 1 and either same-zero
or valid padding; a fully connected layer is the valid convolution
whose kernel covers its whole input. Every forward has a matching
hand-derived backward; the pair is validated against central finite
differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ParameterError
from .rng import floats_per_seed


@dataclass
class ConvParams:
    """One convolution layer: weights (out_ch, in_ch, kh, kw), bias (out_ch,)."""
    weights: np.ndarray
    bias: np.ndarray
    padding: str = "same"  # "same" (zero-padded) or "valid"

    def __post_init__(self):
        if self.weights.ndim != 4 or self.bias.shape != (self.weights.shape[0],):
            raise DimensionError(
                f"conv params inconsistent: W{self.weights.shape} b{self.bias.shape}")
        if self.padding not in ("same", "valid"):
            raise ParameterError(f"unknown padding {self.padding!r}")


@dataclass(frozen=True)
class Columns:
    """An input (..., C, H, W) laid out for one convolution (im2col,
    Chellapilla et al. 2006): data is (..., C*kh*kw, Ho*Wo), one matrix per
    example. conv_forward and conv_backward take it in place of the input,
    so a backward reuses the columns its forward built."""
    data: np.ndarray
    x_shape: tuple
    out_hw: tuple
    kernel: tuple  # (in_ch, kh, kw, padding) of the convolution it was built for


def _im2col(x: np.ndarray, kh: int, kw: int, padding: str) -> tuple[np.ndarray, tuple]:
    *lead, cin, h, w = x.shape
    if padding == "same":
        if kh % 2 == 0 or kw % 2 == 0:
            raise DimensionError("same padding needs odd kernel dims")
        if kh > 1 or kw > 1:
            x_pad = np.zeros((*lead, cin, h + kh - 1, w + kw - 1))
            x_pad[..., kh // 2:kh // 2 + h, kw // 2:kw // 2 + w] = x
            x = x_pad
    elif kh > h or kw > w:
        raise DimensionError(f"kernel ({kh},{kw}) larger than input {x.shape} in valid mode")
    ho, wo = x.shape[-2] - kh + 1, x.shape[-1] - kw + 1
    if kh * kw == 1 or ho * wo == 1:  # a 1x1 kernel, or one covering x: x is its columns
        return x.reshape(*lead, cin * kh * kw, ho * wo), (ho, wo)
    *s_lead, s_c, s_h, s_w = x.strides
    win = np.lib.stride_tricks.as_strided(  # (..., C, kh, kw, Ho, Wo), a view of x
        x, (*lead, cin, kh, kw, ho, wo), (*s_lead, s_c, s_h, s_w, s_h, s_w), writeable=False)
    return win.reshape(*lead, cin * kh * kw, ho * wo), (ho, wo)


def im2col(x: np.ndarray, p: ConvParams) -> Columns:
    """The columns of x for p's convolution."""
    _, cin, kh, kw = p.weights.shape
    if x.ndim < 3 or x.shape[-3] != cin:
        raise DimensionError(f"input {x.shape} does not match in_ch={cin}")
    data, out_hw = _im2col(x, kh, kw, p.padding)
    return Columns(data, x.shape, out_hw, (cin, kh, kw, p.padding))


def _columns(x, p: ConvParams) -> Columns:
    if not isinstance(x, Columns):
        return im2col(x, p)
    if x.kernel != (*p.weights.shape[1:], p.padding):
        raise DimensionError(f"columns built for {x.kernel}, not for W{p.weights.shape}")
    return x


def conv_forward(x, p: ConvParams) -> np.ndarray:
    """y[..., o] = sum_c x[..., c] (*) W[o,c] + b[o], cross-correlation
    orientation. x is the input (..., C, H, W) or its Columns; y is
    (..., out_ch, Ho, Wo)."""
    cols = _columns(x, p)
    cout = p.weights.shape[0]
    y = np.matmul(p.weights.reshape(cout, -1), cols.data) + p.bias[:, np.newaxis]
    return y.reshape(*cols.x_shape[:-3], cout, *cols.out_hw)


def conv_backward(x, p: ConvParams, d_out: np.ndarray,
                  input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dX, dW, db) of a scalar loss given d_out = dL/dy.

    x is the forward's input or its Columns. dX has the input's shape, or
    is None when input_grad is off (the first layer of a net needs none);
    dW and db keep the leading axes, one gradient per example: the batch
    is never summed here, so each example's gradient is the one it would
    get alone.
    """
    cols = _columns(x, p)
    cout, cin, kh, kw = p.weights.shape
    lead, (h, w), (ho, wo) = cols.x_shape[:-3], cols.x_shape[-2:], cols.out_hw
    d_mat = d_out.reshape(*lead, cout, ho * wo)
    d_w = np.matmul(d_mat, np.swapaxes(cols.data, -1, -2)).reshape(*lead, *p.weights.shape)
    d_b = d_mat.sum(axis=-1)
    if not input_grad:
        return None, d_w, d_b
    d_cols = np.matmul(p.weights.reshape(cout, -1).T, d_mat)
    ph, pw = (kh // 2, kw // 2) if p.padding == "same" else (0, 0)
    d_pad = _col2im(d_cols, cin, (kh, kw), (ho, wo), (h + 2 * ph, w + 2 * pw))
    return d_pad[..., ph:ph + h, pw:pw + w], d_w, d_b


def _col2im(d_cols: np.ndarray, cin: int, kernel: tuple, out_hw: tuple,
            pad_hw: tuple) -> np.ndarray:
    """Fold column gradients (..., cin*kh*kw, Ho*Wo) back onto the padded
    input (..., cin, Hp, Wp): every cell sums its kernel taps in
    row-major (i, j) order, starting from +0.0.

    The columns list each cell's taps in that order, so one np.add.at
    per example, which adds into zeros in the order of its index, is
    that sum. When no two taps share a cell (a 1x1 kernel, or one that
    covers its input), the fold is a reshape, and adding +0.0 is the sum
    from +0.0.
    """
    lead = d_cols.shape[:-2]
    if kernel[0] * kernel[1] == 1 or out_hw[0] * out_hw[1] == 1:
        return d_cols.reshape(*lead, cin, *pad_hw) + 0.0
    index = _col2im_index(cin, *kernel, *out_hw, *pad_hw)
    weights = d_cols.reshape(-1, index.size)
    d_pad = np.zeros((len(weights), cin * pad_hw[0] * pad_hw[1]))
    for n, example in enumerate(weights):
        np.add.at(d_pad[n], index, example)
    return d_pad.reshape(*lead, cin, *pad_hw)


@lru_cache(maxsize=32)
def _col2im_index(cin: int, kh: int, kw: int, ho: int, wo: int,
                  hp: int, wp: int) -> np.ndarray:
    """For one example, the flat index into the padded input (cin, Hp, Wp)
    of each column entry, in the columns' (cin, kh, kw, Ho, Wo) order."""
    c = np.arange(cin).reshape(-1, 1, 1, 1, 1) * (hp * wp)
    row = (np.arange(kh).reshape(-1, 1, 1, 1) + np.arange(ho).reshape(-1, 1)) * wp
    col = np.arange(kw).reshape(-1, 1, 1) + np.arange(wo)
    index = (c + row + col).reshape(-1)
    index.flags.writeable = False
    return index


def maxpool2x2_forward(x: np.ndarray) -> np.ndarray:
    """Stride-2 2x2 max pooling of (..., C, H, W) with H and W even. A
    pooled zero may take either sign where +0.0 ties -0.0, and a window
    holding NaN pools to NaN: training stops on a non-finite loss before
    backward."""
    if x.ndim < 3 or x.shape[-2] % 2 or x.shape[-1] % 2:
        raise DimensionError(f"expected (..., C, H, W) with H and W even, got {x.shape}")
    a, b, c, d = _window_views(x)
    return np.maximum(np.maximum(a, b), np.maximum(c, d))


def _window_views(x: np.ndarray) -> list:
    """Stride-2 views of the four cells of every 2x2 window of x, in
    row-major window order."""
    return [x[..., i::2, j::2] for i in (0, 1) for j in (0, 1)]


def maxpool2x2_backward(x: np.ndarray, pooled: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Route each window's gradient to the first cell, in row-major order,
    where the forward's input x equals the forward's output pooled (+0.0
    equals -0.0); a window holding NaN routes to its last cell."""
    d_x = np.zeros(x.shape)
    cells, d_cells = _window_views(x), _window_views(d_x)
    free = np.ones(pooled.shape, dtype=bool)  # windows not routed yet
    for cell, d_cell in zip(cells[:3], d_cells[:3]):
        hit = free & (cell == pooled)
        np.copyto(d_cell, d_out, where=hit)
        free &= ~hit
    np.copyto(d_cells[3], d_out, where=free)
    return d_x


def upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    """Replicate each pixel into a factor x factor block."""
    factor = int(factor)
    if factor < 1:
        raise ParameterError(f"upsample factor must be >= 1, got {factor}")
    if factor == 1:
        return x.copy()
    return np.repeat(np.repeat(x, factor, axis=-2), factor, axis=-1)


def upsample_nearest_backward(d_out: np.ndarray, factor: int) -> np.ndarray:
    """Sum the gradient over each replication block."""
    factor = int(factor)
    if factor == 1:
        return d_out.copy()
    *lead, h, w = d_out.shape
    view = d_out.reshape(*lead, h // factor, factor, w // factor, factor)
    return view.sum(axis=(-3, -1))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    return d_out * (x > 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), with exp taken only of -|x|, so it never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_backward(y: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Gradient through sigmoid given its OUTPUT y."""
    return d_out * y * (1.0 - y)


def dropout_mask(shape: tuple, rate: float, seeds) -> np.ndarray:
    """Inverted-dropout multipliers, one mask of shape per seed, stacked
    (len(seeds), *shape): 0 with probability `rate`, else 1/(1-rate),
    each drawn row-major from the SplitMix64 stream of its seed."""
    if not (0.0 <= rate < 1.0):
        raise ParameterError(f"dropout rate must lie in [0, 1), got {rate}")
    out_shape = (len(seeds), *shape)
    if rate == 0.0:
        return np.ones(out_shape)
    u = floats_per_seed(seeds, int(np.prod(shape))).reshape(out_shape)
    return (u >= rate) / (1.0 - rate)
