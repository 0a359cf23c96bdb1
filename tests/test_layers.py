"""Network building blocks checked against naive math and finite differences."""

import numpy as np
import pytest

from lidar_edge.errors import DimensionError, ParameterError
from lidar_edge.layers import (_col2im, _im2col, Columns, ConvParams, conv_backward, conv_forward,
                               dropout_mask, im2col, maxpool2x2_backward,
                               maxpool2x2_forward, relu, relu_backward,
                               sigmoid, sigmoid_backward, upsample_nearest,
                               upsample_nearest_backward)
from lidar_edge.rng import SplitMix64

EPS = 1e-5


def fd_grad(f, x, eps=EPS):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f()
        x[idx] = orig - eps
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
    return g


def naive_conv_forward(x, p):
    """Quadruple-loop oracle for the multi-channel cross-correlation."""
    cout, cin, kh, kw = p.weights.shape
    _, h, w = x.shape
    if p.padding == "same":
        xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
        ho, wo = h, w
    else:
        xp, ho, wo = x, h - kh + 1, w - kw + 1
    out = np.zeros((cout, ho, wo))
    for o in range(cout):
        for y in range(ho):
            for xx in range(wo):
                out[o, y, xx] = (xp[:, y:y + kh, xx:xx + kw] * p.weights[o]).sum() + p.bias[o]
    return out


class TestConv:
    def _params(self, cout, cin, k, padding, seed):
        rng = SplitMix64(seed)
        return ConvParams(weights=rng.floats(cout * cin * k * k).reshape(cout, cin, k, k) - 0.5,
                          bias=rng.floats(cout) - 0.5, padding=padding)

    @pytest.mark.parametrize("padding,k", [("same", 3), ("valid", 3), ("valid", 5), ("same", 1)])
    def test_forward_matches_naive(self, padding, k):
        rng = SplitMix64(1)
        x = rng.floats(2 * 8 * 9).reshape(2, 8, 9)
        p = self._params(3, 2, k, padding, 2)
        np.testing.assert_allclose(conv_forward(x, p), naive_conv_forward(x, p),
                                   rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_backward_matches_finite_differences(self, padding):
        rng = SplitMix64(3)
        x = rng.floats(2 * 6 * 6).reshape(2, 6, 6)
        p = self._params(2, 2, 3, padding, 4)
        rand = rng.floats(conv_forward(x, p).size).reshape(conv_forward(x, p).shape)
        loss = lambda: (conv_forward(x, p) * rand).sum()
        dx, dw, db = conv_backward(x, p, rand)
        np.testing.assert_allclose(dx, fd_grad(loss, x), atol=1e-8)
        np.testing.assert_allclose(dw, fd_grad(loss, p.weights), atol=1e-8)
        np.testing.assert_allclose(db, fd_grad(loss, p.bias), atol=1e-8)

    def test_channel_mismatch(self):
        p = self._params(2, 3, 3, "same", 0)
        with pytest.raises(DimensionError):
            conv_forward(np.zeros((2, 5, 5)), p)


class TestMaxPool:
    def test_forward_even(self):
        x = np.array([[[1.0, 2.0, 5.0, 3.0],
                       [4.0, 0.0, 1.0, 2.0],
                       [7.0, 6.0, 0.0, 1.0],
                       [5.0, 8.0, 2.0, 9.0]]])
        np.testing.assert_array_equal(maxpool2x2_forward(x), [[[4.0, 5.0], [8.0, 9.0]]])

    @pytest.mark.parametrize("shape", [(1, 3, 4), (1, 4, 3), (2, 2, 5, 5)], ids=str)
    def test_odd_size_refused(self, shape):
        with pytest.raises(DimensionError, match="even"):
            maxpool2x2_forward(np.zeros(shape))

    def test_tie_takes_first_in_row_major_order(self):
        x = np.full((1, 2, 2), 3.0)
        dx = maxpool2x2_backward(x, maxpool2x2_forward(x), np.array([[[1.0]]]))
        np.testing.assert_array_equal(dx, [[[1.0, 0.0], [0.0, 0.0]]])  # top-left wins a four-way tie

    def test_backward_matches_finite_differences(self):
        rng = SplitMix64(5)
        for shape in ((2, 6, 6), (1, 4, 8)):
            x = rng.floats(int(np.prod(shape))).reshape(shape)
            pooled = maxpool2x2_forward(x)
            rand = rng.floats(pooled.size).reshape(pooled.shape)

            def loss():
                return (maxpool2x2_forward(x) * rand).sum()

            dx = maxpool2x2_backward(x, pooled, rand)
            np.testing.assert_allclose(dx, fd_grad(loss, x), atol=1e-8)

    def test_backward_routes_to_argmax_only(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        dx = maxpool2x2_backward(x, maxpool2x2_forward(x), np.array([[[1.0]]]))
        np.testing.assert_array_equal(dx, [[[0.0, 0.0], [0.0, 1.0]]])


class TestUpsample:
    def test_forward_blocks(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        up = upsample_nearest(x, 2)
        np.testing.assert_array_equal(up[0, :2, :2], 1.0)
        np.testing.assert_array_equal(up[0, 2:, 2:], 4.0)
        assert up.shape == (1, 4, 4)

    def test_backward_is_block_sum(self):
        d = np.arange(16, dtype=float).reshape(1, 4, 4)
        back = upsample_nearest_backward(d, 2)
        np.testing.assert_array_equal(back, [[[0 + 1 + 4 + 5, 2 + 3 + 6 + 7],
                                              [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]]])

    def test_adjoint_identity(self):
        """<up(x), y> == <x, up_backward(y)> for all x, y."""
        rng = SplitMix64(6)
        x = rng.floats(2 * 3 * 3).reshape(2, 3, 3)
        y = rng.floats(2 * 9 * 9).reshape(2, 9, 9)
        lhs = (upsample_nearest(x, 3) * y).sum()
        rhs = (x * upsample_nearest_backward(y, 3)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_factor_one_identity(self):
        x = SplitMix64(7).floats(8).reshape(2, 2, 2)
        np.testing.assert_array_equal(upsample_nearest(x, 1), x)


class TestActivations:
    def test_relu_values(self):
        np.testing.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])),
                                      [0.0, 0.0, 3.0])

    def test_relu_backward_gate(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu_backward(x, np.ones(3)),
                                      [0.0, 0.0, 1.0])

    def test_sigmoid_values(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        np.testing.assert_allclose(sigmoid(np.array([-2.0, 2.0])),
                                   [1 / (1 + np.e ** 2), 1 / (1 + np.e ** -2)],
                                   rtol=1e-12)

    def test_sigmoid_extreme_inputs_stable(self):
        y = sigmoid(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(y))
        assert y[0] == 0.0 and y[1] == 1.0

    def test_sigmoid_backward_matches_finite_differences(self):
        x = np.linspace(-3, 3, 13)
        y = sigmoid(x)
        got = sigmoid_backward(y, np.ones_like(x))
        want = fd_grad(lambda: sigmoid(x).sum(), x)
        np.testing.assert_allclose(got, want, atol=1e-9)


def naive_maxpool(x):
    """Per-window max of even-sized (C, H, W) input, by loops."""
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2))
    for ci in range(c):
        for y in range(h // 2):
            for xq in range(w // 2):
                out[ci, y, xq] = x[ci, 2 * y:2 * y + 2, 2 * xq:2 * xq + 2].max()
    return out


def argmax_maxpool(x):
    """maxpool2x2_forward by argmax over each window's four cells, laid
    out as a last axis, and a gather of the argmax cells."""
    *lead, h, w = x.shape
    flat = x.reshape(*lead, h // 2, 2, w // 2, 2).swapaxes(-3, -2).reshape(*lead, h // 2, w // 2, 4)
    arg = flat.argmax(axis=-1)
    cells = np.arange(0, 4 * arg.size, 4) + arg.reshape(-1)
    return flat.reshape(-1)[cells].reshape(arg.shape), arg


def scatter_maxpool_backward(x_shape, arg, d_out):
    """maxpool2x2_backward as a scatter into the argmax cells of the
    windows laid out as a last axis."""
    *lead, h, w = x_shape
    flat = np.zeros((*lead, h // 2, w // 2, 4))
    flat.reshape(-1)[np.arange(0, 4 * arg.size, 4) + arg.reshape(-1)] = d_out.reshape(-1)
    return flat.reshape(*lead, h // 2, w // 2, 2, 2).swapaxes(-3, -2).reshape(*lead, h, w)


def masked_sigmoid(x):
    """sigmoid through one boolean mask per sign."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def assert_identical(got, want):
    """Equal shape, dtype and values, with NaN equal to NaN and the sign
    of every zero the same."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    zero = want == 0.0
    assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))


class TestKernelOracles:
    """Pooling and sigmoid against the argmax-and-gather and masked
    versions they replace. The pooling backward finds each window's
    first maximum again from the forward's input and output; it must
    route exactly as the argmax the forward once returned."""

    @staticmethod
    def tied(rng, shape, values):
        """Cells drawn from a few values, so that most windows tie."""
        pick = (rng.floats(int(np.prod(shape))) * len(values)).astype(int)
        return np.asarray(values)[pick].reshape(shape)

    @pytest.mark.parametrize("shape", [(3, 6, 8), (2, 3, 4, 4), (8, 64, 64), (4, 8, 32, 32)],
                             ids=str)
    def test_pool_forward_and_backward(self, shape):
        """Bit for bit wherever no window ties +0.0 with -0.0 (relu's output
        holds no -0.0); where one does, the pooled zero may take either
        sign, while argmax and the backward stay exact."""
        rng = SplitMix64(41)
        for values, bitwise in (([-1.0, 0.0, 1.0, 2.0], True), ([-1.0, -0.0, 0.0, 1.0], False),
                                (None, True)):
            x = (rng.normals(int(np.prod(shape))).reshape(shape) if values is None
                 else self.tied(rng, shape, values))
            pooled = maxpool2x2_forward(x)
            want_pooled, want_arg = argmax_maxpool(x)
            assert np.array_equal(pooled, want_pooled)
            assert not bitwise or pooled.tobytes() == want_pooled.tobytes()
            d_out = (self.tied(rng, pooled.shape, [-1.0, -0.0, 0.0, 1.0])
                     * rng.normals(pooled.size).reshape(pooled.shape))
            assert_identical(maxpool2x2_backward(x, pooled, d_out),
                             scatter_maxpool_backward(x.shape, want_arg, d_out))

    def test_pool_nan_window(self):
        """A window holding NaN pools to NaN and routes its gradient to its
        last cell, not to the first NaN; every other window routes to its
        argmax, ties and signed zeros included."""
        x = np.array([[[1.0, np.nan], [np.nan, 2.0]]])
        assert np.isnan(maxpool2x2_forward(x)).all()
        assert_identical(maxpool2x2_backward(x, maxpool2x2_forward(x), np.array([[[5.0]]])),
                         np.array([[[0.0, 0.0], [0.0, 5.0]]]))
        rng = SplitMix64(43)
        x = self.tied(rng, (2, 3, 8, 8), [-1.0, -0.0, 0.0, 1.0, np.nan])
        pooled = maxpool2x2_forward(x)
        nan_window = np.isnan(pooled)
        assert nan_window.any() and not nan_window.all()
        d_out = rng.normals(pooled.size).reshape(pooled.shape)
        assert_identical(maxpool2x2_backward(x, pooled, d_out), scatter_maxpool_backward(
            x.shape, np.where(nan_window, 3, argmax_maxpool(x)[1]), d_out))

    def test_sigmoid(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan,
                            1e-300, -1e-300, 36.0, -36.0, 710.0, -710.0])
        x = np.concatenate([special, 50.0 * SplitMix64(42).normals(4096)])
        with np.errstate(over="raise"):
            for values in (x, x.reshape(-1, 1)[:, [0, 0]], x[:4096].reshape(4, 32, 32)):
                assert_identical(sigmoid(values), masked_sigmoid(values))


def loop_col2im_conv_backward(x, p, d_out):
    """dX of one example the way the per-example layer built it: the
    kernel-tap loop over (i, j) in row-major order."""
    cout, cin, kh, kw = p.weights.shape
    cols = im2col(x, p)
    ho, wo = cols.out_hw
    d_cols = (p.weights.reshape(cout, -1).T @ d_out.reshape(cout, ho * wo)).reshape(
        cin, kh, kw, ho, wo)
    ph, pw = (kh // 2, kw // 2) if p.padding == "same" else (0, 0)
    d_pad = np.zeros((cin, x.shape[1] + 2 * ph, x.shape[2] + 2 * pw))
    for i in range(kh):
        for j in range(kw):
            d_pad[:, i:i + ho, j:j + wo] += d_cols[:, i, j]
    return d_pad[:, ph:ph + x.shape[1], pw:pw + x.shape[2]]


def loop_col2im(d_cols, cin, kernel, out_hw, pad_hw):
    """The col2im oracle: a kernel-tap loop over (i, j) in row-major
    order, adding into zeros."""
    (kh, kw), (ho, wo), lead = kernel, out_hw, d_cols.shape[:-2]
    taps = d_cols.reshape(*lead, cin, kh, kw, ho, wo)
    d_pad = np.zeros((*lead, cin, *pad_hw))
    for i in range(kh):
        for j in range(kw):
            d_pad[..., i:i + ho, j:j + wo] += taps[..., i, j, :, :]
    return d_pad


class TestCol2im:
    """_col2im equals the tap loop byte for byte, signed zeros included."""

    # (cin, kh, kw, h, w, padding): 3x3 and 5x5 same and valid, non-square
    # and odd sizes, 1x1 kernels, kernels that cover their (padded) input
    CASES = [(2, 3, 3, 8, 9, "same"), (3, 5, 5, 9, 7, "valid"), (2, 5, 5, 7, 5, "same"),
             (2, 5, 3, 7, 6, "valid"), (3, 1, 1, 5, 6, "same"), (2, 1, 1, 3, 1, "valid"),
             (2, 4, 4, 4, 4, "valid"), (6, 1, 1, 1, 1, "valid"), (2, 3, 3, 1, 1, "same"),
             (1, 3, 3, 3, 3, "valid")]

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=str)
    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_matches_tap_loop(self, case, lead):
        cin, kh, kw, h, w, padding = case
        ph, pw = (kh // 2, kw // 2) if padding == "same" else (0, 0)
        pad_hw = (h + 2 * ph, w + 2 * pw)
        out_hw = (pad_hw[0] - kh + 1, pad_hw[1] - kw + 1)
        rng = SplitMix64(sum(case[:5]) + len(lead))
        shape = (*lead, cin * kh * kw, out_hw[0] * out_hw[1])
        d_cols = rng.normals(int(np.prod(shape))).reshape(shape)
        d_cols[rng.floats(d_cols.size).reshape(shape) < 0.2] = -0.0
        # every tap of channel 0 is -0.0, so its cells must sum to +0.0
        d_cols.reshape(*lead, cin, -1)[..., 0, :] = -0.0
        got = _col2im(d_cols, cin, (kh, kw), out_hw, pad_hw)
        want = loop_col2im(d_cols, cin, (kh, kw), out_hw, pad_hw)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[..., 0, :, :]).any()

    @pytest.mark.parametrize("case", [(3, 1, 1, 5, 6, "same"), (2, 4, 4, 4, 4, "valid"),
                                      (2, 3, 3, 1, 1, "same")], ids=str)
    def test_reshaped_columns_match_strided_windows(self, case):
        """A 1x1 kernel, or one that covers its input, takes its columns
        by reshaping the input: the same array as the strided windows."""
        cin, kh, kw, h, w, padding = case
        x = SplitMix64(3).normals(2 * cin * h * w).reshape(2, cin, h, w)
        got, out_hw = _im2col(x, kh, kw, padding)
        ph, pw = (kh // 2, kw // 2) if padding == "same" else (0, 0)
        x_pad = np.pad(x, [(0, 0), (0, 0), (ph, ph), (pw, pw)])
        win = np.lib.stride_tricks.sliding_window_view(x_pad, (kh, kw), axis=(-2, -1))
        want = win.transpose(0, 1, 4, 5, 2, 3).reshape(2, cin * kh * kw, -1)
        assert out_hw == win.shape[2:4]
        assert got.tobytes() == want.tobytes()


class TestBatchAxis:
    """Leading axes are batch axes: a batch gives exactly (np.array_equal)
    the stack of its examples' results, and matches the loop oracles."""

    # (cout, cin, k, padding, h, w); the last two kernels cover their
    # input, as the patch net's fully connected layers do
    SHAPES = [(3, 2, 3, "same", 8, 9), (2, 3, 5, "valid", 9, 7), (4, 2, 1, "same", 5, 6),
              (2, 2, 5, "valid", 6, 7), (5, 3, 4, "valid", 4, 4), (1, 6, 1, "valid", 1, 1)]

    @staticmethod
    def _conv(cout, cin, k, padding, seed):
        rng = SplitMix64(seed)
        return ConvParams(rng.normals(cout * cin * k * k).reshape(cout, cin, k, k),
                          rng.normals(cout), padding)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_conv_forward_matches_naive_per_example(self, shape):
        cout, cin, k, padding, h, w = shape
        p = self._conv(cout, cin, k, padding, 1)
        x = SplitMix64(2).normals(2 * 3 * cin * h * w).reshape(2, 3, cin, h, w)
        y = conv_forward(x, p)
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(y[idx], naive_conv_forward(x[idx], p),
                                       rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_conv_batch_is_stack_of_examples(self, shape):
        cout, cin, k, padding, h, w = shape
        p = self._conv(cout, cin, k, padding, 3)
        rng = SplitMix64(4)
        x = rng.normals(4 * cin * h * w).reshape(4, cin, h, w)
        y = conv_forward(x, p)
        d_out = rng.normals(y.size).reshape(y.shape)
        d_x, d_w, d_b = conv_backward(x, p, d_out)
        assert d_w.shape == (4, *p.weights.shape) and d_b.shape == (4, cout)
        for n in range(4):
            assert np.array_equal(y[n], conv_forward(x[n], p))
            one = conv_backward(x[n], p, d_out[n])
            for got, want in zip((d_x[n], d_w[n], d_b[n]), one):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_col2im_adds_taps_in_row_major_order(self, shape):
        """conv_backward gives the per-example kernel-tap loop's dX bit for bit."""
        cout, cin, k, padding, h, w = shape
        p = self._conv(cout, cin, k, padding, 5)
        rng = SplitMix64(6)
        x = rng.normals(cin * h * w).reshape(cin, h, w)
        d_out = rng.normals(conv_forward(x, p).size).reshape(conv_forward(x, p).shape)
        assert np.array_equal(conv_backward(x, p, d_out)[0],
                              loop_col2im_conv_backward(x, p, d_out))

    def test_backward_reuses_forward_columns(self):
        p = self._conv(3, 2, 3, "same", 7)
        x = SplitMix64(8).normals(2 * 2 * 6 * 6).reshape(2, 2, 6, 6)
        cols = im2col(x, p)
        assert isinstance(cols, Columns)
        y = conv_forward(cols, p)
        assert np.array_equal(y, conv_forward(x, p))
        d_out = SplitMix64(9).normals(y.size).reshape(y.shape)
        for got, want in zip(conv_backward(cols, p, d_out), conv_backward(x, p, d_out)):
            assert np.array_equal(got, want)
        d_x, d_w, d_b = conv_backward(cols, p, d_out, input_grad=False)
        assert d_x is None
        assert np.array_equal(d_w, conv_backward(x, p, d_out)[1])

    def test_columns_of_another_kernel_are_refused(self):
        p3 = self._conv(2, 2, 3, "same", 1)
        cols = im2col(np.zeros((2, 6, 6)), p3)
        with pytest.raises(DimensionError):
            conv_forward(cols, self._conv(2, 2, 3, "valid", 1))
        with pytest.raises(DimensionError):
            conv_backward(cols, self._conv(2, 2, 5, "same", 1), np.zeros((2, 6, 6)))

    @pytest.mark.parametrize("hw", [(6, 8), (4, 2)], ids=str)
    def test_pool_batch_is_stack_of_examples(self, hw):
        rng = SplitMix64(10)
        x = rng.normals(3 * 2 * hw[0] * hw[1]).reshape(3, 2, *hw)
        x[0, 0, :2, :2] = 1.5  # a tie, taken by the first cell
        pooled = maxpool2x2_forward(x)
        d_out = rng.normals(pooled.size).reshape(pooled.shape)
        d_x = maxpool2x2_backward(x, pooled, d_out)
        for n in range(3):
            assert np.array_equal(pooled[n], maxpool2x2_forward(x[n]))
            assert np.array_equal(d_x[n], maxpool2x2_backward(x[n], pooled[n], d_out[n]))
            assert np.array_equal(pooled[n], naive_maxpool(x[n]))

    def test_upsample_batch_is_stack_of_examples(self):
        rng = SplitMix64(11)
        x = rng.normals(3 * 2 * 4 * 4).reshape(3, 2, 4, 4)
        d = rng.normals(3 * 2 * 8 * 8).reshape(3, 2, 8, 8)
        up, back = upsample_nearest(x, 2), upsample_nearest_backward(d, 2)
        for n in range(3):
            assert np.array_equal(up[n], upsample_nearest(x[n], 2))
            assert np.array_equal(back[n], upsample_nearest_backward(d[n], 2))


class TestDropout:
    def test_values_zero_or_inverted_scale(self):
        m = dropout_mask((1000,), 0.4, [1])
        assert set(np.unique(m)) <= {0.0, 1.0 / 0.6}

    def test_drop_fraction(self):
        m = dropout_mask((20000,), 0.3, [2])
        assert abs((m == 0).mean() - 0.3) < 0.02

    def test_preserves_expectation(self):
        m = dropout_mask((50000,), 0.5, [3])
        assert abs(m.mean() - 1.0) < 0.02

    def test_zero_rate_identity(self):
        np.testing.assert_array_equal(dropout_mask((4, 4), 0.0, [4]),
                                      np.ones((1, 4, 4)))

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(dropout_mask((64,), 0.5, [9]),
                                      dropout_mask((64,), 0.5, [9]))

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            dropout_mask((2,), 1.0, [0])

    def test_seed_sequence_stacks_each_seeds_mask(self):
        masks = dropout_mask((3, 2), 0.5, [5, 6, 2 ** 64 - 1])
        assert masks.shape == (3, 3, 2)
        for got, seed in zip(masks, [5, 6, 2 ** 64 - 1]):
            want = (SplitMix64(seed).floats(6).reshape(3, 2) >= 0.5) / 0.5
            assert np.array_equal(got, want)
        assert np.array_equal(dropout_mask((4,), 0.0, [1, 2]), np.ones((2, 4)))
