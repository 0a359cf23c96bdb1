"""Pixel losses and their hand-derived gradients."""

import numpy as np
import pytest

from lidar_edge.errors import DimensionError
from lidar_edge.losses import BCE_EPS, pixel_losses
from lidar_edge.rng import SplitMix64


def one_example(kind, pred, label, class_balance):
    """The loss and gradient of one example: pixel_losses of a batch of one."""
    losses, grad = pixel_losses(kind, pred[np.newaxis], label[np.newaxis], class_balance)
    return float(losses[0]), grad[0]


def bce_loss(pred, label, class_balance=False):
    return one_example("bce", pred, label, class_balance)


def mse_loss(pred, label):
    return one_example("mse", pred, label, False)


def oracle_bce(pred, label, class_balance=False):
    """The loss of one example as the per-example code computed it."""
    n = pred.size
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    w_pos = w_neg = 1.0
    if class_balance:
        pos = float(label.sum())
        if 0.0 < pos < n:
            w_pos = (n - pos) / n
            w_neg = pos / n
    loss = -(w_pos * label * np.log(p) + w_neg * (1.0 - label) * np.log1p(-p)).sum() / n
    grad = (-w_pos * label / p + w_neg * (1.0 - label) / (1.0 - p)) / n
    return float(loss), grad


def oracle_mse(pred, label):
    diff = pred - label
    return float((diff * diff).mean()), 2.0 * diff / pred.size


ORACLES = {"bce": oracle_bce, "mse": lambda pred, label, _: oracle_mse(pred, label)}


def fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
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


class TestBCE:
    def test_perfect_prediction_near_zero_loss(self):
        label = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = bce_loss(label.copy(), label)
        assert loss < 1e-5

    def test_uniform_half_gives_log2(self):
        pred = np.full((4, 4), 0.5)
        label = (SplitMix64(1).floats(16).reshape(4, 4) < 0.5).astype(float)
        loss, _ = bce_loss(pred, label)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_scalar_oracle(self):
        pred = np.array([[0.9, 0.2]])
        label = np.array([[1.0, 0.0]])
        want = -(np.log(0.9) + np.log(0.8)) / 2
        loss, _ = bce_loss(pred, label)
        assert loss == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = SplitMix64(2)
        pred = 0.05 + 0.9 * rng.floats(24).reshape(4, 6)
        label = (rng.floats(24).reshape(4, 6) < 0.3).astype(float)
        for balance in (False, True):
            _, grad = bce_loss(pred, label, class_balance=balance)
            want = fd_grad(lambda: bce_loss(pred, label, class_balance=balance)[0], pred)
            np.testing.assert_allclose(grad, want, atol=1e-8)

    def test_class_balance_weights(self):
        """Weighted loss reproduced by the explicit per-class formula."""
        pred = np.array([[0.7, 0.3, 0.4, 0.8]])
        label = np.array([[1.0, 0.0, 0.0, 0.0]])
        n, pos = 4, 1
        w_pos, w_neg = (n - pos) / n, pos / n
        want = -(w_pos * np.log(0.7)
                 + w_neg * (np.log(0.7) + np.log(0.6) + np.log(0.2))) / n
        loss, _ = bce_loss(pred, label, class_balance=True)
        assert loss == pytest.approx(want, rel=1e-12)

    def test_degenerate_labels_fall_back_to_unweighted(self):
        pred = np.array([[0.5, 0.5]])
        ones = np.ones((1, 2))
        balanced, _ = bce_loss(pred, ones, class_balance=True)
        plain, _ = bce_loss(pred, ones, class_balance=False)
        assert balanced == plain

    def test_extreme_predictions_clamped_finite(self):
        loss, grad = bce_loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss == pytest.approx(-np.log(BCE_EPS), rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestMSE:
    def test_zero_on_exact(self):
        x = SplitMix64(3).floats(9).reshape(3, 3)
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((3, 3)))

    def test_scalar_oracle(self):
        loss, _ = mse_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.5]]))
        assert loss == pytest.approx((1.0 + 0.25) / 2, rel=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = SplitMix64(4)
        pred = rng.floats(12).reshape(3, 4)
        label = rng.floats(12).reshape(3, 4)
        _, grad = mse_loss(pred, label)
        want = fd_grad(lambda: mse_loss(pred, label)[0], pred)
        np.testing.assert_allclose(grad, want, atol=1e-9)


class TestDispatcher:
    def test_routes_by_kind(self):
        pred, label = np.array([[0.6]]), np.array([[1.0]])
        for kind, oracle in ORACLES.items():
            loss, grad = one_example(kind, pred, label, False)
            want_loss, want_grad = oracle(pred, label, False)
            assert loss == want_loss and np.array_equal(grad, want_grad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            one_example("hinge", np.zeros((1, 1)), np.zeros((1, 1)), False)


def example_batch(seed, shape):
    """Predictions and binary labels of shape (N, ...): random rows, then
    an all-0 and an all-1 label, then predictions at exactly 0 and 1 that
    the clamp must catch."""
    rng = SplitMix64(seed)
    size = int(np.prod(shape))
    pred = rng.floats(size).reshape(shape)
    label = (rng.floats(size).reshape(shape) < 0.3).astype(np.float64)
    label[1] = 0.0
    label[2] = 1.0
    pred[3].reshape(-1)[::2] = 0.0
    pred[3].reshape(-1)[1::2] = 1.0
    return pred, label


class TestPerExampleLosses:
    """pixel_losses scores each example as the per-example code did, to
    the bit."""

    SHAPES = [(5, 1), (5, 3), (5, 8, 8), (6, 7, 9), (4, 2, 5, 3)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("kind, balance", [("bce", False), ("bce", True), ("mse", False)])
    def test_matches_example_by_example(self, shape, kind, balance):
        pred, label = example_batch(len(shape) * 10 + shape[-1], shape)
        losses, grad = pixel_losses(kind, pred, label, balance)
        assert losses.shape == (shape[0],) and grad.shape == shape
        for i in range(shape[0]):
            want_loss, want_grad = ORACLES[kind](pred[i], label[i], balance)
            assert losses[i].tobytes() == np.float64(want_loss).tobytes(), (i, kind)
            assert grad[i].tobytes() == want_grad.tobytes(), (i, kind)
            one_loss, one_grad = one_example(kind, pred[i], label[i], balance)
            assert one_loss == want_loss and one_grad.tobytes() == want_grad.tobytes()

    def test_degenerate_labels_keep_weights_one(self):
        pred, label = example_batch(1, (4, 6))
        balanced, _ = pixel_losses("bce", pred, label, True)
        plain, _ = pixel_losses("bce", pred, label, False)
        assert balanced[1] == plain[1] and balanced[2] == plain[2]
        assert balanced[0] != plain[0]

    def test_clamped_predictions_stay_finite(self):
        pred, label = example_batch(2, (4, 6))
        losses, grad = pixel_losses("bce", pred, label, True)
        assert np.all(np.isfinite(losses)) and np.all(np.isfinite(grad))

    @pytest.mark.parametrize("pred, label", [(np.zeros((2, 3)), np.zeros((2, 4))),
                                             (np.zeros(3), np.zeros(3))], ids=str)
    def test_shapes_refused(self, pred, label):
        with pytest.raises(DimensionError):
            pixel_losses("bce", pred, label, False)
