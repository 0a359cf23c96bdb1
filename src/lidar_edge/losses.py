"""Per-output losses and the multi-task total used by the nested model."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

BCE_EPS = 1e-7
LOSSES = ("bce", "mse")


def pixel_losses(kind: str, pred: np.ndarray, label: np.ndarray,
                 class_balance: bool) -> tuple[np.ndarray, np.ndarray]:
    """The loss of each example along the leading axis, (N,), and the
    gradient w.r.t. pred; each example's loss is the mean over its
    trailing axes, computed as if it were scored alone.

    "bce" is binary cross-entropy with predictions clamped to
    [eps, 1-eps] before the logs. With class_balance on, the positive and
    negative terms of an example get the weights w+ = |neg|/|total| and
    w- = |pos|/|total|, so its rarer class counts more; an all-one or
    all-zero label falls back to weights 1. "mse" is the squared error.
    """
    pred = np.asarray(pred, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    if pred.shape != label.shape or pred.ndim < 2:
        raise DimensionError(f"pred {pred.shape} vs label {label.shape}, "
                             f"or no axis to reduce after the example axis")
    rows = (len(pred), -1)
    n = int(np.prod(pred.shape[1:]))
    if kind == "mse":
        diff = pred - label
        return (diff * diff).reshape(rows).mean(axis=1), 2.0 * diff / n
    if kind != "bce":
        raise ValueError(f"unknown loss kind {kind!r}")
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    w_pos = w_neg = 1.0
    if class_balance:
        pos = label.reshape(rows).sum(axis=1)
        balanced = (0.0 < pos) & (pos < n)
        per_example = (len(pred),) + (1,) * (pred.ndim - 1)
        w_pos = np.where(balanced, (n - pos) / n, 1.0).reshape(per_example)
        w_neg = np.where(balanced, pos / n, 1.0).reshape(per_example)
    terms = w_pos * label * np.log(p) + w_neg * (1.0 - label) * np.log1p(-p)
    loss = -terms.reshape(rows).sum(axis=1) / n
    grad = (-w_pos * label / p + w_neg * (1.0 - label) / (1.0 - p)) / n
    return loss, grad

