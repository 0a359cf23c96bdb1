"""Pixel-level evaluation: confusion counts, P/R/F1, the threshold
sweep that validation, tuning and the test split all count through, and
the table.

Metrics are micro-averaged: counts are pooled over all pixels of a split
before any ratio is taken. Matching is greedy within a Chebyshev
tolerance r, per pixel at r = 0 (Martin, Fowlkes & Malik 2004).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .imaging import as_edge_map, as_prob_map


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class MetricsReport:
    name: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    threshold: float = 0.5


def confusion(pred: np.ndarray, truth: np.ndarray,
              tolerance: int = 0) -> ConfusionMatrix:
    """Count pixel agreement between a predicted and true edge map.

    The predicted edge pixels, in row-major order, each match the
    row-major-first unmatched truth edge within Chebyshev distance
    tolerance (at 0, the truth pixel under it); unmatched predictions are
    FP, unmatched truths FN, everything else TN.
    """
    pred = as_edge_map(pred)
    truth = as_edge_map(truth)
    if pred.shape != truth.shape:
        raise DimensionError(f"pred {pred.shape} vs truth {truth.shape}")
    if tolerance < 0:
        raise ParameterError(f"tolerance must be >= 0, got {tolerance}")
    unmatched = truth == 1.0
    ys, xs = np.nonzero(pred == 1.0)
    tp = 0
    for y, x in zip(ys.tolist(), xs.tolist()):
        # a view of the window, clipped to the image; its row-major-first True is the match
        window = unmatched[max(y - tolerance, 0):y + tolerance + 1,
                           max(x - tolerance, 0):x + tolerance + 1]
        hit = divmod(int(window.argmax()), window.shape[1])
        tp += int(window[hit])
        window[hit] = False
    fp = len(ys) - tp
    fn = int(np.count_nonzero(unmatched))
    tn = pred.size - tp - fp - fn
    return ConfusionMatrix(tp, fp, fn, tn)


def metrics(cm: ConfusionMatrix, name: str = "", threshold: float = 0.5) -> MetricsReport:
    """Accuracy/precision/recall/F1 with zero-denominator terms set to 0."""
    if cm.total == 0:
        raise ParameterError("cannot compute metrics over zero pixels")
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = (2.0 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return MetricsReport(name=name, accuracy=(cm.tp + cm.tn) / cm.total,
                         precision=precision, recall=recall, f1=f1,
                         threshold=threshold)


def threshold_grid(n_thresholds: int) -> np.ndarray:
    """The n equally spaced thresholds in [0, 1] that every sweep uses."""
    if n_thresholds < 2:
        raise ParameterError("need at least 2 thresholds")
    return np.linspace(0.0, 1.0, n_thresholds)


def prob_levels(prob: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Level map of prob >= t over an ascending grid: at index k, level > k."""
    return np.searchsorted(grid, as_prob_map(prob), side="right")


def sweep(pairs, n_thresholds: int, tolerance: int = 0) -> list[ConfusionMatrix]:
    """Pooled confusion counts at every index k of an n-point threshold
    grid, from (level map, truth) pairs read one at a time; a pixel is
    predicted an edge at k when its level exceeds k. At tolerance r > 0,
    index k pools confusion(level > k, truth, r), found anew only at k = 0
    and where some pixel has level k: level > k equals level > k - 1
    everywhere else."""
    if tolerance:
        counts = [ConfusionMatrix()] * n_thresholds
        for level, truth in pairs:
            present = np.bincount(level.ravel(), minlength=n_thresholds)
            for k in range(n_thresholds):
                if k == 0 or present[k]:
                    cm = confusion(level > k, truth, tolerance)
                counts[k] = counts[k] + cm
        return counts
    n_levels = n_thresholds + 1
    hist = np.zeros(2 * n_levels, dtype=np.int64)  # non-edge levels, then edge levels
    for level, truth in pairs:
        is_edge = as_edge_map(truth) == 1.0
        if level.shape != is_edge.shape:
            raise DimensionError(f"level map {level.shape} vs truth {is_edge.shape}")
        hist += np.bincount((is_edge * n_levels + level).ravel(), minlength=2 * n_levels)
    hist = hist.reshape(2, n_levels)
    n_neg, n_pos = hist.sum(axis=1)
    # pixels at level l are marked at every index k < l
    fps, tps = hist.sum(axis=1, keepdims=True) - np.cumsum(hist, axis=1)[:, :-1]
    return [ConfusionMatrix(int(tp), int(fp), int(n_pos - tp), int(n_neg - fp))
            for tp, fp in zip(tps, fps)]


def best_f1(counts: list[ConfusionMatrix], grid: np.ndarray) -> tuple[float, float]:
    """The grid threshold with the best F1 of a sweep, and that F1; ties
    go to the smaller threshold."""
    f1s = [metrics(cm).f1 for cm in counts]
    k = f1s.index(max(f1s))
    return float(grid[k]), f1s[k]


def comparison_csv(reports: list[MetricsReport]) -> str:
    lines = ["algorithm,accuracy,precision,recall,f1,threshold"]
    for r in reports:
        lines.append(f"{r.name},{r.accuracy:.4f},{r.precision:.4f},"
                     f"{r.recall:.4f},{r.f1:.4f},{r.threshold:.4f}")
    return "\n".join(lines) + "\n"


def comparison_table(reports: list[MetricsReport]) -> str:
    """Aligned text table in the order Algorithm, Accuracy, Precision,
    Recall, F1-score."""
    header = ["Algorithm", "Accuracy", "Precision", "Recall", "F1-score"]
    rows = [[r.name, f"{r.accuracy:.4f}", f"{r.precision:.4f}",
             f"{r.recall:.4f}", f"{r.f1:.4f}"] for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*header)]
    out += [fmt.format(*row) for row in rows]
    return "\n".join(out) + "\n"
