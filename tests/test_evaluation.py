"""Confusion counting, micro-averaged metrics, the threshold sweep and search."""

import numpy as np
import pytest

from lidar_edge.errors import DimensionError, ParameterError
from lidar_edge.evaluation import (ConfusionMatrix, MetricsReport, best_f1,
                                   comparison_csv, comparison_table, confusion,
                                   metrics, prob_levels, sweep,
                                   threshold_grid)
from lidar_edge.rng import SplitMix64


def random_edge_map(seed, h=8, w=8, density=0.3):
    return (SplitMix64(seed).floats(h * w).reshape(h, w) < density).astype(float)


def greedy_oracle(pred, truth, tolerance):
    """The tolerance rule by its definition: each predicted edge pixel, in
    row-major order, takes the first unmatched truth edge pixel in
    row-major order within Chebyshev distance tolerance."""
    truth_pts = list(zip(*np.nonzero(truth == 1.0)))
    unmatched = set(truth_pts)
    tp = fp = 0
    for y, x in zip(*np.nonzero(pred == 1.0)):
        hit = next(((ty, tx) for ty, tx in truth_pts if (ty, tx) in unmatched
                    and abs(ty - y) <= tolerance and abs(tx - x) <= tolerance), None)
        if hit is None:
            fp += 1
        else:
            unmatched.discard(hit)
            tp += 1
    fn = len(unmatched)
    return tp, fp, fn, pred.size - tp - fp - fn


class TestConfusion:
    def test_hand_counted_example(self):
        pred = np.array([[1.0, 0.0], [1.0, 1.0]])
        truth = np.array([[1.0, 1.0], [0.0, 1.0]])
        cm = confusion(pred, truth)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 0)

    def test_counts_partition_all_pixels(self):
        pred = random_edge_map(1)
        truth = random_edge_map(2)
        cm = confusion(pred, truth)
        assert cm.total == 64

    def test_matches_brute_force(self):
        pred, truth = random_edge_map(3), random_edge_map(4)
        cm = confusion(pred, truth)
        tp = fp = fn = tn = 0
        for p, t in zip(pred.ravel(), truth.ravel()):
            if p and t:
                tp += 1
            elif p:
                fp += 1
            elif t:
                fn += 1
            else:
                tn += 1
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn)

    def test_tolerance_matches_nearby_pixel(self):
        pred = np.zeros((5, 5))
        truth = np.zeros((5, 5))
        pred[2, 2] = 1.0
        truth[2, 3] = 1.0  # one pixel off
        strict = confusion(pred, truth, tolerance=0)
        relaxed = confusion(pred, truth, tolerance=1)
        assert (strict.tp, strict.fp, strict.fn) == (0, 1, 1)
        assert (relaxed.tp, relaxed.fp, relaxed.fn) == (1, 0, 0)

    def test_tolerance_matching_is_one_to_one(self):
        pred = np.zeros((3, 3))
        truth = np.zeros((3, 3))
        pred[1, 0] = pred[1, 2] = 1.0  # two predictions
        truth[1, 1] = 1.0              # a single truth pixel between them
        cm = confusion(pred, truth, tolerance=1)
        assert (cm.tp, cm.fp, cm.fn) == (1, 1, 0)

    @pytest.mark.parametrize("tolerance", [0, 1, 2, 3, 10 ** 9])
    def test_tolerance_matches_greedy_oracle(self, tolerance):
        for seed in range(6):
            h, w = 7 + seed, 12 - seed
            pred = random_edge_map(40 + seed, h, w, density=0.1 + 0.1 * seed)
            truth = random_edge_map(50 + seed, h, w, density=0.6 - 0.1 * seed)
            cm = confusion(pred, truth, tolerance)
            assert (cm.tp, cm.fp, cm.fn, cm.tn) == greedy_oracle(pred, truth, tolerance)

    def test_tolerance_zero_equals_strict(self):
        pred, truth = random_edge_map(5), random_edge_map(6)
        a, b = confusion(pred, truth, 0), confusion(pred, truth, 0)
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            confusion(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_addition_pools_counts(self):
        a = ConfusionMatrix(1, 2, 3, 4)
        b = ConfusionMatrix(10, 20, 30, 40)
        c = a + b
        assert (c.tp, c.fp, c.fn, c.tn) == (11, 22, 33, 44)


class TestMetrics:
    def test_textbook_values(self):
        r = metrics(ConfusionMatrix(tp=8, fp=2, fn=4, tn=86))
        assert r.accuracy == pytest.approx(94 / 100)
        assert r.precision == pytest.approx(0.8)
        assert r.recall == pytest.approx(8 / 12)
        assert r.f1 == pytest.approx(2 * 0.8 * (8 / 12) / (0.8 + 8 / 12))

    def test_zero_denominators_give_zero(self):
        r = metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=10))
        assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)
        assert r.accuracy == 1.0

    def test_perfect_prediction(self):
        r = metrics(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5))
        assert (r.precision, r.recall, r.f1, r.accuracy) == (1.0, 1.0, 1.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            metrics(ConfusionMatrix())

    def test_f1_is_harmonic_mean(self):
        cm = ConfusionMatrix(tp=30, fp=10, fn=20, tn=40)
        r = metrics(cm)
        p, rec = 30 / 40, 30 / 50
        assert r.f1 == pytest.approx(2 / (1 / p + 1 / rec))


def rates(probs, truths, n_thresholds):
    """(TPR, FPR) at each index of the threshold grid, from sweep's pooled
    counts: the ROC curve of a probability-map detector."""
    grid = threshold_grid(n_thresholds)
    counts = sweep(((prob_levels(p, grid), t) for p, t in zip(probs, truths)), n_thresholds)
    return [(cm.tp / (cm.tp + cm.fn), cm.fp / (cm.fp + cm.tn)) for cm in counts]


class TestROC:
    def setup_method(self):
        self.truth = np.zeros((4, 4))
        self.truth[1:3, 1:3] = 1.0
        # probabilities perfectly ordered: edges high, background low
        self.prob = np.where(self.truth == 1.0, 0.9, 0.1)

    def test_endpoints(self):
        curve = rates([self.prob], [self.truth], n_thresholds=11)
        assert curve[0] == (1.0, 1.0)    # threshold 0.0: everything fires
        assert curve[-1] == (0.0, 0.0)   # threshold 1.0: nothing below 1 fires

    def test_separable_scores_reach_perfect_corner(self):
        curve = rates([self.prob], [self.truth], n_thresholds=11)
        assert (1.0, 0.0) in curve

    def test_pooling_over_samples(self):
        """Pooled counts differ from averaging per-sample rates."""
        t1 = np.zeros((2, 2)); t1[0, 0] = 1.0
        t2 = np.ones((2, 2))
        p1 = np.full((2, 2), 0.6)
        p2 = np.full((2, 2), 0.4)
        tpr_mid, _ = rates([p1, p2], [t1, t2], n_thresholds=3)[1]
        assert tpr_mid == pytest.approx(1 / 5)  # threshold 0.5 keeps only p1 pixels

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            rates([self.prob + 0.5], [self.truth], 11)  # a probability above 1
        with pytest.raises(ParameterError):
            rates([self.prob], [self.truth], 1)


def best_f1_threshold(probs, truths, n_thresholds):
    """The tuning of a probability-map detector, as cli._tuned_detectors
    runs it: the best pooled F1 over one sweep of the threshold grid."""
    grid = threshold_grid(n_thresholds)
    levels = ((prob_levels(p, grid), t) for p, t in zip(probs, truths))
    return best_f1(sweep(levels, n_thresholds), grid)


class TestBestF1Threshold:
    def test_finds_separating_threshold(self):
        truth = random_edge_map(9)
        prob = np.where(truth == 1.0, 0.8, 0.2)
        t, f1 = best_f1_threshold([prob], [truth], n_thresholds=21)
        assert 0.2 < t <= 0.8
        assert f1 == 1.0

    def test_tie_takes_smaller_threshold(self):
        truth = np.array([[1.0, 0.0]])
        prob = np.array([[0.9, 0.1]])
        # every threshold in (0.1, 0.9] achieves F1 = 1; grid point 0.15... no:
        # with n=21 the grid is 0.05 steps; first perfect threshold is 0.15
        t, f1 = best_f1_threshold([prob], [truth], n_thresholds=21)
        assert f1 == 1.0
        assert t == pytest.approx(0.15)

    def test_exhaustive_oracle(self):
        rng = SplitMix64(10)
        probs = [rng.floats(36).reshape(6, 6) for _ in range(3)]
        truths = [random_edge_map(11 + i, 6, 6) for i in range(3)]
        t, f1 = best_f1_threshold(probs, truths, n_thresholds=26)
        # brute force over the same grid
        best = (-1.0, None)
        for cand in np.linspace(0.0, 1.0, 26):
            cm = ConfusionMatrix()
            for p, tr in zip(probs, truths):
                cm = cm + confusion((p >= cand).astype(float), tr)
            f = metrics(cm).f1
            if f > best[0]:
                best = (f, float(cand))
        assert f1 == pytest.approx(best[0])
        assert t == pytest.approx(best[1])


def sweep_inputs():
    """Random maps, a map whose values sit exactly on the grid, a flat
    map and the two extremes, each with a random truth."""
    rng = SplitMix64(20)
    grid = threshold_grid(26)
    probs = [rng.floats(64).reshape(8, 8) for _ in range(3)]
    probs.append(grid[(np.arange(64) * 7) % 26].reshape(8, 8))
    probs += [np.full((8, 8), 0.5), np.zeros((8, 8)), np.ones((8, 8))]
    truths = [random_edge_map(30 + i) for i in range(len(probs))]
    return grid, probs, truths


class TestSweep:
    def test_prob_levels_match_threshold(self):
        grid, probs, _ = sweep_inputs()
        for prob in probs:
            levels = prob_levels(prob, grid)
            for k, t in enumerate(grid):
                np.testing.assert_array_equal(levels > k, prob >= t)

    @pytest.mark.parametrize("tolerance", [0, 1, 2])
    def test_counts_equal_summed_confusion(self, tolerance):
        """On the level maps of sweep_inputs, one that holds only levels 0,
        3, 20 and 26 of 0..26, and one that is all level 0."""
        grid, probs, truths = sweep_inputs()
        levels = [prob_levels(p, grid) for p in probs]
        pick = (SplitMix64(21).floats(64) * 4).astype(int)
        levels += [np.array([0, 3, 20, 26])[pick].reshape(8, 8), np.zeros((8, 8), dtype=int)]
        truths += [random_edge_map(40), random_edge_map(41)]
        counts = sweep(zip(levels, truths), len(grid), tolerance)
        assert len(counts) == len(grid)
        for k, cm in enumerate(counts):
            want = ConfusionMatrix()
            for level, tr in zip(levels, truths):
                want = want + confusion((level > k).astype(float), tr, tolerance)
            assert (cm.tp, cm.fp, cm.fn, cm.tn) == (want.tp, want.fp, want.fn, want.tn)
            assert all(type(v) is int for v in (cm.tp, cm.fp, cm.fn, cm.tn))

    def test_best_f1_takes_first_maximum(self):
        counts = [ConfusionMatrix(1, 1, 1, 1), ConfusionMatrix(2, 0, 0, 2),
                  ConfusionMatrix(2, 0, 0, 2), ConfusionMatrix(0, 0, 2, 2)]
        assert best_f1(counts, threshold_grid(4)) == (pytest.approx(1 / 3), 1.0)

    def test_bad_inputs(self):
        with pytest.raises(DimensionError):
            sweep([(np.zeros((3, 3), dtype=int), random_edge_map(1, 2, 2))], 5)
        with pytest.raises(ParameterError):
            threshold_grid(1)


class TestComparison:
    REPORTS = [MetricsReport("good", 1.0, 1.0, 1.0, 1.0, threshold=0.5),
               MetricsReport("bad", 0.6, 0.0, 0.0, 0.0, threshold=0.25)]

    def test_reports_and_formats(self):
        csv = comparison_csv(self.REPORTS)
        assert csv == ("algorithm,accuracy,precision,recall,f1,threshold\n"
                       "good,1.0000,1.0000,1.0000,1.0000,0.5000\n"
                       "bad,0.6000,0.0000,0.0000,0.0000,0.2500\n")
        table = comparison_table(self.REPORTS)
        head, good, bad, end = table.split("\n")
        assert head.split() == ["Algorithm", "Accuracy", "Precision", "Recall", "F1-score"]
        assert good.split() == ["good", "1.0000", "1.0000", "1.0000", "1.0000"]
        assert bad[head.index("Accuracy"):].startswith("0.6000") and end == ""
