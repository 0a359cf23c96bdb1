"""Dataset splitting, the multi-task loss, training loops, gradient checks."""

import numpy as np
import pytest

from lidar_edge.errors import ConfigError, DivergenceError, ParameterError
from lidar_edge.formats import DatasetManifest, ManifestEntry
from lidar_edge.models import (NestedArch, PatchArch, forward_nested, forward_patch,
                               init_nested, init_patch)
from lidar_edge.optim import OptimizerConfig
from lidar_edge.rng import SplitMix64
from lidar_edge.training import (EpochRecord, RunLog, TrainConfig, grad_check,
                                 patch_prob_map, runlog_csv, split_dataset,
                                 total_loss, train_nested, train_patch,
                                 validation_f1)


def manifest_of(n):
    return DatasetManifest(entries=[
        ManifestEntry(id=str(i), range=f"{i}.lri", intensity=f"{i}.pgm",
                      label=f"{i}_l.pgm") for i in range(n)])


def toy_samples(count, seed=0, h=8, w=8):
    """Tiny images with a bright block whose outline is the label."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        img = np.full((h, w), 0.2)
        label = np.zeros((h, w))
        r, c = 1 + rng.randint(h - 5), 1 + rng.randint(w - 5)
        img[r:r + 3, c:c + 3] = 0.9
        label[r:r + 3, c:c + 3] = 1.0
        label[r + 1, c + 1] = 0.0
        out.append((img, label))
    return out


class TestSplitDataset:
    def test_standard_70_15_15(self):
        man = split_dataset(manifest_of(100), (0.70, 0.15, 0.15), seed=1)
        counts = man.counts()
        assert counts == {"train": 70, "val": 15, "test": 15}

    def test_rounding_excess_goes_to_train(self):
        man = split_dataset(manifest_of(101), (0.70, 0.15, 0.15), seed=1)
        # round(101*0.15) = 15 for both held-out blocks; train absorbs the rest
        assert man.counts() == {"train": 71, "val": 15, "test": 15}

    def test_every_entry_tagged_exactly_once(self):
        man = split_dataset(manifest_of(37), (0.6, 0.2, 0.2), seed=3)
        assert sum(man.counts().values()) == 37
        assert all(e.split in ("train", "val", "test") for e in man.entries)

    def test_deterministic_per_seed(self):
        a = split_dataset(manifest_of(50), (0.7, 0.15, 0.15), seed=9)
        b = split_dataset(manifest_of(50), (0.7, 0.15, 0.15), seed=9)
        assert [e.split for e in a.entries] == [e.split for e in b.entries]

    def test_seed_changes_assignment(self):
        a = split_dataset(manifest_of(50), (0.7, 0.15, 0.15), seed=1)
        b = split_dataset(manifest_of(50), (0.7, 0.15, 0.15), seed=2)
        assert [e.split for e in a.entries] != [e.split for e in b.entries]

    def test_input_not_mutated(self):
        man = manifest_of(10)
        split_dataset(man, (0.8, 0.1, 0.1), seed=0)
        assert all(e.split == "unassigned" for e in man.entries)

    def test_bad_ratios(self):
        with pytest.raises(ParameterError):
            split_dataset(manifest_of(10), (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ParameterError):
            split_dataset(manifest_of(10), (0.5, 0.5), seed=0)

    def test_empty_manifest(self):
        with pytest.raises(ParameterError):
            split_dataset(manifest_of(0), (0.7, 0.15, 0.15), seed=0)


class TestTotalLoss:
    def test_sums_side_and_fused_terms(self):
        arch = NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8))
        params = init_nested(arch, 0)
        x = SplitMix64(1).floats(64).reshape(8, 8)
        label = (SplitMix64(2).floats(64).reshape(8, 8) < 0.3).astype(float)
        trace = forward_nested(params, x)
        cfg = TrainConfig(lambdas=(0.5, 0.25), class_balance=False)
        from lidar_edge.losses import bce_loss
        want = (bce_loss(trace.fused, label)[0]
                + 0.5 * bce_loss(trace.side_probs[0], label)[0]
                + 0.25 * bce_loss(trace.side_probs[1], label)[0])
        loss, d_fused, d_sides = total_loss(trace, label, cfg)
        assert loss == pytest.approx(want, rel=1e-12)
        assert len(d_sides) == 2
        assert d_fused.shape == (8, 8)

    def test_lambda_scaling_of_side_gradients(self):
        arch = NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8))
        params = init_nested(arch, 0)
        x = SplitMix64(3).floats(64).reshape(8, 8)
        label = np.zeros((8, 8))
        trace = forward_nested(params, x)
        _, _, d1 = total_loss(trace, label, TrainConfig(lambdas=(1.0, 1.0), class_balance=False))
        _, _, d2 = total_loss(trace, label, TrainConfig(lambdas=(2.0, 0.5), class_balance=False))
        np.testing.assert_allclose(d2[0], 2.0 * d1[0], rtol=1e-12)
        np.testing.assert_allclose(d2[1], 0.5 * d1[1], rtol=1e-12)

    def test_lambda_count_mismatch(self):
        arch = NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8))
        trace = forward_nested(init_nested(arch, 0), np.zeros((8, 8)))
        with pytest.raises(ConfigError):
            total_loss(trace, np.zeros((8, 8)), TrainConfig(lambdas=(1.0,)))


class TestTrainNested:
    ARCH = NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8))
    PATCH_ARCH = PatchArch(conv_channels=(2, 2), hidden=4)

    def _cfg(self, **kw):
        base = dict(epochs=3, batch_size=4,
                    optimizer=OptimizerConfig(kind="adam", learning_rate=5e-3),
                    seed=0, patience=10)
        base.update(kw)
        return TrainConfig(**base)

    def _train(self, variant, train, val, cfg, **kw):
        """Either variant through its own entry point; both share one loop."""
        if variant == "nested":
            return train_nested(train, val, self.ARCH, cfg, **kw)
        return train_patch(train, val, self.PATCH_ARCH, cfg, patches_per_image=8, **kw)

    def test_loss_decreases(self):
        samples = toy_samples(8)
        _, log = train_nested(samples, samples[:2], self.ARCH,
                              self._cfg(epochs=5))
        assert log.records[-1].train_loss < log.records[0].train_loss

    def test_deterministic_given_seed(self):
        samples = toy_samples(6)
        p1, l1 = train_nested(samples, samples[:2], self.ARCH, self._cfg())
        p2, l2 = train_nested(samples, samples[:2], self.ARCH, self._cfg())
        for (_, a), (_, b) in zip(p1.named_tensors(), p2.named_tensors()):
            np.testing.assert_array_equal(a, b)
        assert [r.train_loss for r in l1.records] == [r.train_loss for r in l2.records]

    def test_alpha_stays_on_simplex(self):
        samples = toy_samples(6)
        params, _ = train_nested(samples, samples[:2], self.ARCH, self._cfg())
        assert np.all(params.alpha >= 0)
        assert params.alpha.sum() == pytest.approx(1.0, abs=1e-9)

    def test_selects_best_epoch(self):
        samples = toy_samples(8)
        params, log = train_nested(samples, samples[:2], self.ARCH,
                                   self._cfg(epochs=4))
        best = max(r.val_f1 for r in log.records)
        assert log.records[log.best_epoch - 1].val_f1 == best
        assert validation_f1(params, samples[:2]) == pytest.approx(best)

    @pytest.mark.parametrize("variant", ["nested", "patch"])
    def test_early_stopping_by_patience(self, variant):
        samples = toy_samples(4)
        # tiny lr: F1 stays flat, so patience kicks in after epoch 1
        cfg = self._cfg(epochs=30, patience=2,
                        optimizer=OptimizerConfig(kind="sgd", learning_rate=1e-9))
        _, log = self._train(variant, samples, samples[:2], cfg)
        assert len(log.records) <= 4

    @pytest.mark.parametrize("variant", ["nested", "patch"])
    def test_divergence_raises_on_non_finite_loss(self, variant):
        img = np.full((8, 8), 0.5)
        img[3, 3] = np.nan  # poisons the forward pass and hence the loss
        samples = [(img, np.zeros((8, 8)))]
        with pytest.raises(DivergenceError), np.errstate(all="ignore"):
            self._train(variant, samples, samples,
                        TrainConfig(epochs=1, batch_size=1, seed=0))

    def test_empty_split_rejected(self):
        with pytest.raises(ParameterError):
            train_nested([], toy_samples(2), self.ARCH, self._cfg())

    @pytest.mark.parametrize("variant", ["nested", "patch"])
    def test_progress_callback_sees_every_epoch(self, variant):
        samples = toy_samples(4)
        seen = []
        self._train(variant, samples, samples[:2], self._cfg(epochs=3),
                    progress=seen.append)
        assert [r.epoch for r in seen] == [1, 2, 3]
        assert all(isinstance(r, EpochRecord) for r in seen)


class TestTrainPatch:
    def test_smoke_and_determinism(self):
        samples = toy_samples(3, h=12, w=12)
        arch = PatchArch(conv_channels=(2, 2), hidden=4, dropout_rate=0.25)
        cfg = TrainConfig(epochs=2, batch_size=8,
                          optimizer=OptimizerConfig(kind="adam", learning_rate=1e-3),
                          seed=1)
        p1, l1 = train_patch(samples, samples[:1], arch, cfg, patches_per_image=8)
        p2, l2 = train_patch(samples, samples[:1], arch, cfg, patches_per_image=8)
        for (_, a), (_, b) in zip(p1.named_tensors(), p2.named_tensors()):
            np.testing.assert_array_equal(a, b)
        assert len(l1.records) == 2
        assert [r.train_loss for r in l1.records] == [r.train_loss for r in l2.records]

    def test_prob_map_shape_and_range(self):
        from lidar_edge.models import init_patch
        params = init_patch(PatchArch(conv_channels=(2, 2), hidden=4), 0)
        img = SplitMix64(2).floats(100).reshape(10, 10)
        pm = patch_prob_map(params, img)
        assert pm.shape == (10, 10)
        assert pm.min() >= 0.0 and pm.max() <= 1.0


def sliding_prob_map(params, img):
    """The oracle for patch_prob_map: one forward_patch per pixel on the
    28x28 patch centred on it in the edge-padded image."""
    h, w = img.shape
    padded = np.pad(img, 14, mode="edge")
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            out[r, c] = forward_patch(params, padded[r:r + 28, c:c + 28]).prob
    return out


def random_patch_params(arch, seed):
    """Random weights and nonzero biases, so no bias hides an offset error."""
    params = init_patch(arch, seed)
    rng = SplitMix64(seed + 100)
    for _, tensor in params.named_tensors():
        tensor[...] = rng.normals(tensor.size).reshape(tensor.shape) * 0.5
    return params


class TestDensePatchProbMap:
    ARCHS = {"default": PatchArch(), "2-3-hidden5": PatchArch(conv_channels=(2, 3), hidden=5)}

    @pytest.mark.parametrize("arch", ARCHS.values(), ids=ARCHS.keys())
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 3), (13, 9),
                                       (17, 22), (64, 64)], ids=str)
    def test_matches_sliding_window_on_random_images(self, arch, shape):
        params = random_patch_params(arch, 1)
        assert all(t.any() for _, t in params.named_tensors())
        img = SplitMix64(shape[0] * 100 + shape[1]).floats(shape[0] * shape[1]).reshape(shape)
        dense = patch_prob_map(params, img)
        assert dense.shape == shape
        np.testing.assert_allclose(dense, sliding_prob_map(params, img), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("arch", ARCHS.values(), ids=ARCHS.keys())
    @pytest.mark.parametrize("pattern", ["constant", "checkerboard"])
    def test_matches_sliding_window_on_ties(self, arch, pattern):
        """A constant image ties all four cells of every pool window; a
        checkerboard, of the pools' period 2, ties them in pairs."""
        params = random_patch_params(arch, 2)
        rows, cols = np.indices((13, 18))
        img = np.full((13, 18), 0.6) if pattern == "constant" else ((rows + cols) % 2) * 0.9
        np.testing.assert_allclose(patch_prob_map(params, img),
                                   sliding_prob_map(params, img), rtol=0, atol=1e-12)


class TestRunLogCSV:
    def test_format_and_fixed_seconds(self):
        log = RunLog(records=[EpochRecord(1, 0.5, 0.25, 12.7),
                              EpochRecord(2, 0.25, 0.5, 11.1)], best_epoch=2)
        csv = runlog_csv(log)
        lines = csv.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_f1,seconds"
        assert lines[1] == "1,0.5000000000,0.250000,0.000"
        assert lines[2] == "2,0.2500000000,0.500000,0.000"

    def test_byte_identical_across_reruns(self):
        samples = toy_samples(4)
        arch = NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8))
        cfg = TrainConfig(epochs=2, batch_size=2, seed=3,
                          optimizer=OptimizerConfig(kind="sgd", learning_rate=1e-3))
        _, l1 = train_nested(samples, samples[:2], arch, cfg)
        _, l2 = train_nested(samples, samples[:2], arch, cfg)
        assert runlog_csv(l1) == runlog_csv(l2)


class TestGradCheck:
    def test_nested_passes(self):
        ok, report = grad_check("nested", seed=0)
        assert ok, max(report, key=lambda e: e.max_rel_error)
        assert {e.name for e in report} >= {"alpha", "stage0.conv_a.weights"}

    def test_patch_passes(self):
        ok, report = grad_check("patch", seed=0)
        assert ok, max(report, key=lambda e: e.max_rel_error)

    def test_detects_broken_gradient(self):
        """Corrupting one analytic gradient must trip the harness."""
        from lidar_edge import training as tr
        original = tr.backward_nested

        def broken(params, trace, d_fused, d_sides):
            grads = original(params, trace, d_fused, d_sides)
            return [(name, g + 0.05 if name == "alpha" else g)  # systematic bias
                    for name, g in grads]

        tr.backward_nested = broken
        try:
            ok, report = tr.grad_check("nested", seed=0)
        finally:
            tr.backward_nested = original
        assert not ok
        worst = {e.name: e.max_rel_error for e in report}
        assert worst["alpha"] > 1e-4

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            grad_check("transformer")
