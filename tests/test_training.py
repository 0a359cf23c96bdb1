"""Dataset splitting, the multi-task loss, training loops, gradient checks."""

import tracemalloc

import numpy as np
import pytest

from lidar_edge import training
from lidar_edge.augment import AugmentSpec, sample_and_apply
from lidar_edge.errors import ConfigError, DimensionError, DivergenceError, ParameterError
from lidar_edge.evaluation import ConfusionMatrix, confusion, metrics
from lidar_edge.formats import DatasetManifest, ManifestEntry
from lidar_edge.losses import pixel_losses
from lidar_edge.models import (NestedArch, NestedNetParams, PatchArch, backward_nested,
                               backward_patch, forward_nested, forward_patch, init_nested,
                               init_patch)
from lidar_edge.optim import OptimizerConfig, OptimizerState, optimizer_step
from lidar_edge.rng import SplitMix64, splitmix64
from lidar_edge.training import (EpochRecord, RunLog, TrainConfig, _fit, cut_patches,
                                 draw_centers, grad_check, patch_prob_map,
                                 runlog_csv, split_dataset, total_loss, train_nested,
                                 train_patch, validation_f1)


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
        x = SplitMix64(1).floats(128).reshape(2, 1, 8, 8)
        label = (SplitMix64(2).floats(128).reshape(2, 8, 8) < 0.3).astype(float)
        trace = forward_nested(params, x)
        cfg = TrainConfig(lambdas=(0.5, 0.25), class_balance=False)
        bce = lambda pred: pixel_losses("bce", pred, label, False)[0]
        want = bce(trace.fused) + 0.5 * bce(trace.side_probs[0]) + 0.25 * bce(trace.side_probs[1])
        losses, d_fused, d_sides = total_loss(trace, label, cfg)
        np.testing.assert_allclose(losses, want, rtol=1e-12)
        assert len(d_sides) == 2
        assert d_fused.shape == (2, 8, 8)

    def test_lambda_scaling_of_side_gradients(self):
        arch = NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8))
        params = init_nested(arch, 0)
        x = SplitMix64(3).floats(64).reshape(1, 1, 8, 8)
        label = np.zeros((1, 8, 8))
        trace = forward_nested(params, x)
        _, _, d1 = total_loss(trace, label, TrainConfig(lambdas=(1.0, 1.0), class_balance=False))
        _, _, d2 = total_loss(trace, label, TrainConfig(lambdas=(2.0, 0.5), class_balance=False))
        np.testing.assert_allclose(d2[0], 2.0 * d1[0], rtol=1e-12)
        np.testing.assert_allclose(d2[1], 0.5 * d1[1], rtol=1e-12)

    def test_lambda_count_mismatch(self):
        arch = NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8))
        trace = forward_nested(init_nested(arch, 0), np.zeros((1, 1, 8, 8)))
        with pytest.raises(ConfigError):
            total_loss(trace, np.zeros((1, 8, 8)), TrainConfig(lambdas=(1.0,)))

    def test_one_image_trace_refused(self):
        """A trace of one (H, W) image has no example axis to score along."""
        arch = NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8))
        trace = forward_nested(init_nested(arch, 0), np.zeros((8, 8)))
        with pytest.raises(DimensionError):
            total_loss(trace, np.zeros((8, 8)), TrainConfig())


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
    padded = np.pad(img, 14, mode="edge")[np.newaxis, np.newaxis]
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            out[r, c] = forward_patch(params, padded[..., r:r + 28, c:c + 28]).prob[0]
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


def per_example_epochs(params, cfg, epoch_items, example, val_f1_of):
    """The oracle for the batched epoch loop: every example through its
    own forward and backward, its gradient added into the batch average
    as soon as it is found (acc += g / len(batch)), one optimizer step
    per batch. Returns the runlog lines and the tensors after each epoch."""
    tensors = params.named_tensors()
    simplex = (params.alpha,) if isinstance(params, NestedNetParams) else ()
    state, lines, snapshots = OptimizerState(), [], []
    for epoch in range(1, cfg.epochs + 1):
        items, epoch_loss = epoch_items(epoch), 0.0
        for start in range(0, len(items), cfg.batch_size):
            batch = items[start:start + cfg.batch_size]
            grad_sum = [(name, np.zeros_like(t)) for name, t in tensors]
            for position, item in enumerate(batch, start):
                loss, grads = example(epoch, position, item)
                for (_, acc), (_, g) in zip(grad_sum, grads):
                    acc += (1.0 / len(batch)) * g
                epoch_loss += loss
            grad = np.concatenate([acc.reshape(-1) for _, acc in grad_sum])
            optimizer_step(params, grad, state, cfg.optimizer, simplex)
        lines.append(f"{epoch},{epoch_loss / len(items):.10f},{val_f1_of():.6f},0.000")
        snapshots.append([t.copy() for _, t in tensors])
    return lines, snapshots


def per_example_nested(train, val, arch, cfg):
    params = init_nested(arch, cfg.seed)

    def epoch_items(epoch):
        order = list(range(len(train)))
        SplitMix64(splitmix64(cfg.seed, 1000 + epoch)).shuffle(order)
        return order

    def example(epoch, position, idx):
        img, label = sample_and_apply(*train[idx], cfg.augment,
                                      splitmix64(cfg.seed, epoch * 1_000_003 + idx))
        trace = forward_nested(params, img[np.newaxis, np.newaxis])
        [loss], d_fused, d_sides = total_loss(trace, label[np.newaxis], cfg)
        return loss, [(name, g[0]) for name, g in backward_nested(params, trace, d_fused, d_sides)]

    def val_f1_of():
        cm = ConfusionMatrix()
        for img, label in val:
            cm = cm + confusion((forward_nested(params, img).fused >= 0.5) * 1.0, label)
        return metrics(cm).f1

    return per_example_epochs(params, cfg, epoch_items, example, val_f1_of)


def per_example_patches(samples, seed, per_image):
    """One (patch, label) pair per draw, each cut from its own padded copy."""
    rng, out = SplitMix64(seed), []
    for img, label in samples:
        pos = np.argwhere(label == 1.0)
        for k in range(per_image):
            if k % 2 == 0 and len(pos):
                r, c = pos[rng.randint(len(pos))]
            else:
                r, c = rng.randint(img.shape[0]), rng.randint(img.shape[1])
            out.append((np.pad(img, 14, mode="edge")[r:r + 28, c:c + 28], label[r, c]))
    return out


def per_example_patch(train, val, arch, cfg, per_image):
    params = init_patch(arch, cfg.seed)
    val_patches = per_example_patches(val, splitmix64(cfg.seed, 7), per_image)

    def epoch_items(epoch):
        items = per_example_patches(train, splitmix64(cfg.seed, 2000 + epoch), per_image)
        SplitMix64(splitmix64(cfg.seed, 3000 + epoch)).shuffle(items)
        return items

    def example(epoch, position, item):
        patch, y = item
        trace = forward_patch(params, patch[np.newaxis, np.newaxis], train_mode=True,
                              seeds=[splitmix64(cfg.seed, 4000 + epoch * 100_003 + position)])
        [loss], d_prob = pixel_losses(cfg.loss_kind, trace.prob[:, np.newaxis],
                                      np.array([[y]]), False)
        return loss, [(name, g[0]) for name, g in backward_patch(params, trace, d_prob[:, 0])]

    def val_f1_of():
        cm = ConfusionMatrix()
        for patch, y in val_patches:
            [prob] = forward_patch(params, patch[np.newaxis, np.newaxis]).prob
            pred = 1.0 if prob >= 0.5 else 0.0
            cm = cm + confusion(np.array([[pred]]), np.array([[y]]))
        return metrics(cm).f1

    return per_example_epochs(params, cfg, epoch_items, example, val_f1_of)


class TestBatchedEpochs:
    """The batched epoch loop is byte-identical to the per-example one:
    same runlog lines, same bits in every tensor of the selected epoch."""

    CFG = dict(epochs=2, batch_size=3, patience=10, seed=5,
               optimizer=OptimizerConfig(kind="adam", learning_rate=5e-3))

    @staticmethod
    def _assert_same(params, log, ref):
        lines, snapshots = ref
        assert runlog_csv(log).splitlines()[1:] == lines
        for (name, got), want in zip(params.named_tensors(), snapshots[log.best_epoch - 1],
                                     strict=True):
            assert np.array_equal(got, want), name

    def test_nested(self):
        samples = toy_samples(10, seed=3)
        arch = NestedArch(stages=2, widths=(2, 3), input_hw=(8, 8))
        cfg = TrainConfig(**self.CFG, augment=AugmentSpec())
        params, log = train_nested(samples[:7], samples[7:], arch, cfg)
        self._assert_same(params, log, per_example_nested(samples[:7], samples[7:], arch, cfg))

    def test_patch(self):
        samples = toy_samples(4, seed=4, h=12, w=12)
        arch = PatchArch(conv_channels=(2, 3), hidden=5, dropout_rate=0.5)
        cfg = TrainConfig(**self.CFG)
        params, log = train_patch(samples[:3], samples[3:], arch, cfg, patches_per_image=5)
        self._assert_same(params, log, per_example_patch(samples[:3], samples[3:], arch, cfg, 5))


class TestBatchLoop:
    def test_first_non_finite_loss_is_named_before_any_backward(self):
        params = init_nested(NestedArch(stages=1, widths=(1,), input_hw=(2, 2)), 0)
        ran = []

        def batch_of(epoch, start, batch):
            def backward():
                ran.append(start)
                return [(name, np.zeros((len(batch), *t.shape)))
                        for name, t in params.named_tensors()]
            losses = [1.0, 1.0, 1.0, 1.0] if start == 0 else [1.0, np.nan, np.inf, 1.0]
            return losses, backward

        with pytest.raises(DivergenceError, match="epoch 1, example 5$"):
            _fit(params, TrainConfig(epochs=1, batch_size=4), lambda e: list(range(8)),
                 batch_of, lambda: 0.0, None)
        assert ran == [0]  # the second batch never ran its backward

    def test_nested_names_the_diverging_example_within_its_batch(self):
        samples = toy_samples(8)
        samples[5] = (np.full((8, 8), np.nan), samples[5][1])
        order = list(range(8))
        SplitMix64(splitmix64(0, 1001)).shuffle(order)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        with pytest.raises(DivergenceError, match=f"example {order.index(5)}$"), \
                np.errstate(all="ignore"):
            train_nested(samples, samples, TestTrainNested.ARCH, cfg)

    def test_validation_f1_does_not_depend_on_chunking(self):
        samples = toy_samples(7)
        params = init_nested(TestTrainNested.ARCH, 2)
        scores = {validation_f1(params, samples, batch_size=b) for b in (1, 3, 7, 100)}
        assert len(scores) == 1


class TestDrawPatches:
    def test_one_owned_array_per_draw(self):
        """The patches own their memory: a patch keeps no padded image alive."""
        samples = toy_samples(3, h=12, w=12)
        centers, labels = draw_centers(samples, 9, 6)
        patches = cut_patches(samples, centers)
        assert patches.shape == (18, 1, 28, 28) and labels.shape == (18,)
        assert np.array_equal(centers[:, 0], np.repeat(np.arange(3), 6))
        assert patches.base is None and labels.base is None
        assert patches[0].base is patches

    def test_matches_per_patch_extraction(self):
        samples = toy_samples(3, h=12, w=12)
        centers, labels = draw_centers(samples, 9, 6)
        patches = cut_patches(samples, centers)
        want = per_example_patches(samples, 9, 6)
        assert np.array_equal(patches[:, 0], np.stack([p for p, _ in want]))
        assert np.array_equal(labels, [y for _, y in want])


class TestCutPatches:
    def test_matches_slices_of_the_edge_padded_image(self):
        """Centers in the corners, on the borders and inside a non-square
        image cut what the edge-padded image holds there, bit for bit."""
        img = np.random.default_rng(3).random((40, 33))
        padded = np.pad(img, 14, mode="edge")
        centers = np.array([(0, r, c) for r in (0, 1, 13, 14, 20, 26, 39)
                            for c in (0, 5, 14, 18, 19, 32)])
        patches = cut_patches([(img, None)], centers)
        want = np.stack([padded[r:r + 28, c:c + 28] for _, r, c in centers])
        assert patches.shape == (len(centers), 1, 28, 28)
        assert patches[:, 0].tobytes() == want.tobytes()


class TestPatchEpoch:
    """An epoch of train_patch visits its drawn patches in the seeded
    shuffled order, cutting each batch's patches when it needs them."""

    TRAIN, VAL = toy_samples(16, h=12, w=12), toy_samples(1, seed=1, h=12, w=12)
    PER_IMAGE, CFG = 96, TrainConfig(epochs=1, batch_size=4, seed=5)

    def shuffled_draw(self):
        """The rows the epoch must visit: patches[order] as drawn before."""
        centers, labels = draw_centers(self.TRAIN, splitmix64(self.CFG.seed, 2001),
                                       self.PER_IMAGE)
        patches = cut_patches(self.TRAIN, centers)
        order = list(range(len(labels)))
        SplitMix64(splitmix64(self.CFG.seed, 3001)).shuffle(order)
        return patches[order], labels[order]

    def test_batches_are_the_shuffled_rows(self, monkeypatch):
        seen_patches, seen_labels = [], []
        forward, losses = training.forward_patch, training.pixel_losses

        def recording_forward(params, x, train_mode=False, seeds=()):
            if train_mode:
                seen_patches.append(x.copy())
            return forward(params, x, train_mode=train_mode, seeds=seeds)

        def recording_losses(kind, pred, label, class_balance):
            seen_labels.append(label.copy())
            return losses(kind, pred, label, class_balance)

        monkeypatch.setattr(training, "forward_patch", recording_forward)
        monkeypatch.setattr(training, "pixel_losses", recording_losses)
        train_patch(self.TRAIN, self.VAL, PatchArch(), self.CFG,
                    patches_per_image=self.PER_IMAGE)
        patches, labels = self.shuffled_draw()
        assert [len(b) for b in seen_patches] == [4] * (len(labels) // 4)
        assert np.concatenate(seen_patches).tobytes() == patches.tobytes()
        assert np.concatenate(seen_labels)[:, 0].tobytes() == labels.tobytes()

    def test_no_second_copy_of_the_patches(self):
        """No epoch holds an array of all its patches, let alone a second
        copy: over two epochs the traced peak stays below half of one."""
        one_array = len(self.TRAIN) * self.PER_IMAGE * 28 * 28 * 8
        tracemalloc.start()
        try:
            train_patch(self.TRAIN, self.VAL, PatchArch(),
                        TrainConfig(epochs=2, batch_size=4, seed=5),
                        patches_per_image=self.PER_IMAGE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * one_array, (peak, one_array)


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

    def test_detects_broken_patch_gradient(self):
        """A sign flip in one patch-net gradient must trip the harness."""
        from lidar_edge import training as tr
        original = tr.backward_patch

        def broken(params, trace, d_prob):
            return [(name, -g if name == "fc1.weights" else g)
                    for name, g in original(params, trace, d_prob)]

        tr.backward_patch = broken
        try:
            ok, report = tr.grad_check("patch", seed=0)
        finally:
            tr.backward_patch = original
        assert not ok
        worst = {e.name: e.max_rel_error for e in report}
        assert worst["fc1.weights"] > 1e-4

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            grad_check("transformer")
