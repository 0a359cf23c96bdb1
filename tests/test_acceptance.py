"""End-to-end acceptance suite for the pinned default configuration.

The expensive part — generating the default dataset, training the
nested network, and tuning/evaluating every detector on the test
split — runs once in a session fixture; the individual test classes then
assert against its artifacts. Everything is deterministic, so the
pinned bounds reproduce exactly on reruns.
"""

import struct
import time
from types import SimpleNamespace

import numpy as np
import pytest

from lidar_edge import training as tr
from lidar_edge.cli import scored_detectors
from lidar_edge.classical import canny, roberts, sobel
from lidar_edge.config import Config
from lidar_edge.errors import MagicError, ModelLoadError, TruncationError
from lidar_edge.evaluation import confusion, metrics, prob_levels, sweep, threshold_grid
from lidar_edge.formats import write_manifest
from lidar_edge.imaging import convolve2d
from lidar_edge.layers import maxpool2x2_forward
from lidar_edge.lidar import (LidarConfig, ScenePolicy, generate_dataset,
                              tof_to_distance)
from lidar_edge.losses import pixel_losses
from lidar_edge.modelio import load_model, save_model
from lidar_edge.models import (NestedArch, PatchArch, forward_nested,
                               init_nested, init_patch)
from lidar_edge.optim import OptimizerConfig
from lidar_edge.rng import SplitMix64
from lidar_edge.training import (TrainConfig, grad_check, load_split,
                                 patch_prob_map, runlog_csv, split_dataset,
                                 total_loss, train_nested)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Full default run: generate, split, train, tune, compare."""
    t0 = time.monotonic()
    cfg = Config.load(None)
    out = tmp_path_factory.mktemp("pipeline")
    d = cfg.raw["dataset"]
    dataset_dir = out / "dataset"
    manifest = generate_dataset(int(d["n"]), cfg.lidar(), cfg.scene_policy(),
                                float(d["delta"]), int(d["seed"]), dataset_dir)
    manifest = split_dataset(manifest, tuple(d["ratios"]), int(d["seed"]))
    write_manifest(dataset_dir / "manifest.jsonl", manifest)
    train = load_split(manifest, dataset_dir, "train")
    val = load_split(manifest, dataset_dir, "val")
    test = load_split(manifest, dataset_dir, "test")
    params, log = train_nested(train, val, cfg.nested_arch(),
                               cfg.train_config())
    reports = scored_detectors(cfg, val, test, params)
    elapsed = time.monotonic() - t0
    return SimpleNamespace(counts=manifest.counts(), params=params, log=log,
                           f1={r.name: r.f1 for r in reports}, elapsed=elapsed)


class TestOrderingReproduction:
    """Detector ranking on the pinned default config."""

    def test_split_sizes(self, pipeline):
        assert pipeline.counts == {"train": 196, "val": 42, "test": 42}

    def test_detector_ranking(self, pipeline):
        f1 = pipeline.f1
        assert f1["cnn"] > f1["canny"] > f1["sobel"] >= f1["roberts"], f1

    def test_cnn_margin_over_canny(self, pipeline):
        assert pipeline.f1["cnn"] - pipeline.f1["canny"] >= 0.02, pipeline.f1

    def test_runtime_budget(self, pipeline):
        assert pipeline.elapsed <= 900.0, f"{pipeline.elapsed:.0f}s"


class TestGradientCorrectness:
    """Finite-difference gradient check plus a mutation test."""

    def test_both_variants_pass(self):
        for variant in ("nested", "patch"):
            ok, report = grad_check(variant, seed=0, tolerance=1e-4)
            worst = max(report, key=lambda e: e.max_rel_error)
            assert ok, f"{variant}: {worst.name} {worst.max_rel_error:.2e}"

    def test_sign_flip_mutation_is_caught(self):
        original = tr.backward_nested

        def mutated(params, trace, d_fused, d_sides):
            grads = original(params, trace, d_fused, d_sides)
            return [(name, -g if name == "alpha" else g)  # sign flip in one backward path
                    for name, g in grads]

        tr.backward_nested = mutated
        try:
            ok, _ = tr.grad_check("nested", seed=0, tolerance=1e-4)
        finally:
            tr.backward_nested = original
        assert not ok


class TestOracleEquivalence:
    """Core numeric kernels vs naive brute force, 200+ random instances."""

    N = 200

    def _rand(self, rng, h, w):
        return rng.floats(h * w).reshape(h, w) - 0.5

    def test_convolve2d(self):
        """Replicate border: an index past the image is clamped to its edge."""
        rng = SplitMix64(30)
        for i in range(self.N):
            h, w = 3 + rng.randint(5), 3 + rng.randint(5)
            k = 1 + 2 * rng.randint(2)
            img = self._rand(rng, h, w)
            ker = self._rand(rng, k, k)
            got = convolve2d(img, ker)
            r = k // 2
            want = np.zeros((h, w))
            for y in range(h):
                for x in range(w):
                    acc = 0.0
                    for dy in range(-r, r + 1):
                        for dx in range(-r, r + 1):
                            yy, xx = min(max(y + dy, 0), h - 1), min(max(x + dx, 0), w - 1)
                            acc += img[yy, xx] * ker[r + dy, r + dx]
                    want[y, x] = acc
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12,
                                       err_msg=f"instance {i}")

    def test_sobel_and_roberts(self):
        kx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
        ky = np.array([[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
        rng = SplitMix64(31)
        for i in range(self.N):
            h, w = 4 + rng.randint(4), 4 + rng.randint(4)
            img = self._rand(rng, h, w)
            gx = convolve2d(img, kx)
            gy = convolve2d(img, ky)
            np.testing.assert_allclose(sobel(img).magnitude,
                                       np.hypot(gx, gy), rtol=1e-10,
                                       err_msg=f"sobel instance {i}")
            # roberts: 2x2 window anchored at each pixel, fringe zero-padded
            def at(y, x):
                return img[y, x] if y < h and x < w else 0.0
            g1 = np.zeros((h, w))
            g2 = np.zeros((h, w))
            for y in range(h):
                for x in range(w):
                    g1[y, x] = at(y, x) - at(y + 1, x + 1)
                    g2[y, x] = at(y, x + 1) - at(y + 1, x)
            np.testing.assert_allclose(roberts(img).magnitude,
                                       np.hypot(g1, g2), rtol=1e-10,
                                       err_msg=f"roberts instance {i}")

    def test_maxpool2x2(self):
        rng = SplitMix64(32)
        for i in range(self.N):
            c = 1 + rng.randint(3)
            h, w = 2 * (1 + rng.randint(4)), 2 * (1 + rng.randint(4))
            x = (rng.floats(c * h * w).reshape(c, h, w) - 0.5)
            got = maxpool2x2_forward(x)
            want = np.zeros((c, h // 2, w // 2))
            for ci in range(c):
                for y in range(h // 2):
                    for xq in range(w // 2):
                        want[ci, y, xq] = x[ci, 2 * y:2 * y + 2,
                                            2 * xq:2 * xq + 2].max()
            np.testing.assert_array_equal(got, want, err_msg=f"instance {i}")

    def test_confusion_and_metrics(self):
        rng = SplitMix64(33)
        for i in range(self.N):
            h, w = 2 + rng.randint(6), 2 + rng.randint(6)
            pred = (rng.floats(h * w).reshape(h, w) < 0.4).astype(float)
            truth = (rng.floats(h * w).reshape(h, w) < 0.4).astype(float)
            cm = confusion(pred, truth)
            tp = int(np.sum((pred == 1) & (truth == 1)))
            fp = int(np.sum((pred == 1) & (truth == 0)))
            fn = int(np.sum((pred == 0) & (truth == 1)))
            tn = int(np.sum((pred == 0) & (truth == 0)))
            assert (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn), i
            rep = metrics(cm)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            assert rep.precision == pytest.approx(prec, abs=1e-12)
            assert rep.recall == pytest.approx(rec, abs=1e-12)
            want_f1 = (2 * prec * rec / (prec + rec)) if prec + rec else 0.0
            assert rep.f1 == pytest.approx(want_f1, abs=1e-12)


class TestEquationFidelity:
    """Fusion and multi-task loss match their term-by-term sums."""

    def test_fused_output_is_weighted_sum_of_sides(self):
        arch = NestedArch(stages=3, widths=(2, 2, 2), input_hw=(8, 8))
        params = init_nested(arch, 5)
        params.alpha[...] = [0.5, 0.3, 0.2]
        x = SplitMix64(6).floats(64).reshape(8, 8)
        trace = forward_nested(params, x)
        want = sum(a * y for a, y in zip(params.alpha, trace.side_probs))
        np.testing.assert_allclose(trace.fused, want, atol=1e-12)

    def test_total_loss_is_sum_of_terms(self):
        arch = NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8))
        params = init_nested(arch, 7)
        x = SplitMix64(8).floats(64).reshape(1, 1, 8, 8)
        label = (SplitMix64(9).floats(64).reshape(1, 8, 8) < 0.3).astype(float)
        trace = forward_nested(params, x)
        lambdas = (0.7, 0.4)
        cfg = TrainConfig(lambdas=lambdas, class_balance=True)
        [loss], _, _ = total_loss(trace, label, cfg)
        want = pixel_losses("bce", trace.fused, label, class_balance=True)[0][0]
        for lam, side in zip(lambdas, trace.side_probs):
            want += lam * pixel_losses("bce", side, label, class_balance=True)[0][0]
        assert loss == pytest.approx(want, abs=1e-12)


class TestTimeOfFlight:
    """Time-of-flight: distance = c * tof / 2 in 64-bit arithmetic."""

    def test_reference_value_exact(self):
        assert tof_to_distance(2.0e-6) == 299.792458

    def test_formula_on_random_inputs(self):
        rng = SplitMix64(40)
        for _ in range(10_000):
            t = rng.next_float() * 1e-5
            assert tof_to_distance(t) == 299_792_458.0 * t / 2.0

    def test_binary_scaling_is_exact(self):
        rng = SplitMix64(41)
        for _ in range(100):
            t = rng.next_float() * 1e-6
            assert tof_to_distance(2.0 * t) == 2.0 * tof_to_distance(t)


class TestDeterminismAndPersistence:
    """Byte-identical artifacts across reruns; checkpoint integrity."""

    def _tiny_dataset(self, tmp_path, name):
        out = tmp_path / name
        generate_dataset(6, LidarConfig(height=16, width=16),
                         ScenePolicy(), 0.5, 11, out)
        return out

    def test_dataset_regeneration_byte_identical(self, tmp_path):
        a = self._tiny_dataset(tmp_path, "a")
        b = self._tiny_dataset(tmp_path, "b")
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def _tiny_training(self):
        rng = SplitMix64(12)
        samples = []
        for _ in range(4):
            img = rng.floats(64).reshape(8, 8)
            samples.append((img, (img > 0.7).astype(float)))
        arch = NestedArch(stages=2, widths=(2, 2), input_hw=(8, 8))
        cfg = TrainConfig(epochs=3, batch_size=2, seed=5,
                          optimizer=OptimizerConfig(kind="adam",
                                                    learning_rate=1e-3))
        return train_nested(samples, samples[:2], arch, cfg)

    def test_runlog_csv_byte_identical(self):
        _, l1 = self._tiny_training()
        _, l2 = self._tiny_training()
        assert runlog_csv(l1) == runlog_csv(l2)

    def test_checkpoint_round_trip_bitwise(self, tmp_path):
        params, _ = self._tiny_training()
        a, b = tmp_path / "a.ledm", tmp_path / "b.ledm"
        save_model(params, a)
        save_model(params, b)
        assert a.read_bytes() == b.read_bytes()
        back = load_model(a)
        for (na, ta), (nb, tb) in zip(params.named_tensors(),
                                      back.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta, tb)

    def test_corrupted_magic_and_truncation_errors(self, tmp_path):
        p = tmp_path / "m.ledm"
        save_model(init_patch(PatchArch(), 0), p)
        raw = p.read_bytes()
        bad = tmp_path / "bad.ledm"
        bad.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(MagicError):
            load_model(bad)
        short = tmp_path / "short.ledm"
        short.write_bytes(raw[: len(raw) // 3])
        with pytest.raises((TruncationError, ModelLoadError)):
            load_model(short)


class TestTrainingSanity:
    """Loss decay and validation quality on the default run.

    The validation bound is pinned from the deterministic reference run
    of the default configuration (best epoch 22, F1 0.6093 at the 0.5
    threshold).
    """

    def test_loss_decays_to_seventy_percent(self, pipeline):
        records = pipeline.log.records
        first = records[0].train_loss
        assert any(r.train_loss <= 0.7 * first for r in records[1:]), \
            [r.train_loss for r in records]

    def test_validation_f1_at_selected_epoch(self, pipeline):
        log = pipeline.log
        best = log.records[log.best_epoch - 1].val_f1
        assert best >= 0.60, f"best epoch {log.best_epoch}: F1 {best:.4f}"


class TestSplitContract:
    """Exact 70/15/15 partition on n=100."""

    def test_exact_counts_disjoint_exhaustive(self):
        from lidar_edge.formats import DatasetManifest, ManifestEntry
        man = DatasetManifest(entries=[
            ManifestEntry(id=str(i), range=f"{i}.lri", intensity=f"{i}.pgm",
                          label=f"{i}_l.pgm") for i in range(100)])
        out = split_dataset(man, (0.70, 0.15, 0.15), seed=4)
        assert out.counts() == {"train": 70, "val": 15, "test": 15}
        # exhaustive and disjoint: every entry carries exactly one tag
        assert sorted(e.id for e in out.entries) == sorted(str(i)
                                                           for i in range(100))
        assert all(e.split in ("train", "val", "test") for e in out.entries)


class TestInvariants:
    """Structural invariants across the toolkit."""

    def test_alpha_on_simplex_after_full_run(self, pipeline):
        alpha = pipeline.params.alpha
        assert np.all(alpha >= 0.0)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)

    def test_probability_maps_in_unit_interval(self, pipeline):
        rng = SplitMix64(50)
        for _ in range(5):
            img = rng.floats(64 * 64).reshape(64, 64)
            trace = forward_nested(pipeline.params, img)
            for pm in [trace.fused, *trace.side_probs]:
                assert pm.min() >= 0.0 and pm.max() <= 1.0
        patch_params = init_patch(PatchArch(conv_channels=(2, 2), hidden=4), 1)
        pm = patch_prob_map(patch_params, rng.floats(100).reshape(10, 10))
        assert pm.min() >= 0.0 and pm.max() <= 1.0

    def test_labels_binary_after_every_augmentation_path(self):
        from lidar_edge.augment import AugmentSpec, sample_and_apply
        spec = AugmentSpec(rotation_deg=(-20.0, 20.0),
                           translate_px=(-3.0, 3.0), scale=(0.9, 1.1),
                           shear=(-5.0, 5.0), flip_h_prob=0.5,
                           flip_v_prob=0.5, gain=(0.8, 1.2),
                           offset=(-0.1, 0.1), noise_sigma=(0.0, 0.05),
                           salt_pepper=(0.0, 0.05), occluder_count=2,
                           occluder_size=(2, 5))
        img = SplitMix64(51).floats(256).reshape(16, 16)
        label = (SplitMix64(52).floats(256).reshape(16, 16) < 0.2).astype(float)
        for seed in range(25):
            out_img, out_label = sample_and_apply(img, label, spec, seed)
            assert set(np.unique(out_label)) <= {0.0, 1.0}, seed
            assert out_img.min() >= 0.0 and out_img.max() <= 1.0

    def test_roc_monotonicity(self):
        """Pooled TP and FP from sweep do not increase with the threshold index k."""
        rng = SplitMix64(53)
        probs = [rng.floats(64).reshape(8, 8) for _ in range(4)]
        truths = [(rng.floats(64).reshape(8, 8) < 0.3).astype(float)
                  for _ in range(4)]
        grid = threshold_grid(31)
        counts = sweep(((prob_levels(p, grid), t) for p, t in zip(probs, truths)), len(grid))
        assert all(a.tp >= b.tp and a.fp >= b.fp for a, b in zip(counts, counts[1:]))

    def test_canny_contrast_invariance(self):
        # noise-free step scene with a one-column transition so the
        # gradient has a single distinct peak per row
        img = np.zeros((24, 24))
        img[:, 12] = 0.4
        img[:, 13:] = 0.8
        a = canny(img, sigma=1.0, low=0.1, high=0.2)
        b = canny(0.5 * img + 0.1, sigma=1.0, low=0.1, high=0.2)
        np.testing.assert_array_equal(a, b)
        assert a.any()
