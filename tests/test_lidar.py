"""Synthetic LiDAR scene rendering, labeling, and dataset generation."""

import numpy as np
import pytest

from lidar_edge.errors import ParameterError
from lidar_edge.formats import read_lri, read_pgm
from lidar_edge.lidar import (SPEED_OF_LIGHT, Disk, HalfPlane, LidarConfig,
                              Rect, Scene, ScenePolicy, generate_dataset,
                              ground_truth_edges, range_to_intensity,
                              render_scene, sample_scene, tof_to_distance)


class TestTimeOfFlight:
    def test_exact_value(self):
        # 1 microsecond round trip -> c * 1e-6 / 2 meters, bit-exact
        assert tof_to_distance(1e-6) == SPEED_OF_LIGHT * 1e-6 / 2.0

    def test_zero(self):
        assert tof_to_distance(0.0) == 0.0

    def test_linear_in_tof(self):
        assert tof_to_distance(2e-6) == 2.0 * tof_to_distance(1e-6)

    def test_custom_propagation_speed(self):
        assert tof_to_distance(4.0, c=10.0) == 20.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            tof_to_distance(-1e-9)


class TestGroundTruthEdges:
    def test_flat_scene_has_no_edges(self):
        np.testing.assert_array_equal(
            ground_truth_edges(np.full((8, 8), 40.0), 0.5), np.zeros((8, 8)))

    def test_step_marks_near_side_only(self):
        ranges = np.full((4, 6), 50.0)
        ranges[:, 3:] = 20.0  # right half nearer
        edges = ground_truth_edges(ranges, 0.5)
        want = np.zeros((4, 6))
        want[:, 3] = 1.0  # nearer column adjacent to the jump
        np.testing.assert_array_equal(edges, want)

    def test_edges_are_one_pixel_wide(self):
        ranges = np.full((10, 10), 70.0)
        ranges[3:7, 3:7] = 20.0
        edges = ground_truth_edges(ranges, 0.5)
        # marked pixels form exactly the square's one-pixel boundary ring
        want = np.zeros((10, 10))
        want[3:7, 3:7] = 1.0
        want[4:6, 4:6] = 0.0
        np.testing.assert_array_equal(edges, want)

    def test_jump_below_delta_ignored(self):
        ranges = np.full((4, 4), 30.0)
        ranges[:, 2:] = 30.4
        assert ground_truth_edges(ranges, 0.5).sum() == 0.0

    def test_jump_exactly_delta_ignored(self):
        # strict inequality: a jump of exactly delta is not an edge
        ranges = np.full((4, 4), 30.0)
        ranges[:, 2:] = 30.5
        assert ground_truth_edges(ranges, 0.5).sum() == 0.0

    def test_matches_brute_force_oracle(self):
        from lidar_edge.rng import SplitMix64
        ranges = (SplitMix64(3).floats(144).reshape(12, 12) * 10).round()
        delta = 1.5
        got = ground_truth_edges(ranges, delta)
        want = np.zeros_like(ranges)
        h, w = ranges.shape
        for y in range(h):
            for x in range(w):
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        if ranges[yy, xx] - ranges[y, x] > delta:
                            want[y, x] = 1.0
        np.testing.assert_array_equal(got, want)

    def test_bad_delta(self):
        with pytest.raises(ParameterError):
            ground_truth_edges(np.zeros((3, 3)), 0.0)


class TestRenderScene:
    CFG = LidarConfig(height=16, width=16, noise_sigma=0.0)

    def test_noise_free_matches_scene_geometry(self):
        scene = Scene(primitives=[Rect(4, 4, 6, 6, 20.0)], background_range=70.0)
        ranges, edges = render_scene(scene, self.CFG, seed=0)
        assert ranges[6, 6] == 20.0
        assert ranges[0, 0] == 70.0
        assert edges[4, 4] == 1.0 and edges[0, 0] == 0.0

    def test_nearest_primitive_wins_on_overlap(self):
        scene = Scene(primitives=[Rect(2, 2, 8, 8, 30.0), Rect(4, 4, 4, 4, 10.0)],
                      background_range=80.0)
        ranges, _ = render_scene(scene, self.CFG, seed=0)
        assert ranges[5, 5] == 10.0

    def test_labels_unaffected_by_noise(self):
        scene = Scene(primitives=[Disk(8, 8, 4.0, 15.0)], background_range=60.0)
        clean_cfg = self.CFG
        noisy_cfg = LidarConfig(height=16, width=16, noise_sigma=3.0,
                                dropout_prob=0.05)
        _, e0 = render_scene(scene, clean_cfg, seed=1)
        _, e1 = render_scene(scene, noisy_cfg, seed=1)
        np.testing.assert_array_equal(e0, e1)

    def test_noise_statistics(self):
        cfg = LidarConfig(height=64, width=64, noise_sigma=0.8)
        scene = Scene(primitives=[], background_range=50.0)
        ranges, _ = render_scene(scene, cfg, seed=5)
        resid = ranges - 50.0
        assert abs(resid.mean()) < 0.05
        assert abs(resid.std() - 0.8) < 0.05

    def test_dropout_pixels_read_max_range(self):
        cfg = LidarConfig(height=64, width=64, noise_sigma=0.0, dropout_prob=0.25)
        scene = Scene(primitives=[], background_range=40.0)
        ranges, _ = render_scene(scene, cfg, seed=2)
        frac = (ranges == cfg.max_range).mean()
        assert 0.18 < frac < 0.32
        assert set(np.unique(ranges)) == {40.0, cfg.max_range}

    def test_deterministic_per_seed(self):
        scene = Scene(primitives=[Disk(5, 5, 3.0, 25.0)], background_range=65.0)
        cfg = LidarConfig(height=16, width=16, noise_sigma=1.0, dropout_prob=0.01)
        a, _ = render_scene(scene, cfg, seed=9)
        b, _ = render_scene(scene, cfg, seed=9)
        c, _ = render_scene(scene, cfg, seed=10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ranges_clipped_to_sensor_limits(self):
        cfg = LidarConfig(height=32, width=32, max_range=100.0, noise_sigma=30.0)
        scene = Scene(primitives=[], background_range=95.0)
        ranges, _ = render_scene(scene, cfg, seed=3)
        assert ranges.max() <= 100.0 and ranges.min() > 0.0


class TestIntensity:
    def test_formula(self):
        out = range_to_intensity(np.array([[0.0, 50.0, 100.0]]), 100.0)
        np.testing.assert_allclose(out, [[1.0, 0.5, 0.0]], rtol=1e-15)

    def test_clipped_to_unit_interval(self):
        out = range_to_intensity(np.array([[120.0]]), 100.0)
        assert out[0, 0] == 0.0


class TestSceneSampling:
    CFG = LidarConfig(height=32, width=32)

    def test_primitive_count_within_policy(self):
        pol = ScenePolicy(min_primitives=2, max_primitives=5)
        for seed in range(30):
            scene = sample_scene(pol, self.CFG, seed)
            assert 2 <= len(scene.primitives) <= 5

    def test_ranges_within_policy(self):
        pol = ScenePolicy()
        for seed in range(30):
            scene = sample_scene(pol, self.CFG, seed)
            for p in scene.primitives:
                assert pol.min_range <= p.range_m <= pol.max_range_frac * self.CFG.max_range
            assert pol.background_lo <= scene.background_range <= pol.background_hi

    def test_deterministic(self):
        pol = ScenePolicy()
        assert sample_scene(pol, self.CFG, 7) == sample_scene(pol, self.CFG, 7)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ParameterError):
            sample_scene(ScenePolicy(min_primitives=5, max_primitives=2),
                         self.CFG, 0)


class TestHalfPlaneMask:
    def test_vertical_high(self):
        m = HalfPlane("vertical", 3, "high", 10.0).mask(2, 5)
        np.testing.assert_array_equal(m[0], [False, False, False, True, True])

    def test_horizontal_low(self):
        m = HalfPlane("horizontal", 2, "low", 10.0).mask(4, 2)
        np.testing.assert_array_equal(m[:, 0], [True, True, False, False])


class TestGenerateDataset:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = LidarConfig(height=16, width=16, noise_sigma=0.1)
        man = generate_dataset(4, cfg, ScenePolicy(), 0.5, 11, tmp_path)
        assert len(man.entries) == 4
        assert {e.split for e in man.entries} == {"unassigned"}
        # the caller splits the manifest and writes it, once
        assert not (tmp_path / "manifest.jsonl").exists()
        for e in man.entries:
            ranges, max_range = read_lri(tmp_path / e.range)
            assert ranges.shape == (16, 16) and max_range == 100.0
            label = read_pgm(tmp_path / e.label)
            assert set(np.unique(label)) <= {0.0, 1.0}
            intensity = read_pgm(tmp_path / e.intensity)
            want = range_to_intensity(ranges, max_range)
            np.testing.assert_allclose(intensity, want, atol=1.0 / 255.0 + 1e-12)

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = LidarConfig(height=16, width=16, noise_sigma=0.2, dropout_prob=0.01)
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(3, cfg, ScenePolicy(), 0.5, 4, a)
        generate_dataset(3, cfg, ScenePolicy(), 0.5, 4, b)
        for f in sorted(p.name for p in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes(), f

    def test_seed_changes_content(self, tmp_path):
        cfg = LidarConfig(height=16, width=16)
        generate_dataset(2, cfg, ScenePolicy(), 0.5, 1, tmp_path / "a")
        generate_dataset(2, cfg, ScenePolicy(), 0.5, 2, tmp_path / "b")
        a = (tmp_path / "a" / "sample_0000.lri").read_bytes()
        b = (tmp_path / "b" / "sample_0000.lri").read_bytes()
        assert a != b

    def test_bad_count(self, tmp_path):
        with pytest.raises(ParameterError):
            generate_dataset(0, LidarConfig(), ScenePolicy(), 0.5, 0, tmp_path)
