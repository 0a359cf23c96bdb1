"""Joint image/label augmentation pipeline."""

import numpy as np
import pytest

from lidar_edge.augment import (AffineParams, AugmentSpec, add_gaussian_noise,
                                add_salt_pepper, adjust_photometric,
                                affine_transform, occlude, sample_and_apply)
from lidar_edge.errors import ParameterError
from lidar_edge.rng import SplitMix64

IDENTITY_SPEC = AugmentSpec(rotation_deg=(0, 0), translate_px=(0, 0),
                            scale=(1, 1), shear=(0, 0), flip_h_prob=0.0,
                            flip_v_prob=0.0, gain=(1, 1), offset=(0, 0),
                            noise_sigma=(0, 0), salt_pepper=(0, 0),
                            occluder_count=0)


def checker(h=8, w=8):
    img = np.indices((h, w)).sum(axis=0) % 2 * 0.6 + 0.2
    label = np.zeros((h, w))
    label[h // 2, :] = 1.0
    return img, label


class TestAffine:
    def test_identity_is_exact(self):
        img, label = checker()
        out_img, out_label = affine_transform(img, label, AffineParams())
        np.testing.assert_allclose(out_img, img, atol=1e-12)
        np.testing.assert_array_equal(out_label, label)

    def test_horizontal_flip_mirrors_columns(self):
        img, label = checker()
        label[:] = 0.0
        label[:, 1] = 1.0
        out_img, out_label = affine_transform(img, label,
                                              AffineParams(flip_h=True))
        np.testing.assert_allclose(out_img, img[:, ::-1], atol=1e-12)
        np.testing.assert_array_equal(out_label, label[:, ::-1])

    def test_vertical_flip_mirrors_rows(self):
        img, label = checker()
        out_img, out_label = affine_transform(img, label,
                                              AffineParams(flip_v=True))
        np.testing.assert_allclose(out_img, img[::-1, :], atol=1e-12)
        np.testing.assert_array_equal(out_label, label[::-1, :])

    def test_integer_translation_shifts(self):
        img, label = checker()
        out_img, out_label = affine_transform(img, label,
                                              AffineParams(tx=2.0))
        np.testing.assert_allclose(out_img[:, 2:], img[:, :-2], atol=1e-12)
        # pixels with no source are zero
        np.testing.assert_array_equal(out_img[:, :2], np.zeros((8, 2)))
        np.testing.assert_array_equal(out_label[:, 2:], label[:, :-2])

    def test_rotation_180_reverses_both_axes(self):
        img, label = checker()
        out_img, _ = affine_transform(img, label, AffineParams(angle=180.0))
        np.testing.assert_allclose(out_img, img[::-1, ::-1], atol=1e-9)

    def test_labels_stay_binary_under_rotation(self):
        img, label = checker(16, 16)
        _, out_label = affine_transform(img, label, AffineParams(angle=30.0))
        assert set(np.unique(out_label)) <= {0.0, 1.0}

    def test_rotation_inverse_round_trip(self):
        img, label = checker(16, 16)
        a_img, a_label = affine_transform(img, label, AffineParams(angle=90.0))
        b_img, b_label = affine_transform(a_img, a_label, AffineParams(angle=-90.0))
        # interior survives the round trip (borders may be clipped)
        np.testing.assert_allclose(b_img[4:-4, 4:-4], img[4:-4, 4:-4], atol=1e-9)

    def test_bad_scale(self):
        img, label = checker()
        with pytest.raises(ParameterError):
            affine_transform(img, label, AffineParams(scale=0.0))


class TestNoise:
    def test_gaussian_statistics_and_clamping(self):
        img = np.full((64, 64), 0.5)
        out = add_gaussian_noise(img, 0.1, seed=1)
        resid = out - img
        assert abs(resid.mean()) < 0.01
        assert abs(resid.std() - 0.1) < 0.01
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_gaussian_zero_sigma_identity(self):
        img = SplitMix64(1).floats(16).reshape(4, 4)
        np.testing.assert_array_equal(add_gaussian_noise(img, 0.0, 5), img)

    def test_gaussian_deterministic(self):
        img = np.full((8, 8), 0.5)
        np.testing.assert_array_equal(add_gaussian_noise(img, 0.2, 7),
                                      add_gaussian_noise(img, 0.2, 7))

    def test_salt_pepper_density_and_values(self):
        img = np.full((100, 100), 0.5)
        out = add_salt_pepper(img, 0.1, seed=2)
        changed = out != 0.5
        assert abs(changed.mean() - 0.1) < 0.02
        assert set(np.unique(out[changed])) <= {0.0, 1.0}

    def test_salt_pepper_zero_density_identity(self):
        img = SplitMix64(3).floats(25).reshape(5, 5)
        np.testing.assert_array_equal(add_salt_pepper(img, 0.0, 1), img)

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            add_gaussian_noise(np.zeros((2, 2)), -0.1, 0)
        with pytest.raises(ParameterError):
            add_salt_pepper(np.zeros((2, 2)), 1.5, 0)


class TestOcclude:
    def test_zeroes_image_and_label_together(self):
        img = np.full((16, 16), 0.9)
        label = np.ones((16, 16))
        out_img, out_label = occlude(img, label, 3, (4, 6), seed=1)
        hole = out_img == 0.0
        assert hole.any()
        assert np.all(out_label[hole] == 0.0)
        assert np.all(out_label[~hole] == 1.0)

    def test_zero_count_identity(self):
        img, label = checker()
        out_img, out_label = occlude(img, label, 0, (2, 4), seed=1)
        np.testing.assert_array_equal(out_img, img)
        np.testing.assert_array_equal(out_label, label)

    def test_inputs_not_mutated(self):
        img = np.full((8, 8), 0.5)
        label = np.ones((8, 8))
        img_copy, label_copy = img.copy(), label.copy()
        occlude(img, label, 2, (3, 3), seed=2)
        np.testing.assert_array_equal(img, img_copy)
        np.testing.assert_array_equal(label, label_copy)


class TestPhotometric:
    def test_gain_about_midgray(self):
        img = np.array([[0.25, 0.5, 0.75]])
        out = adjust_photometric(img, 2.0, 0.0)
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]])

    def test_offset(self):
        out = adjust_photometric(np.array([[0.3]]), 1.0, 0.2)
        assert out[0, 0] == pytest.approx(0.5)

    def test_clamped(self):
        out = adjust_photometric(np.array([[0.9]]), 3.0, 0.5)
        assert out[0, 0] == 1.0

    def test_bad_gain(self):
        with pytest.raises(ParameterError):
            adjust_photometric(np.zeros((2, 2)), 0.0, 0.0)


class TestPipeline:
    def test_identity_spec_is_noop(self):
        img, label = checker()
        out_img, out_label = sample_and_apply(img, label, IDENTITY_SPEC, seed=3)
        np.testing.assert_allclose(out_img, img, atol=1e-12)
        np.testing.assert_array_equal(out_label, label)

    def test_deterministic_per_seed(self):
        img, label = checker(16, 16)
        spec = AugmentSpec()
        a = sample_and_apply(img, label, spec, seed=5)
        b = sample_and_apply(img, label, spec, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        img, label = checker(16, 16)
        spec = AugmentSpec()
        a = sample_and_apply(img, label, spec, seed=1)
        b = sample_and_apply(img, label, spec, seed=2)
        assert not np.array_equal(a[0], b[0])

    def test_outputs_valid_ranges(self):
        img, label = checker(16, 16)
        spec = AugmentSpec()
        for seed in range(10):
            out_img, out_label = sample_and_apply(img, label, spec, seed)
            assert out_img.min() >= 0.0 and out_img.max() <= 1.0
            assert set(np.unique(out_label)) <= {0.0, 1.0}

    def test_flips_only_spec_preserves_content(self):
        """A flips-only draw is one of the four axis mirrorings."""
        img, label = checker(8, 8)
        spec = AugmentSpec(rotation_deg=(0, 0), translate_px=(0, 0),
                           scale=(1, 1), shear=(0, 0), flip_h_prob=0.5,
                           flip_v_prob=0.5, gain=(1, 1), offset=(0, 0),
                           noise_sigma=(0, 0), salt_pepper=(0, 0),
                           occluder_count=0)
        for seed in range(12):
            out_img, _ = sample_and_apply(img, label, spec, seed)
            candidates = [img, img[::-1], img[:, ::-1], img[::-1, ::-1]]
            assert any(np.allclose(out_img, c, atol=1e-12) for c in candidates)

    def test_invalid_spec(self):
        with pytest.raises(ParameterError):
            AugmentSpec(scale=(1.1, 0.9))
        with pytest.raises(ParameterError):
            AugmentSpec(flip_h_prob=1.5)
