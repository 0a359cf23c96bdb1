"""Sobel, Roberts, and Canny detectors."""

from collections import deque

import numpy as np
import pytest

from lidar_edge import classical
from lidar_edge.classical import (CANNY_LOW_RATIO, SOBEL_X, SOBEL_Y, canny,
                                  magnitude_levels, roberts, sobel)
from lidar_edge.classical import _hysteresis, _nms
from lidar_edge.errors import DimensionError, ParameterError
from lidar_edge.imaging import gaussian_filter
from lidar_edge.rng import SplitMix64


def vertical_step(h=16, w=16, at=8, lo=0.2, hi=0.8):
    img = np.full((h, w), lo)
    img[:, at:] = hi
    return img


class TestSobel:
    def test_kernels(self):
        np.testing.assert_array_equal(
            SOBEL_X, [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])
        np.testing.assert_array_equal(SOBEL_Y, np.asarray(SOBEL_X).T)

    def test_constant_image_zero_gradient(self):
        f = sobel(np.full((8, 8), 0.5))
        assert np.all(f.gx == 0) and np.all(f.gy == 0)

    def test_vertical_step_response(self):
        img = vertical_step()
        f = sobel(img)
        # interior columns adjacent to the step see the full kernel sum (4)
        assert f.gx[8, 7] == pytest.approx(4 * 0.6)
        assert f.gx[8, 8] == pytest.approx(4 * 0.6)
        assert np.all(f.gy[1:-1, :] == pytest.approx(0.0))

    def test_gradient_sign_convention(self):
        img = vertical_step()          # dark left, bright right
        assert sobel(img).gx[8, 8] > 0
        assert sobel(img[:, ::-1]).gx[8, 8] < 0
        assert sobel(img.T).gy[8, 8] > 0  # dark top, bright bottom

    def test_linear_ramp_exact_gradient(self):
        # f(x) = x/32 has constant df/dx; Sobel on a ramp returns 8 * slope
        img = np.tile(np.arange(32) / 32.0, (8, 1))
        f = sobel(img)
        np.testing.assert_allclose(f.gx[1:-1, 1:-1], 8.0 / 32.0, rtol=1e-12)

    def test_magnitude_is_hypot(self):
        img = SplitMix64(1).floats(64).reshape(8, 8)
        f = sobel(img)
        np.testing.assert_allclose(f.magnitude, np.hypot(f.gx, f.gy), rtol=1e-15)

    def test_too_small(self):
        with pytest.raises(DimensionError):
            sobel(np.zeros((2, 5)))


class TestRoberts:
    def test_matches_direct_differences(self):
        img = SplitMix64(2).floats(30).reshape(5, 6)
        f = roberts(img)
        for y in range(4):
            for x in range(5):
                assert f.gx[y, x] == pytest.approx(img[y, x] - img[y + 1, x + 1])
                assert f.gy[y, x] == pytest.approx(img[y, x + 1] - img[y + 1, x])

    def test_fringe_uses_zero_padding(self):
        img = np.full((3, 3), 0.4)
        f = roberts(img)
        # bottom-right corner window extends past the image; missing pixels read 0
        assert f.gx[2, 2] == pytest.approx(0.4)
        assert f.gx[1, 1] == pytest.approx(0.0)

    def test_output_shape_matches_input(self):
        assert roberts(np.zeros((4, 7))).gx.shape == (4, 7)

    def test_too_small(self):
        with pytest.raises(DimensionError):
            roberts(np.zeros((1, 4)))


def threshold_magnitude(field, t):
    """Test oracle: the magnitude thresholded at t * its peak, by brute
    force; a flat field (peak below 1e-12) is empty."""
    mag = np.hypot(field.gx, field.gy)
    peak = mag.max()
    return (mag >= t * peak) & (peak >= 1e-12)


def at(field, t):
    """The edge map of magnitude_levels at the one threshold t."""
    return magnitude_levels(field, np.array([t])) > 0


class TestThresholdMagnitude:
    """magnitude_levels read at the one-point grid [t], as detect and the
    test split read Sobel and Roberts."""

    def test_relative_to_peak(self):
        out = at(sobel(vertical_step()), 0.5)
        assert np.all(out[:, 7:9])
        assert not out[:, :6].any()

    def test_contrast_invariance(self):
        """Scaling and shifting intensities must not change the result."""
        img = SplitMix64(4).floats(256).reshape(16, 16)
        np.testing.assert_array_equal(at(sobel(img), 0.3), at(sobel(0.5 * img + 0.1), 0.3))

    def test_zero_field_empty(self):
        assert not at(sobel(np.full((5, 5), 0.7)), 0.0).any()


class TestCanny:
    def test_clean_step_detected_and_thin(self):
        img = vertical_step(h=20, w=20, at=10)
        out = canny(img, sigma=1.0, low=0.2, high=0.4)
        assert set(np.unique(out)) <= {0, 1}
        # every interior row crosses the edge
        assert np.all(out[2:-2, 9:11].sum(axis=1) >= 1)
        # detections cluster at the step; columns far away stay empty
        assert out[:, :7].sum() == 0 and out[:, 13:].sum() == 0
        # suppression thins the response to at most the two tied center columns
        assert np.all(out[2:-2, 9:11].sum(axis=1) <= 2)

    def test_horizontal_step(self):
        img = vertical_step(h=20, w=20, at=10).T
        out = canny(img, sigma=1.0, low=0.2, high=0.4)
        assert np.all(out[9:11, 2:-2].sum(axis=0) >= 1)
        assert out[:7, :].sum() == 0 and out[13:, :].sum() == 0

    def test_contrast_invariance(self):
        img = SplitMix64(6).floats(400).reshape(20, 20)
        a = canny(img, 1.0, 0.1, 0.3)
        b = canny(0.5 * img + 0.1, 1.0, 0.1, 0.3)
        np.testing.assert_array_equal(a, b)

    def test_constant_image_empty(self):
        np.testing.assert_array_equal(canny(np.full((10, 10), 0.3), 1.0, 0.1, 0.2),
                                      np.zeros((10, 10)))

    def test_hysteresis_links_weak_segment(self):
        """A weak diagonal continuation survives only via a strong neighbor."""
        img = vertical_step(h=24, w=24, at=12, lo=0.1, hi=0.9)
        # fade the step's contrast in the lower half so it falls between
        # the low and high thresholds there
        img[12:, :] = vertical_step(h=12, w=24, at=12, lo=0.40, hi=0.60)
        linked = canny(img, sigma=1.0, low=0.15, high=0.55)
        # weak lower rows are present because they connect upward
        assert linked[18, 11:13].sum() >= 1
        # raising `low` above the weak response removes them
        unlinked = canny(img, sigma=1.0, low=0.50, high=0.55)
        assert unlinked[18, 11:13].sum() == 0

    def test_noise_suppression_vs_sobel(self):
        """With impulse dropouts, Canny keeps a cleaner map than raw Sobel."""
        rng = SplitMix64(8)
        img = vertical_step(h=32, w=32, at=16, lo=0.3, hi=0.8)
        for _ in range(10):
            img[rng.randint(32), rng.randint(16)] = 0.0  # dead pixels left of step
        want = np.zeros((32, 32))
        want[:, 15:17] = 1.0
        sob = at(sobel(img), 0.3)
        can = canny(img, sigma=1.4, low=0.15, high=0.3)
        sob_fp = np.logical_and(sob == 1, want == 0).sum()
        can_fp = np.logical_and(can == 1, want == 0).sum()
        assert can_fp < sob_fp

    def test_invalid_thresholds(self):
        for low, high in [(0.5, 0.3), (-0.1, 0.2), (0.1, 1.5), (np.nan, 0.2), (0.1, np.nan),
                          ([0.1, 0.05], [0.2, 0.3]),  # lows descend
                          ([0.1, 0.2], [0.4, 0.3]),   # highs descend
                          ([0.1, 0.2], [0.3]),        # unequal lengths
                          ([0.1, 0.6], [0.2, 0.5]),   # the second pair has low > high
                          ([0.0, 0.5], [0.5, 1.01]),  # the last high is above 1
                          ([[0.1]], [[0.2]])]:        # not one axis
            with pytest.raises(ParameterError, match="ascending pairs"):
                canny(np.zeros((8, 8)), 1.0, low, high)
        with pytest.raises(ParameterError):
            canny(np.zeros((8, 8)), -1.0, 0.1, 0.2)


GRID = np.linspace(0.0, 1.0, 51)


def oracle_images():
    """Random, step and flat images for the level-map oracles."""
    rng = SplitMix64(12)
    return [rng.floats(256).reshape(16, 16) for _ in range(2)] + [
        vertical_step(), vertical_step().T, np.full((16, 16), 0.4)]


def canny_grid(img, grid, sigma):
    """Canny's level map over a threshold grid, as the canny row tunes it."""
    return canny(img, sigma, grid * CANNY_LOW_RATIO, grid)


class TestLevelMaps:
    """level > k must equal the detector called at grid threshold k."""

    @pytest.mark.parametrize("gradient", [sobel, roberts])
    def test_magnitude_levels_match_threshold_magnitude(self, gradient):
        for img in oracle_images():
            field = gradient(img)
            levels = magnitude_levels(field, GRID)
            for k, t in enumerate(GRID):
                want = threshold_magnitude(field, t)
                np.testing.assert_array_equal(levels > k, want)
                np.testing.assert_array_equal(at(field, t), want)

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_canny_levels_match_canny(self, sigma):
        for img in oracle_images():
            levels = canny_grid(img, GRID, sigma)
            assert levels.dtype == np.intp and levels.max() <= len(GRID)
            for k, t in enumerate(GRID):
                t = float(t)
                np.testing.assert_array_equal(
                    levels > k, canny(img, sigma, t * CANNY_LOW_RATIO, t) > 0)
                np.testing.assert_array_equal(
                    levels > k, canny_grid(img, np.array([t]), sigma) > 0)

    def test_flat_image_levels(self):
        """A flat image has no edge at any threshold, (0, 0) included; a
        non-flat one is marked everywhere at (0, 0)."""
        flat = np.full((16, 16), 0.4)
        assert not magnitude_levels(sobel(flat), GRID).any()
        assert not canny_grid(flat, GRID, 1.0).any()
        assert not canny(flat, 1.0, 0.0, 0.0).any()
        np.testing.assert_array_equal(canny(vertical_step(), 1.0, 0.0, 0.0), 1)
        assert np.all(canny_grid(vertical_step(), GRID, 1.0) > 0)

    def test_canny_levels_bad_sigma(self):
        with pytest.raises(ParameterError):
            canny_grid(np.zeros((8, 8)), GRID, 0.0)


def thinned_gradient(img, sigma):
    """Canny's threshold-free front end: (NMS-thinned magnitude, peak)."""
    field = sobel(gaussian_filter(img, sigma))
    return _nms(field.magnitude, field.gx, field.gy), field.magnitude.max()


def bfs_hysteresis(nms, low, high):
    """Test oracle: strong pixels (>= high) and the weak pixels (>= low)
    8-connected to one, found by a breadth-first flood fill."""
    strong = nms >= high
    weak = nms >= low
    edges = np.zeros(nms.shape, dtype=bool)
    queue = deque(zip(*np.nonzero(strong)))
    edges[strong] = True
    h, w = nms.shape
    while queue:
        y, x = queue.popleft()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and weak[ny, nx] and not edges[ny, nx]:
                    edges[ny, nx] = True
                    queue.append((ny, nx))
    return edges.astype(np.float64)


def spiral_path(n=15):
    """Cells of a one-pixel-wide square spiral of side n, from the outer
    corner inward, with a blank lane between its turns."""
    lengths = [n - 1] + [m for m in range(n - 1, 0, -2) for _ in (0, 1)]
    path = [(0, 0)]
    for leg, length in enumerate(lengths):
        dy, dx = ((0, 1), (1, 0), (0, -1), (-1, 0))[leg % 4]
        for _ in range(length):
            y, x = path[-1]
            path.append((y + dy, x + dx))
    return path


LOWS, HIGHS = GRID[1:] / 2.0, GRID[1:]  # the pairs the canny row sweeps after (0, 0)


def hostile_maps():
    """Thinned-magnitude maps that are hard on hysteresis, by name."""
    rng = SplitMix64(21)
    maps = {}
    path = spiral_path()
    for name, values in (("spiral", np.full(len(path), 0.3)),
                         ("spiral-random", 0.02 + 0.5 * rng.floats(len(path)))):
        m = np.zeros((15, 15))
        m[tuple(np.array(path).T)] = values
        m[path[-1]] = 1.0  # strong only at the far end
        maps[name] = m
    # cells equal to a low or a high threshold; black squares touch only diagonally
    k = (rng.floats(256) * len(LOWS)).astype(int).reshape(16, 16)
    black = (np.indices((16, 16)).sum(axis=0) % 2).astype(bool)
    maps["checkerboard-ties"] = np.where(black, HIGHS[k], LOWS[k])
    # 4x4 plateaus of one value each, some of them threshold values
    blocks = np.where(rng.floats(16) < 0.5, LOWS[(rng.floats(16) * 50).astype(int)],
                      rng.floats(16)).reshape(4, 4)
    maps["plateaus"] = np.kron(blocks, np.ones((4, 4)))
    # weak everywhere but one corner, which is the only strong pixel
    corner = 0.05 + 0.4 * rng.floats(256).reshape(16, 16)
    corner[rng.floats(256).reshape(16, 16) < 0.2] = 0.0
    corner[-1, -1] = 1.0
    maps["corner"] = corner
    return maps


class TestHysteresisOracle:
    """The union-find sweep against a breadth-first flood fill per pair."""

    @pytest.mark.parametrize("name", sorted(hostile_maps()))
    def test_hostile_maps_at_every_pair(self, name):
        nms = hostile_maps()[name]
        counts = _hysteresis(nms, LOWS, HIGHS)
        for k in range(len(LOWS)):
            np.testing.assert_array_equal((counts > k).astype(np.float64),
                                          bfs_hysteresis(nms, LOWS[k], HIGHS[k]))

    def test_spiral_survives_only_through_its_strong_end(self):
        nms = hostile_maps()["spiral"]
        highs = np.linspace(0.9, 1.0, len(LOWS))  # 0.3 is never strong
        counts = _hysteresis(nms, LOWS, highs)
        # weak 0.3 passes low = t/2 up to t = 0.6: the first 30 pairs;
        # the strong end 1.0 passes all 50
        np.testing.assert_array_equal(counts, np.select([nms == 1.0, nms > 0], [50, 30]))
        nms[nms == 1.0] = 0.3
        assert not _hysteresis(nms, LOWS, highs).any()

    def test_equal_low_and_high(self):
        nms = hostile_maps()["checkerboard-ties"]
        counts = _hysteresis(nms, HIGHS, HIGHS)
        for k, t in enumerate(HIGHS):
            np.testing.assert_array_equal((counts > k).astype(np.float64),
                                          bfs_hysteresis(nms, t, t))

    def test_no_pairs(self, monkeypatch):
        """No pair marks nothing; a lone (0, 0) pair marks every pixel and
        leaves the sweep no pair."""
        nms = hostile_maps()["corner"]
        assert not _hysteresis(nms, [], []).any()
        assert not canny(nms, 1.0, [], []).any()
        swept = []
        monkeypatch.setattr(classical, "_hysteresis",
                            lambda m, lows, highs: swept.append(len(lows)) or np.zeros(m.shape))
        np.testing.assert_array_equal(canny_grid(nms, GRID[:1], 1.0), 1)
        canny_grid(nms, GRID, 1.0)
        assert swept == [0, len(GRID) - 1]

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_canny_levels_match_oracle(self, sigma):
        for img in oracle_images() + list(hostile_maps().values()):
            levels = canny_grid(img, GRID, sigma)
            thinned, peak = thinned_gradient(img, sigma)
            for k, t in enumerate(GRID):
                want = (bfs_hysteresis(thinned, (t / 2.0) * peak, t * peak)
                        if peak >= 1e-12 else np.zeros(img.shape))
                np.testing.assert_array_equal((levels > k).astype(np.float64), want)

    def test_canny_matches_oracle_at_arbitrary_pairs(self):
        rng = SplitMix64(22)
        pairs = [(0.0, 0.01), (0.3, 0.31), (0.05, 1.0), (0.49, 0.5)] + [
            tuple(sorted(rng.floats(2))) for _ in range(6)]
        for img in oracle_images() + list(hostile_maps().values()):
            for sigma in (1.0, 1.7):
                thinned, peak = thinned_gradient(img, sigma)
                for low, high in pairs:
                    want = (bfs_hysteresis(thinned, low * peak, high * peak)
                            if peak >= 1e-12 else np.zeros(img.shape))
                    np.testing.assert_array_equal(canny(img, sigma, low, high), want)


LEVELS = np.arange(5) / 4.0  # the values fuzzed maps and pairs draw from, so that many tie


def fuzz_map(rng, kind):
    """A small thinned-magnitude map: values from LEVELS or from [0, 1),
    about a third of them zero; 2x2 blocks at mixed levels that touch at
    sides or corners; or values all below 0.3."""
    h, w = 1 + rng.randint(8), 1 + rng.randint(8)
    if kind == "below":
        return 0.29 * rng.floats(h * w).reshape(h, w)
    if kind == "blocks":
        m = np.zeros((h + 1, w + 1))
        for _ in range(1 + rng.randint(4)):
            y, x = rng.randint(h), rng.randint(w)
            m[y:y + 2, x:x + 2] = LEVELS[1 + (rng.floats(4) * 4).astype(int)].reshape(2, 2)
        m[rng.floats(m.size).reshape(m.shape) < 0.2] = 0.0  # leaves some diagonal pairs
        return m
    m = (rng.floats(h * w) if kind == "continuous"
         else LEVELS[(rng.floats(h * w) * 5).astype(int)]).reshape(h, w)
    m[rng.floats(h * w).reshape(h, w) < 0.3] = 0.0
    return m


def fuzz_pairs(rng, kind):
    """1-5 ascending pairs with lows[k] <= highs[k], from LEVELS, the first
    low 0 for "low-zero" (every pixel is weak there); lows all at or above
    0.3 for "above"; none at all for "none"."""
    n = 0 if kind == "none" else 1 + rng.randint(5)
    lows = (np.sort(0.3 + 0.7 * rng.floats(n)) if kind == "above"
            else np.sort(LEVELS[(rng.floats(n) * 5).astype(int)]))
    if kind == "low-zero":
        lows[0] = 0.0
    highs = np.maximum.accumulate(np.maximum(lows, LEVELS[(rng.floats(n) * 5).astype(int)]))
    return lows, highs


class TestHysteresisFuzz:
    """The sweep against the flood fill at every pair, on 100 seeded small
    maps per case. Values tie with each other and with the thresholds. In
    the blocks, a diagonal link is implied by a 4-neighbour its two ends
    share at some pairs and not at others."""

    CASES = [("levels", "levels"), ("continuous", "levels"), ("blocks", "levels"),
             ("levels", "low-zero"), ("blocks", "low-zero"), ("levels", "none"),
             ("below", "above")]

    @pytest.mark.parametrize("maps, pairs", CASES, ids=[f"{m}-{p}" for m, p in CASES])
    def test_matches_flood_fill_at_every_pair(self, maps, pairs):
        rng = SplitMix64(sum(map(ord, maps + pairs)))
        for trial in range(100):
            nms = fuzz_map(rng, maps)
            lows, highs = fuzz_pairs(rng, pairs)
            counts = _hysteresis(nms, lows, highs)
            assert counts.shape == nms.shape and counts.dtype == np.intp
            assert counts.min() >= 0 and counts.max() <= len(lows)
            if maps == "below":  # no pixel is weak at any pair
                assert not counts.any()
            for k in range(len(lows)):
                np.testing.assert_array_equal((counts > k).astype(np.float64),
                                              bfs_hysteresis(nms, lows[k], highs[k]),
                                              err_msg=f"trial {trial}, pair {k}")


def modulo_nms(mag, gx, gy):
    """_nms with the angle folded by % 180.0 and the survivors gathered
    through one boolean mask per direction."""
    h, w = mag.shape
    padded = np.pad(mag, 1, mode="constant")
    angle = np.degrees(np.arctan2(gy, gx)) % 180.0
    offsets = {0: (0, 1), 45: (1, 1), 90: (1, 0), 135: (1, -1)}
    bins = np.full((h, w), 0)
    bins[(angle >= 22.5) & (angle < 67.5)] = 45
    bins[(angle >= 67.5) & (angle < 112.5)] = 90
    bins[(angle >= 112.5) & (angle < 157.5)] = 135
    out = np.zeros_like(mag)
    for direction, (dy, dx) in offsets.items():
        sel = bins == direction
        fwd = padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        bwd = padded[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
        keep = sel & (mag >= fwd) & (mag >= bwd)
        out[keep] = mag[keep]
    return out


class TestNmsMatchesModuloOracle:
    """_nms bins the angle with searchsorted, where a negative angle d
    folds to d + 180.0, and keeps survivors with one np.where: the thinned
    map is the modulo version's, bit for bit."""

    @staticmethod
    def assert_same(mag, gx, gy):
        assert _nms(mag, gx, gy).tobytes() == modulo_nms(mag, gx, gy).tobytes()

    def test_exact_bin_angles_and_signed_zeros(self):
        """Gradients at exactly 0/45/90/135/180 degrees and their negatives,
        with -0.0 and +0.0 components: -180, +180, -0.0 and +0.0 degrees
        all fall in the 0-degree bin."""
        comps = [-1.0, -0.0, 0.0, 1.0]
        pairs = [(y, x) for y in comps for x in comps]
        gy = np.array([[y for y, _ in pairs]] * len(pairs))
        gx = np.array([[x for _, x in pairs]] * len(pairs))
        rng = SplitMix64(31)
        for _ in range(10):
            mag = rng.floats(gx.size).reshape(gx.shape)
            self.assert_same(mag, gx, gy)
            self.assert_same(mag, gx.T, gy.T)
        d = np.degrees(np.arctan2(gy[0], gx[0]))
        assert {-180.0, 180.0, 0.0} <= set(d.tolist())
        assert np.signbit(d).any() and np.signbit(d[d == 0.0]).any()

    def test_bin_edges(self):
        """Angles on and next to 22.5/67.5/112.5/157.5 degrees, both signs."""
        edges = np.array([22.5, 67.5, 112.5, 157.5])
        deg = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 180),
                              -edges, -np.nextafter(edges, 0), [179.999, -179.999, 1e-300]])
        rad = np.radians(deg)
        gx, gy = np.tile(np.cos(rad), (8, 1)), np.tile(np.sin(rad), (8, 1))
        mag = SplitMix64(32).floats(gx.size).reshape(gx.shape)
        self.assert_same(mag, gx, gy)

    def test_plateaus(self):
        """Magnitudes from three levels, so most neighbours tie."""
        rng = SplitMix64(33)
        for _ in range(20):
            mag = (rng.floats(24 * 24) * 3).astype(int).reshape(24, 24) / 2.0
            gx, gy = rng.normals(mag.size).reshape(mag.shape), rng.normals(mag.size).reshape(mag.shape)
            gx[mag == 0.5] = 0.0
            self.assert_same(mag, gx, gy)

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_canny_front_end(self, sigma):
        for img in oracle_images() + list(hostile_maps().values()):
            field = sobel(gaussian_filter(img, sigma))
            self.assert_same(field.magnitude, field.gx, field.gy)
