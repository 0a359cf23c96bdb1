"""PGM / range-raster / manifest round trips and error paths."""

import builtins
import errno
import json
import os
import struct

import numpy as np
import pytest

from lidar_edge import formats
from lidar_edge.errors import ParameterError
from lidar_edge.formats import (DatasetManifest, ManifestEntry, read_lri,
                                read_manifest, read_pgm, write_atomic, write_lri,
                                write_manifest, write_pgm)
from lidar_edge.modelio import load_model, save_model
from lidar_edge.models import NestedArch, init_nested
from lidar_edge.rng import SplitMix64


class TornWrite:
    """A file whose write stores half the data, then fails as a full disk does."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def tear_writes_to(monkeypatch, name):
    """Make every write to a file whose name contains name fail midway."""
    def torn_open(file, mode="r", *args, **kwargs):
        f = builtins.open(file, mode, *args, **kwargs)
        return TornWrite(f) if name in os.path.basename(file) and "w" in mode else f
    monkeypatch.setattr(formats, "open", torn_open, raising=False)


class TestPGM:
    def test_round_trip_quantized(self, tmp_path):
        img = SplitMix64(1).floats(48).reshape(6, 8)
        p = tmp_path / "a.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        np.testing.assert_allclose(back, np.round(img * 255) / 255, atol=1e-12)

    def test_round_trip_exact_for_quantized_values(self, tmp_path):
        img = np.arange(256, dtype=float).reshape(16, 16) / 255.0
        p = tmp_path / "b.pgm"
        write_pgm(p, img)
        np.testing.assert_array_equal(read_pgm(p), img)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "c.pgm"
        write_pgm(p, np.zeros((2, 3)))
        data = p.read_bytes()
        assert data.startswith(b"P5")
        head = data[: len(data) - 6].split()
        assert head[0] == b"P5"
        assert (int(head[1]), int(head[2])) == (3, 2)  # width then height
        assert int(head[3]) == 255
        assert len(data[len(data) - 6:]) == 6  # one byte per pixel

    def test_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = read_pgm(p)
        np.testing.assert_allclose(img, np.array([[0, 255], [128, 64]]) / 255.0)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "e.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ParameterError):
            read_pgm(p)

    @pytest.mark.parametrize("header", [b"P5\nabc 4\n255\n", b"P5\n4 4\n2x5\n",
                                        b"P5\n-4 -4\n255\n", b"P5\n4 0\n255\n",
                                        b"P5\n" + b"9" * 5000 + b" 4\n255\n"])
    def test_malformed_header_values(self, tmp_path, header):
        p = tmp_path / "g.pgm"
        p.write_bytes(header + bytes(16))
        with pytest.raises(ParameterError):
            read_pgm(p)

    def test_truncated_pixels(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(ParameterError):
            read_pgm(p)

    def test_pixel_above_maxval_refused(self, tmp_path):
        """An image in [0, 1] or an error naming the file, never 200/100."""
        p = tmp_path / "h.pgm"
        p.write_bytes(b"P5 4 4 100\n" + bytes([200] * 16))
        with pytest.raises(ParameterError) as exc:
            read_pgm(p)
        assert str(exc.value) == f"{p}: PGM pixel value 200 exceeds maxval 100"
        p.write_bytes(b"P5 4 4 100\n" + bytes([100] * 16))
        np.testing.assert_array_equal(read_pgm(p), np.ones((4, 4)))

    def test_out_of_range_values_clipped(self, tmp_path):
        p = tmp_path / "g.pgm"
        write_pgm(p, np.array([[1.5, -0.25]]))
        np.testing.assert_array_equal(read_pgm(p), [[1.0, 0.0]])


class TestRangeRaster:
    def test_round_trip_bit_exact_f32(self, tmp_path):
        ranges = (SplitMix64(2).floats(64).reshape(8, 8) * 90).astype(np.float32)
        p = tmp_path / "a.lri"
        write_lri(p, ranges.astype(float), 100.0)
        back, max_range = read_lri(p)
        assert max_range == np.float32(100.0)
        np.testing.assert_array_equal(back, ranges.astype(float))

    def test_layout(self, tmp_path):
        p = tmp_path / "b.lri"
        write_lri(p, np.array([[1.0, 2.0]]), 50.0)
        data = p.read_bytes()
        assert data[:4] == b"LRI1"
        h, w = np.frombuffer(data[4:12], "<u4")
        assert (h, w) == (1, 2)
        assert np.frombuffer(data[12:16], "<f4")[0] == 50.0
        np.testing.assert_array_equal(np.frombuffer(data[16:], "<f4"), [1.0, 2.0])
        assert len(data) == 16 + 8

    @pytest.mark.parametrize("max_range", [-5.0, 0.0, float("inf"), float("nan")])
    def test_max_range_must_be_finite_and_positive(self, tmp_path, max_range):
        p = tmp_path / "m.lri"
        write_lri(p, np.ones((2, 2)), max_range)
        with pytest.raises(ParameterError, match="m.lri: LRI1 max_range"):
            read_lri(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.lri"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ParameterError):
            read_lri(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "d.lri"
        write_lri(p, np.ones((4, 4)), 10.0)
        data = p.read_bytes()
        p.write_bytes(data[:-3])
        with pytest.raises(ParameterError):
            read_lri(p)

    @pytest.mark.parametrize("extra", [b"\x00", b"junk" * 5], ids=["one-byte", "twenty-bytes"])
    def test_trailing_bytes_refused(self, tmp_path, extra):
        p = tmp_path / "t.lri"
        write_lri(p, np.ones((4, 4)), 10.0)
        p.write_bytes(p.read_bytes() + extra)
        with pytest.raises(ParameterError, match="t.lri: LRI1 payload of"):
            read_lri(p)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0, 10.5],
                             ids=["nan", "inf", "minus-inf", "negative", "above-max-range"])
    def test_range_outside_zero_to_max_range_refused(self, tmp_path, bad):
        ranges = np.ones((4, 4), dtype="<f4")
        ranges[2, 3] = bad
        p = tmp_path / "r.lri"
        p.write_bytes(b"LRI1" + struct.pack("<IIf", 4, 4, 10.0) + ranges.tobytes())
        with pytest.raises(ParameterError, match=r"r.lri: LRI1 ranges must be finite and in "
                                                 r"\[0, 10\]"):
            read_lri(p)

    def test_ranges_at_both_ends_are_taken(self, tmp_path):
        p = tmp_path / "e.lri"
        write_lri(p, np.array([[0.0, 10.0]]), 10.0)
        back, _ = read_lri(p)
        np.testing.assert_array_equal(back, [[0.0, 10.0]])


def _manifest():
    entries = [
        ManifestEntry(id=f"{i:05d}", range=f"{i:05d}.lri",
                      intensity=f"{i:05d}.pgm",
                      label=f"{i:05d}_label.pgm",
                      split="train" if i < 3 else "val")
        for i in range(5)
    ]
    return DatasetManifest(entries=entries)


class TestManifest:
    def test_round_trip(self, tmp_path):
        man = _manifest()
        p = tmp_path / "manifest.jsonl"
        write_manifest(p, man)
        back = read_manifest(p)
        assert back.entries == man.entries

    def test_one_json_object_per_line(self, tmp_path):
        p = tmp_path / "manifest.jsonl"
        write_manifest(p, _manifest())
        lines = p.read_text().strip().split("\n")
        assert len(lines) == 5
        for line in lines:
            doc = json.loads(line)
            assert set(doc) == {"id", "range", "intensity", "label", "split"}

    def test_counts(self):
        counts = _manifest().counts()
        assert counts == {"train": 3, "val": 2}

    def test_duplicate_path_rejected(self, tmp_path):
        man = _manifest()
        man.entries[1] = ManifestEntry(
            id="dup", range=man.entries[0].range,
            intensity="x.pgm", label="y.pgm", split="train")
        p = tmp_path / "manifest.jsonl"
        with pytest.raises(ParameterError):
            write_manifest(p, man)

    def test_unknown_split_rejected(self, tmp_path):
        p = tmp_path / "manifest.jsonl"
        p.write_text(json.dumps({"id": "0", "range": "a", "intensity": "b",
                                 "label": "c", "split": "holdout"}) + "\n")
        with pytest.raises(ParameterError):
            read_manifest(p)

    @pytest.mark.parametrize("bad_line", [
        '{"id": "9", "range": "9.lri", "intensity": "9.pgm"}',  # no label
        '{"id": "9", "range": ',                                  # not JSON
        '["9", "9.lri", "9.pgm", "9_label.pgm"]',                 # not an object
        '{"id": "9", "range": "9.lri", "intensity": "9.pgm", "label": 9}',
        '{"id": "9", "range": "9.lri", "intensity": "9.pgm", "label": "\xe9"}',
    ], ids=["no-label", "not-json", "not-object", "not-string", "not-ascii"])
    def test_bad_line_names_its_location(self, tmp_path, bad_line):
        p = tmp_path / "manifest.jsonl"
        write_manifest(p, _manifest())
        with open(p, "ab") as f:
            f.write(bad_line.encode("latin-1") + b"\n")
        with pytest.raises(ParameterError, match=r"manifest\.jsonl:6: "):
            read_manifest(p)


class TestAtomicWrite:
    def test_replaces_the_file(self, tmp_path):
        p = tmp_path / "a.bin"
        p.write_bytes(b"old")
        write_atomic(p, b"new contents")
        assert p.read_bytes() == b"new contents"
        assert os.listdir(tmp_path) == ["a.bin"]

    @pytest.mark.parametrize("old", [b"old contents", None], ids=["over-old", "fresh"])
    def test_write_failing_midway_keeps_the_old_file(self, tmp_path, monkeypatch, old):
        p = tmp_path / "a.bin"
        if old is not None:
            p.write_bytes(old)
        tear_writes_to(monkeypatch, "a.bin")
        with pytest.raises(OSError, match="No space left"):
            write_atomic(p, b"x" * 1000)
        assert os.listdir(tmp_path) == ([] if old is None else ["a.bin"])
        assert old is None or p.read_bytes() == old

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        p = tmp_path / "a.bin"
        p.write_bytes(b"old")

        def failing_replace(src, dst):
            raise OSError(errno.EXDEV, "rename failed")
        monkeypatch.setattr(formats.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            write_atomic(p, b"new")
        assert os.listdir(tmp_path) == ["a.bin"] and p.read_bytes() == b"old"

    def test_checkpoint_and_manifest_are_written_atomically(self, tmp_path, monkeypatch):
        model, manifest = tmp_path / "model.ledm", tmp_path / "manifest.jsonl"
        params = init_nested(NestedArch(widths=(2,), input_hw=(4, 4)), 0)
        save_model(params, model)
        write_manifest(manifest, DatasetManifest(entries=[
            ManifestEntry(id="0", range="0.lri", intensity="0.pgm", label="0_l.pgm")]))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        tear_writes_to(monkeypatch, "")
        params.alpha[...] = 0.5
        with pytest.raises(OSError):
            save_model(params, model)
        with pytest.raises(OSError):
            write_manifest(manifest, DatasetManifest())
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        monkeypatch.undo()
        assert load_model(model).alpha.tolist() == [1.0]
