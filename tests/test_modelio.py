"""Binary model checkpoint format: round trips and corruption handling."""

import os
import resource
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import lidar_edge
from lidar_edge import cli, modelio, models
from lidar_edge.errors import (CorruptModelError, DimensionError, MagicError,
                               ModelLoadError, TruncationError, VersionError)
from lidar_edge.formats import write_pgm
from lidar_edge.modelio import load_model, save_model
from lidar_edge.models import (NestedArch, NestedNetParams, PatchArch,
                               PatchNetParams, forward_nested, forward_patch,
                               init_nested, init_patch, tensor_shapes)
from lidar_edge.rng import SplitMix64
from test_models import layer_arrays


def nested_params(seed=0):
    params = init_nested(NestedArch(stages=2, widths=(2, 3), input_hw=(8, 8)), seed)
    rng = SplitMix64(seed + 100)
    for name, t in params.named_tensors():
        if name != "alpha":
            t[...] = rng.floats(t.size).reshape(t.shape) - 0.5
    return params


class TestRoundTrip:
    def test_nested_bit_exact(self, tmp_path):
        params = nested_params(1)
        p = tmp_path / "m.ledm"
        save_model(params, p)
        back = load_model(p)
        assert back.arch == params.arch
        for (na, ta), (nb, tb) in zip(params.named_tensors(), back.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta, tb)

    def test_nested_predictions_identical(self, tmp_path):
        params = nested_params(2)
        p = tmp_path / "m.ledm"
        save_model(params, p)
        back = load_model(p)
        x = SplitMix64(3).floats(64).reshape(8, 8)
        np.testing.assert_array_equal(forward_nested(params, x).fused,
                                      forward_nested(back, x).fused)

    def test_patch_bit_exact(self, tmp_path):
        params = init_patch(PatchArch(conv_channels=(2, 3), hidden=5,
                                      dropout_rate=0.25), 4)
        p = tmp_path / "m.ledm"
        save_model(params, p)
        back = load_model(p)
        assert back.arch == params.arch
        for (na, ta), (nb, tb) in zip(params.named_tensors(), back.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta, tb)
        x = SplitMix64(5).floats(784).reshape(1, 1, 28, 28)
        assert forward_patch(params, x).prob == forward_patch(back, x).prob

    def test_save_is_deterministic(self, tmp_path):
        params = nested_params(6)
        a, b = tmp_path / "a.ledm", tmp_path / "b.ledm"
        save_model(params, a)
        save_model(params, b)
        assert a.read_bytes() == b.read_bytes()


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


class TestBuiltFromTensors:
    @pytest.mark.parametrize("kind", ["nested", "patch"])
    def test_fixture_round_trips_without_init(self, kind, tmp_path, monkeypatch):
        """load_model builds the params on the tensors it reads, with no
        random init to overwrite."""
        def refuse(*args, **kwargs):
            raise AssertionError("load_model drew a random init")
        for module in (models, modelio):
            for name in ("init_nested", "init_patch"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        fixture = FIXTURES / f"{kind}.ledm"
        params = load_model(fixture)
        save_model(params, tmp_path / "back.ledm")
        assert (tmp_path / "back.ledm").read_bytes() == fixture.read_bytes()

    @pytest.mark.parametrize("cls, params", [
        (NestedNetParams, nested_params(3)),
        (PatchNetParams, init_patch(PatchArch(conv_channels=(2, 3), hidden=5), 3)),
    ], ids=["nested", "patch"])
    def test_constructor_inverts_named_tensors(self, cls, params):
        tensors = [t for _, t in params.named_tensors()]
        built = cls(params.arch, tensors)
        assert built.arch == params.arch
        assert [n for n, _ in built.named_tensors()] == [n for n, _ in params.named_tensors()]
        # the values are copied once into built.flat: every tensor equals
        # the one given, and every tensor and layer (the patch net's fc
        # kernels too) is a view of built.flat
        for (_, got), given in zip(built.named_tensors(), tensors, strict=True):
            assert got.tobytes() == given.tobytes()
            assert np.shares_memory(got, built.flat) and not np.shares_memory(got, given)
        assert all(np.shares_memory(a, built.flat) for a in layer_arrays(built))
        with pytest.raises(DimensionError):
            cls(params.arch, tensors[:-1])
        # the right count with one wrong shape is refused too: alpha one
        # short of the stages, or fc1's flat weights transposed
        wrong = list(tensors)
        if cls is NestedNetParams:
            wrong[-1] = np.full(params.arch.stages - 1, 0.5)
        else:
            wrong[4] = tensors[4].T
        with pytest.raises(DimensionError, match="do not match"):
            cls(params.arch, wrong)


class TestHeader:
    def test_layout(self, tmp_path):
        p = tmp_path / "m.ledm"
        save_model(nested_params(), p)
        raw = p.read_bytes()
        assert raw[:4] == b"LEDM"
        version, kind = struct.unpack_from("<II", raw, 4)
        assert version == 1 and kind == 1

    def test_patch_kind_tag(self, tmp_path):
        p = tmp_path / "m.ledm"
        save_model(init_patch(PatchArch(), 0), p)
        assert struct.unpack_from("<II", p.read_bytes(), 4) == (1, 2)


class TestCorruption:
    def _saved(self, tmp_path):
        p = tmp_path / "m.ledm"
        save_model(nested_params(), p)
        return p, bytearray(p.read_bytes())

    def test_wrong_magic(self, tmp_path):
        p, raw = self._saved(tmp_path)
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(MagicError):
            load_model(p)

    def test_unsupported_version(self, tmp_path):
        p, raw = self._saved(tmp_path)
        raw[4:8] = struct.pack("<I", 99)
        # keep the checksum consistent so the version check is what fires
        import zlib
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])) & 0xFFFFFFFF)
        p.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            load_model(p)

    def test_truncated_file(self, tmp_path):
        p, raw = self._saved(tmp_path)
        p.write_bytes(bytes(raw[: len(raw) // 2]))
        with pytest.raises(ModelLoadError):
            load_model(p)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        p, raw = self._saved(tmp_path)
        raw[40] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(CorruptModelError):
            load_model(p)

    def test_flipped_trailer_byte_fails_checksum(self, tmp_path):
        p, raw = self._saved(tmp_path)
        raw[-1] ^= 0x01
        p.write_bytes(bytes(raw))
        with pytest.raises(CorruptModelError):
            load_model(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.ledm"
        p.write_bytes(b"")
        with pytest.raises(ModelLoadError):
            load_model(p)

    def test_all_errors_are_model_load_errors(self):
        for exc in (MagicError, VersionError, TruncationError, CorruptModelError):
            assert issubclass(exc, ModelLoadError)


def _crafted(kind: int, descriptor: bytes) -> bytes:
    """An LEDM file with a valid CRC whose descriptor declares absurd widths
    and whose payload holds no tensors at all."""
    payload = b"LEDM" + struct.pack("<II", 1, kind) + descriptor
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


HOSTILE = {
    # one stage 200000 channels wide: 2.6 TiB of conv weights
    "nested": (_crafted(1, struct.pack("<IIII", 1, 200_000, 64, 64)), "cnn"),
    # a 4e9-unit hidden layer: 4 TiB of dense weights
    "patch": (_crafted(2, struct.pack("<IIIIII", 3, 4, 8, 4_000_000_000, 28, 28)
                       + struct.pack("<d", 0.5)), "patchcnn"),
}


class TestHostileDescriptor:
    @pytest.mark.parametrize("variant", ["nested", "patch"])
    def test_tensor_shapes_match_init(self, variant):
        if variant == "nested":
            params = init_nested(NestedArch(stages=3, widths=(2, 3, 4), input_hw=(8, 8)), 0)
        else:
            params = init_patch(PatchArch(conv_channels=(2, 3), hidden=5), 0)
        assert tensor_shapes(params.arch) == [(n, t.shape) for n, t in params.named_tensors()]

    @pytest.mark.parametrize("variant", sorted(HOSTILE))
    def test_rejected_before_allocating(self, variant, tmp_path):
        """The CLI exits 4 with one error line. It runs in a child process
        whose address space is capped at 1 GiB, so an attempt to allocate
        what the descriptor declares fails there and never reaches the host."""
        raw, algorithm = HOSTILE[variant]
        (tmp_path / "model.ledm").write_bytes(raw)
        write_pgm(tmp_path / "in.pgm", np.zeros((64, 64)))
        limit = 1 << 30
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(lidar_edge.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "lidar_edge.cli", "detect", "--algorithm", algorithm,
             "--out", str(tmp_path), str(tmp_path / "in.pgm"), str(tmp_path / "out.pgm")],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert done.returncode == 4, done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "needs" in done.stderr


INVALID = {
    # a CRC-valid nested descriptor with no stages at all
    "zero-stages": (_crafted(1, struct.pack("<III", 0, 64, 64)), "cnn"),
    # a CRC-valid nested descriptor whose one stage has no channels
    "zero-width": (_crafted(1, struct.pack("<IIII", 1, 0, 64, 64)), "cnn"),
    # a CRC-valid patch descriptor whose dropout rate is NaN
    "nan-dropout": (_crafted(2, struct.pack("<IIIIII", 3, 4, 8, 32, 28, 28)
                             + struct.pack("<d", float("nan"))), "patchcnn"),
    # a CRC-valid patch descriptor whose input is not 28x28
    "patch-input": (_crafted(2, struct.pack("<IIIIII", 3, 4, 8, 32, 32, 32)
                             + struct.pack("<d", 0.5)), "patchcnn"),
}


class TestInvalidDescriptor:
    """A descriptor that fails architecture validation is a corrupt file."""

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_load_raises_corrupt_model_naming_the_file(self, case, tmp_path):
        p = tmp_path / "m.ledm"
        p.write_bytes(INVALID[case][0])
        with pytest.raises(CorruptModelError, match="m.ledm: invalid descriptor"):
            load_model(p)

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_detect_exits_4(self, case, tmp_path, capsys):
        raw, algorithm = INVALID[case]
        (tmp_path / "model.ledm").write_bytes(raw)
        write_pgm(tmp_path / "in.pgm", np.zeros((64, 64)))
        code = cli.main(["detect", "--algorithm", algorithm, "--out", str(tmp_path),
                         str(tmp_path / "in.pgm"), str(tmp_path / "out.pgm")])
        assert code == cli.EXIT_MISSING
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "model.ledm") in err
