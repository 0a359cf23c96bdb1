"""Command-line interface: subcommands, artifacts, exit codes."""

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lidar_edge
from lidar_edge import classical, cli, layers, models, training
from lidar_edge.config import MAX_SAMPLES, Config
from lidar_edge.evaluation import metrics, sweep, threshold_grid
from lidar_edge.formats import read_manifest, read_pgm, write_lri, write_manifest, write_pgm
from lidar_edge.modelio import save_model
from test_formats import tear_writes_to

SMALL_CFG = {
    "lidar": {"height": 16, "width": 16},
    "dataset": {"n": 12, "seed": 7},
    "model": {"stages": 2, "widths": [2, 2]},
    "train": {"epochs": 1, "batch_size": 2, "augment_enabled": False},
    "eval": {"n_thresholds": 11},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny dataset + trained model shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cliwork")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_CFG), encoding="utf-8")
    out = root / "run"
    assert cli.main(["gen-data", "--config", str(cfg_path),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["train", "--config", str(cfg_path),
                     "--out", str(out)]) == cli.EXIT_OK
    return root, cfg_path, out


@pytest.fixture()
def pgm_image(tmp_path):
    img = np.zeros((16, 16))
    img[:, 8:] = 0.8
    p = tmp_path / "in.pgm"
    write_pgm(p, img)
    return p


class TestGenData:
    def test_writes_dataset_tree(self, workdir):
        _, _, out = workdir
        dataset = out / "dataset"
        manifest = read_manifest(dataset / "manifest.jsonl")
        assert len(manifest.entries) == 12
        summary = json.loads((dataset / "dataset_summary.json").read_text())
        assert summary["n"] == 12
        assert sum(summary["splits"].values()) == 12
        first = manifest.entries[0]
        for rel in (first.range, first.intensity, first.label):
            assert (dataset / rel).exists()

    def test_n_override(self, workdir, tmp_path):
        root, cfg_path, _ = workdir
        out = tmp_path / "run"
        assert cli.main(["gen-data", "--config", str(cfg_path),
                         "--out", str(out), "--n", "5"]) == cli.EXIT_OK
        manifest = read_manifest(out / "dataset" / "manifest.jsonl")
        assert len(manifest.entries) == 5

    def test_seed_changes_data(self, workdir, tmp_path):
        _, cfg_path, out = workdir
        other = tmp_path / "run2"
        assert cli.main(["gen-data", "--config", str(cfg_path),
                         "--out", str(other), "--seed", "8"]) == cli.EXIT_OK
        a = (out / "dataset" / "sample_0000.pgm").read_bytes()
        b = (other / "dataset" / "sample_0000.pgm").read_bytes()
        assert a != b


    def test_huge_grid_refused_before_allocating(self, tmp_path):
        """Exit 2 naming the key. It runs in a child process whose address
        space is capped at 1 GiB, so rendering a 100000 x 100000 grid fails
        there and never reaches the host."""
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps({"lidar": {"height": 100_000, "width": 100_000}}),
                            encoding="utf-8")
        limit = 1 << 30
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(lidar_edge.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "lidar_edge.cli", "gen-data", "--n", "1",
             "--config", str(cfg_path), "--out", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert done.returncode == cli.EXIT_USAGE, done.stderr
        assert done.stderr.startswith("error: invalid config value for lidar.height: 100000 ")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("doc, key", [
        ({"dataset": {"scene": {"min_range": 1000}}}, "dataset.scene"),
        ({"dataset": {"scene": {"kinds": "disk"}}}, "dataset.scene.kinds"),
        ({"dataset": {"ratios": [0.5, 0.5, 0.5]}}, "dataset.ratios"),
        ({"dataset": {"delta": -1}}, "dataset.delta"),
        ({"dataset": {"delta": 0}}, "dataset.delta"),
    ], ids=["min-range", "kinds-not-a-list", "ratios", "negative-delta", "zero-delta"])
    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_bad_dataset_value_refused_before_writing(self, tmp_path, capsys, doc, key,
                                                      command):
        """Exit 2 naming the key, and no output directory: not after the
        samples are rendered, and not 4 for train's missing dataset."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        argv = [command, "--config", str(bad), "--out", str(out)]
        assert cli.main(argv + (["--n", "5"] if command == "gen-data" else [])) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config value for {key}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("doc, n, key", [
        ({"dataset": {"ratios": [0.0, 0.5, 0.5]}}, 1, "dataset.ratios"),
        ({}, MAX_SAMPLES + 1, "dataset.n"),
    ], ids=["negative-train-count", "n-over-cap"])
    def test_split_refused_before_rendering(self, tmp_path, capsys, doc, n, key):
        """The split rule runs on dataset.n in the config check, so a
        sample count the ratios cannot split, or one over the cap, exits 2
        before a sample is rendered."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(out),
                         "--n", str(n)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config value for {key}: ")
        assert not out.exists()


class TestConfigCheckedOnce:
    @pytest.mark.parametrize("with_file", [False, True], ids=["defaults", "config-file"])
    @pytest.mark.parametrize("command", ["gen-data", "train", "detect", "compare"])
    def test_one_check_per_command(self, tmp_path, monkeypatch, command, with_file):
        """Flag overrides are applied before the one check, with or without
        a config file. train and compare stop at the missing dataset."""
        checks = []
        check = Config.check
        monkeypatch.setattr(Config, "check", lambda cfg: checks.append(cfg) or check(cfg))
        write_pgm(tmp_path / "in.pgm", np.zeros((16, 16)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CFG), encoding="utf-8")
        argv = {"gen-data": ["gen-data", "--n", "2", "--seed", "3"],
                "train": ["train", "--epochs", "1", "--optimizer", "sgd"],
                "detect": ["detect", "--algorithm", "sobel", str(tmp_path / "in.pgm"),
                           str(tmp_path / "out.pgm")],
                "compare": ["compare"]}[command]
        argv += ["--out", str(tmp_path / "run")] + (["--config", str(cfg_path)] if with_file
                                                    else [])
        assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_MISSING)
        assert len(checks) == 1


class TestTrain:
    def test_artifacts_exist(self, workdir):
        _, _, out = workdir
        assert (out / "model.ledm").exists()
        runlog = (out / "runlog.csv").read_text()
        assert runlog.startswith("epoch,train_loss,val_f1,seconds")
        assert len(runlog.strip().split("\n")) == 2  # header + 1 epoch

    def test_missing_dataset(self, workdir, tmp_path):
        _, cfg_path, _ = workdir
        code = cli.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "nowhere")])
        assert code == cli.EXIT_MISSING

    def test_unknown_optimizer_is_usage_error(self, workdir):
        _, cfg_path, out = workdir
        code = cli.main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--optimizer", "lbfgs"])
        assert code == cli.EXIT_USAGE


class TestDetect:
    def test_canny_on_pgm(self, workdir, pgm_image, tmp_path):
        _, cfg_path, _ = workdir
        out = tmp_path / "edges.pgm"
        assert cli.main(["detect", str(pgm_image), str(out),
                         "--config", str(cfg_path),
                         "--algorithm", "canny"]) == cli.EXIT_OK
        edges = read_pgm(out)
        assert edges.shape == (16, 16)
        assert set(np.unique(edges)) <= {0.0, 1.0}
        assert edges.any()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1", "1e300"])
    def test_bad_sigma_is_usage_error(self, pgm_image, tmp_path, sigma):
        """Exit 2 with one error line. It runs in a child process whose
        address space is capped at 1 GiB, so a kernel sized from the sigma
        fails there and never reaches the host."""
        limit = 1 << 30
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(lidar_edge.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "lidar_edge.cli", "detect", "--algorithm", "canny",
             f"--sigma={sigma}", "--out", str(tmp_path), str(pgm_image),
             str(tmp_path / "out.pgm")],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert done.returncode == cli.EXIT_USAGE, done.stderr
        assert done.stderr.startswith("error: sigma must lie in ")
        assert done.stderr.count("\n") == 1

    def test_sobel_and_roberts(self, workdir, pgm_image, tmp_path):
        _, cfg_path, _ = workdir
        for algo in ("sobel", "roberts"):
            out = tmp_path / f"{algo}.pgm"
            assert cli.main(["detect", str(pgm_image), str(out),
                             "--config", str(cfg_path),
                             "--algorithm", algo]) == cli.EXIT_OK
            assert read_pgm(out).any()

    def test_lri_input(self, workdir, tmp_path):
        _, cfg_path, _ = workdir
        ranges = np.full((16, 16), 80.0)
        ranges[:, 8:] = 20.0
        p = tmp_path / "in.lri"
        write_lri(p, ranges, 100.0)
        out = tmp_path / "edges.pgm"
        assert cli.main(["detect", str(p), str(out), "--config", str(cfg_path),
                         "--algorithm", "canny"]) == cli.EXIT_OK
        assert read_pgm(out).any()

    def test_cnn_uses_trained_model(self, workdir, pgm_image, tmp_path):
        _, cfg_path, out_dir = workdir
        out = tmp_path / "cnn.pgm"
        assert cli.main(["detect", str(pgm_image), str(out),
                         "--config", str(cfg_path), "--out", str(out_dir),
                         "--algorithm", "cnn"]) == cli.EXIT_OK
        prob = read_pgm(out.with_suffix(".prob.pgm"))
        assert prob.shape == (16, 16)
        assert out.with_suffix(".side0.pgm").exists()
        assert read_pgm(out).shape == (16, 16)

    def test_unknown_algorithm(self, workdir, pgm_image, tmp_path):
        _, cfg_path, _ = workdir
        code = cli.main(["detect", str(pgm_image), str(tmp_path / "o.pgm"),
                         "--config", str(cfg_path), "--algorithm", "laplacian"])
        assert code == cli.EXIT_USAGE

    def test_missing_input(self, workdir, tmp_path):
        _, cfg_path, _ = workdir
        code = cli.main(["detect", str(tmp_path / "ghost.pgm"),
                         str(tmp_path / "o.pgm"), "--config", str(cfg_path)])
        assert code == cli.EXIT_MISSING

    @pytest.mark.parametrize("header", [b"P5\nabc 4\n255\n", b"P5\n-4 -4\n255\n",
                                        b"P5\n0 4\n255\n"])
    def test_malformed_pgm_header_is_usage_error(self, workdir, tmp_path, header):
        _, cfg_path, _ = workdir
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header + bytes(16))
        code = cli.main(["detect", str(bad), str(tmp_path / "o.pgm"),
                         "--config", str(cfg_path), "--algorithm", "sobel"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("max_range", [-5.0, 0.0, float("inf")])
    def test_bad_lri_max_range_is_usage_error(self, workdir, tmp_path, capsys, max_range):
        _, cfg_path, _ = workdir
        p = tmp_path / "in.lri"
        write_lri(p, np.full((16, 16), 20.0), max_range)
        code = cli.main(["detect", str(p), str(tmp_path / "o.pgm"),
                         "--config", str(cfg_path), "--algorithm", "sobel"])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(p) in err and "max_range" in err
        assert not (tmp_path / "o.pgm").exists()

    def test_pgm_pixel_above_maxval_is_usage_error(self, workdir, tmp_path, capsys):
        _, cfg_path, _ = workdir
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5 4 4 100\n" + bytes([200] * 16))
        code = cli.main(["detect", str(bad), str(tmp_path / "o.pgm"),
                         "--config", str(cfg_path), "--algorithm", "sobel"])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert not (tmp_path / "o.pgm").exists()

    @pytest.mark.parametrize("kind", ["pgm", "lri"])
    def test_input_opened_once(self, workdir, pgm_image, tmp_path, monkeypatch, kind):
        _, cfg_path, _ = workdir
        p = pgm_image
        if kind == "lri":
            p = tmp_path / "in.lri"
            write_lri(p, np.full((16, 16), 20.0), 100.0)
        opened = []
        real_open = open

        def counted(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counted)
        for i in range(3):
            assert cli.main(["detect", str(p), str(tmp_path / "o.pgm"), "--config",
                             str(cfg_path), "--algorithm", "sobel"]) == cli.EXIT_OK
            assert opened.count(str(p)) == i + 1

    def test_model_kind_mismatch(self, workdir, pgm_image, tmp_path):
        _, cfg_path, out_dir = workdir
        code = cli.main(["detect", str(pgm_image), str(tmp_path / "o.pgm"),
                         "--config", str(cfg_path), "--out", str(out_dir),
                         "--algorithm", "patchcnn"])
        assert code == cli.EXIT_USAGE

    def test_patchcnn_is_one_dense_pass(self, workdir, tmp_path, monkeypatch):
        """conv1 once, conv2 per pool-1 offset, fc1 and fc2 per pair of
        pool offsets: 1 + 4 + 16 + 16 convolutions and no per-pixel
        forward_patch for a 64x64 image."""
        _, cfg_path, _ = workdir
        save_model(models.init_patch(models.PatchArch(), 0), tmp_path / "model.ledm")
        img = np.zeros((64, 64))
        img[20:40, 10:50] = 0.7
        write_pgm(tmp_path / "in.pgm", img)
        calls = {"conv_forward": 0, "forward_patch": 0}
        for module in (layers, models, training):
            for name in calls:
                if hasattr(module, name):
                    def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                        calls[_name] += 1
                        return _original(*args, **kwargs)
                    monkeypatch.setattr(module, name, counted)
        out = tmp_path / "edges.pgm"
        assert cli.main(["detect", str(tmp_path / "in.pgm"), str(out),
                         "--config", str(cfg_path), "--out", str(tmp_path),
                         "--algorithm", "patchcnn"]) == cli.EXIT_OK
        assert calls == {"conv_forward": 37, "forward_patch": 0}
        assert read_pgm(out.with_suffix(".prob.pgm")).shape == (64, 64)

    @pytest.mark.parametrize("algorithm", ["cnn", "patchcnn", "sobel", "roberts", "canny"])
    @pytest.mark.parametrize("threshold", ["nan", "-0.5", "1.5"])
    def test_threshold_outside_unit_interval_is_usage_error(
            self, workdir, pgm_image, tmp_path, capsys, monkeypatch, algorithm, threshold):
        """Refused before the config, the image or a model is loaded: a map
        compared with such a threshold is all 0 or all 1."""
        _, cfg_path, out_dir = workdir
        loads = []
        monkeypatch.setattr(cli, "load_model", lambda path: loads.append(path))
        monkeypatch.setattr(cli, "_read_input_image", lambda path: loads.append(path))
        monkeypatch.setattr(cli, "_load_config", lambda args: loads.append(args))
        out = tmp_path / "o.pgm"
        code = cli.main(["detect", str(pgm_image), str(out), "--config", str(cfg_path),
                         "--out", str(out_dir), "--algorithm", algorithm,
                         f"--threshold={threshold}"])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: threshold must lie in [0, 1]") and err.count("\n") == 1
        assert loads == [] and list(tmp_path.iterdir()) == [pgm_image]

    @pytest.mark.parametrize("threshold", ["0", "1"])
    def test_threshold_bounds_accepted(self, workdir, pgm_image, tmp_path, threshold):
        _, cfg_path, out_dir = workdir
        out = tmp_path / "o.pgm"
        assert cli.main(["detect", str(pgm_image), str(out), "--config", str(cfg_path),
                         "--out", str(out_dir), "--algorithm", "cnn",
                         f"--threshold={threshold}"]) == cli.EXIT_OK
        edge = read_pgm(out)
        assert set(np.unique(edge)) <= {0.0, 1.0}
        assert edge.all() or threshold == "1"

    def test_cnn_without_model(self, workdir, pgm_image, tmp_path):
        _, cfg_path, _ = workdir
        code = cli.main(["detect", str(pgm_image), str(tmp_path / "o.pgm"),
                         "--config", str(cfg_path), "--out", str(tmp_path),
                         "--algorithm", "cnn"])
        assert code == cli.EXIT_MISSING


class TestParserReuse:
    """main builds its parser once per process; nothing a call parses
    stays behind for the next, and the command runs as bound at call time."""

    def test_flags_do_not_leak_into_later_calls(self, pgm_image, tmp_path):
        def detect(name, *flags):
            out = tmp_path / name
            assert cli.main(["detect", str(pgm_image), str(out), "--out", str(tmp_path),
                             *flags]) == cli.EXIT_OK
            return out.read_bytes()

        first = detect("first.pgm")
        tuned = detect("tuned.pgm", "--threshold", "0.3", "--sigma", "2.0")
        assert tuned != first
        assert detect("after.pgm") == first

    def test_usage_error_then_valid_call(self, pgm_image, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["detect", str(pgm_image)])
        assert exc.value.code == cli.EXIT_USAGE
        assert "required: output" in capsys.readouterr().err
        assert cli.main(["detect", str(pgm_image), str(tmp_path / "o.pgm"),
                         "--out", str(tmp_path)]) == cli.EXIT_OK

    def test_top_level_parser_built_once(self, pgm_image, tmp_path, monkeypatch):
        built = []

        class Counted(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counted))
        cli.build_parser.cache_clear()
        try:
            for _ in range(4):
                assert cli.main(["detect", str(pgm_image), str(tmp_path / "o.pgm"),
                                 "--out", str(tmp_path), "--algorithm", "roberts"]) == 0
        finally:
            cli.build_parser.cache_clear()
        assert built.count("lidar-edge") == 1

    def test_command_looked_up_at_call_time(self, pgm_image, tmp_path, monkeypatch):
        argv = ["detect", str(pgm_image), str(tmp_path / "o.pgm"), "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_detect", lambda args: seen.append(args.input) or 7)
        assert cli.main(argv) == 7
        assert seen == [str(pgm_image)]


class TestCompare:
    def test_classical_only(self, workdir, capsys):
        _, cfg_path, out = workdir
        assert cli.main(["compare", "--config", str(cfg_path),
                         "--out", str(out),
                         "--detectors", "sobel,roberts"]) == cli.EXIT_OK
        table = capsys.readouterr().out
        assert "Algorithm" in table and "sobel" in table and "roberts" in table
        csv = (out / "comparison.csv").read_text()
        assert csv.startswith("algorithm,accuracy,precision,recall,f1,threshold")
        assert len(csv.strip().split("\n")) == 3

    def test_with_cnn(self, workdir):
        _, cfg_path, out = workdir
        assert cli.main(["compare", "--config", str(cfg_path),
                         "--out", str(out),
                         "--detectors", "cnn,canny"]) == cli.EXIT_OK
        csv = (out / "comparison.csv").read_text()
        assert "cnn," in csv and "canny," in csv

    @pytest.fixture()
    def canny_calls(self, monkeypatch):
        """Counts calls to classical.canny and classical._hysteresis."""
        calls = {"canny": 0, "_hysteresis": 0}
        for name in calls:
            original = getattr(classical, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(classical, name, counted)
        return calls

    def test_tunes_only_requested_detectors(self, workdir, canny_calls):
        _, cfg_path, out = workdir
        assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out),
                         "--detectors", "sobel,roberts"]) == cli.EXIT_OK
        assert canny_calls == {"canny": 0, "_hysteresis": 0}
        # the counters do see Canny when it is asked for
        assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out),
                         "--detectors", "canny"]) == cli.EXIT_OK
        assert canny_calls["canny"] > 0 and canny_calls["_hysteresis"] > 0

    def test_one_hysteresis_per_image_and_sigma(self, workdir, canny_calls):
        _, cfg_path, out = workdir
        splits = read_manifest(out / "dataset" / "manifest.jsonl").counts()
        sigmas = len(cli.DETECTORS["canny"].settings)
        assert sigmas == 4
        assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out),
                         "--detectors", "canny"]) == cli.EXIT_OK
        # tuning: one sweep per (val image, sigma); testing: one per image,
        # both through the one canny
        assert canny_calls["_hysteresis"] == splits["val"] * sigmas + splits["test"]
        assert canny_calls["canny"] == splits["val"] * sigmas + splits["test"]

    def test_rows_follow_table_order(self, workdir):
        _, cfg_path, out = workdir
        assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out),
                         "--detectors", "roberts,canny,sobel,cnn"]) == cli.EXIT_OK
        rows = (out / "comparison.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["cnn", "canny", "sobel", "roberts"]

    def test_canny_tuned_to_threshold_zero_scores(self, workdir, tmp_path):
        """On labels that are all edges, tuning picks Canny t = 0, which
        marks every pixel, and the test split is scored at it."""
        _, cfg_path, out = workdir
        run = tmp_path / "run"
        shutil.copytree(out / "dataset", run / "dataset")
        for entry in read_manifest(run / "dataset" / "manifest.jsonl").entries:
            label = run / "dataset" / entry.label
            write_pgm(label, np.ones(read_pgm(label).shape))
        assert cli.main(["compare", "--config", str(cfg_path), "--out", str(run),
                         "--detectors", "canny"]) == cli.EXIT_OK
        header, row = (run / "comparison.csv").read_text().strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["algorithm"] == "canny"
        assert float(fields["threshold"]) == 0.0 and float(fields["f1"]) == 1.0

    def test_untunable_detector_rejected(self, workdir):
        _, cfg_path, out = workdir
        code = cli.main(["compare", "--config", str(cfg_path), "--out", str(out),
                         "--detectors", "patchcnn"])
        assert code == cli.EXIT_USAGE

    def test_unknown_detector(self, workdir):
        _, cfg_path, out = workdir
        code = cli.main(["compare", "--config", str(cfg_path), "--out", str(out),
                         "--detectors", "cnn,hough"])
        assert code == cli.EXIT_USAGE

    def test_missing_dataset(self, workdir, tmp_path):
        _, cfg_path, _ = workdir
        code = cli.main(["compare", "--config", str(cfg_path),
                         "--out", str(tmp_path / "nowhere")])
        assert code == cli.EXIT_MISSING

    def test_patch_model_refused(self, workdir, tmp_path, capsys):
        """cnn scores the nested model; a patch model at paths.model is
        refused by its kind, as detect refuses it."""
        _, _, out = workdir
        patch = tmp_path / "patch.ledm"
        save_model(models.init_patch(models.PatchArch(), 0), patch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL_CFG, "paths": {"model": str(patch)}}),
                            encoding="utf-8")
        code = cli.main(["compare", "--config", str(cfg_path), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {patch} is not a nested model\n"

    def test_empty_test_split_refused(self, workdir, tmp_path, capsys, monkeypatch):
        """A dataset with no test samples exits 2 before any tuning."""
        _, cfg_path, out = workdir
        run = tmp_path / "run"
        shutil.copytree(out / "dataset", run / "dataset")
        manifest = read_manifest(run / "dataset" / "manifest.jsonl")
        for entry in manifest.entries:
            entry.split = "train" if entry.split == "test" else entry.split
        write_manifest(run / "dataset" / "manifest.jsonl", manifest)
        tuned = []
        monkeypatch.setattr(cli, "_tuned_detectors", lambda *a, **k: tuned.append(a) or [])
        code = cli.main(["compare", "--config", str(cfg_path), "--out", str(run),
                         "--detectors", "sobel"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: no samples to evaluate\n"
        assert tuned == [] and not (run / "comparison.csv").exists()


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
FIXTURE_MODEL = FIXTURES / "nested.ledm"


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The default dataset, with the stored nested checkpoint as its model."""
    out = tmp_path_factory.mktemp("golden")
    assert cli.main(["gen-data", "--out", str(out)]) == cli.EXIT_OK
    shutil.copyfile(FIXTURE_MODEL, out / "model.ledm")
    return out


class TestGoldenCompare:
    """compare on the default dataset with the stored nested checkpoint."""

    def test_default_csv_is_pinned(self, default_run):
        assert cli.main(["compare", "--out", str(default_run)]) == cli.EXIT_OK
        csv = (default_run / "comparison.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == (
            "47ad43b5d3658afaaa8b189601914bef5724708f24499541c50e81159f172947"), csv

    def test_tolerance_one_tunes_at_tolerance_one(self, default_run, tmp_path):
        """Tuned at the tolerance it is scored at, Canny takes sigma 2.0
        and t 0.48; the other rows tune to the thresholds of tolerance 0."""
        cfg_path = tmp_path / "tol1.json"
        cfg_path.write_text(json.dumps({"eval": {"tolerance": 1}}), encoding="utf-8")
        assert cli.main(["compare", "--config", str(cfg_path),
                         "--out", str(default_run)]) == cli.EXIT_OK
        assert (default_run / "comparison.csv").read_text().splitlines() == [
            "algorithm,accuracy,precision,recall,f1,threshold",
            "cnn,0.9853,0.8275,0.6182,0.7077,0.9200",
            "canny,0.9894,0.8865,0.7253,0.7979,0.4800",
            "sobel,0.9724,0.5278,0.4146,0.4644,0.6400",
            "roberts,0.9302,0.2920,0.9964,0.4517,0.0200",
        ]


class TestTestSplitIsTheSweep:
    """compare scores the test split through each tuned row's level
    function at the one-point grid [t]: the counts there are those of the
    full grid's sweep at the index of t, on the same images."""

    def test_counts_at_t_match_the_grid_sweep(self, default_run):
        cfg = Config.load(None, {"paths.out_dir": str(default_run)})
        val, test = cli._load_splits(cfg, "val", "test")
        params = cli._load_params(cfg, "nested")
        grid = threshold_grid(cfg.section("eval")["n_thresholds"])
        tuned = cli._tuned_detectors(cfg, val, params)
        reports = cli.scored_detectors(cfg, val, test, params)
        assert [name for name, _, _ in tuned] == list(cli.TUNABLE)
        for (name, t, setting), report in zip(tuned, reports):
            levels = cli.DETECTORS[name].levels
            full = sweep(((levels(params, img, grid, **setting), truth) for img, truth in test),
                         len(grid))
            [k] = np.flatnonzero(grid == t)
            assert report == metrics(full[k], name=name, threshold=t)
            for j in sorted({0, k, len(grid) - 1}):
                at_j = ((levels(params, img, grid[j:j + 1], **setting), truth)
                        for img, truth in test)
                assert sweep(at_j, 1) == [full[j]], (name, j)


class TestGoldenDetect:
    """detect on the default dataset's first test image, each algorithm at
    its default flags, with the stored checkpoints: every output file is
    pinned by its SHA-256."""

    DIGESTS = {
        "canny.pgm": "6ee3c849f379c74a0b69bd740307d9451b48d7f71eb6cae72d5ffe10b9cf78b9",
        "sobel.pgm": "af008b53714f3ac683e42af63e7e9ff3e08872dc6ccad6226d82c3c134ce5b88",
        "roberts.pgm": "a366e366202730818246dd10eff03419c83370831f0f27eb3978e96f1e75ff51",
        "cnn.pgm": "f004fb80b174a9a429f481fb00c71704e7b6b22078089a9f627eff7f7e1c9b47",
        "cnn.prob.pgm": "756be19bca0194ddbdbe58063487d27d79811c6f0385c24a017accf345ce3465",
        "cnn.side0.pgm": "b4225f0fe51dc86b64903e955791ad3ba6228b4dd00cf3881e73a30f7e4aea21",
        "cnn.side1.pgm": "987563f8068cd4aa0d5bf9261b1d202cc6c188fef83a4397dffee3945f0d2b0f",
        "cnn.side2.pgm": "8204be9a87996033b3f893867d24d4e05100a76f7814c5f2797f3dbd313a77e6",
        "patchcnn.pgm": "268b9f5857f55626bf5ab6c438b6eec96e220b61670bb7b2842efc577d609038",
        "patchcnn.prob.pgm": "b19951e0aa8b58e8e2f94b7a8bb6440b7f9f1dabf2de43d2e7aacd9c0ffa3abb",
    }

    def test_outputs_are_pinned(self, default_run, tmp_path):
        entries = read_manifest(default_run / "dataset" / "manifest.jsonl").entries
        first_test = next(e for e in entries if e.split == "test")
        assert first_test.intensity == "sample_0001.pgm"
        image = default_run / "dataset" / first_test.intensity
        patch_run = tmp_path / "patch"
        patch_run.mkdir()
        shutil.copyfile(FIXTURES / "patch.ledm", patch_run / "model.ledm")
        model_dir = {"cnn": default_run, "patchcnn": patch_run}
        for alg in ("canny", "sobel", "roberts", "cnn", "patchcnn"):
            argv = ["detect", str(image), str(tmp_path / f"{alg}.pgm"), "--algorithm", alg]
            if alg in model_dir:
                argv += ["--out", str(model_dir[alg])]
            assert cli.main(argv) == cli.EXIT_OK
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.glob("*.pgm")}
        assert digests == self.DIGESTS


class TestAtomicArtifacts:
    """A command whose artifact write fails midway exits 3 and leaves the
    artifact of the run before it intact, and no temporary file."""

    @pytest.mark.parametrize("argv, artifact", [
        (["gen-data"], "dataset/manifest.jsonl"),
        (["train"], "model.ledm"),
        (["train"], "runlog.csv"),
        (["compare", "--detectors", "sobel"], "comparison.csv"),
        (["gen-data"], "dataset/dataset_summary.json"),
    ], ids=["manifest", "model", "runlog", "comparison", "summary"])
    def test_failed_write_keeps_previous_artifact(self, workdir, tmp_path, monkeypatch,
                                                  argv, artifact):
        _, cfg_path, out = workdir
        run = tmp_path / "run"
        shutil.copytree(out, run)
        if not (run / artifact).exists():
            assert cli.main([*argv, "--config", str(cfg_path), "--out", str(run)]) == 0
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        tear_writes_to(monkeypatch, Path(artifact).name)
        code = cli.main([*argv, "--config", str(cfg_path), "--out", str(run)])
        assert code == cli.EXIT_IO
        after = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert after[run / artifact] == before[run / artifact]
        assert set(after) == set(before)


class TestGradcheck:
    def test_passes_and_reports(self, capsys):
        assert cli.main(["gradcheck", "--tolerance", "1e-4"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "gradcheck PASSED" in out
        assert "nested" in out and "patch" in out

    def test_impossible_tolerance_fails(self, capsys):
        assert cli.main(["gradcheck", "--tolerance", "1e-300"]) == cli.EXIT_CHECK
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_config_and_out_refused(self, tmp_path, capsys, flag):
        """gradcheck reads no config and writes nothing, so argparse
        refuses both flags (exit 2) rather than ignoring a bad file."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trian": {}}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", flag, str(bad)])
        assert exc.value.code == cli.EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


# (test id, the key the error names, config): values that are well typed
# but too large to allocate or run, or outside their rule's range
BAD_CONFIG_KEYS = [
    ("huge-max-primitives", "dataset.scene.max_primitives",
     {"dataset": {"scene": {"max_primitives": 1e9}}}),
    ("huge-occluder-count", "augment.occluder_count", {"augment": {"occluder_count": 1e9}}),
    ("huge-widths", "model.widths", {"model": {"widths": [100000, 16], "stages": 2}}),
    ("huge-patch-hidden", "model.patch_channels and model.patch_hidden",
     {"model": {"patch_hidden": 1e9}}),
    ("lambdas-per-stage", "train.lambdas", {"train": {"lambdas": [1, 1, 1]}}),
    ("zero-patience", "train.patience", {"train": {"patience": 0}}),
    ("negative-patience", "train.patience", {"train": {"patience": -3}}),
    ("beta1-above-one", "train.beta1", {"train": {"beta1": 2}}),
    ("beta2-one", "train.beta2", {"train": {"beta2": 1.0}}),
    ("negative-eps", "train.eps", {"train": {"eps": -1}}),
    ("zero-eps", "train.eps", {"train": {"eps": 0}}),
    ("negative-momentum", "train.momentum", {"train": {"momentum": -5}}),
    ("rho-above-one", "train.rho", {"train": {"rho": 5}}),
]


class TestErrors:
    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code = cli.main(["gen-data", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trian": {}}), encoding="utf-8")
        code = cli.main(["gen-data", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE

    def test_missing_config_file_is_io_error(self, tmp_path):
        code = cli.main(["gen-data", "--config", str(tmp_path / "ghost.json"),
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_IO

    @pytest.mark.parametrize("override", [{"train": {"epochs": "abc"}},
                                          {"model": {"variant": "transformer"}},
                                          {"model": {"widths": [0, 16, 32]}},
                                          {"model": {"widths": [8, -1, 32]}},
                                          {"model": {"patch_channels": [4, 0]}},
                                          {"model": {"patch_hidden": 0}},
                                          {"augment": {"occluder_count": 2, "occluder_size": [2]}},
                                          {"augment": {"occluder_size": [0, 4]}},
                                          {"augment": {"occluder_size": [5, 4]}},
                                          {"augment": {"scale": [0, 0]}},
                                          {"augment": {"gain": [-1.0, 1.0]}},
                                          {"augment": {"noise_sigma": [-0.1, 0.0]}},
                                          {"augment": {"salt_pepper": [0.0, 1.5]}},
                                          {"augment": {"salt_pepper": [-0.5, 0.5]}},
                                          *(override for _, _, override in BAD_CONFIG_KEYS)],
                             ids=["epochs-not-int", "unknown-variant", "zero-width",
                                  "negative-width", "zero-patch-channels",
                                  "zero-patch-hidden", "one-occluder-size",
                                  "zero-occluder-size", "occluder-size-descending",
                                  "zero-scale", "negative-gain", "negative-noise-sigma",
                                  "salt-pepper-above-one", "negative-salt-pepper",
                                  *(name for name, _, _ in BAD_CONFIG_KEYS)])
    def test_bad_config_value_fails_before_loading_data(self, workdir, tmp_path,
                                                        capsys, override, monkeypatch):
        _, _, out = workdir
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CFG, **override}), encoding="utf-8")
        loads = []
        monkeypatch.setattr(cli, "read_manifest", lambda p: loads.append(p))
        code = cli.main(["train", "--config", str(bad), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert loads == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, override", [
        ("train.epochs", {"train": {"epochs": "abc"}}),
        ("lidar.height", {"lidar": {"height": "tall"}}),
        ("dataset.ratios", {"dataset": {"ratios": 5}}),
        ("dataset.scene.min_size", {"dataset": {"scene": {"min_size": [1]}}}),
        ("train.lambdas", {"train": {"lambdas": 3}}),
        ("eval.n_thresholds", {"eval": {"n_thresholds": "many"}}),
        ("train.augment_enabled", {"train": {"augment_enabled": "false"}}),
        ("train.class_balance", {"train": {"class_balance": "no"}}),
        ("paths.model", {"paths": {"model": 5}}),
        *((key, override) for _, key, override in BAD_CONFIG_KEYS),
    ])
    def test_bad_config_value_names_its_key(self, workdir, tmp_path, capsys, key, override):
        _, _, out = workdir
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CFG, **override}), encoding="utf-8")
        code = cli.main(["train", "--config", str(bad), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config value for {key}: ")
        assert err.count("\n") == 1

    BAD_LIST_ELEMENTS = [
        ("model.widths", [8, 16.5, 32]),
        ("model.patch_channels", ["a", "b"]),
        ("augment.rotation_deg", ["a", 1.0]),
        ("augment.translate_px", [0.0, None]),
        ("augment.scale", [1.0, "big"]),
        ("augment.shear", [[0.0], 0.1]),
        ("augment.gain", [1.0, {"x": 1}]),
        ("augment.offset", ["0", 0.1]),
        ("augment.noise_sigma", [0.0, False]),
        ("augment.salt_pepper", [0.0, "0.02"]),
        ("augment.occluder_size", [2, 8.5]),
        ("dataset.ratios", [0.7, "0.15", 0.15]),
        ("train.lambdas", [1.0, "x"]),
    ]

    @pytest.mark.parametrize("key, value", BAD_LIST_ELEMENTS,
                             ids=[key for key, _ in BAD_LIST_ELEMENTS])
    def test_bad_list_element_names_its_key(self, workdir, tmp_path, capsys,
                                            monkeypatch, key, value):
        _, _, out = workdir
        section, name = key.split(".")
        doc = {**SMALL_CFG, section: {**SMALL_CFG.get(section, {}), name: value}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        loads = []
        monkeypatch.setattr(cli, "read_manifest", lambda p: loads.append(p))
        code = cli.main(["train", "--config", str(bad), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert loads == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config value for {key}: ")
        assert err.count("\n") == 1

    BAD_SCALARS = [
        ("train.epochs", 2.5),
        ("dataset.n", True),
        ("lidar.height", 64.9),
        ("eval.n_thresholds", 10 ** 9),
        ("eval.n_thresholds", 1),
        ("eval.tolerance", -1),
    ]

    @pytest.mark.parametrize("key, value", BAD_SCALARS,
                             ids=[f"{key}={value}" for key, value in BAD_SCALARS])
    def test_bad_scalar_names_its_key(self, workdir, tmp_path, capsys,
                                      monkeypatch, key, value):
        """An int key refuses a value int would change, and the eval keys
        out of range, all before any data is read."""
        _, _, out = workdir
        section, name = key.split(".")
        doc = {**SMALL_CFG, section: {**SMALL_CFG.get(section, {}), name: value}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        loads = []
        monkeypatch.setattr(cli, "read_manifest", lambda p: loads.append(p))
        code = cli.main(["train", "--config", str(bad), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert loads == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config value for {key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad_line", ['{"id": "x", "range": "x.lri", "intensity": "x.pgm"}',
                                          '{"id": "x", ', "[" * 200_000],
                             ids=["no-label", "not-json", "deep-nesting"])
    def test_bad_manifest_line_is_usage_error(self, workdir, tmp_path, capsys, bad_line):
        _, cfg_path, out = workdir
        dataset = tmp_path / "run" / "dataset"
        dataset.mkdir(parents=True)
        lines = (out / "dataset" / "manifest.jsonl").read_text().splitlines()
        lines.insert(2, bad_line)
        (dataset / "manifest.jsonl").write_text("\n".join(lines) + "\n")
        code = cli.main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "manifest.jsonl:3: " in err

    @pytest.mark.parametrize("content", [b"[" * 200_000,
                                         b'{"dataset": {"n": ' + b"1" * 5000 + b"}}",
                                         b'{"a": "\xff"}'],
                             ids=["deep-nesting", "5000-digits", "bad-utf8"])
    def test_unparsable_config_is_usage_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "o"
        code = cli.main(["gen-data", "--config", str(bad), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid JSON") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"0.01"', "true"])
    @pytest.mark.parametrize("key", ["dataset.delta", "lidar.noise_sigma",
                                     "train.learning_rate"])
    def test_float_key_refuses_non_finite_and_non_numbers(self, tmp_path, capsys, key, value):
        """Exit 2 naming the key before anything is written."""
        section, name = key.split(".")
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"{section}": {{"{name}": {value}}}}}', encoding="utf-8")
        out = tmp_path / "o"
        code = cli.main(["gen-data", "--config", str(bad), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config value for {key}: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestMissingAndUsageMessages:
    """The exact stderr line and exit code of each missing-prerequisite
    and detector-name error: main prints every one of them."""

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_missing_dataset(self, workdir, tmp_path, capsys, command):
        _, cfg_path, _ = workdir
        out = tmp_path / "nowhere"
        code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
        assert code == cli.EXIT_MISSING == 4
        manifest = out / "dataset" / "manifest.jsonl"
        assert capsys.readouterr().err == f"error: dataset manifest not found: {manifest}\n"

    def test_detect_missing_input(self, workdir, tmp_path, capsys):
        _, cfg_path, _ = workdir
        ghost = tmp_path / "ghost.pgm"
        code = cli.main(["detect", str(ghost), str(tmp_path / "o.pgm"),
                         "--config", str(cfg_path)])
        assert code == cli.EXIT_MISSING == 4
        assert capsys.readouterr().err == f"error: input image not found: {ghost}\n"

    def test_detect_unknown_algorithm(self, workdir, pgm_image, tmp_path, capsys):
        _, cfg_path, _ = workdir
        code = cli.main(["detect", str(pgm_image), str(tmp_path / "o.pgm"),
                         "--config", str(cfg_path), "--algorithm", "laplacian"])
        assert code == cli.EXIT_USAGE == 2
        assert capsys.readouterr().err == ("error: unknown algorithm 'laplacian' "
                                           "(choose from cnn, canny, sobel, roberts, "
                                           "patchcnn)\n")

    @pytest.mark.parametrize("detectors, err", [
        (" , ,", "error: empty detector list\n"),
        ("canny,hough", "error: unknown detector 'hough'\n"),
        ("patchcnn", "error: unknown detector 'patchcnn'\n"),
    ], ids=["empty", "unknown", "untunable"])
    def test_compare_detector_list(self, workdir, capsys, detectors, err):
        _, cfg_path, out = workdir
        code = cli.main(["compare", "--config", str(cfg_path), "--out", str(out),
                         "--detectors", detectors])
        assert code == cli.EXIT_USAGE == 2
        assert capsys.readouterr().err == err
