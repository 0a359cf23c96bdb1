"""Command-line entry point.

Subcommands mirror the experiment workflow: gen-data, train, detect,
compare, gradcheck. Exit codes are a stable scripting contract:

    0  success
    1  check failure (gradcheck over tolerance)
    2  usage or configuration error
    3  I/O failure
    4  missing prerequisite (dataset or model file)
    5  numeric divergence during training
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import classical
from .config import Config
from .errors import (ConfigError, DivergenceError, LidarEdgeError,
                     MissingInputError, ModelLoadError, ParameterError)
from .evaluation import (MetricsReport, best_f1, comparison_csv, comparison_table,
                         metrics, prob_levels, sweep, threshold_grid)
from .formats import (read_lri, read_manifest, read_pgm, write_atomic, write_manifest,
                      write_pgm)
from .lidar import generate_dataset, range_to_intensity
from .modelio import load_model, save_model
from .models import NestedNetParams, PatchNetParams, forward_nested
from .training import (grad_check, load_split, patch_prob_map, runlog_csv,
                       split_dataset, train_nested, train_patch)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MISSING = 4
EXIT_DIVERGED = 5


class Detector(NamedTuple):
    """levels(model, img, grid, **setting) is the level map over an ascending
    threshold grid, whose edge map at grid[k] is level > k; None when the
    detector is not tuned."""
    levels: Callable | None
    settings: tuple = ({},)
    model: str | None = None


# in the row order of `compare`
DETECTORS = {
    "cnn": Detector(lambda m, im, grid: prob_levels(forward_nested(m, im).fused, grid),
                    model="nested"),
    "canny": Detector(
        lambda m, im, grid, sigma: classical.canny(
            im, sigma, grid * classical.CANNY_LOW_RATIO, grid),
        settings=tuple({"sigma": s} for s in (1.0, 1.5, 2.0, 2.5))),
    "sobel": Detector(
        lambda m, im, grid: classical.magnitude_levels(classical.sobel(im), grid)),
    "roberts": Detector(
        lambda m, im, grid: classical.magnitude_levels(classical.roberts(im), grid)),
    # detect only: compare loads one model, the nested one, and a level
    # function here would add patchcnn to compare's default detector list
    "patchcnn": Detector(None, model="patch"),
}
TUNABLE = tuple(name for name, d in DETECTORS.items() if d.levels is not None)
MODEL_KINDS = {"nested": NestedNetParams, "patch": PatchNetParams}


def _load_config(args) -> Config:
    flags = {"dataset.n": "n", "dataset.seed": "seed", "train.epochs": "epochs",
             "train.optimizer": "optimizer", "paths.out_dir": "out"}
    return Config.load(args.config, {key: getattr(args, flag) for key, flag in flags.items()
                                     if getattr(args, flag, None) is not None})


def _load_params(cfg: Config, kind: str):
    """The model at cfg.model_path(), which must be of the MODEL_KINDS kind."""
    model_path = cfg.model_path()
    if not model_path.exists():
        raise ModelLoadError(f"model file not found: {model_path}")
    params = load_model(model_path)
    if not isinstance(params, MODEL_KINDS[kind]):
        raise ConfigError(f"{model_path} is not a {kind} model")
    return params


def _load_splits(cfg: Config, *splits) -> list:
    """The (image, label) samples of each named split of the dataset in
    the output directory."""
    dataset_dir = cfg.out_dir() / "dataset"
    manifest_path = dataset_dir / "manifest.jsonl"
    if not manifest_path.exists():
        raise MissingInputError(f"dataset manifest not found: {manifest_path}")
    manifest = read_manifest(manifest_path)
    return [load_split(manifest, dataset_dir, split) for split in splits]


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    d = cfg.section("dataset")
    out = cfg.out_dir() / "dataset"
    manifest = generate_dataset(d["n"], cfg.lidar(), cfg.scene_policy(),
                                d["delta"], d["seed"], out)
    manifest = split_dataset(manifest, d["ratios"], d["seed"])
    write_manifest(out / "manifest.jsonl", manifest)
    summary = {"n": len(manifest.entries), "splits": manifest.counts(), "seed": d["seed"]}
    write_atomic(out / "dataset_summary.json",
                 (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("ascii"))
    print(f"wrote {summary['n']} samples to {out} "
          f"(splits: {summary['splits']})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    train_samples, val_samples = _load_splits(cfg, "train", "val")
    train_cfg = cfg.train_config()
    variant = cfg.section("model")["variant"]

    def progress(rec):
        print(f"epoch {rec.epoch:3d}  train_loss {rec.train_loss:.6f}  "
              f"val_f1 {rec.val_f1:.4f}  ({rec.wall_seconds:.1f}s)")

    if variant == "nested":
        params, log = train_nested(train_samples, val_samples,
                                   cfg.nested_arch(), train_cfg, progress)
    else:  # the config has checked that it is "patch"
        params, log = train_patch(train_samples, val_samples,
                                  cfg.patch_arch(), train_cfg, progress=progress)
    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    save_model(params, cfg.model_path())
    write_atomic(out / "runlog.csv", runlog_csv(log).encode("ascii"))
    best = max(r.val_f1 for r in log.records)
    print(f"best validation F1: {best:.4f} (epoch {log.best_epoch}); "
          f"model saved to {cfg.model_path()}")
    return EXIT_OK


def _read_input_image(path: Path) -> np.ndarray:
    """The intensity image of a PGM or LRI1 file, read in one open."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] == b"LRI1":
        ranges, max_range = read_lri(path, raw)
        return range_to_intensity(ranges, max_range)
    return read_pgm(path, raw)


def cmd_detect(args) -> int:
    # any other threshold, NaN included, gives an all-0 or all-1 map
    if not 0.0 <= args.threshold <= 1.0:
        raise ParameterError(f"threshold must lie in [0, 1], got {args.threshold}")
    cfg = _load_config(args)
    detector = DETECTORS.get(args.algorithm)
    if detector is None:
        raise ParameterError(f"unknown algorithm {args.algorithm!r} "
                             f"(choose from {', '.join(DETECTORS)})")
    input_path = Path(args.input)
    if not input_path.exists():
        raise MissingInputError(f"input image not found: {input_path}")
    img = _read_input_image(input_path)
    out_path = Path(args.output)
    if detector.model is not None:
        params = _load_params(cfg, detector.model)
        if args.algorithm == "cnn":
            trace = forward_nested(params, img)
            prob, sides = trace.fused, trace.side_probs
        else:
            prob, sides = patch_prob_map(params, img), []
        write_pgm(out_path.with_suffix(".prob.pgm"), prob)
        for i, side in enumerate(sides):
            write_pgm(out_path.with_suffix(f".side{i}.pgm"), side)
        edge = prob >= args.threshold
    elif args.algorithm == "canny":
        edge = classical.canny(img, args.sigma, args.low, args.high)
    else:
        edge = detector.levels(None, img, np.array([args.threshold])) > 0
    write_pgm(out_path, edge)
    print(f"wrote {out_path}")
    return EXIT_OK


def _tuned_detectors(cfg: Config, val_samples, params, names=TUNABLE) -> list:
    """(name, threshold, setting) of the named detectors in table order,
    tuned on the validation split at eval.tolerance by pooled F1, one sweep
    per setting; ties go to the smaller threshold, then the earlier setting.
    Detectors that need a model are left out when params is None."""
    ev = cfg.section("eval")
    grid = threshold_grid(ev["n_thresholds"])
    detectors = []
    for name in TUNABLE:
        det = DETECTORS[name]
        if name not in names or (det.model and params is None):
            continue
        tuned = []
        for setting in det.settings:
            levels = ((det.levels(params, img, grid, **setting), truth)
                      for img, truth in val_samples)
            tuned.append((*best_f1(sweep(levels, len(grid), ev["tolerance"]), grid), setting))
        t, _, setting = max(tuned, key=lambda c: c[1])  # first of equals
        detectors.append((name, t, setting))
    return detectors


def scored_detectors(cfg: Config, val_samples, test_samples, params,
                     names=TUNABLE) -> list[MetricsReport]:
    """The named detectors tuned on the validation split, then scored on the
    test split at their tuned setting and threshold t, read as the one-point
    grid [t]; both count through sweep at eval.tolerance."""
    if not test_samples:
        raise ParameterError("no samples to evaluate")
    reports = []
    for name, t, setting in _tuned_detectors(cfg, val_samples, params, names):
        levels = ((DETECTORS[name].levels(params, img, np.array([t]), **setting), truth)
                  for img, truth in test_samples)
        [cm] = sweep(levels, 1, cfg.section("eval")["tolerance"])
        reports.append(metrics(cm, name=name, threshold=t))
    return reports


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    requested = [a.strip() for a in args.detectors.split(",") if a.strip()]
    if not requested:
        raise ParameterError("empty detector list")
    for name in requested:
        if name not in TUNABLE:
            raise ParameterError(f"unknown detector {name!r}")
    val_samples, test_samples = _load_splits(cfg, "val", "test")
    params = _load_params(cfg, DETECTORS["cnn"].model) if "cnn" in requested else None
    reports = scored_detectors(cfg, val_samples, test_samples, params, requested)
    write_atomic(cfg.out_dir() / "comparison.csv", comparison_csv(reports).encode("ascii"))
    print(comparison_table(reports), end="")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    tolerance = args.tolerance
    ok = True
    for variant in ("nested", "patch"):
        passed, report = grad_check(variant, seed=args.seed, tolerance=tolerance)
        ok = ok and passed
        for entry in report:
            status = "ok" if entry.max_rel_error <= tolerance else "FAIL"
            print(f"{variant:7s} {entry.name:25s} {entry.max_rel_error:.3e}  {status}")
    print("gradcheck " + ("PASSED" if ok else "FAILED") + f" at tolerance {tolerance:g}")
    return EXIT_OK if ok else EXIT_CHECK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. It holds no command function:
    main looks the command up when it runs, so a later patch or wrapper
    of cli.cmd_detect is the one called."""
    parser = argparse.ArgumentParser(
        prog="lidar-edge",
        description="Synthetic LiDAR edge-detection pipeline: data "
                    "generation, training, detection, and comparison.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file (defaults used if omitted)")
        p.add_argument("--out", default=None, help="output directory (overrides paths.out_dir)")

    p = sub.add_parser("gen-data", help="generate the synthetic labeled dataset")
    common(p)
    p.add_argument("--n", type=int, default=None, help="number of samples")
    p.add_argument("--seed", type=int, default=None, help="dataset seed")

    p = sub.add_parser("train", help="train the edge-detection model")
    common(p)
    p.add_argument("--epochs", type=int, default=None, help="training epochs")
    p.add_argument("--optimizer", default=None, help="sgd | adam | rmsprop")

    p = sub.add_parser("detect", help="run one detector on one image")
    common(p)
    p.add_argument("input", help="input image (PGM or LRI1)")
    p.add_argument("output", help="output edge map (PGM)")
    p.add_argument("--algorithm", default="canny",
                   help=f"one of {', '.join(DETECTORS)}")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="binarization threshold (fraction of max for sobel/roberts)")
    p.add_argument("--sigma", type=float, default=1.0, help="canny smoothing sigma")
    p.add_argument("--low", type=float, default=0.1, help="canny low threshold fraction")
    p.add_argument("--high", type=float, default=0.2, help="canny high threshold fraction")

    p = sub.add_parser("compare", help="evaluate detectors on the test split")
    common(p)
    p.add_argument("--detectors", default=",".join(TUNABLE),
                   help="comma-separated detector list")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not stored in the cached parser
    command = {"gen-data": cmd_gen_data, "train": cmd_train, "detect": cmd_detect,
               "compare": cmd_compare, "gradcheck": cmd_gradcheck}[args.command]
    try:
        return command(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ModelLoadError, MissingInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except LidarEdgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
