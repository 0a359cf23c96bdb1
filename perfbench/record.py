#!/usr/bin/env python3
"""Record the benchmark's fixtures and the outputs expected at the pinned seed.

    python3 perfbench/record.py              # re-record expected.json
    python3 perfbench/record.py --fixtures   # retrain both checkpoints first

The nested checkpoint is what ``lidar-edge train`` writes on the default
config (about two minutes on 2 CPUs); the patch checkpoint comes from a
short seeded ``train_patch``. expected.json then holds their SHA-256 and
the outputs of one pass of every workload at the pinned seed. Re-record
only when a change is meant to alter those outputs, and say so.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import harness

PATCH_EPOCHS = 2


def train_fixtures(mods: dict, fixture_dir: Path) -> None:
    cli, training = mods["cli"], mods["training"]
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["gen-data", "--out", tmp], ["train", "--out", tmp]):
                if cli.main(argv) != 0:
                    raise SystemExit(f"lidar-edge {argv[0]} failed")
        fixture_dir.mkdir(exist_ok=True)
        shutil.copyfile(Path(tmp) / "model.ledm", fixture_dir / harness.FIXTURES["nested"])
        dataset = Path(tmp) / "dataset"
        manifest = mods["formats"].read_manifest(dataset / "manifest.jsonl")
        cfg = mods["config"].Config()
        cfg.override("train.epochs", PATCH_EPOCHS)
        params, _ = training.train_patch(training.load_split(manifest, dataset, "train"),
                                         training.load_split(manifest, dataset, "val"),
                                         cfg.patch_arch(), cfg.train_config())
        mods["modelio"].save_model(params, fixture_dir / harness.FIXTURES["patch"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fixtures", action="store_true", help="retrain the checkpoints")
    args = parser.parse_args()
    run.limit_blas_threads()
    mods = run.import_package(run.ROOT / "src")
    fixture_dir = run.HERE / "fixtures"
    if args.fixtures:
        train_fixtures(mods, fixture_dir)
    recorded = {"seed": harness.PINNED_SEED,
                "fixtures": {name: harness.sha256_file(fixture_dir / name)
                             for name in harness.FIXTURES.values()}}
    for workload in run.WORKLOADS:
        bench = harness.Bench(run.ROOT, mods, workload, harness.PINNED_SEED,
                              recorded=recorded)
        bench.check.previous = {}
        try:
            _, data = bench.setup()
            if bench.run_pass(data) is None or bench.check.failed:
                raise SystemExit(f"{workload}: {bench.check.problems}")
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
        recorded[workload] = bench.check.first
        print(f"recorded {workload}: {len(bench.check.first)} outputs", file=sys.stderr)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
