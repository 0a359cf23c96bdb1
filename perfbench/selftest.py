#!/usr/bin/env python3
"""Quick self-test of the benchmark harness on a tiny dataset.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit
(and the per-stage detail timings of each workload), that a traced run
leaves no wrapper installed, that a corrupted output is counted as a
failed operation rather than reported as a timing, and that only runs
of the same code must repeat each other exactly. Takes well under a
minute on 2 CPUs; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import run
import harness
from tracer import installed_wrappers

TINY = harness.Spec(n_samples=20, setups=1, nested_epochs=1, patch_epochs=1,
                    detect_images=2, patchcnn_images=1, min_passes=2)
SEED = 7
DETAILS = {
    "train": {"train.epoch_s": "s", "train.patch_epoch_s": "s"},
    "compare": {"compare_s": "s"},
    "detect": {f"detect.{alg}.{q}_ms": "ms" for alg in harness.DETECTORS
               for q in ("p50", "p90") if (alg, q) != ("patchcnn", "p90")},
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def corrupting(fn):
    """Wrap a writer so every image it writes is inverted."""
    def write(path, img):
        return fn(path, 1.0 - img)
    return write


def repeat_checks(mods: dict) -> None:
    """A training value that moves at rounding level between two versions
    of the code is no repeat failure; within one version it is one, and a
    run with a failed check leaves no reference behind."""
    training = mods["training"]
    train_nested, code_digest = training.train_nested, harness.code_digest
    perturb = [False]

    def perturbed_train_nested(*args, **kwargs):
        params, log = train_nested(*args, **kwargs)
        if perturb[0]:
            log.records[0].train_loss *= 1.0 + 1e-12
        return params, log

    def train_run(root: Path, code: str, perturbed_passes: list) -> harness.Bench:
        harness.code_digest = lambda package_dir: code
        bench = harness.Bench(root, mods, "train", SEED, spec=TINY)
        try:
            _, data = bench.setup()
            for flag in perturbed_passes:
                perturb[0] = flag
                bench.run_pass(data)
            bench.save_repeat()
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
        return bench

    training.train_nested = perturbed_train_nested
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
            root = Path(tmp)
            first = train_run(root, "a", [False])
            expect(first.check.failed == 0 and first.repeat_path.exists(),
                   "repeat: a passing run stores its values")
            other = train_run(root, "b", [True])
            expect(other.check.failed == 0,
                   f"repeat: a perturbed loss from other code is no failure {other.check.problems}")
            same = train_run(root, "a", [True])
            expect(same.check.failed == 1,
                   "repeat: a perturbed loss from the same code is one failed operation")
            failing = train_run(root, "c", [False, True])
            expect(failing.check.failed == 1 and not failing.repeat_path.exists(),
                   "repeat: a run with a failed check stores no values")
    finally:
        training.train_nested = train_nested
        harness.code_digest = code_digest
        perturb[0] = False


def main() -> int:
    run.limit_blas_threads()
    mods = run.import_package(run.ROOT / "src")
    cli = mods["cli"]
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches the metrics the runner emits")
    expect({m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches the metrics the runner emits")
    expect([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json names the runner's workloads")

    for workload in run.WORKLOADS:
        bench = harness.Bench(run.ROOT, mods, workload, SEED, spec=TINY)
        try:
            res = bench.measure(0.0)
            expect(units(run.end_to_end(res)) == run.END_TO_END,
                   f"{workload}: untraced run emits every end-to-end metric with its unit")
            details = harness.detail_metrics(res["samples"])
            expect(units(details) == DETAILS[workload],
                   f"{workload}: detail timings {sorted(DETAILS[workload])} emitted with units")
            per_layer, _ = run.traced_pass(bench, mods, statistics.median(res["walls"]))
            expect(units(per_layer) == run.PER_LAYER,
                   f"{workload}: traced run emits every per-layer metric with its unit")
            expect(not installed_wrappers(mods),
                   f"{workload}: no wrapper left installed after the traced run")
            expect(per_layer["trace.coverage_pct"]["value"] >= 95.0,
                   f"{workload}: level-one spans cover >= 95% of the traced pass "
                   f"({per_layer['trace.coverage_pct']['value']:.1f}%)")
            expect(bench.check.failed == 0,
                   f"{workload}: outputs repeat across passes, traced or not "
                   f"{bench.check.problems}")

            if workload == "detect":
                before = bench.check.failed
                writer = cli.write_pgm
                cli.write_pgm = corrupting(writer)
                try:
                    wall, _ = bench.run_pass(res["data"])
                finally:
                    cli.write_pgm = writer
                n_calls = len(bench.detect_calls(res["data"]))
                expect(wall > 0 and bench.check.failed - before == n_calls,
                       f"detect: {n_calls} corrupted outputs counted as failed operations")
            if workload == "compare":
                before = bench.check.failed
                csv = cli.comparison_csv
                cli.comparison_csv = lambda reports: csv(reports).replace("0.", "1.", 1)
                try:
                    bench.run_pass(res["data"])
                finally:
                    cli.comparison_csv = csv
                expect(bench.check.failed - before == 1,
                       "compare: a corrupted comparison.csv is a failed operation")
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
    repeat_checks(mods)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
