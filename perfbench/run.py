#!/usr/bin/env python3
"""Benchmark of the lidar-edge pipeline.

    python3 perfbench/run.py --workload train|compare|detect --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it carries host info and
the per-stage detail timings. Full records and span traces go to
``.bench_out/``; scratch files go to ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import pkgutil
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import harness  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402

WORKLOADS = ("train", "compare", "detect")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s"}

STAT_UNITS = {"calls": "count", "self_s": "s", "ms_per_call": "ms",
              "gflops": "GFLOP-computed"}


def _layer_metrics() -> dict:
    groups = [
        (["layers.conv_forward", "layers.conv_backward"], ["calls", "self_s", "gflops"]),
        ([f"layers.{f}" for f in (
            "maxpool2x2_forward", "maxpool2x2_backward", "upsample_nearest",
            "upsample_nearest_backward", "relu", "relu_backward", "sigmoid",
            "sigmoid_backward", "dense_forward", "dense_backward", "_im2col")], ["self_s"]),
        ([f"models.{f}" for f in ("forward_nested", "backward_nested",
                                  "forward_patch", "backward_patch")], ["calls", "self_s"]),
        (["losses.pixel_loss", "training.validation_f1", "training.train_nested",
          "training.train_patch"], ["self_s"]),
        (["optim.optimizer_step", "augment.sample_and_apply",
          "training.patch_prob_map"], ["calls", "self_s"]),
        ([f"classical.{f}" for f in ("canny", "sobel", "roberts", "threshold_magnitude")]
         + ["imaging.gaussian_filter", "imaging.convolve2d"], ["calls", "self_s"]),
        (["classical._nms", "classical._hysteresis", "cli._tuned_detectors"], ["self_s"]),
        ([f"evaluation.{f}" for f in ("confusion", "best_f1_threshold",
                                      "compare_detectors")], ["calls", "self_s"]),
        (["formats.read_pgm", "formats.write_pgm", "formats.read_manifest",
          "modelio.load_model"], ["calls", "ms_per_call"]),
        ([f"lidar.{f}" for f in ("generate_dataset", "render_scene", "sample_scene")],
         ["calls", "self_s"]),
    ]
    out = {f"{fn}.{stat}": STAT_UNITS[stat] for fns, stats in groups
           for fn in fns for stat in stats}
    out.update({
        "classical.canny.calls_per_image_sigma": "calls/img-sigma",
        "models.forward_nested.calls_per_step": "calls/step",
        "models.forward_patch.calls_per_image": "calls/img",
        "trace.overhead_s": "s",
        "trace.overhead_pct": "%",
        "trace.coverage_pct": "%",
        "trace.spans": "count",
    })
    return out


PER_LAYER = _layer_metrics()


def limit_blas_threads() -> int:
    """One BLAS thread: the matrix products here are small, and a second
    thread made the patch epoch slower, not faster. Returns the number of
    CPUs this process may run on."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_package(src: Path) -> dict:
    """lidar_edge and its submodules, imported from this checkout's src/."""
    if not (src / "lidar_edge" / "__init__.py").is_file():
        raise ImportError(f"{src / 'lidar_edge'} not found; run from the root of a "
                          "lidar-edge source checkout")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("lidar_edge")
    if Path(pkg.__file__).resolve().parent != (src / "lidar_edge").resolve():
        raise ImportError(f"lidar_edge was imported from {pkg.__file__}, not from {src}")
    mods = {"lidar_edge": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"lidar_edge.{info.name}")
    return mods


def blas_info(np) -> tuple[str, int | None]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def host_info(np, ncpu: int, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas, threads = blas_info(np)
    return {"nproc": ncpu, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": threads if threads is not None
            else int(os.environ["OPENBLAS_NUM_THREADS"]),
            "seed": seed}


def end_to_end(res: dict) -> dict:
    values = {"setup_s": statistics.median(res["setup_times"]),
              "peak_rss_mb": harness.peak_rss_mb(),
              "pass_s": statistics.median(res["walls"])}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def work_ratios(tracer: Tracer, n_val: int) -> dict:
    """Calls made per unit of useful work; 0 where the workload does none.

    Canny calls while tuning, per validation image and sigma (one sweep
    per pair would make it 1); training forwards per optimizer step
    (one batched forward would make it 1); patch-net forwards per
    patchcnn image (one per pixel today)."""
    under = tracer.calls_under

    def ratio(work: int, useful: int) -> float:
        return work / useful if useful else 0.0

    forwards = (under("models.forward_nested", "training.train_nested")
                - under("models.forward_nested", "training.validation_f1"))
    return {
        "classical.canny.calls_per_image_sigma": ratio(
            under("classical.canny", "cli._tuned_detectors"), n_val * harness.CANNY_SIGMAS),
        "models.forward_nested.calls_per_step": ratio(
            forwards, under("optim.optimizer_step", "training.train_nested")),
        "models.forward_patch.calls_per_image": ratio(
            under("models.forward_patch", "training.patch_prob_map"),
            under("training.patch_prob_map", "cli.main")),
    }


def traced_pass(bench, mods: dict, baseline: float) -> tuple[dict, Tracer]:
    """One traced set-up and pass; per-layer metrics from their spans."""
    tracer = Tracer()
    bench.tracer = tracer
    tracer.install(mods)
    try:
        with tracer.span("setup"):
            _, data = bench.setup()
        with tracer.span(bench.workload):
            result = bench.run_pass(data)
    finally:
        tracer.uninstall()
        bench.tracer = None
    left = installed_wrappers(mods)
    if left:
        bench.check.fail("tracer", f"wrappers left installed: {left}")
    dur = tracer.durations()
    (work_root,) = tracer.roots(bench.workload)
    traced_wall = result[0] if result else dur[work_root] / 1e9
    summary = tracer.summary()
    values = {}
    for name, unit in PER_LAYER.items():
        fn, stat = name.rsplit(".", 1)
        row = summary.get(fn, {"calls": 0, "total_ns": 0, "self_ns": 0})
        if stat == "calls":
            values[name] = row["calls"]
        elif stat == "self_s":
            values[name] = row["self_ns"] / 1e9
        elif stat == "ms_per_call":
            values[name] = row["total_ns"] / row["calls"] / 1e6 if row["calls"] else 0.0
        elif stat == "gflops":
            values[name] = tracer.flops.get(fn, 0) / 1e9
    values.update(work_ratios(tracer, len(data.splits["val"])))
    values["trace.overhead_s"] = traced_wall - baseline
    values["trace.overhead_pct"] = 100.0 * (traced_wall - baseline) / baseline
    level_one = sum(dur[i] for i in tracer.children_of(work_root))
    values["trace.coverage_pct"] = 100.0 * level_one / (traced_wall * 1e9)
    values["trace.spans"] = len(dur)
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=harness.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ncpu = limit_blas_threads()
    try:
        mods = import_package(ROOT / "src")
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    host = host_info(np, ncpu, args.seed)
    bench = harness.Bench(ROOT, mods, args.workload, args.seed)
    started = time.time()
    try:
        res = bench.measure(args.seconds)
        if not res["walls"]:
            print("error: no pass completed", file=sys.stderr)
            return 2
        tracer = None
        if args.trace:
            metrics, tracer = traced_pass(bench, mods, statistics.median(res["walls"]))
        else:
            metrics = end_to_end(res)
        bench.save_repeat()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    attempted, failed, problems = bench.check.attempted, bench.check.failed, bench.check.problems
    details = harness.detail_metrics(res["samples"])
    record = {"workload": args.workload, "trace": args.trace, "started": started,
              "host": host, "details": details, "problems": problems,
              "pass_walls": res["walls"],
              "setup_times": res["setup_times"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.json.gz")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps({**record, **result}, indent=1))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"host": host, "details": details}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
