"""The three workloads, their output checks and their metrics.

Every workload drives the program in-process through the same entry
points a user has: ``lidar_edge.cli.main([...])`` for the commands and
the public training functions for the training loop. Functions are
always looked up on their module at call time, so the tracer's
wrappers are seen.

A run is: set up ``Spec.setups`` times (generate the dataset, load the
splits, verify and install the checkpoints), make one untimed warm-up
pass, then repeat the workload's fixed pass until ``seconds`` would be
exceeded. Every pass output, the warm-up's too, is checked against the values recorded for the pinned seed,
against the first pass of the run, and against the first passing run
of the same seed and the same ``src/lidar_edge`` code in this checkout
(``.bench_out/repeat``). A check that fails is one failed operation; it
is never a timing.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

PINNED_SEED = 42
FIXTURES = {"nested": "nested.ledm", "patch": "patch.ledm"}
FAST_DETECTORS = ("canny", "sobel", "roberts", "cnn")
DETECTORS = FAST_DETECTORS + ("patchcnn",)
CANNY_SIGMAS = 4  # cli tunes canny over sigma in (1.0, 1.5, 2.0, 2.5)
TRAIN_RTOL = 1e-9  # rounding level: batching may reorder float sums


@dataclass(frozen=True)
class Spec:
    """Size of one run; DEFAULT_SPECS holds the sizes BENCHMARK.json measures."""
    n_samples: int | None = None   # dataset size; None keeps the config default
    setups: int = 11               # set-ups per run; setup_s is their median
    nested_epochs: int = 1         # train pass: nested epochs ...
    patch_epochs: int = 1          # ... then patch epochs
    detect_images: int | None = None  # test images per detect pass; None = all
    patchcnn_images: int = 2       # patchcnn calls per detect pass
    min_passes: int = 1            # timed passes made even when `seconds` is exceeded


# What BENCHMARK.json measures. A warm-up pass comes first; every later
# pass is timed and pass_s is their median. compare runs on 80 samples
# (12 validation and 12 test images), so that several of its passes fit
# in one run; its set-up writes a quarter of the files and takes ~0.1 s,
# so it sets up more often. train and detect use the config's default
# dataset.
DEFAULT_SPECS = {"train": Spec(setups=9, min_passes=2),
                 "compare": Spec(n_samples=80, setups=15, min_passes=3),
                 "detect": Spec(setups=9, min_passes=2)}


class Checker:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self, expected: dict, previous: dict):
        self.expected = expected
        self.previous = previous
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, key: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{key}: {why}")

    def op(self, key: str, value, close=None) -> bool:
        """Check one operation's output; `close` relaxes the match with
        the recorded value only (repeats must be exact)."""
        value = json.loads(json.dumps(value))
        why = None
        if key in self.expected:
            ref = self.expected[key]
            if not (value == ref or (close is not None and close(value, ref))):
                why = f"differs from the recorded value {ref!r}: {value!r}"
        for name, seen in (("this run", self.first), ("an earlier run", self.previous)):
            if why is None and key in seen and seen[key] != value:
                why = f"differs from {name}: {seen[key]!r} vs {value!r}"
        self.first.setdefault(key, value)
        self.attempted += 1
        if why is not None:
            self.failed += 1
            self.problems.append(f"{key}: {why}")
        return why is None


def _train_close(value, ref) -> bool:
    return all(abs(a - b) <= TRAIN_RTOL * max(1.0, abs(b)) for a, b in zip(value, ref))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def empty_files(directory: Path) -> None:
    """Truncate the files a previous set-up or pass wrote, so that the
    next one writes over them and a file it fails to write reads as
    empty and fails its check. Files are kept rather than deleted:
    creating files costs kernel time that grows as files are created
    and deleted, and that time would be measured instead of the
    program's work."""
    for p in directory.rglob("*") if directory.is_dir() else ():
        if p.is_file():
            os.truncate(p, 0)


def code_digest(package_dir: Path) -> str:
    """Digest of the package's source, so that only runs of the same code
    must repeat each other exactly."""
    h = hashlib.sha256()
    for p in sorted(package_dir.rglob("*.py")):
        h.update(p.relative_to(package_dir).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


@dataclass
class Data:
    """One set-up's dataset and installed checkpoints."""
    out: Path                    # --out dir: dataset/ and the nested model.ledm
    patch_out: Path              # --out dir holding the patch model.ledm
    splits: dict = field(default_factory=dict)
    test_images: list = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, mods: dict, workload: str, seed: int,
                 spec: Spec | None = None, recorded: dict | None = None):
        self.root = root
        self.m = mods
        self.workload = workload
        self.seed = seed
        self.spec = spec = spec or DEFAULT_SPECS[workload]
        here = Path(__file__).resolve().parent
        self.fixture_dir = here / "fixtures"
        if recorded is None:
            recorded = json.loads((here / "expected.json").read_text())
        self.fixture_sha = recorded["fixtures"]
        pinned = seed == recorded["seed"] and spec == DEFAULT_SPECS[workload]
        self.work = root / ".bench_work" / f"{workload}-{os.getpid()}"
        spec_tag = hashlib.sha256(repr(asdict(spec)).encode()).hexdigest()[:8]
        code_tag = code_digest(Path(mods["lidar_edge"].__file__).parent)[:16]
        self.repeat_path = (root / ".bench_out" / "repeat"
                            / f"{workload}-seed{seed}-{spec_tag}-{code_tag}.json")
        previous = json.loads(self.repeat_path.read_text()) if self.repeat_path.exists() else {}
        self.check = Checker(recorded.get(workload, {}) if pinned else {}, previous)
        self.tracer = None  # set while a traced pass runs
        self.pass_fn = {"train": self.train_pass, "compare": self.compare_pass,
                        "detect": self.detect_pass}[workload]

    # -- set-up -----------------------------------------------------------

    def setup(self) -> tuple[float, Data]:
        """Generate the dataset, load the splits, verify the checkpoints."""
        m, spec = self.m, self.spec
        out = self.work / "setup"
        empty_files(out)
        argv = ["gen-data", "--out", str(out), "--seed", str(self.seed)]
        if spec.n_samples is not None:
            argv += ["--n", str(spec.n_samples)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = m["cli"].main(argv)
        if rc != 0:
            raise RuntimeError(f"gen-data exited with {rc}")
        dataset = out / "dataset"
        manifest = m["formats"].read_manifest(dataset / "manifest.jsonl")
        data = Data(out=out, patch_out=out / "patch")
        for split in ("train", "val", "test"):
            data.splits[split] = m["training"].load_split(manifest, dataset, split)
        data.test_images = [str(dataset / e.intensity) for e in manifest.entries
                            if e.split == "test"]
        data.patch_out.mkdir(exist_ok=True)
        kinds = {"nested": m["models"].NestedNetParams, "patch": m["models"].PatchNetParams}
        for kind, name in FIXTURES.items():
            src = self.fixture_dir / name
            if sha256_file(src) != self.fixture_sha[name]:
                raise RuntimeError(f"checkpoint {src} does not match its recorded SHA-256")
            dst = (out if kind == "nested" else data.patch_out) / "model.ledm"
            shutil.copyfile(src, dst)
            if not isinstance(m["modelio"].load_model(dst), kinds[kind]):
                raise RuntimeError(f"{dst} is not a {kind} model")
        seconds = time.perf_counter() - t0
        self.check.op("dataset", tree_digest(p for p in dataset.iterdir()))
        return seconds, data

    # -- passes -----------------------------------------------------------
    # Each returns (wall seconds, samples); `samples` feeds the detail
    # metrics. Output checks run after the timed region.

    def train_pass(self, data: Data):
        m, spec = self.m, self.spec
        cfg = m["config"].Config()
        cfg.override("train.epochs", spec.nested_epochs)
        nested_args = (cfg.nested_arch(), cfg.train_config())
        cfg.override("train.epochs", spec.patch_epochs)
        patch_args = (cfg.patch_arch(), cfg.train_config())
        train, val = data.splits["train"], data.splits["val"]
        t0 = time.perf_counter()
        _, nested_log = m["training"].train_nested(train, val, *nested_args)
        _, patch_log = m["training"].train_patch(train, val, *patch_args)
        wall = time.perf_counter() - t0
        for kind, log in (("nested", nested_log), ("patch", patch_log)):
            for r in log.records:
                if not math.isfinite(r.train_loss):
                    self.check.fail(f"{kind}/{r.epoch}", f"non-finite loss {r.train_loss}")
                else:
                    self.check.op(f"{kind}/{r.epoch}", [r.train_loss, r.val_f1], _train_close)
        return wall, {"train.epoch_s": [r.wall_seconds for r in nested_log.records],
                      "train.patch_epoch_s": [r.wall_seconds for r in patch_log.records]}

    def compare_pass(self, data: Data):
        m = self.m
        classical = m["classical"]
        canny = classical.canny
        sigmas = []

        # comparison.csv holds every tuned threshold; Canny's tuned sigma is
        # seen only in its calls. The test split is evaluated after tuning,
        # so the last call carries the tuned sigma.
        def canny_probe(img, sigma=1.0, low=0.1, high=0.2):
            sigmas.append(sigma)
            return canny(img, sigma=sigma, low=low, high=high)

        csv = data.out / "comparison.csv"
        if csv.exists():  # a csv the pass fails to write reads as empty
            os.truncate(csv, 0)
        classical.canny = canny_probe
        stdout = io.StringIO()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                rc = m["cli"].main(["compare", "--out", str(data.out)])
            wall = time.perf_counter() - t0
        finally:
            classical.canny = canny
        if rc != 0:
            self.check.fail("compare", f"compare exited with {rc}")
        else:
            self.check.op("compare", {
                "canny_sigma": sigmas[-1],
                "table": stdout.getvalue(),
                "csv": csv.read_text(),
            })
        return wall, {"compare_s": [wall]}

    def detect_calls(self, data: Data) -> list:
        n = self.spec.detect_images
        images = data.test_images[:n] if n is not None else data.test_images
        calls = [(i, alg) for i in range(len(images)) for alg in FAST_DETECTORS]
        calls += [(i, "patchcnn") for i in range(min(self.spec.patchcnn_images, len(images)))]
        out_dir = self.work / "detect"
        model_dir = {"cnn": data.out, "patchcnn": data.patch_out}
        return [(f"{alg}/{i}", alg, out_dir / f"{alg}_{i:04d}.pgm",
                 ["detect", images[i], str(out_dir / f"{alg}_{i:04d}.pgm"),
                  "--algorithm", alg] + (["--out", str(model_dir[alg])] if alg in model_dir else []))
                for i, alg in calls]

    def detect_pass(self, data: Data):
        m = self.m
        calls = self.detect_calls(data)
        out_dir = calls[0][2].parent
        empty_files(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        latency = {alg: [] for alg in DETECTORS}
        codes = []
        tracer = self.tracer
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            for key, alg, _, argv in calls:
                span = tracer.span(f"detect.{alg}") if tracer else contextlib.nullcontext()
                t = time.perf_counter()
                with span:
                    rc = m["cli"].main(argv)
                latency[alg].append(time.perf_counter() - t)
                codes.append(rc)
            wall = time.perf_counter() - t0
        for (key, alg, out, _), rc in zip(calls, codes):
            if rc != 0:
                self.check.fail(key, f"detect exited with {rc}")
            else:
                self.check.op(key, tree_digest(out_dir.glob(out.stem + ".*pgm")))
        return wall, {f"detect.{alg}": lat for alg, lat in latency.items()}

    # -- runs -------------------------------------------------------------

    def run_pass(self, data: Data):
        try:
            return self.pass_fn(data)
        except Exception:  # an operation that raised is a failed operation
            traceback.print_exc()
            self.check.fail(self.workload, "raised")
            return None

    def measure(self, seconds: float) -> dict:
        """Set-ups, then an untimed warm-up pass, then timed passes until
        `seconds` (counted from the warm-up) would be exceeded, and at
        least `Spec.min_passes` of them. Every pass's output is checked."""
        setup_times, data = [], None
        for _ in range(self.spec.setups):
            gc.collect()
            t, data = self.setup()
            setup_times.append(t)
        passes = []
        t_start = time.perf_counter()
        gc.collect()
        warm = self.run_pass(data)  # first-touch page faults and cold caches
        while warm is not None:
            gc.collect()
            result = self.run_pass(data)
            if result is None:
                break
            passes.append(result)
            elapsed = time.perf_counter() - t_start
            walls = [w for w, _ in passes]
            if len(passes) >= self.spec.min_passes and elapsed + statistics.median(walls) > seconds:
                break
        samples = {}
        for _, pass_samples in passes:
            for k, v in pass_samples.items():
                samples.setdefault(k, []).extend(v)
        return {"setup_times": setup_times, "walls": [w for w, _ in passes],
                "samples": samples, "data": data}

    def save_repeat(self) -> None:
        """Keep the values of a run whose checks all passed, so the next
        run of this seed and this code in the checkout must repeat them.
        A run with a failed check sets no reference."""
        if self.check.failed:
            return
        doc = {**self.check.first, **self.check.previous}
        self.repeat_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.repeat_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, self.repeat_path)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def detail_metrics(samples: dict) -> dict:
    """Per-stage timings of the passes: epoch times, the compare run, and
    the latency of each detect algorithm, with their sample counts."""
    out = {}
    for name in ("train.epoch_s", "train.patch_epoch_s", "compare_s"):
        if samples.get(name):
            out[name] = {"value": statistics.median(samples[name]), "unit": "s",
                         "samples": len(samples[name])}
    for alg in DETECTORS:
        lat = samples.get(f"detect.{alg}")
        if not lat:
            continue
        ms = [x * 1000.0 for x in lat]
        out[f"detect.{alg}.p50_ms"] = {"value": statistics.median(ms), "unit": "ms",
                                       "samples": len(ms)}
        if alg != "patchcnn":
            out[f"detect.{alg}.p90_ms"] = {"value": p90(ms), "unit": "ms",
                                           "samples": len(ms)}
    return out
