"""End-to-end training: dataset splitting, the multi-task loss, one
epoch loop for both model variants, and gradient checking.

`_fit` runs the epochs of either variant: minibatch steps on the
averaged gradient, laid out as the network's flat parameter vector, the
divergence check, best-val-F1 selection and early stopping. Each variant
brings only its own parts: `train_nested` the seeded image order,
augmentation and the multi-task loss; `train_patch` the seeded patch
draws, per-example dropout seeds and the patch F1. `_nested_step` and
`_patch_step` are the variants' train-mode batch steps; `grad_check`
runs the same steps on a batch of one.

Everything is deterministic given the config seed: shuffling, weight
init, per-sample augmentation seeds, and dropout all derive from
SplitMix64 streams.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .augment import AugmentSpec, sample_and_apply
from .errors import ConfigError, DimensionError, DivergenceError, ParameterError
from .evaluation import metrics, sweep
from .formats import DatasetManifest, read_pgm, resolve
from .layers import conv_forward, maxpool2x2_forward, relu, sigmoid
from .losses import pixel_losses
from .models import (PATCH_SIZE, ForwardTrace, NestedArch, NestedNetParams,
                     PatchArch, PatchNetParams, backward_nested, backward_patch,
                     forward_nested, forward_patch, init_nested, init_patch,
                     laid_end_to_end)
from .optim import OptimizerState, optimizer_step
from .rng import SplitMix64, splitmix64


@dataclass(frozen=True)
class TrainConfig:
    """The train config section as read, and the augment section's spec,
    put to use when augment_enabled is true; config.py holds their
    defaults and bounds."""
    epochs: int
    batch_size: int
    learning_rate: float
    optimizer: str
    momentum: float         # sgd
    beta1: float            # adam
    beta2: float
    eps: float
    rho: float              # rmsprop
    loss: str
    class_balance: bool
    lambdas: tuple | None   # None = 1.0 per side
    patience: int
    seed: int
    augment_enabled: bool
    augment: AugmentSpec


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_f1: float
    wall_seconds: float


@dataclass
class RunLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1


def runlog_csv(log: RunLog) -> str:
    """CSV export. The seconds column is fixed at 0.000 so identical
    seeds yield byte-identical files; measured wall time stays in the
    in-memory records."""
    lines = ["epoch,train_loss,val_f1,seconds"]
    for r in log.records:
        lines.append(f"{r.epoch},{r.train_loss:.10f},{r.val_f1:.6f},0.000")
    return "\n".join(lines) + "\n"


def split_counts(n: int, ratios) -> list[int]:
    """The (train, val, test) block sizes of n samples: round(n * ratio)
    each, the train block absorbing any rounding excess or deficit. The
    ratios must be 3 nonnegative values summing to 1, and the train block
    must not come out negative."""
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ParameterError(f"ratios must be 3 nonnegative values summing to 1, got {ratios}",
                             ("ratios",))
    counts = [int(np.floor(n * r + 0.5)) for r in ratios]
    counts[0] += n - sum(counts)
    if counts[0] < 0:
        raise ParameterError(f"rounding left a negative train count for n={n}, {ratios}",
                             ("n", "ratios"))
    return counts


def split_dataset(manifest: DatasetManifest, ratios: tuple,
                  seed: int) -> DatasetManifest:
    """Tag entries train/val/test by seeded shuffle + contiguous blocks of
    the split_counts sizes."""
    n = len(manifest.entries)
    if n == 0:
        raise ParameterError("cannot split an empty manifest")
    counts = split_counts(n, ratios)
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    tagged = copy.deepcopy(manifest)
    bounds = np.cumsum(counts)
    for pos, idx in enumerate(order):
        tag = "train" if pos < bounds[0] else "val" if pos < bounds[1] else "test"
        tagged.entries[idx].split = tag
    return tagged


def load_split(manifest: DatasetManifest, base_dir, split: str) -> list:
    """(intensity image, label) pairs for one split tag."""
    base = Path(base_dir)
    out = []
    for e in manifest.entries:
        if e.split == split:
            out.append((read_pgm(resolve(base, e.intensity)),
                        read_pgm(resolve(base, e.label))))
    return out


def total_loss(trace: ForwardTrace, labels: np.ndarray,
               cfg: TrainConfig) -> tuple:
    """Multi-task loss of each example of a batch: weighted side losses
    plus the fused-map loss. labels has the trace's shape, (N, H, W).

    Returns (losses, dL/d fused map, [direct dL/d side map i]), with one
    loss per example, (N,).
    """
    s = len(trace.side_probs)
    lambdas = cfg.lambdas if cfg.lambdas is not None else (1.0,) * s
    if len(lambdas) != s:
        raise ConfigError(f"{len(lambdas)} side-loss weights for {s} side outputs")
    if trace.fused.ndim != 3:
        raise DimensionError(f"expected the trace of a batch, (N, H, W), got {trace.fused.shape}")
    losses, d_fused = pixel_losses(cfg.loss, trace.fused, labels, cfg.class_balance)
    d_sides = []
    for lam, side in zip(lambdas, trace.side_probs):
        side_losses, d = pixel_losses(cfg.loss, side, labels, cfg.class_balance)
        losses += lam * side_losses
        d_sides.append(lam * d)
    return losses, d_fused, d_sides


def _chunks(n: int, size: int):
    return (slice(start, start + size) for start in range(0, n, size))


def validation_f1(params: NestedNetParams, val_samples: list, batch_size: int) -> float:
    """Pooled F1 of the fused map at threshold 0.5, from batched forwards
    of batch_size images at a time, swept as the maps prob >= 0.5."""
    def levels():
        for chunk in _chunks(len(val_samples), batch_size):
            samples = val_samples[chunk]
            images = np.stack([img for img, _ in samples])[:, np.newaxis]
            for prob, (_, label) in zip(forward_nested(params, images).fused, samples):
                yield prob >= 0.5, label

    return metrics(sweep(levels(), 1)[0]).f1


def _nested_step(params: NestedNetParams, pairs: list, cfg: TrainConfig) -> tuple:
    """The train-mode forward of a batch of (image, label) pairs and its
    multi-task loss: (losses, backward), as _fit's batch_of returns them."""
    images = np.stack([img for img, _ in pairs])[:, np.newaxis]
    trace = forward_nested(params, images, train_mode=True)
    losses, d_fused, d_sides = total_loss(trace, np.stack([l for _, l in pairs]), cfg)
    return losses, lambda: backward_nested(params, trace, d_fused, d_sides)


def _patch_step(params: PatchNetParams, patches: np.ndarray, labels: np.ndarray,
                seeds: list, cfg: TrainConfig) -> tuple:
    """The train-mode forward of (n, 1, 28, 28) patches, each with its
    dropout seed, and their center-pixel loss: (losses, backward)."""
    trace = forward_patch(params, patches, train_mode=True, seeds=seeds)
    losses, d_prob = pixel_losses(cfg.loss, trace.prob[:, np.newaxis],
                                  labels[:, np.newaxis], class_balance=False)
    return losses, lambda: backward_patch(params, trace, d_prob[:, 0])


def _fit(params, cfg: TrainConfig, epoch_items, batch_of, val_f1_of, progress,
         simplex: tuple = ()) -> tuple:
    """The epoch loop both variants share: minibatch steps on the gradient
    averaged over each batch, best-val-F1 selection and early stopping.

    epoch_items(epoch) lists the epoch's training items in visiting order;
    batch_of(epoch, start, batch) runs the forward of the items at
    positions start, start+1, ... and returns (losses, backward): one loss
    per item, and backward() gives [(name, grads)] with one gradient per
    item along the leading axis. backward runs only once every loss of
    the batch has been found finite, and the gradients are averaged item
    by item in batch order, as if each had been computed alone.
    val_f1_of() scores the current params; simplex lists the views of
    params.flat the optimizer keeps on the probability simplex.
    """
    state, log = OptimizerState(), RunLog()
    grad_sum = np.empty_like(params.flat)
    best, best_f1, stale = copy.deepcopy(params), -1.0, 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        items = epoch_items(epoch)
        epoch_loss = 0.0
        for start in range(0, len(items), cfg.batch_size):
            batch = items[start:start + cfg.batch_size]
            losses, backward = batch_of(epoch, start, batch)
            losses = np.asarray(losses, dtype=np.float64)
            finite = np.isfinite(losses)
            if not finite.all():
                i = int(np.argmin(finite))
                raise DivergenceError(
                    f"non-finite loss {losses[i]} at epoch {epoch}, example {start + i}")
            # one row per example, laid out as params.flat; rows added in batch order
            per_example = laid_end_to_end([g for _, g in backward()], (len(batch),))
            per_example *= 1.0 / len(batch)
            grad_sum.fill(0.0)
            for row in per_example:
                grad_sum += row
            for loss in losses.tolist():
                epoch_loss += loss
            optimizer_step(params, grad_sum, state, cfg, simplex)
        epoch_loss /= max(len(items), 1)
        val_f1 = val_f1_of()
        record = EpochRecord(epoch=epoch, train_loss=epoch_loss, val_f1=val_f1,
                             wall_seconds=time.perf_counter() - t0)
        log.records.append(record)
        if progress is not None:
            progress(record)
        if val_f1 > best_f1:
            best_f1, best, stale = val_f1, copy.deepcopy(params), 0
            log.best_epoch = epoch
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best, log


def train_nested(train_samples: list, val_samples: list, arch: NestedArch,
                 cfg: TrainConfig,
                 progress=None) -> tuple[NestedNetParams, RunLog]:
    """Minibatch training of the nested detector with best-val-F1
    selection and early stopping."""
    if not train_samples or not val_samples:
        raise ParameterError("train and validation splits must be nonempty")
    params = init_nested(arch, cfg.seed)

    def epoch_items(epoch):
        order = list(range(len(train_samples)))
        SplitMix64(splitmix64(cfg.seed, 1000 + epoch)).shuffle(order)
        return order

    def batch_of(epoch, start, batch):
        pairs = [train_samples[idx] for idx in batch]
        if cfg.augment_enabled:
            pairs = [sample_and_apply(img, label, cfg.augment,
                                      splitmix64(cfg.seed, epoch * 1_000_003 + idx))
                     for (img, label), idx in zip(pairs, batch)]
        return _nested_step(params, pairs, cfg)

    return _fit(params, cfg, epoch_items, batch_of,
                lambda: validation_f1(params, val_samples, batch_size=cfg.batch_size),
                progress, simplex=(params.alpha,))


def draw_centers(samples: list, seed: int, per_image: int) -> tuple[np.ndarray, np.ndarray]:
    """per_image patch centers per (image, label) pair and their labels,
    as one (n, 3) array of (image index, row, column) and one (n,) array.

    Even draws are centered on an edge pixel where the image has one, odd
    draws on any pixel.
    """
    rng = SplitMix64(seed)
    centers = np.empty((len(samples) * per_image, 3), dtype=np.intp)
    labels = np.empty(len(samples) * per_image)
    k = 0
    for i, (img, label) in enumerate(samples):
        pos = np.argwhere(label == 1.0)
        h, w = img.shape
        for draw in range(per_image):
            if draw % 2 == 0 and len(pos):
                r, c = pos[rng.randint(len(pos))]
            else:
                r, c = rng.randint(h), rng.randint(w)
            centers[k] = i, r, c
            labels[k] = label[r, c]
            k += 1
    return centers, labels


def cut_patches(samples: list, centers: np.ndarray) -> np.ndarray:
    """The 28x28 patches of the sample images at centers, as one
    (n, 1, 28, 28) array; a patch reaching past its image's border
    repeats the edge pixels, as an edge-padded image would (take's
    "clip" mode moves an index outside the image onto its edge)."""
    offsets = np.arange(PATCH_SIZE) - PATCH_SIZE // 2
    rows, cols = centers[:, 1:2] + offsets, centers[:, 2:3] + offsets
    patches = np.empty((len(centers), 1, PATCH_SIZE, PATCH_SIZE))
    for k, i in enumerate(centers[:, 0]):
        patches[k, 0] = (samples[i][0].take(rows[k], axis=0, mode="clip")
                         .take(cols[k], axis=1, mode="clip"))
    return patches


def train_patch(train_samples: list, val_samples: list, arch: PatchArch,
                cfg: TrainConfig, patches_per_image: int = 32,
                progress=None) -> tuple[PatchNetParams, RunLog]:
    """Train the 28x28 patch classifier on balanced center-pixel samples.

    Each epoch draws patches_per_image patches per training image, half
    centered on edge pixels where available. Validation F1 is computed
    on a fixed seeded patch sample per epoch.
    """
    if not train_samples or not val_samples:
        raise ParameterError("train and validation splits must be nonempty")
    params = init_patch(arch, cfg.seed)
    val_centers, val_labels = draw_centers(val_samples, splitmix64(cfg.seed, 7),
                                           patches_per_image)
    draw = None  # the epoch's (centers, labels); each step cuts its own patches

    def epoch_items(epoch):
        nonlocal draw
        draw = draw_centers(train_samples, splitmix64(cfg.seed, 2000 + epoch),
                            patches_per_image)
        order = list(range(len(draw[1])))
        SplitMix64(splitmix64(cfg.seed, 3000 + epoch)).shuffle(order)
        return order

    def batch_of(epoch, start, batch):
        centers, labels = draw
        seeds = [splitmix64(cfg.seed, 4000 + epoch * 100_003 + position)
                 for position in range(start, start + len(batch))]
        return _patch_step(params, cut_patches(train_samples, centers[batch]),
                           labels[batch], seeds, cfg)

    def val_f1_of():
        probs = np.concatenate([
            forward_patch(params, cut_patches(val_samples, val_centers[chunk])).prob
            for chunk in _chunks(len(val_labels), cfg.batch_size)])
        return metrics(sweep([((probs >= 0.5)[np.newaxis], val_labels[np.newaxis])], 1)[0]).f1

    return _fit(params, cfg, epoch_items, batch_of, val_f1_of, progress)


def patch_prob_map(params: PatchNetParams, img: np.ndarray) -> np.ndarray:
    """Edge probability of every pixel: the patch net's score of the 28x28
    patch centred on it in the edge-padded image, in one dense pass.

    conv1 runs once over the padded image. Each stride-2 pool keeps one
    row and column offset of the grid, so the pixels are scored in 2x2
    groups per pool (shift-and-stitch, Sermanet et al. 2014): pool-1
    offset (a, b) and pool-2 offset (a2, b2) hold the pixels at rows
    a + 2*a2 + 4n and columns b + 2*b2 + 4m. fc1 reads a 4x4 window of
    pooled features, so its 4x4 valid convolution slides over the pooled
    map, and so does fc2's 1x1 one (Long et al. 2015). Every slice pooled
    here has an even length. Dropout is off, as in forward_patch outside training.
    """
    h, w = img.shape
    padded = np.pad(np.asarray(img, dtype=np.float64), PATCH_SIZE // 2, mode="edge")
    act1 = relu(conv_forward(padded[np.newaxis], params.conv1))
    out = np.zeros((h, w))
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    for a, b in offsets:
        # a patch reads 12 pool-1 rows, so n rows of patches need n + 11
        ni, nj = len(range(a, h, 2)), len(range(b, w, 2))
        if ni == 0 or nj == 0:
            continue
        pool1 = maxpool2x2_forward(act1[:, a:a + 2 * (ni + 11), b:b + 2 * (nj + 11)])
        act2 = relu(conv_forward(pool1, params.conv2))
        for a2, b2 in offsets:
            # ... and 4 pool-2 rows, so n rows need n + 3
            nk, nl = len(range(a2, ni, 2)), len(range(b2, nj, 2))
            if nk == 0 or nl == 0:
                continue
            pool2 = maxpool2x2_forward(act2[:, a2:a2 + 2 * (nk + 3), b2:b2 + 2 * (nl + 3)])
            logit = conv_forward(relu(conv_forward(pool2, params.fc1)), params.fc2)
            out[a + 2 * a2::4, b + 2 * b2::4] = sigmoid(logit)[0]
    return out


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


def _run_fd(tensors: list, analytic: dict, loss_of) -> list[GradCheckEntry]:
    """Central differences of step 1e-5 against the analytic gradients."""
    eps, report = 1e-5, []
    for name, tensor in tensors:
        numeric = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_of()
            flat[i] = orig - eps
            down = loss_of()
            flat[i] = orig
            num_flat[i] = (up - down) / (2.0 * eps)
        report.append(GradCheckEntry(name=name,
                                     max_rel_error=_rel_err(analytic[name], numeric)))
    return report


def grad_check(variant: str, cfg: TrainConfig, seed: int = 0,
               tolerance: float = 1e-4) -> tuple[bool, list[GradCheckEntry]]:
    """Central-difference check of every parameter tensor of a tiny
    instance of one model variant, through the train-mode step _fit takes
    with cfg's loss, on a batch of one: an 8x8 nested net with nonzero side
    heads, or a patch net with dropout active under a fixed mask seed."""
    if variant == "nested":
        params = init_nested(NestedArch(widths=(2, 2), input_hw=(8, 8)), seed)
        rng = SplitMix64(splitmix64(seed, 99))
        # nonzero side heads so their gradients are exercised away from 0.5
        for head in params.side_heads:
            head.weights[...] = rng.normals(head.weights.size).reshape(head.weights.shape) * 0.3
            head.bias[...] = rng.normals(head.bias.size) * 0.1
        x = rng.floats(64).reshape(8, 8)
        label = (rng.floats(64).reshape(8, 8) < 0.3).astype(np.float64)
        cfg = replace(cfg, lambdas=(1.0, 0.7), seed=seed)
        step = lambda: _nested_step(params, [(x, label)], cfg)
    elif variant == "patch":
        arch = PatchArch(patch_channels=(2, 2), patch_hidden=4, patch_dropout=0.5)
        params = init_patch(arch, seed)
        patch = SplitMix64(splitmix64(seed, 98)).floats(28 * 28).reshape(1, 1, 28, 28)
        step = lambda: _patch_step(params, patch, np.ones(1), [splitmix64(seed, 97)], cfg)
    else:
        raise ParameterError(f"unknown model variant {variant!r}")
    analytic = {name: g[0] for name, g in step()[1]()}
    report = _run_fd(params.named_tensors(), analytic, lambda: float(step()[0][0]))
    return all(e.max_rel_error <= tolerance for e in report), report
