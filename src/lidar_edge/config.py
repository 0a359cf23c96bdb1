"""Versioned JSON configuration for the command-line pipeline.

DEFAULTS is the schema: every key has a default, each value is read the
way its default is (see _read), and unknown keys anywhere in the
document are rejected so typos fail loudly. Flag overrides from the CLI
are applied after the file is parsed and before the one check.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .augment import AugmentSpec
from .errors import ConfigError, ParameterError
from .lidar import LidarConfig, ScenePolicy
from .losses import LOSSES
from .models import NestedArch, PatchArch, tensor_shapes
from .optim import OPTIMIZERS
from .training import TrainConfig, split_counts

CONFIG_VERSION = 1

DEFAULTS = {
    "config_version": CONFIG_VERSION,
    "lidar": {
        "height": 64, "width": 64, "max_range": 100.0, "noise_sigma": 0.05,
        "dropout_prob": 0.01,
    },
    "dataset": {
        "n": 280, "delta": 0.5, "ratios": [0.70, 0.15, 0.15], "seed": 42,
        "scene": {
            "min_primitives": 2, "max_primitives": 5,
            "kinds": ["disk", "rect", "halfplane"],
            "min_range": 5.0, "max_range_frac": 0.6,
            "min_size": 4, "max_size": 20,
            "background_lo": 60.0, "background_hi": 90.0,
        },
    },
    "model": {
        "variant": "nested", "widths": [8, 16, 32],
        "patch_channels": [4, 8], "patch_hidden": 32, "patch_dropout": 0.5,
    },
    "train": {
        "epochs": 30, "batch_size": 4, "learning_rate": 1e-2,
        "optimizer": "adam", "momentum": 0.0, "beta1": 0.9, "beta2": 0.999,
        "eps": 1e-8, "rho": 0.9, "loss": "bce", "class_balance": True,
        "lambdas": None, "patience": 30, "seed": 0, "augment_enabled": True,
    },
    "augment": {
        # pinned default keeps geometry label-exact: flips plus a light
        # salt-and-pepper sprinkle that mimics dropout speckle
        "rotation_deg": [0.0, 0.0], "translate_px": [0.0, 0.0],
        "scale": [1.0, 1.0], "shear": [0.0, 0.0],
        "flip_h_prob": 0.5, "flip_v_prob": 0.5,
        "gain": [1.0, 1.0], "offset": [0.0, 0.0],
        "noise_sigma": [0.0, 0.0], "salt_pepper": [0.0, 0.02],
        "occluder_count": 0, "occluder_size": [2, 8],
    },
    "eval": {"tolerance": 0, "n_thresholds": 51},
    "paths": {"out_dir": "out", "model": None},
}


def _merge(defaults: dict, overrides: dict, path: str = "") -> dict:
    out = {}
    for key, default in defaults.items():
        if key in overrides:
            value = overrides[key]
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{path}{key} must be an object")
                value = _merge(default, value, f"{path}{key}.")
            out[key] = value
        else:
            out[key] = _merge(default, {}, f"{path}{key}.") if isinstance(default, dict) else default
    for key in overrides:
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
    return out


# what a key whose default is null takes besides null
_OR_NULL = {"train.lambdas": [0.0], "paths.model": ""}
# the only values a key may take
_CHOICES = {"train.optimizer": OPTIMIZERS, "train.loss": LOSSES,
            "model.variant": ("nested", "patch")}
# the augment ranges, each drawn from by a transform: two numbers lo <= hi
_RANGES = {f"augment.{key}" for key, value in DEFAULTS["augment"].items() if type(value) is list}
MAX_THRESHOLDS = 10_001  # threshold_grid and sweep allocate in proportion to it
MAX_GRID_SIDE = 4096  # lidar.height and .width: rendering allocates height x width arrays
MAX_SAMPLES = 1_000_000  # dataset.n: splitting allocates a list of n indices
MAX_PRIMITIVES = 1000  # per scene; each is drawn and rendered in turn
MAX_OCCLUDERS = 1000  # per augmented image; each is drawn and applied in turn
MAX_PARAMETERS = 4_000_000  # per net: 32 MB per float64 copy (weights, gradient, optimizer slots)
# bounds of a number, or of each element of a list
_AT_MOST = {"eval.n_thresholds": MAX_THRESHOLDS, "lidar.height": MAX_GRID_SIDE,
            "lidar.width": MAX_GRID_SIDE, "dataset.n": MAX_SAMPLES,
            "dataset.scene.max_primitives": MAX_PRIMITIVES, "augment.occluder_count": MAX_OCCLUDERS,
            "augment.flip_h_prob": 1, "augment.flip_v_prob": 1, "augment.salt_pepper": 1}
_AT_LEAST = {"eval.n_thresholds": 2, "eval.tolerance": 0, "lidar.height": 1, "lidar.width": 1,
             "lidar.noise_sigma": 0, "lidar.dropout_prob": 0, "dataset.n": 1, "train.epochs": 1,
             "train.batch_size": 1, "train.lambdas": 0, "train.patience": 1, "train.momentum": 0,
             "train.beta1": 0, "train.beta2": 0, "train.rho": 0, "augment.flip_h_prob": 0,
             "augment.flip_v_prob": 0, "augment.noise_sigma": 0, "augment.salt_pepper": 0,
             "augment.occluder_count": 0, "augment.occluder_size": 1}
_ABOVE = {"lidar.max_range": 0.0, "dataset.delta": 0.0, "train.learning_rate": 0.0,
          "train.eps": 0.0, "augment.scale": 0.0, "augment.gain": 0.0}
_BELOW = {"lidar.dropout_prob": 1.0, "train.momentum": 1.0, "train.beta1": 1.0,
          "train.beta2": 1.0, "train.rho": 1.0}
_BOUNDED = {*_CHOICES, *_AT_MOST, *_AT_LEAST, *_ABOVE, *_BELOW}


@functools.cache
def _leaves(name: str) -> list:
    """(key, dotted key, default) of every leaf of the section of DEFAULTS
    at the dotted name; nested sections are left out."""
    defaults = functools.reduce(dict.__getitem__, name.split("."), DEFAULTS)
    return [(key, f"{name}.{key}", default) for key, default in defaults.items()
            if not isinstance(default, dict)]


# the key of each field a typed view's own rule names (ParameterError.fields):
# a field has its key's name, but for NestedArch.input_hw
_FIELD_KEYS = {key: dotted for name in ("lidar", "dataset", "dataset.scene", "model")
               for key, dotted, _ in _leaves(name)} | {"input_hw": "lidar.height and lidar.width"}


def _read(default, value):
    """value read the way default is, or ValueError: a bool default takes
    true or false only; an int or float default a finite number that the
    cast leaves as it is (never 2.5 as 2, true as 1, "0.01" or NaN); a str
    default a string; a list default a list whose elements are each read
    the way default[0] is, returned as a tuple."""
    kind = type(default)
    if kind is list:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{value!r} is not a list")
        try:
            return tuple(_read(default[0], v) for v in value)
        except ValueError as exc:
            raise ValueError(f"element {exc}") from None
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    if kind in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            out = kind(value)
        except (ValueError, OverflowError):  # int(NaN), int(inf), float(10 ** 400)
            out = None
        if out == value and out not in (math.inf, -math.inf):
            return out
    raise ValueError(f"{value!r} is not a valid {kind.__name__}")


def _read_key(dotted: str, default, value):
    """_read for the key at dotted, with its null rule, choices and bounds; a
    value refused raises ConfigError naming the key."""
    try:
        if default is None:
            if value is None:
                return None
            default = _OR_NULL[dotted]
        out = _read(default, value)
        if dotted in _RANGES and (len(out) != 2 or out[0] > out[1]):
            raise ValueError("not two numbers lo <= hi")
        if dotted not in _BOUNDED:
            return out
        each = "each " if type(out) is tuple else ""
        for v in out if each else (out,):
            if dotted in _CHOICES and v not in _CHOICES[dotted]:
                raise ValueError(f"{each}one of {', '.join(_CHOICES[dotted])}")
            if dotted in _AT_MOST and v > _AT_MOST[dotted]:
                raise ValueError(f"{each}at most {_AT_MOST[dotted]}")
            if dotted in _AT_LEAST and v < _AT_LEAST[dotted]:
                raise ValueError(f"{each}at least {_AT_LEAST[dotted]}")
            if dotted in _ABOVE and v <= _ABOVE[dotted]:
                raise ValueError(f"{each}above {_ABOVE[dotted]:g}")
            if dotted in _BELOW and v >= _BELOW[dotted]:
                raise ValueError(f"{each}below {_BELOW[dotted]:g}")
    except ValueError as exc:
        raise ConfigError(f"invalid config value for {dotted}: {value!r} ({exc})") from exc
    return out


@dataclass
class Config:
    raw: dict = field(default_factory=lambda: _merge(DEFAULTS, {}))

    @classmethod
    def load(cls, path=None, overrides: dict | None = None) -> "Config":
        """The defaults, the file at path merged over them if there is one,
        then the overrides {dotted key: value}; checked once."""
        doc = {}
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as f:
                    doc = json.load(f)
            # ValueError covers bad JSON, bad UTF-8 and integers of over 4300 digits
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"{path}: invalid JSON ({type(exc).__name__}: {exc})") from exc
            if not isinstance(doc, dict):
                raise ConfigError(f"{path}: config root must be an object")
        cfg = cls(raw=_merge(DEFAULTS, doc))
        for dotted, value in (overrides or {}).items():
            cfg.override(dotted, value)
        cfg.check()
        return cfg

    def check(self) -> None:
        """Read every key and build every typed view once, so a value of
        the wrong kind or range fails here, before any work starts,
        rather than where it is first used."""
        version = _read_key("config_version", CONFIG_VERSION, self.raw["config_version"])
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {version}")
        self.section("eval")
        dataset = self.section("dataset")
        try:
            split_counts(dataset["n"], dataset["ratios"])
            nets = {"model.widths": self.nested_arch(),
                    "model.patch_channels and model.patch_hidden": self.patch_arch()}
            self.scene_policy().validate(self.lidar())
        except ParameterError as exc:
            keys = " and ".join(_FIELD_KEYS[name] for name in exc.fields)
            raise ConfigError(f"invalid config value for {keys}: {exc}") from exc
        for keys, arch in nets.items():
            size = sum(math.prod(shape) for _, shape in tensor_shapes(arch))
            if size > MAX_PARAMETERS:
                raise ConfigError(f"invalid config value for {keys}: a net of {size} "
                                  f"parameters (at most {MAX_PARAMETERS})")
        train, stages = self.train_config(), nets["model.widths"].stages
        if train.lambdas is not None and len(train.lambdas) != stages:
            raise ConfigError(f"invalid config value for train.lambdas: "
                              f"{len(train.lambdas)} weights for {stages} side outputs")
        self.model_path()

    def section(self, name: str) -> dict:
        """Every leaf of the section at the dotted name ("lidar",
        "dataset.scene"), read the way its default is (see _leaves). A
        value refused raises ConfigError naming its key."""
        node = functools.reduce(dict.__getitem__, name.split("."), self.raw)
        return {key: _read_key(dotted, default, node[key])
                for key, dotted, default in _leaves(name)}

    def override(self, dotted_key: str, value) -> None:
        """Apply one CLI override like ('dataset.n', 10)."""
        parts = dotted_key.split(".")
        node = self.raw
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config key {dotted_key!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key {dotted_key!r}")
        node[parts[-1]] = value

    # typed views -----------------------------------------------------

    def lidar(self) -> LidarConfig:
        return LidarConfig(**self.section("lidar"))

    def scene_policy(self) -> ScenePolicy:
        return ScenePolicy(**self.section("dataset.scene"))

    def augment_spec(self) -> AugmentSpec:
        return AugmentSpec(**self.section("augment"))

    def nested_arch(self) -> NestedArch:
        lidar = self.section("lidar")
        return NestedArch(widths=self.section("model")["widths"],
                          input_hw=(lidar["height"], lidar["width"]))

    def patch_arch(self) -> PatchArch:
        return PatchArch(**{key: value for key, value in self.section("model").items()
                            if key.startswith("patch_")})

    def train_config(self) -> TrainConfig:
        """The train section, and the augment section's spec, read (and so
        checked) whether or not train.augment_enabled puts it to use."""
        return TrainConfig(**self.section("train"), augment=self.augment_spec())

    def out_dir(self) -> Path:
        return Path(self.section("paths")["out_dir"])

    def model_path(self) -> Path:
        """paths.model, or model.ledm in the output directory when it is null."""
        paths = self.section("paths")
        return Path(paths["model"] or Path(paths["out_dir"], "model.ledm"))
