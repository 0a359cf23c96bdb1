"""Versioned JSON configuration for the command-line pipeline.

Every section has defaults; unknown keys anywhere in the document are
rejected so typos fail loudly. Flag overrides from the CLI are applied
after the file is parsed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .augment import AugmentSpec
from .errors import ConfigError
from .lidar import LidarConfig, ScenePolicy
from .models import NestedArch, PatchArch
from .optim import OPTIMIZERS, OptimizerConfig
from .training import TrainConfig

CONFIG_VERSION = 1
MODEL_VARIANTS = ("nested", "patch")

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
        "variant": "nested", "stages": 3, "widths": [8, 16, 32],
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
            raise ConfigError(f"unknown config key {path}{key!r}")
    return out


MAX_THRESHOLDS = 10_001  # threshold_grid and sweep allocate in proportion to it
MAX_GRID_SIDE = 4096  # lidar.height and .width: rendering allocates height x width arrays


def _exactly(cast):
    """cast for a finite number that cast leaves as it is: a value that is
    not a number (strings and booleans included), that cast would change
    (2.5 to int, NaN to float), or that is infinite is refused."""
    def exact(value):
        out = cast(value)
        if (isinstance(value, bool) or not isinstance(value, (int, float)) or out != value
                or out in (math.inf, -math.inf)):
            raise ValueError(f"{value!r} is not a valid {cast.__name__}")
        return out
    exact.__name__ = cast.__name__
    return exact


def _tuple_of(cast):
    """A cast for a list of numbers that cast leaves as they are: an
    element that is not a finite number, or that cast would change (16.5
    to int, NaN to float), is refused."""
    element = _exactly(cast)

    def cast_all(values):
        if not isinstance(values, (list, tuple)):
            raise TypeError(f"expected a list, got {type(values).__name__}")
        try:
            return tuple(element(v) for v in values)
        except ValueError as exc:
            raise ValueError(f"element {exc}") from None
    return cast_all


def _boolean(value):
    """A JSON true or false; anything else, "false" and 0 included, is refused."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {type(value).__name__}")
    return value


def _text(value):
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _or_none(cast):
    """cast, or None for a JSON null."""
    return lambda value: None if value is None else cast(value)


@dataclass
class Config:
    raw: dict = field(default_factory=lambda: _merge(DEFAULTS, {}))

    @classmethod
    def load(cls, path=None) -> "Config":
        if path is None:
            return cls()
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        # ValueError covers bad JSON, bad UTF-8 and integers of over 4300 digits
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({type(exc).__name__}: {exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config root must be an object")
        merged = _merge(DEFAULTS, doc)
        if merged["config_version"] != CONFIG_VERSION:
            raise ConfigError(
                f"unsupported config_version {merged['config_version']}")
        cfg = cls(raw=merged)
        cfg.check()
        return cfg

    def check(self) -> None:
        """Build every typed view once, so a value of the wrong type or
        range fails here, before any work starts, rather than where the
        view is first used."""
        d, e, lidar = self._section("dataset"), self._section("eval"), self._section("lidar")
        try:
            d("n", int), d("delta", float), d("seed", int), d("ratios", _tuple_of(float))
            e("tolerance", int)
            bounded = (("eval.n_thresholds", e("n_thresholds", int), MAX_THRESHOLDS),
                       ("lidar.height", lidar("height", int), MAX_GRID_SIDE),
                       ("lidar.width", lidar("width", int), MAX_GRID_SIDE))
            for key, value, most in bounded:
                if value > most:
                    raise ConfigError(f"invalid config value for {key}: "
                                      f"{value} (at most {most})")
            for view in (self.lidar, self.scene_policy, self.augment_spec,
                         self.nested_arch, self.patch_arch, self.train_config,
                         self.model_path):
                view()
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from exc
        if self.raw["model"]["variant"] not in MODEL_VARIANTS:
            raise ConfigError(f"unknown model variant {self.raw['model']['variant']!r}")

    def _section(self, name: str):
        """get(key, cast) = cast(value of name.key); a value that cast
        refuses, or an int or float key's value that is not a finite
        number its cast leaves as it is, raises ConfigError naming its
        dotted key."""
        node = self.raw
        for part in name.split("."):
            node = node[part]

        def get(key, cast):
            if cast in (int, float):  # never 2.5 as 2, true as 1, "0.01" or NaN
                cast = _exactly(cast)
            try:
                return cast(node[key])
            except (ValueError, TypeError, OverflowError) as exc:
                raise ConfigError(f"invalid config value for {name}.{key}: "
                                  f"{node[key]!r} ({exc})") from exc
        return get

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
        d = self._section("lidar")
        return LidarConfig(height=d("height", int), width=d("width", int),
                           max_range=d("max_range", float),
                           noise_sigma=d("noise_sigma", float),
                           dropout_prob=d("dropout_prob", float))

    def scene_policy(self) -> ScenePolicy:
        d = self._section("dataset.scene")
        return ScenePolicy(min_primitives=d("min_primitives", int),
                           max_primitives=d("max_primitives", int),
                           kinds=d("kinds", tuple),
                           min_range=d("min_range", float),
                           max_range_frac=d("max_range_frac", float),
                           min_size=d("min_size", int),
                           max_size=d("max_size", int),
                           background_lo=d("background_lo", float),
                           background_hi=d("background_hi", float))

    def augment_spec(self) -> AugmentSpec:
        d = self._section("augment")
        span = _tuple_of(float)
        return AugmentSpec(rotation_deg=d("rotation_deg", span),
                           translate_px=d("translate_px", span),
                           scale=d("scale", span), shear=d("shear", span),
                           flip_h_prob=d("flip_h_prob", float),
                           flip_v_prob=d("flip_v_prob", float),
                           gain=d("gain", span), offset=d("offset", span),
                           noise_sigma=d("noise_sigma", span),
                           salt_pepper=d("salt_pepper", span),
                           occluder_count=d("occluder_count", int),
                           occluder_size=d("occluder_size", _tuple_of(int)))

    def nested_arch(self) -> NestedArch:
        m, lidar = self._section("model"), self._section("lidar")
        return NestedArch(stages=m("stages", int), widths=m("widths", _tuple_of(int)),
                          input_hw=(lidar("height", int), lidar("width", int)))

    def patch_arch(self) -> PatchArch:
        m = self._section("model")
        return PatchArch(conv_channels=m("patch_channels", _tuple_of(int)),
                         hidden=m("patch_hidden", int),
                         dropout_rate=m("patch_dropout", float))

    def optimizer(self) -> OptimizerConfig:
        kind, t = self.raw["train"]["optimizer"], self._section("train")
        if kind not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {kind!r}")
        return OptimizerConfig(kind=kind,
                               learning_rate=t("learning_rate", float),
                               momentum=t("momentum", float),
                               beta1=t("beta1", float), beta2=t("beta2", float),
                               eps=t("eps", float), rho=t("rho", float))

    def train_config(self) -> TrainConfig:
        t = self._section("train")
        return TrainConfig(epochs=t("epochs", int),
                           batch_size=t("batch_size", int),
                           optimizer=self.optimizer(),
                           loss_kind=self.raw["train"]["loss"],
                           class_balance=t("class_balance", _boolean),
                           lambdas=t("lambdas", _or_none(_tuple_of(float))),
                           augment=self.augment_spec() if t("augment_enabled", _boolean) else None,
                           patience=t("patience", int), seed=t("seed", int))

    def out_dir(self) -> Path:
        return Path(self._section("paths")("out_dir", _text))

    def model_path(self) -> Path:
        """paths.model, or model.ledm in the output directory when it is null."""
        explicit = self._section("paths")("model", _or_none(_text))
        return Path(explicit) if explicit else self.out_dir() / "model.ledm"
