"""Versioned JSON configuration for the command-line pipeline.

Every section has defaults; unknown keys anywhere in the document are
rejected so typos fail loudly. Flag overrides from the CLI are applied
after the file is parsed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
        "height": 64, "width": 64, "h_fov_deg": 90.0, "v_fov_deg": 30.0,
        "max_range": 100.0, "noise_sigma": 0.05, "dropout_prob": 0.01,
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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
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
        d, e = self.raw["dataset"], self.raw["eval"]
        try:
            int(d["n"]), float(d["delta"]), int(d["seed"]), tuple(d["ratios"])
            int(e["tolerance"]), int(e["n_thresholds"])
            for view in (self.lidar, self.scene_policy, self.augment_spec,
                         self.nested_arch, self.patch_arch, self.train_config):
                view()
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from exc
        if self.raw["model"]["variant"] not in MODEL_VARIANTS:
            raise ConfigError(f"unknown model variant {self.raw['model']['variant']!r}")

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
        d = self.raw["lidar"]
        return LidarConfig(height=int(d["height"]), width=int(d["width"]),
                           h_fov=math.radians(d["h_fov_deg"]),
                           v_fov=math.radians(d["v_fov_deg"]),
                           max_range=float(d["max_range"]),
                           noise_sigma=float(d["noise_sigma"]),
                           dropout_prob=float(d["dropout_prob"]))

    def scene_policy(self) -> ScenePolicy:
        d = self.raw["dataset"]["scene"]
        return ScenePolicy(min_primitives=int(d["min_primitives"]),
                           max_primitives=int(d["max_primitives"]),
                           kinds=tuple(d["kinds"]),
                           min_range=float(d["min_range"]),
                           max_range_frac=float(d["max_range_frac"]),
                           min_size=int(d["min_size"]),
                           max_size=int(d["max_size"]),
                           background_lo=float(d["background_lo"]),
                           background_hi=float(d["background_hi"]))

    def augment_spec(self) -> AugmentSpec:
        d = self.raw["augment"]
        return AugmentSpec(rotation_deg=tuple(d["rotation_deg"]),
                           translate_px=tuple(d["translate_px"]),
                           scale=tuple(d["scale"]), shear=tuple(d["shear"]),
                           flip_h_prob=float(d["flip_h_prob"]),
                           flip_v_prob=float(d["flip_v_prob"]),
                           gain=tuple(d["gain"]), offset=tuple(d["offset"]),
                           noise_sigma=tuple(d["noise_sigma"]),
                           salt_pepper=tuple(d["salt_pepper"]),
                           occluder_count=int(d["occluder_count"]),
                           occluder_size=tuple(d["occluder_size"]))

    def nested_arch(self) -> NestedArch:
        m = self.raw["model"]
        lidar = self.raw["lidar"]
        return NestedArch(stages=int(m["stages"]), widths=tuple(m["widths"]),
                          input_hw=(int(lidar["height"]), int(lidar["width"])))

    def patch_arch(self) -> PatchArch:
        m = self.raw["model"]
        return PatchArch(conv_channels=tuple(m["patch_channels"]),
                         hidden=int(m["patch_hidden"]),
                         dropout_rate=float(m["patch_dropout"]))

    def optimizer(self) -> OptimizerConfig:
        t = self.raw["train"]
        if t["optimizer"] not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {t['optimizer']!r}")
        return OptimizerConfig(kind=t["optimizer"],
                               learning_rate=float(t["learning_rate"]),
                               momentum=float(t["momentum"]),
                               beta1=float(t["beta1"]), beta2=float(t["beta2"]),
                               eps=float(t["eps"]), rho=float(t["rho"]))

    def train_config(self) -> TrainConfig:
        t = self.raw["train"]
        lambdas = t["lambdas"]
        return TrainConfig(epochs=int(t["epochs"]),
                           batch_size=int(t["batch_size"]),
                           optimizer=self.optimizer(),
                           loss_kind=t["loss"],
                           class_balance=bool(t["class_balance"]),
                           lambdas=None if lambdas is None else tuple(lambdas),
                           augment=self.augment_spec() if t["augment_enabled"] else None,
                           patience=int(t["patience"]), seed=int(t["seed"]))
