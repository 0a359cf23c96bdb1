"""JSON configuration: defaults, merging, overrides, typed views."""

import json
import re

import pytest

from lidar_edge.config import CONFIG_VERSION, DEFAULTS, MAX_GRID_SIDE, MAX_THRESHOLDS, Config
from lidar_edge.errors import ConfigError


def write_cfg(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


class TestLoad:
    def test_defaults_when_no_file(self):
        cfg = Config.load(None)
        assert cfg.raw["dataset"]["n"] == DEFAULTS["dataset"]["n"]
        assert cfg.raw["config_version"] == CONFIG_VERSION

    def test_partial_file_merges_over_defaults(self, tmp_path):
        p = write_cfg(tmp_path, {"dataset": {"n": 10}})
        cfg = Config.load(p)
        assert cfg.raw["dataset"]["n"] == 10
        # untouched keys keep their defaults
        assert cfg.raw["dataset"]["delta"] == DEFAULTS["dataset"]["delta"]
        assert cfg.raw["train"]["epochs"] == DEFAULTS["train"]["epochs"]

    def test_nested_section_merge(self, tmp_path):
        p = write_cfg(tmp_path, {"dataset": {"scene": {"min_primitives": 4}}})
        cfg = Config.load(p)
        assert cfg.raw["dataset"]["scene"]["min_primitives"] == 4
        assert cfg.raw["dataset"]["scene"]["max_primitives"] == 5

    def test_unknown_top_level_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, {"datset": {"n": 10}})
        with pytest.raises(ConfigError, match="datset"):
            Config.load(p)

    def test_unknown_nested_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, {"train": {"learning_rat": 0.1}})
        with pytest.raises(ConfigError, match="learning_rat"):
            Config.load(p)

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            Config.load(p)

    def test_non_object_root_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            Config.load(p)

    def test_wrong_version_rejected(self, tmp_path):
        p = write_cfg(tmp_path, {"config_version": CONFIG_VERSION + 1})
        with pytest.raises(ConfigError, match="config_version"):
            Config.load(p)

    def test_scalar_where_section_expected(self, tmp_path):
        p = write_cfg(tmp_path, {"train": 5})
        with pytest.raises(ConfigError):
            Config.load(p)


class TestOverride:
    def test_dotted_override(self):
        cfg = Config.load(None)
        cfg.override("dataset.n", 7)
        assert cfg.raw["dataset"]["n"] == 7

    def test_unknown_dotted_key(self):
        cfg = Config.load(None)
        with pytest.raises(ConfigError):
            cfg.override("dataset.bogus", 1)
        with pytest.raises(ConfigError):
            cfg.override("bogus.n", 1)


class TestTypedViews:
    def test_lidar_grid_dims(self):
        lc = Config.load(None).lidar()
        assert (lc.height, lc.width) == (64, 64)

    def test_scene_policy_fields(self):
        sp = Config.load(None).scene_policy()
        assert sp.min_primitives == 2 and sp.max_primitives == 5
        assert sp.kinds == ("disk", "rect", "halfplane")

    def test_nested_arch_tracks_lidar_shape(self, tmp_path):
        p = write_cfg(tmp_path, {"lidar": {"height": 32, "width": 48}})
        arch = Config.load(p).nested_arch()
        assert arch.input_hw == (32, 48)
        assert arch.widths == (8, 16, 32)

    def test_train_config_wires_optimizer_and_augment(self):
        tc = Config.load(None).train_config()
        assert tc.optimizer.kind == "adam"
        assert tc.optimizer.learning_rate == pytest.approx(1e-2)
        assert tc.batch_size == 4
        assert tc.augment is not None
        assert tc.augment.salt_pepper == (0.0, 0.02)

    def test_augment_disabled(self, tmp_path):
        p = write_cfg(tmp_path, {"train": {"augment_enabled": False}})
        assert Config.load(p).train_config().augment is None

    def test_bad_optimizer_name(self, tmp_path):
        p = write_cfg(tmp_path, {"train": {"optimizer": "lbfgs"}})
        with pytest.raises(ConfigError):
            Config.load(p)

    def test_patch_arch_fields(self):
        pa = Config.load(None).patch_arch()
        assert pa.conv_channels == (4, 8)
        assert pa.hidden == 32
        assert pa.dropout_rate == pytest.approx(0.5)


class TestValueNamesItsKey:
    @pytest.mark.parametrize("doc, key", [
        ({"train": {"learning_rate": "fast"}}, "train.learning_rate"),
        ({"augment": {"gain": 2}}, "augment.gain"),
        ({"lidar": {"max_range": "far"}}, "lidar.max_range"),
        ({"model": {"patch_hidden": None}}, "model.patch_hidden"),
        ({"train": {"augment_enabled": "false"}}, "train.augment_enabled"),
        ({"train": {"class_balance": "no"}}, "train.class_balance"),
        ({"train": {"class_balance": 1}}, "train.class_balance"),
        ({"paths": {"out_dir": 5}}, "paths.out_dir"),
        ({"paths": {"model": 5}}, "paths.model"),
        ({"train": {"optimizer": "lbfgs"}}, "train.optimizer"),
        ({"train": {"loss": "l1"}}, "train.loss"),
        ({"model": {"variant": "transformer"}}, "model.variant"),
        ({"dataset": {"scene": {"kinds": "disk"}}}, "dataset.scene.kinds"),
        ({"config_version": True}, "config_version"),
    ])
    def test_load(self, tmp_path, doc, key):
        with pytest.raises(ConfigError, match=f"invalid config value for {key}: "):
            Config.load(write_cfg(tmp_path, doc))

    def test_after_override(self):
        cfg = Config.load(None)
        cfg.override("dataset.n", "ten")
        with pytest.raises(ConfigError, match="dataset.n: 'ten'"):
            cfg.check()


class TestListElements:
    def test_numbers_are_cast_per_key(self, tmp_path):
        cfg = Config.load(write_cfg(tmp_path, {
            "model": {"widths": [8.0, 16, 32], "patch_channels": [2, 3.0]},
            "augment": {"rotation_deg": [-5, 5], "occluder_size": [2.0, 4]},
            "dataset": {"ratios": [1, 0, 0]},
            "train": {"lambdas": [1, 0.5, 2]}}))
        assert cfg.nested_arch().widths == (8, 16, 32)
        assert cfg.patch_arch().conv_channels == (2, 3)
        spec = cfg.augment_spec()
        assert spec.rotation_deg == (-5.0, 5.0) and spec.occluder_size == (2, 4)
        assert cfg.train_config().lambdas == (1.0, 0.5, 2.0)
        int_lists = (cfg.nested_arch().widths, cfg.patch_arch().conv_channels,
                     spec.occluder_size)
        assert all(type(v) is int for values in int_lists for v in values)
        float_lists = (spec.rotation_deg, cfg.train_config().lambdas)
        assert all(type(v) is float for values in float_lists for v in values)

    @pytest.mark.parametrize("doc, key, element", [
        ({"model": {"widths": [8, 16.5, 32]}}, "model.widths", "16.5"),
        ({"model": {"patch_channels": ["4", 8]}}, "model.patch_channels", "'4'"),
        ({"augment": {"occluder_size": [2, True]}}, "augment.occluder_size", "True"),
        ({"augment": {"shear": [0.0, float("nan")]}}, "augment.shear", "nan"),
    ], ids=["float-as-int", "string-as-int", "bool-as-int", "nan"])
    def test_element_the_cast_would_change_is_refused(self, tmp_path, doc, key, element):
        with pytest.raises(ConfigError, match=f"for {key}: .*element {element} is not"):
            Config.load(write_cfg(tmp_path, doc))


class TestScalarInts:
    @pytest.mark.parametrize("key, value", [("train.epochs", 2.5), ("dataset.n", True),
                                            ("lidar.height", 64.9), ("train.batch_size", "4")],
                             ids=["2.5", "true", "64.9", "string"])
    def test_value_int_would_change_is_refused(self, tmp_path, key, value):
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=f"for {key}: {value!r} "):
            Config.load(write_cfg(tmp_path, {section: {name: value}}))

    def test_integral_float_is_taken(self, tmp_path):
        cfg = Config.load(write_cfg(tmp_path, {"train": {"epochs": 3.0}}))
        assert cfg.train_config().epochs == 3 and type(cfg.train_config().epochs) is int


class TestThresholdCap:
    def test_cap_is_allowed(self, tmp_path):
        Config.load(write_cfg(tmp_path, {"eval": {"n_thresholds": MAX_THRESHOLDS}}))

    @pytest.mark.parametrize("n", [MAX_THRESHOLDS + 1, 10 ** 9])
    def test_more_is_refused_before_allocating(self, tmp_path, n):
        with pytest.raises(ConfigError, match="eval.n_thresholds"):
            Config.load(write_cfg(tmp_path, {"eval": {"n_thresholds": n}}))


class TestGridCap:
    def test_cap_is_allowed(self, tmp_path):
        cfg = Config.load(write_cfg(tmp_path, {"lidar": {"height": MAX_GRID_SIDE,
                                                         "width": MAX_GRID_SIDE}}))
        assert cfg.lidar().height == cfg.lidar().width == MAX_GRID_SIDE

    @pytest.mark.parametrize("key", ["height", "width"])
    @pytest.mark.parametrize("side", [MAX_GRID_SIDE + 1, 100_000])
    def test_more_is_refused_naming_its_key(self, tmp_path, key, side):
        with pytest.raises(ConfigError, match=f"lidar.{key}: {side} "):
            Config.load(write_cfg(tmp_path, {"lidar": {key: side}}))

    def test_default_grid_unaffected(self):
        assert Config().lidar().height == Config().lidar().width == 64


def leaves(doc, prefix=""):
    """(dotted key, default) of every non-object value of a JSON object."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def setting(dotted, value):
    """The document that sets only the dotted key to value."""
    *parents, name = dotted.split(".")
    doc = {name: value}
    for part in reversed(parents):
        doc = {part: doc}
    return doc


class TestEveryKey:
    @pytest.mark.parametrize("key, default", list(leaves(DEFAULTS)),
                             ids=[key for key, _ in leaves(DEFAULTS)])
    def test_wrong_kind_is_refused_naming_the_key(self, tmp_path, key, default):
        """5 for a string key and {"x": 1} for any other; a key added to
        DEFAULTS later is covered too."""
        value = 5 if isinstance(default, str) else {"x": 1}
        with pytest.raises(ConfigError, match=f"invalid config value for {re.escape(key)}: "):
            Config.load(write_cfg(tmp_path, setting(key, value)))


class TestRulesAcrossKeys:
    """Rules on more than one value, checked by Config.check before any work."""

    @pytest.mark.parametrize("scene", [{"min_range": 1000}, {"kinds": ["disk", "cone"]},
                                       {"kinds": []}, {"min_size": 9, "max_size": 3}],
                             ids=["min-range", "unknown-kind", "no-kinds", "sizes"])
    def test_scene_policy_is_validated(self, tmp_path, scene):
        with pytest.raises(ConfigError, match="invalid config value for dataset.scene: "):
            Config.load(write_cfg(tmp_path, {"dataset": {"scene": scene}}))

    @pytest.mark.parametrize("ratios", [[0.5, 0.5, 0.5], [0.5, 0.5], [1.5, -0.5, 0.0]])
    def test_ratios_are_validated(self, tmp_path, ratios):
        with pytest.raises(ConfigError, match="invalid config value for dataset.ratios: "):
            Config.load(write_cfg(tmp_path, {"dataset": {"ratios": ratios}}))

    def test_after_override(self):
        cfg = Config.load(None)
        cfg.override("dataset.ratios", [0.2, 0.2, 0.2])
        with pytest.raises(ConfigError, match="dataset.ratios"):
            cfg.check()
