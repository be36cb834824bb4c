"""The declared bound of every setting, checked at its edge from one table."""

import re
from dataclasses import fields

import numpy as np
import pytest

from alertanet import data as dp
from alertanet import serialize
from alertanet.errors import ConfigError, ParseError
from alertanet.model import ModelConfig
from alertanet.synth import SynthSpec, generate
from alertanet.training import TrainConfig

TINY = 5e-324  # the smallest float above 0
BELOW_1 = float(np.nextafter(1.0, 0.0))
BELOW_HALF = float(np.nextafter(0.5, 0.0))

MODEL = {"input_dim": 2, "hidden_dim": 2, "window": 2}

# class, field, key of the bound, the value at its edge that passes, the value just past it, its message
BOUNDS = [
    (TrainConfig, "window", "min", 1, 0, "window must be >= 1, got 0"),
    (TrainConfig, "hidden", "min", 1, 0, "hidden must be >= 1, got 0"),
    (TrainConfig, "epochs", "min", 1, 0, "epochs must be >= 1, got 0"),
    (TrainConfig, "batch_size", "min", 1, 0, "batch_size must be >= 1, got 0"),
    (TrainConfig, "learning_rate", "min", 0.0, -TINY, "learning_rate must be >= 0, got -5e-324"),
    (TrainConfig, "beta1", "min", 0.0, -TINY, "beta1 must be in [0, 1), got -5e-324"),
    (TrainConfig, "beta1", "below", BELOW_1, 1.0, "beta1 must be in [0, 1), got 1.0"),
    (TrainConfig, "beta2", "min", 0.0, -TINY, "beta2 must be in [0, 1), got -5e-324"),
    (TrainConfig, "beta2", "below", BELOW_1, 1.0, "beta2 must be in [0, 1), got 1.0"),
    (TrainConfig, "adam_eps", "above", TINY, 0.0, "adam_eps must be > 0, got 0.0"),
    (TrainConfig, "seed", "min", 0, -1, "seed must be >= 0, got -1"),
    (TrainConfig, "loss_weight", "min", 0.0, -TINY, "loss_weight must be >= 0, got -5e-324"),
    (TrainConfig, "patience", "min", 1, 0, "patience must be >= 1, got 0"),
    (TrainConfig, "clip_norm", "min", 0.0, -TINY, "clip_norm must be >= 0 (0 turns clipping off), got -5e-324"),
    (SynthSpec, "n_days", "min", 3, 2, "n_days must be >= 3, got 2"),
    (SynthSpec, "n_features", "min", 3, 2, "n_features must be >= 3, got 2"),
    (SynthSpec, "seed", "min", 0, -1, "seed must be >= 0, got -1"),
    (SynthSpec, "noise_flip_prob", "min", 0.0, -TINY, "noise_flip_prob must be in [0, 0.5), got -5e-324"),
    (SynthSpec, "noise_flip_prob", "below", BELOW_HALF, 0.5, "noise_flip_prob must be in [0, 0.5), got 0.5"),
    (SynthSpec, "volatility_lag", "min", 1, 0, "volatility_lag must be >= 1, got 0"),
    (SynthSpec, "base_price", "above", TINY, 0.0, "base_price must be > 0, got 0.0"),
    (ModelConfig, "input_dim", "min", 1, 0, "input_dim must be >= 1, got 0"),
    (ModelConfig, "hidden_dim", "min", 1, 0, "hidden_dim must be >= 1, got 0"),
    (ModelConfig, "window", "min", 1, 0, "window must be >= 1, got 0"),
    (dp.PrepareSettings, "window", "min", 1, 0, "window must be >= 1, got 0"),
    (dp.PrepareSettings, "outlier_threshold", "above", TINY, 0.0, "outlier_threshold must be > 0, got 0.0"),
    (dp.PrepareSettings, "train_frac", "above", TINY, 0.0, "train_frac must be > 0, got 0.0"),
    (dp.PrepareSettings, "valid_frac", "above", TINY, 0.0, "valid_frac must be > 0, got 0.0"),
    (dp.PrepareSettings, "epsilon", "above", TINY, 0.0, "epsilon must be > 0, got 0.0"),
]


def make(cls, **values):
    """An instance of ``cls``, checked as its users check it."""
    setting = cls(**{**MODEL, **values}) if cls is ModelConfig else cls(**values)
    if cls is TrainConfig:
        setting.validate()
    return setting


def test_the_table_holds_every_declared_bound():
    declared = {(cls, f.name, key) for cls in (TrainConfig, SynthSpec, ModelConfig, dp.PrepareSettings)
                for f in fields(cls) for key in f.metadata if key != "note"}
    assert declared == {row[:3] for row in BOUNDS}


@pytest.mark.parametrize("cls, name, key, edge, past, message", BOUNDS,
                         ids=[f"{row[0].__name__}-{row[1]}-{row[2]}" for row in BOUNDS])
def test_edge_passes_and_the_value_past_it_fails(cls, name, key, edge, past, message):
    assert getattr(make(cls, **{name: edge}), name) == edge
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make(cls, **{name: past})


@pytest.mark.parametrize("cls, values, message", [
    (SynthSpec, {"n_days": 2.5}, "synth spec 'n_days' is 2.5, expected an integer"),
    (SynthSpec, {"seed": True}, "synth spec 'seed' is True, expected an integer"),
    (SynthSpec, {"base_price": "1"}, "synth spec 'base_price' is '1', expected a finite number"),
    (dp.PrepareSettings, {"dead_zone": [0.01]}, "'dead_zone' is [0.01], expected a pair of finite numbers"),
    (dp.PrepareSettings, {"dead_zone": (0.01, True)}, "'dead_zone' is (0.01, True), expected a pair of finite numbers"),
])
def test_value_of_the_wrong_type_fails_naming_the_field(cls, values, message):
    """At the parent, the SynthSpec cases raised TypeError or were accepted."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make(cls, **values)


def test_stored_dead_zone_of_one_number_fails_naming_it(tmp_path):
    split, _ = dp.build_dataset([generate(SynthSpec(n_days=40, n_features=4))], 5)
    path = tmp_path / "dataset.json"
    dp.save_dataset(path, split)
    obj = serialize.read_json(path)
    obj["meta"]["dead_zone"] = [0.01]
    serialize.write_json(path, obj)
    message = "'dead_zone' is [0.01], expected a pair of finite numbers"
    with pytest.raises(ParseError, match=re.escape(f"dataset.json: malformed dataset ({message}); rerun")):
        dp.load_dataset(path)
