"""ALERTA-Net: temporal-distance-aware recurrent prediction of stock movement and volatility."""

from .data import ABSTAIN, FeatureFrame, SampleSet, WindowedSample, build_dataset, load_frame, write_frame
from .errors import AlertaNetError
from .model import ModelConfig, forward, load_checkpoint, save_checkpoint, tda_weights
from .synth import SynthSpec, bayes_rate, generate
from .training import EvalReport, TrainConfig, TrainReport, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "ABSTAIN",
    "AlertaNetError",
    "EvalReport",
    "FeatureFrame",
    "ModelConfig",
    "SampleSet",
    "SynthSpec",
    "TrainConfig",
    "TrainReport",
    "WindowedSample",
    "bayes_rate",
    "build_dataset",
    "evaluate",
    "forward",
    "generate",
    "load_checkpoint",
    "load_frame",
    "save_checkpoint",
    "tda_weights",
    "train",
    "write_frame",
    "__version__",
]
