"""Synthetic stock frames with planted, recoverable signal.

Movement: the sign of the next-day return is sign(w . x_t) of the current
day's features, flipped with a configurable noise probability, so the best
achievable movement accuracy is exactly 1 - noise ("Bayes rate").  Return
magnitudes stay outside the movement dead zone and below the volatility
threshold, except on planted volatility days.

Volatility: a day is an outlier (|return| >= 5%) exactly when feature 0 was
above its 90th percentile ``volatility_lag`` days earlier.  The lag forces a
model to remember an old input, which is what the temporal-distance context
is supposed to be good at; the plain GRU baseline has to carry the same
information through its recurrence.

Price-tagged columns are rewritten after the price path is drawn (level and
absolute-return features); they carry no movement signal by construction and
the generator rejects specs that put signal weight on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date, timedelta

import numpy as np

from .data import FeatureFrame, feature_category
from .errors import ConfigError

# magnitude bands: [dead zone .. below outlier) and [outlier .. cap)
QUIET_RETURN_RANGE = (0.006, 0.045)
EVENT_RETURN_RANGE = (0.05, 0.09)
VOLATILITY_DRIVER_QUANTILE = 0.9
_START_DATE = date(2020, 1, 1)


def default_feature_names(n_features: int) -> list[str]:
    """Sentiment-heavy default layout: half sentiment, then macro, then price."""
    n_sent = (n_features + 1) // 2
    n_macro = (n_features - n_sent + 1) // 2
    n_price = n_features - n_sent - n_macro
    return (
        [f"sent_{i}" for i in range(n_sent)]
        + [f"macro_{i}" for i in range(n_macro)]
        + [f"price_{i}" for i in range(n_price)]
    )


def default_signal_weights(feature_names: list[str]) -> np.ndarray:
    """Zero-sum alternating weights on the sentiment columns, zero elsewhere."""
    weights = np.zeros(len(feature_names))
    sent = [i for i, n in enumerate(feature_names) if feature_category(n) == "sentiment"]
    if len(sent) < 2:
        raise ConfigError(
            "default signal weights need at least two sentiment columns; "
            "pass explicit signal_weights for this layout"
        )
    for j, idx in enumerate(sent):
        weights[idx] = 1.0 if j % 2 == 0 else -1.0
    block = weights[sent]
    weights[sent] = block - np.mean(block)  # exact class balance in expectation
    return weights


@dataclass
class SynthSpec:
    n_days: int = 5000
    n_features: int = 8
    seed: int = 0
    signal_weights: np.ndarray | None = None
    noise_flip_prob: float = 0.1
    volatility_lag: int = 7
    base_price: float = 100.0
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.n_days < 3:
            raise ConfigError(f"n_days must be >= 3, got {self.n_days}")
        if self.n_features < 1:
            raise ConfigError(f"n_features must be >= 1, got {self.n_features}")
        if not 0 <= self.noise_flip_prob < 0.5:
            raise ConfigError(f"noise_flip_prob must lie in [0, 0.5), got {self.noise_flip_prob}")
        if self.volatility_lag < 1:
            raise ConfigError(f"volatility_lag must be >= 1, got {self.volatility_lag}")
        if not 0 < self.base_price < np.inf:
            raise ConfigError(f"base_price must be a finite number > 0, got {self.base_price}")
        if not self.feature_names:
            self.feature_names = default_feature_names(self.n_features)
        if len(self.feature_names) != self.n_features:
            raise ConfigError(
                f"{len(self.feature_names)} feature names vs n_features {self.n_features}"
            )
        if self.signal_weights is None:
            self.signal_weights = default_signal_weights(self.feature_names)
        self.signal_weights = np.asarray(self.signal_weights, dtype=np.float64)
        if self.signal_weights.shape != (self.n_features,):
            raise ConfigError(
                f"signal_weights shape {self.signal_weights.shape} vs n_features {self.n_features}"
            )
        for i, name in enumerate(self.feature_names):
            if feature_category(name) == "price" and self.signal_weights[i] != 0.0:
                raise ConfigError(
                    f"signal weight on price-derived column {name!r} is not allowed: "
                    "price columns are overwritten with realized prices"
                )


def bayes_rate(spec: SynthSpec) -> float:
    """Ceiling on movement accuracy: the unflipped sign is right 1-noise of the time."""
    return 1.0 - spec.noise_flip_prob


def generate_with_truth(spec: SynthSpec, stock_id: str = "SYNTH") -> tuple[FeatureFrame, dict]:
    """Generate a frame plus the planted ground truth.

    The truth dict covers target days 1..n-1 (aligned with ``frame.dates[1:]``):
    ``signal_sign`` the pre-noise movement direction, ``flipped`` which days
    the noise inverted, ``movement``/``volatility`` the realized labels, and
    ``returns`` the realized relative changes.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_days, spec.n_features
    # draw order is fixed: features, flips, magnitudes
    features = rng.uniform(0.05, 1.0, size=(n, d))
    flips = rng.random(n - 1) < spec.noise_flip_prob
    mag_u = rng.random(n - 1)

    score = features[:-1] @ spec.signal_weights  # decides the return of the NEXT day
    signal_sign = np.where(score >= 0.0, 1, -1)
    sign = np.where(flips, -signal_sign, signal_sign)

    driver = features[:, 0]
    cutoff = float(np.quantile(driver, VOLATILITY_DRIVER_QUANTILE))
    targets = np.arange(1, n)
    lagged = targets - spec.volatility_lag
    event = (lagged >= 0) & (driver[np.maximum(lagged, 0)] > cutoff)

    quiet_lo, quiet_hi = QUIET_RETURN_RANGE
    event_lo, event_hi = EVENT_RETURN_RANGE
    magnitude = np.where(
        event,
        event_lo + mag_u * (event_hi - event_lo),
        quiet_lo + mag_u * (quiet_hi - quiet_lo),
    )
    returns = sign * magnitude

    # one rounded multiply per day, in order: prices[t] = prices[t - 1] * (1 + returns[t - 1])
    prices = np.multiply.accumulate(np.concatenate([[spec.base_price], 1.0 + returns]))

    # rewrite price-tagged columns from the realized path (all nonnegative)
    abs_returns = np.concatenate([[0.0], np.abs(returns)])
    price_cols = [i for i, name in enumerate(spec.feature_names) if feature_category(name) == "price"]
    for j, col in enumerate(price_cols):
        if j % 2 == 0:
            features[:, col] = prices / spec.base_price
        else:
            features[:, col] = abs_returns

    frame = FeatureFrame(
        stock_id=stock_id,
        dates=[(_START_DATE + timedelta(days=i)).isoformat() for i in range(n)],
        adj_close=prices,
        feature_names=list(spec.feature_names),
        features=features,
    )
    truth = {
        "signal_sign": signal_sign,
        "flipped": flips,
        "movement": (sign > 0).astype(np.int64),
        "volatility": event.astype(np.int64),
        "returns": returns,
    }
    return frame, truth


def generate(spec: SynthSpec, stock_id: str = "SYNTH") -> FeatureFrame:
    frame, _ = generate_with_truth(spec, stock_id)
    return frame


def generate_universe(spec: SynthSpec, n_stocks: int) -> list[FeatureFrame]:
    """Independent frames SYN00.. with per-stock seeds derived from the base seed."""
    if n_stocks < 1:
        raise ConfigError(f"n_stocks must be >= 1, got {n_stocks}")
    return [generate(replace(spec, seed=spec.seed + i), stock_id=f"SYN{i:02d}") for i in range(n_stocks)]
