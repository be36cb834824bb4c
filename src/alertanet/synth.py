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

The layout follows from ``n_features`` alone: :func:`default_feature_names`
names the columns and :func:`default_signal_weights` weighs them.  Price
columns are rewritten after the price path is drawn (level and
absolute-return features); they carry no weight, and so no movement signal,
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import FeatureFrame, feature_category
from .errors import ConfigError, check_fields

# magnitude bands: [dead zone .. below outlier) and [outlier .. cap)
QUIET_RETURN_RANGE = (0.006, 0.045)
EVENT_RETURN_RANGE = (0.05, 0.09)
VOLATILITY_DRIVER_QUANTILE = 0.9
_START_DATE = np.datetime64("2020-01-01")


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
    for j, idx in enumerate(sent):
        weights[idx] = 1.0 if j % 2 == 0 else -1.0
    block = weights[sent]
    weights[sent] = block - np.mean(block)  # exact class balance in expectation
    return weights


@dataclass
class SynthSpec:
    n_days: int = field(default=5000, metadata={"min": 3})
    # three columns are the fewest whose default layout has the two sentiment columns zero-sum weights need
    n_features: int = field(default=8, metadata={"min": 3})
    seed: int = field(default=0, metadata={"min": 0})
    noise_flip_prob: float = field(default=0.1, metadata={"min": 0, "below": 0.5})
    volatility_lag: int = field(default=7, metadata={"min": 1})
    base_price: float = field(default=100.0, metadata={"above": 0})

    def __post_init__(self):
        check_fields(self, "synth spec")

    @property
    def feature_names(self) -> list[str]:
        return default_feature_names(self.n_features)

    @property
    def signal_weights(self) -> np.ndarray:
        return default_signal_weights(self.feature_names)


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
    with np.errstate(over="ignore"):
        prices = np.multiply.accumulate(np.concatenate([[spec.base_price], 1.0 + returns]))
    if not np.isfinite(prices).all():
        raise ConfigError(f"base_price {spec.base_price} overflows float64 within n_days {n}; lower either")

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
        dates=np.arange(_START_DATE, _START_DATE + n),
        adj_close=prices,
        feature_names=spec.feature_names,
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
