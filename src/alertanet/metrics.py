"""Binary classification metrics: accuracy, MCC, and exact rank-based AUC.

Conventions, which also appear in evaluation report metadata:

* MCC returns 0.0 when any marginal of the confusion matrix is zero.
* AUC is the exact Mann-Whitney statistic (tied pairs count 1/2); no curve
  interpolation is involved, so it matches an all-pairs count to the last bit
  of rounding.
* Metrics that are genuinely undefined (no scored samples, single-class
  labels for AUC) raise :class:`UndefinedMetricError` instead of returning a
  placeholder number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, UndefinedMetricError

MCC_CONVENTION = "zero_denominator_returns_0"


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @classmethod
    def from_predictions(cls, y_true: Sequence[int], y_pred: Sequence[int]) -> "ConfusionCounts":
        if len(y_true) != len(y_pred):
            raise DimensionError(f"labels ({len(y_true)}) and predictions ({len(y_pred)}) differ in length")
        positive, predicted = np.asarray(y_true) == 1, np.asarray(y_pred) == 1
        tp = int(np.count_nonzero(positive & predicted))
        fn = int(np.count_nonzero(positive & ~predicted))
        fp = int(np.count_nonzero(~positive & predicted))
        tn = len(y_true) - tp - fn - fp
        return cls(tp=tp, tn=tn, fp=fp, fn=fn)

    def as_dict(self) -> dict[str, int]:
        return {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn}


def accuracy(counts: ConfusionCounts) -> float:
    if counts.total == 0:
        raise UndefinedMetricError("accuracy undefined: no scored samples")
    return (counts.tp + counts.tn) / counts.total


def mcc(counts: ConfusionCounts) -> float:
    """Matthews correlation coefficient over exact integer products."""
    if counts.total == 0:
        raise UndefinedMetricError("MCC undefined: no scored samples")
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        return 0.0
    return (tp * tn - fp * fn) / float(np.sqrt(float(denom_sq)))


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability that a random positive outscores a random negative.

    Computed from average ranks, which is algebraically identical to counting
    concordant pairs plus half the tied pairs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DimensionError(f"scores shape {scores.shape} vs labels shape {labels.shape}")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos + n_neg != len(labels):
        raise UndefinedMetricError("AUC requires labels in {0, 1}")
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(f"AUC undefined: {n_pos} positive / {n_neg} negative labels")

    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    # tie group k covers sorted positions [starts[k], ends[k]) and gets their average 1-based rank
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    return (rank_sum_pos - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)
