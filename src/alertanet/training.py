"""Seeded mini-batch training of the joint movement + volatility objective.

The loss for one sample is ``BCE(movement logit, y_m) * [y_m != ABSTAIN] +
lambda * BCE(volatility logit, y_v)``, both terms computed in logit space
with the numerically stable form.  A batch optimizes the uniform mean of the
per-sample losses, so dead-zone (ABSTAIN) samples still contribute their
volatility term.  Optimization is Adam with global-norm gradient clipping;
everything downstream of (dataset, config) is a pure function of the seed.
A ``train`` call runs every taped step in the blocks of one
:class:`~alertanet.numerics.Arena` that it keeps, so its steps reuse one
set of blocks rather than allocate and free them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import metrics as mt
from . import numerics as nx
from .data import (
    ABSTAIN,
    DatasetSplit,
    SampleSet,
    ablation_feature_indices,
    normalize_ablation_mode,
)
from .errors import CheckpointError, ConfigError, TrainingError, UndefinedMetricError, check_fields
from .model import ModelConfig, check_architecture, forward_batch, init_params

# the widest chunk of windows one forward-only pass runs; it bounds a worker's memory and sets no bits
FORWARD_CHUNK = 512
# the validation loss is the window-weighted mean of the loss means of consecutive groups this wide
LOSS_GROUP = 1024


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults follow the shipped configuration, bounds sit in the fields' metadata."""

    window: int = field(default=10, metadata={"min": 1})
    hidden: int = field(default=32, metadata={"min": 1})
    epochs: int = field(default=200, metadata={"min": 1})
    batch_size: int = field(default=64, metadata={"min": 1})
    # a learning_rate of 0 is allowed deliberately: it must leave parameters unchanged
    learning_rate: float = field(default=1e-3, metadata={"min": 0})
    beta1: float = field(default=0.9, metadata={"min": 0, "below": 1})
    beta2: float = field(default=0.999, metadata={"min": 0, "below": 1})
    adam_eps: float = field(default=1e-8, metadata={"above": 0})
    seed: int = field(default=0, metadata={"min": 0})
    loss_weight: float = field(default=1.0, metadata={"min": 0})  # lambda on the volatility term
    ablation: str = "full"
    tda_normalize: bool = False
    patience: int = field(default=20, metadata={"min": 1})
    # a negative clip_norm would scale gradients uphill
    clip_norm: float = field(default=5.0, metadata={"min": 0, "note": "0 turns clipping off"})
    pos_weight_auto: bool = True
    two_stage: bool = False
    arch: str = "alerta"
    shared_context_cell: bool = True

    def validate(self) -> None:
        check_fields(self, "training config")
        normalize_ablation_mode(self.ablation)
        check_architecture(self.arch)

    def to_dict(self) -> dict:
        return asdict(self)


def _loss_terms(logits: nx.Tensor, y_m, y_v, loss_weight, pos_weight):
    """The recorded batch loss of the 2 x batch logits, and its movement and volatility means.

    One BCE node covers both logit rows; one more node forms the means and
    the lambda-weighted sum.  Each sum and scale keeps the grouping of the
    separate per-op nodes these replaced, so values and gradients are
    bit-identical to them.
    """
    batch = logits.cols
    y_m = np.atleast_1d(np.asarray(y_m))
    y_v = np.atleast_1d(np.asarray(y_v))
    if y_m.shape != (batch,) or y_v.shape != (batch,):
        raise ConfigError(f"labels {y_m.shape}/{y_v.shape} do not match batch size {batch}")
    weights_m = (y_m != ABSTAIN).astype(np.float64) / batch
    targets = np.stack([np.where(y_m == ABSTAIN, 0, y_m), y_v]).astype(np.float64)
    terms = nx.bce_with_logits(logits, targets, np.array([[1.0], [pos_weight]]))
    movement = float(np.sum(terms.value[0] * weights_m))
    volatility = 1.0 / batch * float(np.sum(terms.value[1]))

    def backward_fn(grad):
        terms.grad[0] += grad[0, 0] * weights_m
        terms.grad[1] += 1.0 / batch * (loss_weight * grad[0, 0])

    loss = nx.record(np.array([[movement + loss_weight * volatility]]), (terms,), backward_fn)
    return loss, movement, volatility


class Adam:
    """Adam with bias correction and flat moments ``m`` and ``v``, parallel to the store's buffers.

    A step updates the named parameters, which must be adjacent in the store
    (see :meth:`~alertanet.numerics.ParamStore.span`), in one pass, with the
    expressions of a per-parameter loop, so every entry keeps its bits.
    """

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.steps = 0
        self.m = self.v = None  # allocated at the first step

    def step(self, params: nx.ParamStore, names: list[str] | None = None) -> None:
        span = params.span(names if names is not None else params.names())
        self.steps += 1
        bc1 = 1.0 - self.beta1 ** self.steps
        bc2 = 1.0 - self.beta2 ** self.steps
        if self.m is None:
            self.m, self.v = np.zeros_like(params.flat_grads), np.zeros_like(params.flat_grads)
        grad, m, v = params.flat_grads[span], self.m[span], self.v[span]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        params.flat_values[span] -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _global_norm(arrays) -> float:
    """Joint L2 norm of several arrays, each summed on its own and accumulated in the order given.

    One sum over their concatenation would regroup numpy's pairwise sum and change the bits.
    """
    total = 0.0
    for arr in arrays:
        total += float(np.sum(arr * arr))
    return float(np.sqrt(total))


def clip_gradients(params: nx.ParamStore, names: list[str], max_norm: float) -> float:
    """Scale the named gradients, adjacent in the store, so their joint L2 norm is at most ``max_norm``.

    Returns the norm before clipping.
    """
    span = params.span(names)
    norm = _global_norm(params[name].grad for name in names)
    if max_norm and norm > max_norm:
        params.flat_grads[span] *= max_norm / norm
    return norm


@dataclass
class TrainReport:
    epochs: list[dict]
    best_epoch: int
    stop_reason: str
    pos_weight: float
    ablation: str
    feature_names_used: list[str]
    seed: int
    stages: list[dict] = field(default_factory=list)
    checkpoint_file: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def usable_cores() -> int:
    """The cores this process may run on, which caps the forward-only thread pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _forward_logits(params: nx.ParamStore, config: ModelConfig, samples: SampleSet, rows) -> np.ndarray:
    """The 2 x n logits of every window, movement row then volatility row, in window order.

    Untaped chunks over ``params.constants()`` run on a thread pool; the
    fixed-order product releases the GIL, so they overlap on several cores.
    Each pool thread runs its chunks in one arena of its own (see
    :func:`~alertanet.model.forward_batch`), freed when the pool ends here.
    A chunk spreads the windows evenly over the usable cores, up to
    ``FORWARD_CHUNK`` windows.  Every window's logits depend only on its own
    column, so neither the chunk size nor the worker count sets a bit.  The
    first chunk to fail, in window order, raises its own exception.
    """
    n, workers = len(samples), usable_cores()
    chunk = min(FORWARD_CHUNK, -(-n // workers))
    logits = np.empty((2, n))
    consts = params.constants()

    def run(lo):
        hi = min(lo + chunk, n)
        logits[:, lo:hi] = forward_batch(samples[lo:hi], consts, config, rows).logits.value

    los = range(0, n, chunk)
    with ThreadPoolExecutor(max_workers=min(len(los), workers)) as pool:
        list(pool.map(run, los))
    return logits


def _dataset_loss(params, config, samples: SampleSet, rows, loss_weight, pos_weight):
    """Movement, volatility and total loss means over a sample set, from one forward-only pass.

    Each consecutive group of ``LOSS_GROUP`` windows gives its loss means,
    weighted by its size; a non-finite logit gives a nan loss, as in training.
    """
    logits = _forward_logits(params, config, samples, rows)
    n = len(samples)
    movement = volatility = total = 0.0
    for lo in range(0, n, LOSS_GROUP):
        hi = min(lo + LOSS_GROUP, n)
        group = nx.Tensor(logits[:, lo:hi], _validate=False)
        loss, m_term, v_term = _loss_terms(group, samples.y_m[lo:hi], samples.y_v[lo:hi], loss_weight, pos_weight)
        movement += m_term * (hi - lo)
        volatility += v_term * (hi - lo)
        total += loss.item() * (hi - lo)
    return movement / n, volatility / n, total / n


def _first_nonfinite_param(params: nx.ParamStore) -> str | None:
    for name, tensor in params.items():
        if not np.all(np.isfinite(tensor.value)):
            return f"parameter {name!r}"
        if tensor.grad is not None and not np.all(np.isfinite(tensor.grad)):
            return f"gradient of {name!r}"
    return None


def train(split: DatasetSplit, cfg: TrainConfig) -> tuple[nx.ParamStore, ModelConfig, TrainReport]:
    """Fit the model on ``split.train``, early-stopping on validation loss.

    Returns the parameters restored to the best validation epoch, by one copy
    of the flat value buffer each way.  Two runs with the same split and
    config produce bit-identical parameters.  Each forward pass reads one
    batch, or one chunk of validation windows, from the split's days.  Every
    taped step takes its blocks from one :class:`~alertanet.numerics.Arena`
    that this call keeps, sized by its first, widest batch: the forward pass
    (see :func:`~alertanet.model.forward_batch`), the gradient buffers of
    :func:`~alertanet.numerics.backward` and the cells' backward scratch.
    """
    cfg.validate()
    if not split.train:
        raise ConfigError("training split is empty")
    if not split.validation:
        raise ConfigError("validation split is empty")

    rows = ablation_feature_indices(split.feature_names, cfg.ablation)
    names_used = [split.feature_names[i] for i in rows]

    n_train, window = len(split.train), split.train.window
    if window != cfg.window:
        raise ConfigError(f"dataset window {window} does not match config window {cfg.window}")

    config = ModelConfig(
        input_dim=len(rows),
        hidden_dim=cfg.hidden,
        window=window,
        arch=cfg.arch,
        shared_context_cell=cfg.shared_context_cell,
        tda_normalize=cfg.tda_normalize,
        feature_names=names_used,
    )
    rng = np.random.default_rng(cfg.seed)
    params = init_params(config, rng)

    n_pos = int(np.sum(split.train.y_v == 1))
    n_neg = int(np.sum(split.train.y_v == 0))
    pos_weight = (n_neg / n_pos) if (cfg.pos_weight_auto and n_pos > 0 and n_neg > 0) else 1.0

    if cfg.two_stage:
        stage_plan = [
            ("movement", params.names(), 0.0),
            ("volatility", ["W_v", "b_v"], cfg.loss_weight),
        ]
    else:
        stage_plan = [("joint", params.names(), cfg.loss_weight)]

    arena = nx.Arena()  # a step's trace stays valid until the next step
    epoch_rows: list[dict] = []
    stage_rows: list[dict] = []
    global_epoch = 0
    best_epoch = 0
    stop_reason = "epoch budget exhausted"

    for stage_name, trainable, loss_weight in stage_plan:
        optimizer = Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
        best_valid = float("inf")
        best_values = params.flat_values.copy()
        stage_best_epoch = global_epoch
        stall = 0
        stage_reason = "epoch budget exhausted"

        for _ in range(cfg.epochs):
            global_epoch += 1
            perm = rng.permutation(n_train)
            movement_sum = volatility_sum = total_sum = 0.0
            grad_norms: list[float] = []
            for lo in range(0, n_train, cfg.batch_size):
                batch = split.train[perm[lo : lo + cfg.batch_size]]
                trace = forward_batch(batch, params, config, rows, arena)
                loss, m_term, v_term = _loss_terms(trace.logits, batch.y_m, batch.y_v, loss_weight, pos_weight)
                loss_value = loss.item()
                if not np.isfinite(loss_value):
                    culprit = _first_nonfinite_param(params) or "batch inputs"
                    raise TrainingError(
                        f"non-finite loss in stage {stage_name!r}, epoch {global_epoch}, "
                        f"batch starting at {lo}; first offender: {culprit}"
                    )
                params.zero_grads()
                nx.backward(loss, arena)
                grad_norms.append(clip_gradients(params, trainable, cfg.clip_norm))
                optimizer.step(params, trainable)
                weight = len(batch)
                movement_sum += m_term * weight
                volatility_sum += v_term * weight
                total_sum += loss_value * weight

            valid_m, valid_v, valid_total = _dataset_loss(
                params, config, split.validation, rows, loss_weight, pos_weight
            )
            with np.errstate(over="ignore"):  # squares past float64's range give inf, which is refused below
                param_norm = _global_norm(t.value for _, t in params.items())
            row = {
                "epoch": global_epoch,
                "stage": stage_name,
                "train_movement": movement_sum / n_train,
                "train_volatility": volatility_sum / n_train,
                "train_total": total_sum / n_train,
                "valid_movement": valid_m,
                "valid_volatility": valid_v,
                "valid_total": valid_total,
                "grad_norm_mean": sum(grad_norms) / len(grad_norms),
                "grad_norm_max": max(grad_norms),
                "clipped_fraction": (
                    sum(n > cfg.clip_norm for n in grad_norms) / len(grad_norms) if cfg.clip_norm else 0.0
                ),
                "param_norm": param_norm,
            }
            for key in ("grad_norm_mean", "grad_norm_max", "param_norm"):
                if not np.isfinite(row[key]):  # JSON has no inf or nan, so the report could not hold it
                    raise TrainingError(f"non-finite {key} {row[key]} in stage {stage_name!r}, epoch {global_epoch}")
            epoch_rows.append(row)
            if valid_total < best_valid:
                best_valid = valid_total
                best_values = params.flat_values.copy()
                stage_best_epoch = global_epoch
                stall = 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    stage_reason = f"no validation improvement for {cfg.patience} epochs"
                    break

        params.flat_values[:] = best_values
        best_epoch = stage_best_epoch
        stop_reason = stage_reason
        stage_rows.append(
            {
                "stage": stage_name,
                "trainable": list(trainable),
                "loss_weight": loss_weight,
                "best_epoch": stage_best_epoch,
                "best_valid_total": best_valid,
                "stop_reason": stage_reason,
            }
        )

    report = TrainReport(
        epochs=epoch_rows,
        best_epoch=best_epoch,
        stop_reason=stop_reason,
        pos_weight=pos_weight,
        ablation=normalize_ablation_mode(cfg.ablation),
        feature_names_used=names_used,
        seed=cfg.seed,
        stages=stage_rows,
    )
    return params, config, report


# --- evaluation ------------------------------------------------------------


@dataclass
class TaskReport:
    n_scored: int
    n_positive: int
    accuracy: float | None
    mcc: float | None
    auc: float | None
    confusion: dict | None
    note: str = ""


@dataclass
class EvalReport:
    movement: TaskReport
    volatility: TaskReport
    n_samples: int
    n_abstained: int
    threshold: float
    metadata: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


def _score_task(y_true: np.ndarray, probs: np.ndarray, threshold: float, task: str) -> TaskReport:
    if len(y_true) == 0:
        return TaskReport(0, 0, None, None, None, None, note=f"{task}: no scored samples; metrics undefined")
    counts = mt.ConfusionCounts.from_predictions(y_true, probs >= threshold)
    try:
        auc_value = mt.auc(probs, y_true)
        note = ""
    except UndefinedMetricError as exc:
        auc_value = None
        note = f"{task}: {exc}"
    return TaskReport(
        n_scored=len(y_true),
        n_positive=int(np.sum(y_true == 1)),
        accuracy=mt.accuracy(counts),
        mcc=mt.mcc(counts),
        auc=auc_value,
        confusion=counts.as_dict(),
        note=note,
    )


def predict_probs(
    params: nx.ParamStore,
    config: ModelConfig,
    samples: SampleSet,
    dataset_feature_names: list[str] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Movement and volatility probabilities for every sample: the sigmoid of :func:`_forward_logits`."""
    if not samples:
        raise ConfigError("no samples to evaluate")
    if samples.window != config.window:
        raise CheckpointError(
            f"sample window {samples.window} does not match checkpoint config window {config.window}"
        )
    rows = None
    if config.feature_names and dataset_feature_names and dataset_feature_names != config.feature_names:
        missing = [n for n in config.feature_names if n not in dataset_feature_names]
        if missing:
            raise CheckpointError(
                f"dataset lacks feature columns {missing} required by checkpoint config "
                f"(input_dim={config.input_dim}, features={config.feature_names})"
            )
        rows = [dataset_feature_names.index(n) for n in config.feature_names]
    n_features = samples.days.shape[1] if rows is None else len(rows)
    if n_features != config.input_dim:
        raise CheckpointError(
            f"sample feature dimension {n_features} does not match checkpoint config "
            f"(input_dim={config.input_dim}, window={config.window})"
        )
    m_probs, v_probs = nx.sigmoid_values(_forward_logits(params, config, samples, rows))
    return m_probs, v_probs


def evaluate(
    params: nx.ParamStore,
    config: ModelConfig,
    samples: SampleSet,
    threshold: float = 0.5,
    dataset_feature_names: list[str] | None = None,
) -> EvalReport:
    """Score a sample set: movement over non-ABSTAIN samples, volatility over all."""
    m_probs, v_probs = predict_probs(params, config, samples, dataset_feature_names)
    scored = samples.y_m != ABSTAIN
    movement = _score_task(samples.y_m[scored], m_probs[scored], threshold, "movement")
    volatility = _score_task(samples.y_v, v_probs, threshold, "volatility")
    return EvalReport(
        movement=movement,
        volatility=volatility,
        n_samples=len(samples),
        n_abstained=int(np.sum(~scored)),
        threshold=threshold,
        metadata={
            "mcc_convention": mt.MCC_CONVENTION,
            "prediction_rule": "class 1 iff probability >= threshold",
            "model": config.to_dict(),
        },
    )
