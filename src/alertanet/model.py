"""Model forward pass: GRU encoder, temporal-distance context, prediction heads.

The encoder maps the input window column by column into hidden states
h^1..h^T.  The temporal-distance-aware (TDA) context reweights *all* hidden
states by 1/(distance+1) -- the most recent state gets weight exactly 1, a
state i steps back gets 1/(i+1) -- sums them, and passes the mixture through
the same GRU cell once more together with the final input column.  Movement
is predicted from [h^T; c], and the movement probability itself is an input
to the volatility head [h^T; c; p_move], which keeps the two tasks coupled
and differentiable end to end.

The plain-GRU baseline ("gru" arch) drops the context entirely: movement
reads h^T alone and volatility reads [h^T; p_move].  It exists to isolate
the contribution of the TDA mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import numerics as nx
from . import serialize
from .errors import CheckpointError, ConfigError, DimensionError, DomainError

CHECKPOINT_VERSION = 2

ARCHITECTURES = ("alerta", "gru")

# Cell matrices stack one hidden_dim-row block per gate, in the order z, r, h.
_CELL_MATRICES = ("W", "R_zr", "R_h")


@dataclass
class ModelConfig:
    input_dim: int
    hidden_dim: int
    window: int
    arch: str = "alerta"
    shared_context_cell: bool = True
    tda_normalize: bool = False
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.arch!r}; expected one of {ARCHITECTURES}")
        if self.input_dim < 1 or self.hidden_dim < 1 or self.window < 1:
            raise ConfigError(
                f"input_dim, hidden_dim and window must be >= 1, got "
                f"{self.input_dim}/{self.hidden_dim}/{self.window}"
            )
        if self.feature_names and len(self.feature_names) != self.input_dim:
            raise ConfigError(
                f"{len(self.feature_names)} feature names vs input_dim {self.input_dim}"
            )

    @property
    def uses_context(self) -> bool:
        return self.arch == "alerta"

    @property
    def fusion_dim(self) -> int:
        return 2 * self.hidden_dim if self.uses_context else self.hidden_dim

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        return cls(**obj)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Expected parameter names and shapes, in creation order.

    A GRU cell is ``W`` (input weights of gates z, r, h stacked), ``R_zr``
    (recurrent weights of z and r stacked), ``R_h`` and ``b`` (biases of z,
    r, h stacked); a separate context cell repeats them with a ``ctx_``
    prefix.
    """
    d, u = config.input_dim, config.hidden_dim
    shapes: dict[str, tuple[int, int]] = {}

    def cell(prefix: str):
        shapes[f"{prefix}W"] = (3 * u, d)
        shapes[f"{prefix}R_zr"] = (2 * u, u)
        shapes[f"{prefix}R_h"] = (u, u)
        shapes[f"{prefix}b"] = (3 * u, 1)

    cell("")
    if config.uses_context and not config.shared_context_cell:
        cell("ctx_")
    shapes["W_m"] = (1, config.fusion_dim)
    shapes["b_m"] = (1, 1)
    shapes["W_v"] = (1, config.fusion_dim + 1)
    shapes["b_v"] = (1, 1)
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> nx.ParamStore:
    """Scaled uniform init (+-sqrt(6/(fan_in+fan_out))), zero biases, seeded.

    A stacked cell matrix is drawn one gate block at a time, in gate order,
    with the fan-out of one gate, so a seed gives the values that separately
    stored per-gate matrices would get.
    """
    params = nx.ParamStore()
    for name, (rows, cols) in param_shapes(config).items():
        base = name.removeprefix("ctx_")
        if base.startswith("b"):
            params.add(name, np.zeros((rows, cols)))
            continue
        block = config.hidden_dim if base in _CELL_MATRICES else rows
        limit = float(np.sqrt(6.0 / (block + cols)))
        blocks = [rng.uniform(-limit, limit, size=(block, cols)) for _ in range(rows // block)]
        params.add(name, np.concatenate(blocks))
    return params


def cell_step(
    wx: nx.Tensor,
    h_prev: nx.Tensor,
    params: nx.ParamStore,
    prefix: str = "",
    cols: slice = slice(None),
) -> nx.Tensor:
    """One GRU cell update on a (hidden x batch) block, recorded as one tape node.

    ``wx`` holds the input projection ``W x`` (rows z, r, h), usually of every
    step side by side; ``cols`` selects this step's columns of it.

    z, r = sigma((W_zr x + R_zr h) + b_zr); cand = tanh((W_h x + R_h (r*h)) + b_h)
    out = (1-z)*h + z*cand

    Every entry keeps the summation order and grouping of separate per-gate
    products, so the value is bit-identical to composing the gates op by op.
    """
    r_zr, r_h, b = params[prefix + "R_zr"], params[prefix + "R_h"], params[prefix + "b"]
    u = r_h.rows
    h = h_prev.value
    wx_t = wx.value[:, cols]
    if h.shape[0] != u or wx_t.shape != (3 * u, h.shape[1]):
        raise DimensionError(
            f"cell_step: projection {wx_t.shape} and state {h.shape} do not fit hidden_dim {u}"
        )
    zr = nx.sigmoid_values((wx_t[: 2 * u] + nx.matmul_values(r_zr.value, h)) + b.value[: 2 * u])
    z, r = zr[:u], zr[u:]
    rh = r * h
    cand = np.tanh((wx_t[2 * u :] + nx.matmul_values(r_h.value, rh)) + b.value[2 * u :])
    out = (1.0 - z) * h + z * cand

    def backward_fn(grad):
        d_cand = grad * z * (1.0 - cand * cand)
        d_rh = np.dot(r_h.value.T, d_cand)
        d_zr = np.concatenate([grad * (cand - h), d_rh * h]) * zr * (1.0 - zr)
        if h_prev.requires_grad:
            h_prev.grad += grad * (1.0 - z) + d_rh * r + np.dot(r_zr.value.T, d_zr)
        if wx.requires_grad:
            wx.grad[: 2 * u, cols] += d_zr
            wx.grad[2 * u :, cols] += d_cand
        # ParamStore entries always require gradients
        r_zr.grad += np.dot(d_zr, h.T)
        r_h.grad += np.dot(d_cand, rh.T)
        b.grad[: 2 * u] += np.sum(d_zr, axis=1, keepdims=True)
        b.grad[2 * u :] += np.sum(d_cand, axis=1, keepdims=True)

    return nx.record(out, (wx, h_prev, r_zr, r_h, b), backward_fn)


def tda_weights(t: int) -> np.ndarray:
    """Temporal-distance weights [1/t, ..., 1/2, 1] for hidden states 1..t."""
    if t < 1:
        raise DomainError(f"temporal-distance weights need t >= 1, got {t}")
    return 1.0 / np.arange(t, 0, -1, dtype=np.float64)


@dataclass
class ForwardTrace:
    """Recorded forward pass over a batch (batch size 1 for a single window)."""

    hidden: list[nx.Tensor]  # window-many (hidden_dim x batch) states
    context: nx.Tensor | None
    movement_logit: nx.Tensor  # 1 x batch
    movement_prob: nx.Tensor
    volatility_logit: nx.Tensor
    volatility_prob: nx.Tensor

    @property
    def batch_size(self) -> int:
        return self.movement_logit.cols

    @property
    def movement_probs(self) -> np.ndarray:
        return self.movement_prob.value[0].copy()

    @property
    def volatility_probs(self) -> np.ndarray:
        return self.volatility_prob.value[0].copy()


def forward_batch(windows, params: nx.ParamStore, config: ModelConfig) -> ForwardTrace:
    """Run the model over a (batch, features, window) array of inputs."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionError(f"expected (batch, features, window) input, got shape {x.shape}")
    batch, dim, steps = x.shape
    if dim != config.input_dim or steps != config.window:
        raise DimensionError(
            f"window block {dim}x{steps} does not match model config "
            f"input_dim={config.input_dim} window={config.window}"
        )
    # column t*batch + j of the input block holds step t of window j
    x_block = nx.constant(x.transpose(1, 2, 0).reshape(dim, steps * batch))
    wx = nx.matmul(params["W"], x_block)
    h = nx.constant(np.zeros((config.hidden_dim, batch)))
    hidden: list[nx.Tensor] = []
    for t in range(steps):
        h = cell_step(wx, h, params, cols=slice(t * batch, (t + 1) * batch))
        hidden.append(h)

    if config.uses_context:
        weights = tda_weights(steps)
        if config.tda_normalize:
            weights = weights / np.sum(weights)
        mixed = nx.linear_combination(hidden, weights.tolist())
        last = slice((steps - 1) * batch, steps * batch)
        if config.shared_context_cell:
            context = cell_step(wx, mixed, params, cols=last)
        else:
            ctx_wx = nx.matmul(params["ctx_W"], nx.constant(x_block.value[:, last]))
            context = cell_step(ctx_wx, mixed, params, "ctx_")
        fusion = nx.concat_rows([hidden[-1], context])
    else:
        context = None
        fusion = hidden[-1]

    movement_logit = nx.bias_add(nx.matmul(params["W_m"], fusion), params["b_m"])
    movement_prob = nx.sigmoid(movement_logit)
    volatility_logit = nx.bias_add(
        nx.matmul(params["W_v"], nx.concat_rows([fusion, movement_prob])), params["b_v"]
    )
    volatility_prob = nx.sigmoid(volatility_logit)
    return ForwardTrace(
        hidden=hidden,
        context=context,
        movement_logit=movement_logit,
        movement_prob=movement_prob,
        volatility_logit=volatility_logit,
        volatility_prob=volatility_prob,
    )


def forward(x, params: nx.ParamStore, config: ModelConfig) -> ForwardTrace:
    """Single-window forward pass; ``x`` has shape (features, window)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a (features, window) matrix, got shape {arr.shape}")
    return forward_batch(arr[np.newaxis, :, :], params, config)


# --- checkpoints -----------------------------------------------------------


def save_checkpoint(path: str | Path, params: nx.ParamStore, config: ModelConfig, extra: dict | None = None) -> None:
    serialize.write_json(
        path,
        {
            "format_version": CHECKPOINT_VERSION,
            "kind": "alertanet-checkpoint",
            "config": config.to_dict(),
            "params": {name: serialize.encode_array(t.value) for name, t in params.items()},
            "extra": extra or {},
        },
    )


def load_checkpoint(path: str | Path) -> tuple[nx.ParamStore, ModelConfig, dict]:
    if not Path(path).is_file():
        raise CheckpointError(f"checkpoint file {path} not found; run the `train` step first")
    obj = serialize.read_json(path)
    if obj.get("kind") != "alertanet-checkpoint":
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = obj.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format version {version} is not supported (this version reads "
            f"{CHECKPOINT_VERSION}, which stores stacked gate weights); retrain with `alertanet train`"
        )
    try:
        config = ModelConfig.from_dict(obj["config"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed config ({exc})") from exc
    expected = param_shapes(config)
    stored = obj.get("params", {})
    if set(stored) != set(expected):
        raise CheckpointError(
            f"{path}: parameter names {sorted(stored)} do not match config {config.to_dict()}"
        )
    params = nx.ParamStore()
    for name, shape in expected.items():
        arr = serialize.decode_array(stored[name])
        if arr.shape != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arr.shape}, expected {shape} "
                f"for config {config.to_dict()}"
            )
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: parameter {name!r} has non-finite entries")
        params.add(name, arr)
    return params, config, obj.get("extra", {})
