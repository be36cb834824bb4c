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

CHECKPOINT_VERSION = 1

ARCHITECTURES = ("alerta", "gru")

_GATES = ("z", "r", "h")


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
    """Expected parameter names and shapes, in creation order."""
    d, u = config.input_dim, config.hidden_dim
    shapes: dict[str, tuple[int, int]] = {}

    def cell(prefix: str):
        for g in _GATES:
            shapes[f"{prefix}W_{g}"] = (u, d)
        for g in _GATES:
            shapes[f"{prefix}R_{g}"] = (u, u)
        for g in _GATES:
            shapes[f"{prefix}b_{g}"] = (u, 1)

    cell("")
    if config.uses_context and not config.shared_context_cell:
        cell("ctx_")
    shapes["W_m"] = (1, config.fusion_dim)
    shapes["b_m"] = (1, 1)
    shapes["W_v"] = (1, config.fusion_dim + 1)
    shapes["b_v"] = (1, 1)
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> nx.ParamStore:
    """Scaled uniform init (+-sqrt(6/(fan_in+fan_out))), zero biases, seeded."""
    params = nx.ParamStore()
    for name, (rows, cols) in param_shapes(config).items():
        if name.startswith(("b_", "ctx_b_")):
            params.add(name, np.zeros((rows, cols)))
        else:
            limit = float(np.sqrt(6.0 / (rows + cols)))
            params.add(name, rng.uniform(-limit, limit, size=(rows, cols)))
    return params


def _cell_step(x: nx.Tensor, h_prev: nx.Tensor, params: nx.ParamStore, prefix: str = "") -> nx.Tensor:
    """One GRU cell update on a (dim x batch) column block.

    z = sigma(W_z x + R_z h + b_z); r = sigma(W_r x + R_r h + b_r)
    cand = tanh(W_h x + R_h (r*h) + b_h); out = (1-z)*h + z*cand
    """
    z = nx.sigmoid(
        nx.bias_add(
            nx.add(nx.matmul(params[prefix + "W_z"], x), nx.matmul(params[prefix + "R_z"], h_prev)),
            params[prefix + "b_z"],
        )
    )
    r = nx.sigmoid(
        nx.bias_add(
            nx.add(nx.matmul(params[prefix + "W_r"], x), nx.matmul(params[prefix + "R_r"], h_prev)),
            params[prefix + "b_r"],
        )
    )
    cand = nx.tanh(
        nx.bias_add(
            nx.add(
                nx.matmul(params[prefix + "W_h"], x),
                nx.matmul(params[prefix + "R_h"], nx.mul(r, h_prev)),
            ),
            params[prefix + "b_h"],
        )
    )
    one_minus_z = nx.affine(z, -1.0, 1.0)
    return nx.add(nx.mul(one_minus_z, h_prev), nx.mul(z, cand))


def gru_step(x, h_prev, params: nx.ParamStore, prefix: str = "") -> np.ndarray:
    """Plain-array view of one GRU step; vectors in, vector out."""
    squeeze = np.asarray(x).ndim == 1
    xt = nx.constant(nx.as_column(x))
    ht = nx.constant(nx.as_column(h_prev))
    out = _cell_step(xt, ht, params, prefix).value
    return out[:, 0] if squeeze else out


def tda_weights(t: int) -> np.ndarray:
    """Temporal-distance weights [1/t, ..., 1/2, 1] for hidden states 1..t."""
    if t < 1:
        raise DomainError(f"temporal-distance weights need t >= 1, got {t}")
    return 1.0 / np.arange(t, 0, -1, dtype=np.float64)


def _context_tensor(
    x_t: nx.Tensor,
    hidden: list[nx.Tensor],
    params: nx.ParamStore,
    prefix: str,
    normalize: bool,
) -> nx.Tensor:
    weights = tda_weights(len(hidden))
    if normalize:
        weights = weights / np.sum(weights)
    mixed = nx.linear_combination(hidden, weights.tolist())
    return _cell_step(x_t, mixed, params, prefix)


def tda_context(x_t, h_all, params: nx.ParamStore, prefix: str = "", normalize: bool = False) -> np.ndarray:
    """Plain-array view of the context computation over hidden states 1..t."""
    if len(h_all) == 0:
        raise DimensionError("tda_context needs at least one hidden state")
    squeeze = np.asarray(x_t).ndim == 1
    xt = nx.constant(nx.as_column(x_t))
    hidden = [nx.constant(nx.as_column(h)) for h in h_all]
    out = _context_tensor(xt, hidden, params, prefix, normalize).value
    return out[:, 0] if squeeze else out


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
    def hidden_states(self) -> np.ndarray:
        """Hidden sequence as a (hidden_dim x window) matrix; batch size 1 only."""
        self._require_single()
        return np.concatenate([h.value for h in self.hidden], axis=1)

    def _require_single(self):
        if self.batch_size != 1:
            raise DimensionError(f"single-sample accessor on batch of {self.batch_size}")

    @property
    def movement_probability(self) -> float:
        self._require_single()
        return float(self.movement_prob.value[0, 0])

    @property
    def volatility_probability(self) -> float:
        self._require_single()
        return float(self.volatility_prob.value[0, 0])

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
    cols = [nx.constant(np.ascontiguousarray(x[:, :, t].T)) for t in range(steps)]
    h = nx.constant(np.zeros((config.hidden_dim, batch)))
    hidden: list[nx.Tensor] = []
    for t in range(steps):
        h = _cell_step(cols[t], h, params)
        hidden.append(h)

    if config.uses_context:
        prefix = "" if config.shared_context_cell else "ctx_"
        context = _context_tensor(cols[-1], hidden, params, prefix, config.tda_normalize)
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
    if obj.get("kind") != "alertanet-checkpoint" or obj.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: not a checkpoint file (or unsupported version)")
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
