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

import math
from dataclasses import dataclass, field, asdict, fields
from pathlib import Path

import numpy as np

from . import numerics as nx
from . import serialize
from .data import SampleSet
from .errors import CheckpointError, ConfigError, DimensionError, DomainError, ParseError

CHECKPOINT_VERSION = 2

ARCHITECTURES = ("alerta", "gru")

# Cell matrices stack one hidden_dim-row block per gate, in the order z, r, h.
_CELL_MATRICES = ("W", "R_zr", "R_h")


# accepted types and their names, by field annotation; bools pass isinstance(v, int), so they are rejected by hand
_FIELD_TYPES = {
    "bool": ((bool, np.bool_), "true or false"),
    "int": ((int, np.integer), "an integer"),
    "float": ((int, float, np.integer, np.floating), "a finite number"),
    "str": (str, "a string"),
    "list[str]": (list, "a list of strings"),
}


def check_fields(config, what: str) -> None:
    """Raise a :class:`ConfigError` naming the first field of dataclass ``config`` whose value has the wrong type."""
    for f in fields(config):
        value = getattr(config, f.name)
        types, want = _FIELD_TYPES[f.type]
        is_bool = isinstance(value, (bool, np.bool_))
        if (not isinstance(value, types) or is_bool != (f.type == "bool")
                or (f.type == "float" and not abs(value) < math.inf)
                or (f.type == "list[str]" and not all(isinstance(v, str) for v in value))):
            raise ConfigError(f"{what} {f.name!r} is {value!r}, expected {want}")


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
        check_fields(self, "model config")
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

    When ``h`` is all zeros, as the initial state is, and the recurrent
    matrices are finite, ``R_zr h`` and ``R_h (r*h)`` are not formed: each
    of their entries sums ±0.0 products onto +0.0 and so is exactly +0.0.
    A non-finite ``R`` still takes the product, where ``inf * 0`` gives NaN.
    """
    r_zr, r_h, b = params[prefix + "R_zr"], params[prefix + "R_h"], params[prefix + "b"]
    u = r_h.rows
    h = h_prev.value
    wx_t = wx.value[:, cols]
    if h.shape[0] != u or wx_t.shape != (3 * u, h.shape[1]):
        raise DimensionError(
            f"cell_step: projection {wx_t.shape} and state {h.shape} do not fit hidden_dim {u}"
        )
    zero_state = not h.any()

    def recurrent(r_mat, state):
        if zero_state and np.isfinite(r_mat).all():
            return np.zeros((r_mat.shape[0], state.shape[1]))
        return nx.matmul_values(r_mat, state)

    zr = nx.sigmoid_values((wx_t[: 2 * u] + recurrent(r_zr.value, h)) + b.value[: 2 * u])
    z, r = zr[:u], zr[u:]
    rh = r * h
    cand = np.tanh((wx_t[2 * u :] + recurrent(r_h.value, rh)) + b.value[2 * u :])
    keep = 1.0 - z
    out = keep * h + z * cand

    def backward_fn(grad):
        # the gate gradients [d_zr; d_cand] fill one block in gate order, so that W x and b take one pass each;
        # d_cand is (grad * z) * (1 - cand^2) and d_zr (concatenate([grad * (cand - h), d_rh * h]) * zr) * (1 - zr)
        d = np.empty((3 * u, grad.shape[1]))
        d_zr, d_cand = d[: 2 * u], d[2 * u :]
        np.multiply(grad, z, out=d_cand)
        d_cand *= 1.0 - cand * cand
        d_rh = np.dot(r_h.value.T, d_cand)
        np.multiply(grad, cand - h, out=d_zr[:u])
        np.multiply(d_rh, h, out=d_zr[u:])
        d_zr *= zr
        d_zr *= 1.0 - zr
        if h_prev.requires_grad:
            h_prev.grad += grad * keep + d_rh * r + np.dot(r_zr.value.T, d_zr)
        if wx.requires_grad:
            wx.grad[:, cols] += d
        # ParamStore entries always require gradients in a recorded node
        r_zr.grad += np.dot(d_zr, h.T)
        r_h.grad += np.dot(d_cand, rh.T)
        b.grad += np.add.reduce(d, axis=1, keepdims=True)

    return nx.record(out, (wx, h_prev, r_zr, r_h, b), backward_fn)


def tda_weights(t: int) -> np.ndarray:
    """Temporal-distance weights [1/t, ..., 1/2, 1] for hidden states 1..t."""
    if t < 1:
        raise DomainError(f"temporal-distance weights need t >= 1, got {t}")
    return 1.0 / np.arange(t, 0, -1, dtype=np.float64)


def heads(fusion: list[nx.Tensor], params: nx.ParamStore) -> nx.Tensor:
    """Both head logits from the fusion blocks, recorded as one tape node.

    ``fusion`` is [h^T, c] (or [h^T] for the plain GRU), stacked into f.
    m = W_m f + b_m and v = W_v [f; sigma(m)] + b_v; returns the 2 x batch
    logits [m; v].  Their probabilities are ``nx.sigmoid_values(logits)``,
    the expression that forms sigma(m) here.  The products run in the fixed
    order and the backward keeps the grouping of the separate per-op nodes,
    so values and gradients are bit-identical to composing them op by op.
    """
    w_m, b_m, w_v, b_v = (params[name] for name in ("W_m", "b_m", "W_v", "b_v"))
    f = np.concatenate([part.value for part in fusion])
    m = nx.matmul_values(w_m.value, f) + b_m.value
    p_m = nx.sigmoid_values(m)
    f_p = np.concatenate([f, p_m])
    v = nx.matmul_values(w_v.value, f_p) + b_v.value

    def backward_fn(grad):
        g_v = grad[1:]
        d_fp = np.dot(w_v.value.T, g_v)
        g_m = grad[:1] + d_fp[-1:] * p_m * (1.0 - p_m)
        d_f = d_fp[:-1] + np.dot(w_m.value.T, g_m)
        lo = 0
        for part in fusion:
            if part.requires_grad:
                part.grad += d_f[lo : lo + part.rows]
            lo += part.rows
        # ParamStore entries always require gradients in a recorded node
        w_m.grad += np.dot(g_m, f.T)
        b_m.grad += np.sum(g_m, axis=1, keepdims=True)
        w_v.grad += np.dot(g_v, f_p.T)
        b_v.grad += np.sum(g_v, axis=1, keepdims=True)

    return nx.record(np.concatenate([m, v]), (*fusion, w_m, b_m, w_v, b_v), backward_fn)


@dataclass
class ForwardTrace:
    """Recorded forward pass over a batch (batch size 1 for a single window).

    A taped pass keeps every encoder state; a forward-only pass, whose ``W``
    requires no gradient, folds each state into the TDA mix as it is made
    and keeps only ``h^T``.
    """

    hidden: list[nx.Tensor]  # window-many (hidden_dim x batch) states, or [h^T] when forward-only
    context: nx.Tensor | None
    logits: nx.Tensor  # 2 x batch: movement row, volatility row


def forward_batch(windows: SampleSet | np.ndarray, params: nx.ParamStore, config: ModelConfig,
                  features: list[int] | None = None) -> ForwardTrace:
    """Run the model over a :class:`SampleSet`, or a (batch, features, window) array, of windows.

    ``features`` selects and orders feature columns, as
    :meth:`SampleSet.windows` does.  The input projection ``W x`` is formed
    once per distinct day the windows read, then gathered to one column per
    (step, window): consecutive windows share all but one day.  Values and
    gradients are bit-identical to projecting every column.

    A taped pass gathers every step's columns up front, because its
    backward's library product needs the gathered block.  A forward-only
    pass gathers a step's columns, into one reused block, only when that
    step runs, and adds ``c_t * h_t`` to the TDA mix in step order, the
    operations of :func:`~alertanet.numerics.linear_combination`.  So it
    holds one step's block and two states at a time, with the taped bits.
    """
    if isinstance(windows, SampleSet):
        days, start, steps = windows.days, windows.start, windows.window
    else:
        x = np.asarray(windows, dtype=np.float64)
        if x.ndim != 3:
            raise DimensionError(f"expected (batch, features, window) input, got shape {x.shape}")
        steps = x.shape[2]
        # one day row per (window, step), window j starting at row j*steps
        days, start = x.transpose(0, 2, 1).reshape(len(x) * steps, x.shape[1]), np.arange(len(x)) * steps
    feature_cols = np.arange(days.shape[1]) if features is None else np.asarray(features)
    batch, dim = len(start), len(feature_cols)
    if dim != config.input_dim or steps != config.window:
        raise DimensionError(
            f"window block {dim}x{steps} does not match model config "
            f"input_dim={config.input_dim} window={config.window}"
        )
    # column t*batch + j of the projection holds step t of window j, which reads day start[j] + t
    day_of_col = (np.arange(steps)[:, None] + start).reshape(-1)
    taped = params["W"].requires_grad

    def project(w: nx.Tensor, col_days: np.ndarray):
        """``W x`` once per distinct day, as a reader from a column slice to ``cell_step``'s (wx, cols)."""
        used, inv = np.unique(col_days, return_inverse=True)
        x = nx.constant(days[used][:, feature_cols].T)
        if taped:
            wx = nx.matmul(w, x, cols=inv)
            return lambda cols: (wx, cols)
        wx = nx.matmul(w, x)
        # one block for every step: a read fills all of it, and a forward-only step keeps no reference to it
        step = nx.Tensor(np.empty((wx.rows, batch)), _validate=False)

        def read(cols):
            # inv is in range, so "wrap" moves no index; "raise" would gather into a temporary copy first
            np.take(wx.value, inv[cols], axis=1, out=step.value, mode="wrap")
            return step, slice(None)

        return read

    read_wx = project(params["W"], day_of_col)
    h = nx.constant(np.zeros((config.hidden_dim, batch)))
    hidden: list[nx.Tensor] = []
    if config.uses_context:
        weights = tda_weights(steps)
        if config.tda_normalize:
            weights = weights / np.sum(weights)
        coeffs = weights.tolist()
        mixed = None if taped else np.zeros(h.shape)
    for t in range(steps):
        wx, cols = read_wx(slice(t * batch, (t + 1) * batch))
        h = cell_step(wx, h, params, cols=cols)
        if taped:
            hidden.append(h)
        elif config.uses_context:
            mixed += coeffs[t] * h.value
    hidden = hidden if taped else [h]

    context = None
    if config.uses_context:
        mix = nx.linear_combination(hidden, coeffs) if taped else nx.Tensor(mixed, _validate=False)
        last = slice((steps - 1) * batch, steps * batch)
        if config.shared_context_cell:
            wx, cols = read_wx(last)
            context = cell_step(wx, mix, params, cols=cols)
        else:
            wx, cols = project(params["ctx_W"], day_of_col[last])(slice(None))
            context = cell_step(wx, mix, params, "ctx_", cols)
    logits = heads([hidden[-1]] if context is None else [hidden[-1], context], params)
    return ForwardTrace(hidden=hidden, context=context, logits=logits)


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
    if not isinstance(obj, dict) or obj.get("kind") != "alertanet-checkpoint":
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = obj.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format version {version} is not supported (this version reads "
            f"{CHECKPOINT_VERSION}, which stores stacked gate weights); retrain with `alertanet train`"
        )
    try:
        config = ModelConfig(**obj["config"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: malformed config ({exc})") from exc
    expected = param_shapes(config)
    stored = obj.get("params", {})
    if not isinstance(stored, dict) or set(stored) != set(expected):
        names = sorted(stored) if isinstance(stored, dict) else stored
        raise CheckpointError(f"{path}: parameters {names!r} do not match config {config.to_dict()}")
    params = nx.ParamStore()
    for name, shape in expected.items():
        try:
            arr = serialize.decode_array(stored[name])
        except ParseError as exc:
            raise CheckpointError(f"{path}: parameter {name!r}: {exc}") from exc
        if arr.shape != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arr.shape}, expected {shape} "
                f"for config {config.to_dict()}"
            )
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: parameter {name!r} has non-finite entries")
        params.add(name, arr)
    return params, config, obj.get("extra", {})
