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

Both passes run every encoder step, and the context step, through
:func:`cell_step`.  A pass takes its blocks from a
:class:`~alertanet.numerics.Arena`: a taped pass from the one its caller
passes, as ``train`` passes one for all its steps, or else new ones; a
forward-only pass from its thread's own, and each of its steps writes the
new state over the one before it.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import numerics as nx
from . import serialize
from .data import SampleSet
from .errors import CheckpointError, ConfigError, DimensionError, DomainError, ParseError, check_fields

CHECKPOINT_VERSION = 2

ARCHITECTURES = ("alerta", "gru")


def check_architecture(arch: str) -> None:
    """Raise a :class:`ConfigError` unless ``arch`` is one of :data:`ARCHITECTURES`."""
    if arch not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")


# Cell matrices stack one hidden_dim-row block per gate, in the order z, r, h.
_CELL_MATRICES = ("W", "R_zr", "R_h")


@dataclass
class ModelConfig:
    input_dim: int = field(metadata={"min": 1})
    hidden_dim: int = field(metadata={"min": 1})
    window: int = field(metadata={"min": 1})
    arch: str = "alerta"
    shared_context_cell: bool = True
    tda_normalize: bool = False
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        check_fields(self, "model config")
        check_architecture(self.arch)
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


def gru_cell(wx_t: np.ndarray, h: np.ndarray, r_zr: np.ndarray, r_h: np.ndarray, b: np.ndarray, *,
             zr: np.ndarray, work: np.ndarray, mask: np.ndarray, cand: np.ndarray, zc: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """The GRU cell's forward arithmetic on a (hidden x batch) state, written into blocks the caller owns.

    z, r = sigma((W_zr x + R_zr h) + b_zr); cand = tanh((W_h x + R_h (r*h)) + b_h)
    out = (1-z)*h + z*cand

    ``wx_t`` is this step's ``W x`` (rows z, r, h).  With u hidden rows and n
    columns, the C-contiguous blocks get: ``zr`` (2u x n) [z; r]; ``work``
    (2u x n) ``R_zr h`` and the sigmoid's scratch, then [r*h; 1-z]; ``mask``
    (2u x n, bool) the sigmoid's ``x >= 0``; ``cand`` (u x n) the candidate;
    ``zc`` (u x n) z*cand, and it may be ``cand`` when the candidate is not
    kept; ``out`` (u x n) the new state, which is returned, and it may be
    ``h``, which is last read by the ``(1-z)*h`` product that writes ``out``.
    Each holds only what this call wrote, so blocks can be reused from step
    to step.

    Every entry keeps the summation order and grouping of separate per-gate
    products, so the value is bit-identical to composing the gates op by op.

    When ``h`` is all zeros, as the initial state is, and the recurrent
    matrices are finite, ``R_zr h`` and ``R_h (r*h)`` are not formed: each
    of their entries sums ±0.0 products onto +0.0 and so is exactly +0.0.
    A non-finite ``R`` still takes the product, where ``inf * 0`` gives NaN.
    """
    u = r_h.shape[0]
    if h.shape[0] != u or wx_t.shape != (3 * u, h.shape[1]):
        raise DimensionError(f"cell_step: projection {wx_t.shape} and state {h.shape} do not fit hidden_dim {u}")
    zero_state = not h.any()

    def recurrent(r_mat, state, into):
        if zero_state and np.isfinite(r_mat).all():
            into.fill(0.0)
            return into
        return nx.matmul_values(r_mat, state, out=into)

    np.add(wx_t[: 2 * u], recurrent(r_zr, h, work), out=zr)
    zr += b[: 2 * u]
    nx.sigmoid_values(zr, out=zr, scratch=work, mask=mask)
    z, r = zr[:u], zr[u:]
    rh, keep = work[:u], work[u:]
    np.multiply(r, h, out=rh)
    np.add(wx_t[2 * u :], recurrent(r_h, rh, keep), out=cand)
    cand += b[2 * u :]
    np.tanh(cand, out=cand)
    np.subtract(1.0, z, out=keep)
    np.multiply(keep, h, out=out)
    out += np.multiply(z, cand, out=zc)
    return out


def cell_step(
    wx: nx.Tensor,
    h_prev: nx.Tensor,
    params: nx.ParamStore,
    prefix: str = "",
    cols: slice | np.ndarray = slice(None),
    arena: nx.Arena | None = None,
) -> nx.Tensor:
    """One GRU cell update on a (hidden x batch) block, recorded as one tape node.

    ``wx`` holds the input projection ``W x`` (rows z, r, h), usually of every
    step side by side; ``cols``, a slice or an index array, selects this
    step's columns of it, and the backward adds through them, so a step that
    records a node needs distinct columns.  The value is :func:`gru_cell`'s,
    formed in blocks of ``arena`` (new blocks without one).  A step that
    records a node keeps its blocks, which the backward reads; the
    backward's scratch comes from the same arena, inside a scope, so every
    cell's backward reuses it.  A step that records none, because nothing it
    reads requires a gradient, takes its blocks inside a scope, so every
    such step reuses them, and writes the new state over ``h_prev``'s block,
    which it returns.
    """
    arena = nx.Arena() if arena is None else arena
    r_zr, r_h, b = params[prefix + "R_zr"], params[prefix + "R_h"], params[prefix + "b"]
    parents = (wx, h_prev, r_zr, r_h, b)
    taped = any(p.requires_grad for p in parents)
    u, n = r_h.rows, h_prev.cols
    h = h_prev.value
    with contextlib.nullcontext() if taped else arena.scope():
        # cols are in range, so "wrap" moves no index; "raise" would gather into a temporary copy first
        wx_t = wx.value[:, cols] if isinstance(cols, slice) else np.take(
            wx.value, cols, axis=1, out=arena.take((wx.rows, len(cols))), mode="wrap")
        zr, work, cand = arena.take((2 * u, n)), arena.take((2 * u, n)), arena.take((u, n))
        out = gru_cell(wx_t, h, r_zr.value, r_h.value, b.value, zr=zr, work=work, mask=arena.take((2 * u, n), bool),
                       cand=cand, zc=arena.take((u, n)) if taped else cand, out=arena.take((u, n)) if taped else h)

    def backward_fn(grad):
        # the gate gradients [d_zr; d_cand] fill one block in gate order, so that W x and b take one pass each;
        # d_cand is (grad * z) * (1 - cand^2) and d_zr (concatenate([grad * (cand - h), d_rh * h]) * zr) * (1 - zr),
        # each temporary written into scratch in the order and grouping of those expressions
        z, r = zr[:u], zr[u:]
        rh, keep = work[:u], work[u:]
        with arena.scope():
            d, d_rh, s = arena.take((3 * u, n)), arena.take((u, n)), arena.take((2 * u, n))
            d_zr, d_cand, t = d[: 2 * u], d[2 * u :], s[:u]
            np.multiply(grad, z, out=d_cand)
            d_cand *= np.subtract(1.0, np.multiply(cand, cand, out=t), out=t)
            np.dot(r_h.value.T, d_cand, out=d_rh)
            np.multiply(grad, np.subtract(cand, h, out=t), out=d_zr[:u])
            np.multiply(d_rh, h, out=d_zr[u:])
            d_zr *= zr
            d_zr *= np.subtract(1.0, zr, out=s)
            if h_prev.requires_grad:  # += (grad * keep + d_rh * r) + R_zr^T d_zr
                np.multiply(grad, keep, out=t)
                t += np.multiply(d_rh, r, out=d_rh)
                t += np.dot(r_zr.value.T, d_zr, out=d_rh)
                h_prev.grad += t
            if wx.requires_grad:
                wx.grad[:, cols] += d
            # ParamStore entries always require gradients in a recorded node
            g = arena.take((2 * u, u))
            r_zr.grad += np.dot(d_zr, h.T, out=g)
            r_h.grad += np.dot(d_cand, rh.T, out=g[:u])
            b.grad += np.add.reduce(d, axis=1, keepdims=True, out=arena.take((3 * u, 1)))

    return nx.record(out, parents, backward_fn)


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


_thread = threading.local()


def _workspace() -> nx.Arena:
    """This thread's arena for forward-only passes, made on its first such pass; it lives as long as the thread."""
    arena = getattr(_thread, "arena", None)
    if arena is None:
        arena = _thread.arena = nx.Arena()
    return arena


def forward_batch(windows: SampleSet | np.ndarray, params: nx.ParamStore, config: ModelConfig,
                  features: list[int] | None = None, arena: nx.Arena | None = None) -> ForwardTrace:
    """Run the model over a :class:`SampleSet`, or a (batch, features, window) array, of windows.

    ``features`` selects and orders feature columns, as indices into the
    windows' feature columns.  The call resets ``arena`` and takes its
    blocks from it: by default a new arena for a taped pass, so new blocks,
    and this thread's own for a forward-only pass, whose ``W`` requires no
    gradient.  A taped trace is valid until the next pass over its arena; a
    forward-only pass returns tensors that share no memory with its arena.

    Both passes project ``W x`` into arena blocks and run one step loop and
    one context step through :func:`cell_step`.  A taped pass projects all
    (step, window) columns in one product, because its backward's library
    product needs every column, and keeps every state for the tape.  A
    forward-only pass, whose date-sorted chunks read consecutive windows
    that share all but one day, projects once per distinct day, so each
    step gathers its columns; its steps write each state over the last,
    and it adds ``c_t * h_t`` to the TDA mix in step order, the operations
    of :func:`~alertanet.numerics.linear_combination`.  Each column of the
    product sees the same operands in the same order either way, so both
    passes get the bits of projecting every column.
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
    batch, dim, u = len(start), len(feature_cols), config.hidden_dim
    if dim != config.input_dim or steps != config.window:
        raise DimensionError(
            f"window block {dim}x{steps} does not match model config "
            f"input_dim={config.input_dim} window={config.window}"
        )
    # column t*batch + j of the projection holds step t of window j, which reads day start[j] + t
    day_of_col = (np.arange(steps)[:, None] + start).reshape(-1)
    taped = params["W"].requires_grad
    if arena is None:
        arena = nx.Arena() if taped else _workspace()
    arena.reset()

    def project(w: nx.Tensor, col_days: np.ndarray) -> tuple[nx.Tensor, list]:
        """``W x`` in arena blocks for the steps that read ``col_days``, and each step's columns of it: of every
        (step, window) column on a taped pass, of each distinct day once on a forward-only pass."""
        used, inv = (col_days, None) if taped else np.unique(col_days, return_inverse=True)
        x = arena.take((dim, len(used)))
        np.copyto(x, days[used[:, None], feature_cols].T)
        wx = nx.matmul(w, nx.constant(x), out=arena.take((w.rows, len(used))))
        los = range(0, len(col_days), batch)
        return wx, [slice(lo, lo + batch) if inv is None else inv[lo : lo + batch] for lo in los]

    wx, cols = project(params["W"], day_of_col)
    # the state and the TDA mix are new arrays, which forward-only steps overwrite, so their trace holds no arena block
    h, hidden = nx.constant(np.zeros((u, batch))), []
    mixed = coeffs = None
    if config.uses_context:
        weights = tda_weights(steps)
        if config.tda_normalize:
            weights = weights / np.sum(weights)
        coeffs = weights.tolist()
        if not taped:
            mixed, fold = np.zeros((u, batch)), arena.take((u, batch))
    for t in range(steps):
        h = cell_step(wx, h, params, cols=cols[t], arena=arena)
        if taped:
            hidden.append(h)
        elif mixed is not None:
            mixed += np.multiply(coeffs[t], h.value, out=fold)
    context = None
    if coeffs is not None:
        mix = nx.linear_combination(hidden, coeffs) if taped else nx.Tensor(mixed, _validate=False)
        shared = config.shared_context_cell
        ctx_wx, ctx_cols = (wx, cols) if shared else project(params["ctx_W"], day_of_col[-batch:])
        context = cell_step(ctx_wx, mix, params, "" if shared else "ctx_", ctx_cols[-1], arena)
    logits = heads([h] if context is None else [h, context], params)
    return ForwardTrace(hidden=hidden if taped else [h], context=context, logits=logits)


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
