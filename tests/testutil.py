"""Shared test helpers: finite-difference gradients, tolerance checks, fixtures,
sample sets built from windows, malformed checkpoint files, and the tape ops and
accessors that only the tests compose.

Kept as oracles: the row-by-row CSV loader, the day-by-day synthetic price
loop, the project-every-column forward pass, the serial, taped chunk loops of
prediction and validation loss, and the per-name cell backward, Adam, clipping
and gradient zeroing.  The per-op tape ops rebuild the per-gate cell and the
per-op heads and loss that the fused model nodes replaced, as oracles."""

import csv
import json
from datetime import date
from fractions import Fraction
from pathlib import Path

import numpy as np

from alertanet import model as md
from alertanet import numerics as nx
from alertanet import training as tr
from alertanet.data import ABSTAIN, DATE_COLUMN, PRICE_COLUMN, FeatureFrame, SampleSet
from alertanet.errors import DataIntegrityError, DimensionError, ParseError, PreprocessingError, SchemaError, UsageError

# 51 hand-picked prices -> 50 labeled days.  Covers both dead-zone edges
# (+0.5%, -0.5%), both outlier edges (+5%, -5%) at float-exact price pairs,
# just-inside/just-outside cases (0.49%, 4.99%), and ordinary moves.
GOLDEN_PRICES = [
    "100", "101", "99.99", "100.3", "100", "100.5", "100", "99.5", "100",
    "105", "100", "95", "100", "104.99", "100", "106", "100", "102", "100",
    "100.49", "100", "99.51", "100", "107.3", "100", "200", "201", "200",
    "190", "200", "100", "100.2", "100.7", "101.8", "101", "96", "120",
    "114", "120", "126", "119", "121.38", "115", "115.92", "116", "110",
    "111.1", "111", "105", "106", "105.5",
]


def golden_label_oracle(price_strings, abstain, dead=Fraction(1, 200), outlier=Fraction(1, 20)):
    """Exact rational labeling of consecutive price pairs (spreadsheet-style)."""
    movement, volatility = [], []
    for prev, cur in zip(price_strings, price_strings[1:]):
        r = (Fraction(cur) - Fraction(prev)) / Fraction(prev)
        if -dead < r < dead:
            movement.append(abstain)
        elif r >= dead:
            movement.append(1)
        else:
            movement.append(0)
        volatility.append(1 if abs(r) >= outlier else 0)
    return movement, volatility


def sample_set(records):
    """A :class:`SampleSet` with one row per ``(x, y_m, y_v, stock_id, target_date)`` record, in order.

    Every record's (features, window) array ``x`` gets its own days, so windows
    need not overlap as they do in a set built from a frame.
    """
    x = np.asarray([r[0] for r in records], dtype=np.float64)
    n, d, w = x.shape
    days = x.transpose(0, 2, 1).reshape(n * w, d)
    days.flags.writeable = False
    columns = [np.array([r[i] for r in records], dtype=dtype)
               for i, dtype in ((1, np.int8), (2, np.int8), (3, str), (4, str))]
    return SampleSet(days, w, np.arange(n) * w, *columns)


def load_frame_oracle(path, schema=None):
    """The former row-by-row body of ``data.load_frame``: one record, then one cell, at a time."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if schema is None:
            schema = [h for h in header if h not in (DATE_COLUMN, PRICE_COLUMN)]
        columns = [PRICE_COLUMN, *schema]
        missing = [c for c in [DATE_COLUMN, *columns] if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required columns {missing}")
        col_idx = {name: header.index(name) for name in header}

        rows = []
        for line_no, cells in enumerate(reader, start=2):
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) != len(header):
                raise ParseError(f"{path}: row {line_no}: expected {len(header)} cells, got {len(cells)}")
            cell = cells[col_idx[DATE_COLUMN]]
            try:
                day = date.fromisoformat(cell.strip()).isoformat()
            except ValueError as exc:
                raise ParseError(f"{path}: row {line_no}: bad date {cell!r} ({exc})") from exc
            values = []
            for c in columns:
                try:
                    values.append(float(cells[col_idx[c]]))
                except (TypeError, ValueError):
                    raise ParseError(f"{path}: row {line_no}: non-numeric value {cells[col_idx[c]]!r} "
                                     f"in column {c!r}") from None
            rows.append((day, line_no, values))

    rows.sort(key=lambda r: r[0])
    for (d1, ln1, _), (d2, ln2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise DataIntegrityError(f"{path}: duplicate date {d1} (rows {ln1} and {ln2})")

    block = np.array([r[2] for r in rows], dtype=np.float64).reshape(len(rows), len(columns))
    bad = np.argwhere(~np.isfinite(block))
    if bad.size:
        i, j = bad[0]
        raise ParseError(f"{path}: row {rows[i][1]}: non-finite value {block[i, j]} in column {columns[j]!r}")
    bad = np.argwhere(block[:, 1:] < 0)
    if bad.size:
        i, j = bad[0]
        raise PreprocessingError(
            f"{path}: row {rows[i][1]}: negative value {block[i, j + 1]} in feature column {schema[j]!r}; "
            "shift signed series before ingestion"
        )
    bad = np.flatnonzero(block[:, 0] <= 0)
    if bad.size:
        i = bad[0]
        raise DataIntegrityError(f"{path}: row {rows[i][1]}: adj_close {block[i, 0]} is not a positive number")
    return FeatureFrame(stock_id=path.stem, dates=[r[0] for r in rows], adj_close=block[:, 0],
                        feature_names=list(schema), features=block[:, 1:])


def price_path_oracle(base_price, returns):
    """The former loop of ``synth.generate_with_truth``: each day's price from the last, one multiply at a time."""
    prices = np.empty(len(returns) + 1)
    prices[0] = base_price
    for t in range(1, len(prices)):
        prices[t] = prices[t - 1] * (1.0 + returns[t - 1])
    return prices


def sigmoid_values_oracle(x):
    """The former body of ``numerics.sigmoid_values``: both divisions formed over every entry."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def cell_step_oracle(wx, h_prev, params, prefix="", cols=slice(None)):
    """The former body of ``model.cell_step``: both recurrent products formed even for a zero state."""
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
        r_zr.grad += np.dot(d_zr, h.T)
        r_h.grad += np.dot(d_cand, rh.T)
        b.grad[: 2 * u] += np.sum(d_zr, axis=1, keepdims=True)
        b.grad[2 * u :] += np.sum(d_cand, axis=1, keepdims=True)

    return nx.record(out, (wx, h_prev, r_zr, r_h, b), backward_fn)


def bad_checkpoint(tmp_path, edit):
    """A valid checkpoint file, then ``edit`` applied to its JSON object."""
    config = md.ModelConfig(input_dim=4, hidden_dim=3, window=5)
    path = tmp_path / "ckpt.json"
    md.save_checkpoint(path, md.init_params(config, np.random.default_rng(0)), config)
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    return path


# each edit, and the message that must name the file and the culprit
BAD_CHECKPOINTS = {
    "short payload": (lambda o: o["params"]["R_h"].update(data="AAAAAAAAAA=="),
                      r"ckpt\.json: parameter 'R_h': malformed array record"),
    "entry not an object": (lambda o: o["params"].update(W=5), r"ckpt\.json: parameter 'W': malformed array record"),
    "params not an object": (lambda o: o.update(params=5), r"ckpt\.json: parameters 5 do not match"),
    "fractional hidden_dim": (lambda o: o["config"].update(hidden_dim=2.5),
                              r"ckpt\.json: malformed config \(model config 'hidden_dim' is 2\.5"),
    "arch not a string": (lambda o: o["config"].update(arch=[]),
                          r"ckpt\.json: malformed config \(model config 'arch' is \[\]"),
}


def cell_step_concat_oracle(wx, h_prev, params, prefix="", cols=slice(None)):
    """The former ``model.cell_step``, whose backward concatenates the halves of ``d_zr`` and sums with ``np.sum``."""
    r_zr, r_h, b = params[prefix + "R_zr"], params[prefix + "R_h"], params[prefix + "b"]
    u = r_h.rows
    h = h_prev.value
    wx_t = wx.value[:, cols]
    zero_state = not h.any()

    def recurrent(r_mat, state):
        if zero_state and np.isfinite(r_mat).all():
            return np.zeros((r_mat.shape[0], state.shape[1]))
        return nx.matmul_values(r_mat, state)

    zr = nx.sigmoid_values((wx_t[: 2 * u] + recurrent(r_zr.value, h)) + b.value[: 2 * u])
    z, r = zr[:u], zr[u:]
    rh = r * h
    cand = np.tanh((wx_t[2 * u :] + recurrent(r_h.value, rh)) + b.value[2 * u :])
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
        r_zr.grad += np.dot(d_zr, h.T)
        r_h.grad += np.dot(d_cand, rh.T)
        b.grad[: 2 * u] += np.sum(d_zr, axis=1, keepdims=True)
        b.grad[2 * u :] += np.sum(d_cand, axis=1, keepdims=True)

    return nx.record(out, (wx, h_prev, r_zr, r_h, b), backward_fn)


class AdamOracle:
    """The former ``training.Adam``: moment buffers keyed by parameter name, one parameter at a time."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self.steps = 0
        self.m, self.v = {}, {}

    def step(self, params, names=None):
        self.steps += 1
        bc1 = 1.0 - self.beta1 ** self.steps
        bc2 = 1.0 - self.beta2 ** self.steps
        for name in names if names is not None else params.names():
            grad = params[name].grad
            if name not in self.m:
                self.m[name] = np.zeros_like(grad)
                self.v[name] = np.zeros_like(grad)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            params[name].value[...] -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_gradients_oracle(params, names, max_norm):
    """The former ``training.clip_gradients`` and its norm: each named gradient summed and scaled on its own."""
    total = 0.0
    for name in names:
        total += float(np.sum(params[name].grad * params[name].grad))
    norm = float(np.sqrt(total))
    if max_norm and norm > max_norm:
        factor = max_norm / norm
        for name in names:
            params[name].grad[...] *= factor
    return norm


def zero_grads_oracle(params):
    """The former ``ParamStore.zero_grads``: each gradient filled on its own."""
    for _, tensor in params.items():
        tensor.grad[...] = 0.0


def forward_batch_oracle(windows, params, config):
    """The former body of ``model.forward_batch``: ``W x`` over one column per (step, window) of an array."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionError(f"expected (batch, features, window) input, got shape {x.shape}")
    batch, dim, steps = x.shape
    if dim != config.input_dim or steps != config.window:
        raise DimensionError(
            f"window block {dim}x{steps} does not match model config "
            f"input_dim={config.input_dim} window={config.window}"
        )
    x_block = nx.constant(x.transpose(1, 2, 0).reshape(dim, steps * batch))
    wx = nx.matmul(params["W"], x_block)
    h = nx.constant(np.zeros((config.hidden_dim, batch)))
    hidden = []
    for t in range(steps):
        h = cell_step_oracle(wx, h, params, cols=slice(t * batch, (t + 1) * batch))
        hidden.append(h)

    context = None
    if config.uses_context:
        weights = md.tda_weights(steps)
        if config.tda_normalize:
            weights = weights / np.sum(weights)
        mixed = nx.linear_combination(hidden, weights.tolist())
        last = slice((steps - 1) * batch, steps * batch)
        if config.shared_context_cell:
            context = cell_step_oracle(wx, mixed, params, cols=last)
        else:
            ctx_wx = nx.matmul(params["ctx_W"], nx.constant(x_block.value[:, last]))
            context = cell_step_oracle(ctx_wx, mixed, params, "ctx_")
    logits = md.heads([hidden[-1]] if context is None else [hidden[-1], context], params)
    return md.ForwardTrace(hidden=hidden, context=context, logits=logits)


def predict_probs_oracle(params, config, samples, rows=None):
    """The former loop of ``training.predict_probs``: one taped forward pass per chunk of 512 windows, in order.

    The probabilities are the sigmoid of each chunk's logits, which is what the heads returned beside them.
    """
    m_probs = np.empty(len(samples))
    v_probs = np.empty(len(samples))
    for lo in range(0, len(samples), 512):
        hi = min(lo + 512, len(samples))
        logits = md.forward_batch(samples[lo:hi], params, config, rows).logits.value
        m_probs[lo:hi], v_probs[lo:hi] = nx.sigmoid_values(logits)
    return m_probs, v_probs


def dataset_loss_oracle(params, config, samples, rows, loss_weight, pos_weight):
    """The former body of ``training._dataset_loss``: one taped forward pass per chunk of 1,024 windows, in order."""
    n = len(samples)
    movement = volatility = total = 0.0
    for lo in range(0, n, 1024):
        chunk = samples[lo : lo + 1024]
        trace = md.forward_batch(chunk, params, config, rows)
        loss, m_term, v_term = tr._loss_terms(trace.logits, chunk.y_m, chunk.y_v, loss_weight, pos_weight)
        weight = len(chunk)
        movement += m_term * weight
        volatility += v_term * weight
        total += loss.item() * weight
    return movement / n, volatility / n, total / n


def joint_loss(trace, y_m, y_v, loss_weight, volatility_pos_weight=1.0):
    """The recorded training objective of one sample or a batch, as ``train`` computes it."""
    return tr._loss_terms(trace.logits, y_m, y_v, loss_weight, volatility_pos_weight)[0]


def hidden_states(trace):
    """The encoder states of a forward trace as a (hidden_dim, window * batch) matrix."""
    return np.concatenate([h.value for h in trace.hidden], axis=1)


def finite_difference_grads(loss_fn, params, h=1e-6):
    """Central-difference gradient of a scalar loss for every parameter entry.

    ``loss_fn`` must recompute the loss from the params' current values; the
    perturbation is done in place and always restored.
    """
    grads = {}
    for name, tensor in params.items():
        flat = tensor.value.ravel()
        grad = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            loss_plus = loss_fn()
            flat[i] = orig - h
            loss_minus = loss_fn()
            flat[i] = orig
            grad[i] = (loss_plus - loss_minus) / (2.0 * h)
        grads[name] = grad.reshape(tensor.value.shape)
    return grads


def max_grad_violation(analytic, numeric, rel=1e-5, floor=1e-8):
    """Worst ratio |a - n| / allowed, where allowed = max(floor, rel*max(|a|,|n|)).

    A return value <= 1 means every entry is within tolerance.
    """
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        allowed = np.maximum(floor, rel * np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / allowed)))
    return worst


def mul(a, b):
    """Elementwise (Hadamard) product on the tape, for the per-gate cell oracle."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shape {a.shape} does not match shape {b.shape}")

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += grad * b.value
        if b.requires_grad:
            b.grad += grad * a.value

    return nx.record(a.value * b.value, (a, b), backward_fn)


def tanh(a):
    """Elementwise tanh on the tape, for the per-gate cell oracle."""
    out = np.tanh(a.value)

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += grad * (1.0 - out * out)

    return nx.record(out, (a,), backward_fn)


def _check_same_shape(a, b, op):
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape {a.shape} does not match shape {b.shape}")


def add(a, b):
    _check_same_shape(a, b, "add")

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += grad
        if b.requires_grad:
            b.grad += grad

    return nx.record(a.value + b.value, (a, b), backward_fn)


def affine(a, scale, shift=0.0):
    """``scale * a + shift`` with scalar constants."""
    scale = float(scale)

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += scale * grad

    return nx.record(scale * a.value + shift, (a,), backward_fn)


def mul_const(a, const):
    """Elementwise product with a fixed (non-trainable) matrix."""
    const = nx.as_matrix(const)
    _check_same_shape(a, nx.constant(const), "mul_const")

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += grad * const

    return nx.record(a.value * const, (a,), backward_fn)


def sigmoid(a):
    out = nx.sigmoid_values(a.value)

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += grad * out * (1.0 - out)

    return nx.record(out, (a,), backward_fn)


def bias_add(a, bias):
    """Add an mx1 bias column to every column of an mxn matrix."""
    if bias.cols != 1 or bias.rows != a.rows:
        raise DimensionError(f"bias_add: bias shape {bias.shape} does not fit matrix shape {a.shape}")

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += grad
        if bias.requires_grad:
            bias.grad += np.sum(grad, axis=1, keepdims=True)

    return nx.record(a.value + bias.value, (a, bias), backward_fn)


def concat_rows(parts):
    """Stack matrices with equal column counts on top of each other."""
    if not parts:
        raise UsageError("concat_rows: empty input")
    if len({p.cols for p in parts}) != 1:
        raise DimensionError(f"concat_rows: column counts differ ({[p.shape for p in parts]})")
    out = np.concatenate([p.value for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.rows for p in parts])

    def backward_fn(grad):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.grad += grad[lo:hi, :]

    return nx.record(out, tuple(parts), backward_fn)


def total_sum(a):
    """Sum all entries down to a 1x1 scalar."""
    out = np.array([[np.sum(a.value)]])

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += grad[0, 0]

    return nx.record(out, (a,), backward_fn)


def per_op_heads(fusion, params):
    """The heads as separate tape ops: movement and volatility logits and probabilities."""
    movement_logit = bias_add(nx.matmul(params["W_m"], fusion), params["b_m"])
    movement_prob = sigmoid(movement_logit)
    volatility_logit = bias_add(nx.matmul(params["W_v"], concat_rows([fusion, movement_prob])), params["b_v"])
    return movement_logit, movement_prob, volatility_logit, sigmoid(volatility_logit)


def per_op_loss(movement_logit, volatility_logit, y_m, y_v, loss_weight, pos_weight):
    """The joint loss as separate tape ops: ``(loss, movement mean, volatility mean)``."""
    batch = movement_logit.cols
    y_m, y_v = np.asarray(y_m).reshape(1, batch), np.asarray(y_v).reshape(1, batch)
    mask = (y_m != ABSTAIN).astype(np.float64)
    movement_vec = nx.bce_with_logits(movement_logit, np.where(y_m == ABSTAIN, 0, y_m).astype(np.float64),
                                      np.array([[1.0]]))
    movement_mean = total_sum(mul_const(movement_vec, mask / batch))
    volatility_vec = nx.bce_with_logits(volatility_logit, y_v.astype(np.float64), np.array([[pos_weight]]))
    volatility_mean = affine(total_sum(volatility_vec), 1.0 / batch)
    loss = add(movement_mean, affine(volatility_mean, loss_weight))
    return loss, movement_mean, volatility_mean
