import math

import numpy as np
import pytest

from alertanet import model as md
from alertanet import numerics as nx
from alertanet import training as tr
from alertanet.data import ABSTAIN, build_dataset
from alertanet.errors import CheckpointError, ConfigError, DimensionError, DomainError
from alertanet.synth import SynthSpec, generate_universe

from testutil import (
    BAD_CHECKPOINTS, add, affine, backward_oracle, bad_checkpoint, bias_add, cell_forward_oracle,
    cell_step_concat_oracle, cell_step_oracle, cell_step_parent_oracle, concat_rows, forward_batch_oracle,
    hidden_states, joint_loss, matmul, mul, per_op_heads, per_op_loss, sample_set, sigmoid, stack_windows, tanh,
    topo_order_oracle,
)


def make_params(config, seed=0):
    return md.init_params(config, np.random.default_rng(seed))


def scalar_sigmoid(a):
    if a >= 0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


def gate_block(p, name, gate, prefix=""):
    """One gate's rows of a stacked cell matrix (gate order z, r, h)."""
    u = p[prefix + "R_h"].value.shape[0]
    i = "zrh".index(gate)
    return p[prefix + name].value[i * u : (i + 1) * u]


def scalar_gru_step(x, h, p, prefix=""):
    """Independent loop implementation of the four cell equations."""
    u = len(h)

    def pre(gate):
        w, b = gate_block(p, "W", gate, prefix), gate_block(p, "b", gate, prefix)
        r = p[prefix + "R_h"].value if gate == "h" else gate_block(p, "R_zr", gate, prefix)
        out = []
        for i in range(u):
            acc = 0.0
            for k in range(len(x)):
                acc += w[i, k] * x[k]
            acc2 = 0.0
            for k in range(u):
                acc2 += r[i, k] * (h[k] if gate != "h" else reset[k] * h[k])
            out.append(acc + acc2 + b[i, 0])
        return out

    update = [scalar_sigmoid(v) for v in pre("z")]
    reset = [scalar_sigmoid(v) for v in pre("r")]
    cand = [math.tanh(v) for v in pre("h")]
    return [(1.0 - z) * hv + z * c for z, hv, c in zip(update, h, cand)]


def fused_step(x, h, params, prefix=""):
    """The model's cell step on plain arrays: vectors, or (dim x batch) blocks."""
    squeeze = np.ndim(x) == 1
    x, h = np.asarray(x, dtype=np.float64), np.asarray(h, dtype=np.float64)
    wx = nx.matmul(params[prefix + "W"], nx.constant(x.reshape(x.shape[0], -1)))
    out = md.cell_step(wx, nx.constant(h.reshape(h.shape[0], -1)), params, prefix).value
    return out[:, 0] if squeeze else out


class TestGruStep:
    def test_zero_params_zero_state(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=4, window=2)
        params = make_params(config)
        for name in params.names():
            params[name].value[...] = 0.0
        out = fused_step(np.array([1.0, 2.0, 3.0]), np.zeros(4), params)
        assert np.array_equal(out, np.zeros(4))

    def test_zero_params_halve_previous_state(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=4, window=2)
        params = make_params(config)
        for name in params.names():
            params[name].value[...] = 0.0
        v = np.array([0.4, -1.2, 2.0, 0.0])
        out = fused_step(np.array([5.0, -1.0, 2.0]), v, params)
        assert np.allclose(out, 0.5 * v, atol=0, rtol=0)

    def test_matches_scalar_oracle(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=2, window=2)
        params = make_params(config, seed=11)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=3)
            h = rng.normal(size=2)
            ours = fused_step(x, h, params)
            oracle = scalar_gru_step(x, h, params)
            assert np.max(np.abs(ours - np.array(oracle))) < 1e-12

    def test_batched_columns_match_single(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=2, window=2)
        params = make_params(config, seed=4)
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(3, 5))
        hs = rng.normal(size=(2, 5))
        batched = fused_step(xs, hs, params)
        for j in range(5):
            single = fused_step(xs[:, j], hs[:, j], params)
            assert np.array_equal(batched[:, j], single)

    def test_rejects_state_of_wrong_width(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=2, window=2)
        params = make_params(config)
        with pytest.raises(DimensionError, match="cell_step"):
            fused_step(np.ones((3, 5)), np.ones((2, 1)), params)


def oracle_cell_step(x, h_prev, gates, prefix=""):
    """The per-gate tape composition the fused cell replaced: six products, one node per op."""
    z = sigmoid(
        bias_add(
            add(matmul(gates[prefix + "W_z"], x), matmul(gates[prefix + "R_z"], h_prev)),
            gates[prefix + "b_z"],
        )
    )
    r = sigmoid(
        bias_add(
            add(matmul(gates[prefix + "W_r"], x), matmul(gates[prefix + "R_r"], h_prev)),
            gates[prefix + "b_r"],
        )
    )
    cand = tanh(
        bias_add(
            add(
                matmul(gates[prefix + "W_h"], x),
                matmul(gates[prefix + "R_h"], mul(r, h_prev)),
            ),
            gates[prefix + "b_h"],
        )
    )
    one_minus_z = affine(z, -1.0, 1.0)
    return add(mul(one_minus_z, h_prev), mul(z, cand))


def oracle_forward_batch(x, gates, config):
    """The per-gate forward pass: one column block and one oracle cell per step, and its per-op probabilities."""
    batch, _, steps = x.shape
    cols = [nx.constant(np.ascontiguousarray(x[:, :, t].T)) for t in range(steps)]
    h = nx.constant(np.zeros((config.hidden_dim, batch)))
    hidden = []
    for t in range(steps):
        h = oracle_cell_step(cols[t], h, gates)
        hidden.append(h)
    context, fusion = None, hidden[-1]
    if config.uses_context:
        weights = md.tda_weights(steps)
        if config.tda_normalize:
            weights = weights / np.sum(weights)
        mixed = nx.linear_combination(hidden, weights.tolist())
        prefix = "" if config.shared_context_cell else "ctx_"
        context = oracle_cell_step(cols[-1], mixed, gates, prefix)
        fusion = concat_rows([hidden[-1], context])
    movement_logit, movement_prob, volatility_logit, volatility_prob = per_op_heads(fusion, gates)
    probs = np.concatenate([movement_prob.value, volatility_prob.value])
    return md.ForwardTrace(hidden, context, concat_rows([movement_logit, volatility_logit])), probs


# stacked parameter -> the per-gate parameters its row blocks hold, in order
_GATE_NAMES = {"W": ("W_z", "W_r", "W_h"), "R_zr": ("R_z", "R_r"), "b": ("b_z", "b_r", "b_h")}


def per_gate_store(params):
    """Separate trainable per-gate matrices cut from the stacked parameters."""
    gates = nx.ParamStore()
    for name, tensor in params.items():
        base = name.removeprefix("ctx_")
        prefix = name[: len(name) - len(base)]
        parts = _GATE_NAMES.get(base, (base,))
        for part, block in zip(parts, np.split(tensor.value, len(parts))):
            gates.add(prefix + part, block.copy())
    return gates


def stacked_grads(gates, params):
    grads = {}
    for name in params.names():
        base = name.removeprefix("ctx_")
        prefix = name[: len(name) - len(base)]
        grads[name] = np.concatenate([gates[prefix + part].grad for part in _GATE_NAMES.get(base, (base,))])
    return grads


FUSED_ORACLE_CONFIGS = {
    "alerta-shared": {},
    "alerta-ctx-normalized": {"shared_context_cell": False, "tda_normalize": True},
    "gru": {"arch": "gru"},
}


class TestFusedCellMatchesPerGateOracle:
    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("kind", sorted(FUSED_ORACLE_CONFIGS))
    def test_forward_equal_and_gradients_close(self, kind, batch):
        config = md.ModelConfig(input_dim=5, hidden_dim=6, window=4, **FUSED_ORACLE_CONFIGS[kind])
        params = make_params(config, seed=batch)
        rng = np.random.default_rng(100 + batch)
        for name in params.names():
            if name.removeprefix("ctx_").startswith("b"):  # nonzero, so the grouping of + b shows
                params[name].value[...] = rng.normal(size=params[name].value.shape)
        gates = per_gate_store(params)
        x = rng.normal(size=(batch, 5, 4)) * 2.0
        y_m = rng.integers(0, 2, size=batch)
        y_m[::3] = ABSTAIN
        y_v = rng.integers(0, 2, size=batch)

        ours = md.forward_batch(x, params, config)
        oracle, oracle_probs = oracle_forward_batch(x, gates, config)
        for got, want in zip(ours.hidden, oracle.hidden):
            assert np.array_equal(got.value, want.value)
        if config.uses_context:
            assert np.array_equal(ours.context.value, oracle.context.value)
        assert np.array_equal(ours.logits.value, oracle.logits.value)
        assert np.array_equal(nx.sigmoid_values(ours.logits.value), oracle_probs)

        loss = joint_loss(ours, y_m, y_v, 0.8, 1.5)
        oracle_loss = joint_loss(oracle, y_m, y_v, 0.8, 1.5)
        assert loss.item() == oracle_loss.item()
        params.zero_grads()
        nx.backward(loss)
        gates.zero_grads()
        nx.backward(oracle_loss)
        for name, want in stacked_grads(gates, params).items():
            got = params[name].grad
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_init_draws_gate_blocks_in_per_gate_order(self):
        config = md.ModelConfig(input_dim=5, hidden_dim=6, window=4, shared_context_cell=False)
        rng = np.random.default_rng(5)
        d, u = 5, 6
        expected = {}
        for prefix in ("", "ctx_"):
            for name, (rows, cols) in [(f"W_{g}", (u, d)) for g in "zrh"] + [(f"R_{g}", (u, u)) for g in "zrh"]:
                limit = np.sqrt(6.0 / (rows + cols))
                expected[prefix + name] = rng.uniform(-limit, limit, size=(rows, cols))
        for name, cols in (("W_m", 2 * u), ("W_v", 2 * u + 1)):
            limit = np.sqrt(6.0 / (1 + cols))
            expected[name] = rng.uniform(-limit, limit, size=(1, cols))
        gates = per_gate_store(md.init_params(config, np.random.default_rng(5)))
        for name, tensor in gates.items():
            want = expected.get(name, np.zeros_like(tensor.value))
            assert np.array_equal(tensor.value, want), name


@pytest.fixture(scope="module")
def two_stock_samples():
    """Every window of two 90-day synthetic stocks at window 4, over one shared day array."""
    split, _ = build_dataset(generate_universe(SynthSpec(n_days=90, n_features=8, seed=21), 2), window_len=4)
    return split.train + split.validation + split.test


def mixed_rows(samples, batch, rng):
    """``batch`` rows in random order; from batch 2 on, from both stocks and with one row twice."""
    if batch == 1:
        return rng.integers(len(samples), size=1)
    first, second = (rng.choice(np.flatnonzero(samples.stock_ids == s)) for s in np.unique(samples.stock_ids))
    rest = rng.choice(len(samples), size=batch - 3, replace=False)
    return rng.permutation(np.concatenate([[first, second, first], rest]))


class TestForwardBatchMatchesProjectEveryColumnOracle:
    """``forward_batch`` against the former pass, which formed ``W x`` for every (step, window)
    column of a gathered window array and the recurrent products of the zero initial state."""

    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("features", [None, [6, 0, 3]])
    @pytest.mark.parametrize("kind", sorted(FUSED_ORACLE_CONFIGS))
    @pytest.mark.parametrize("source", ["samples", "array"])
    def test_values_and_gradients_bit_identical(self, two_stock_samples, source, kind, features, batch):
        config = md.ModelConfig(input_dim=8 if features is None else len(features), hidden_dim=6, window=4,
                                **FUSED_ORACLE_CONFIGS[kind])
        params = make_params(config, seed=batch)
        rng = np.random.default_rng(300 + batch)
        for name in params.names():
            if name.removeprefix("ctx_").startswith("b"):
                params[name].value[...] = rng.normal(size=params[name].value.shape)
        samples = two_stock_samples[mixed_rows(two_stock_samples, batch, rng)]

        want = forward_batch_oracle(stack_windows(samples, features), params, config)
        want_loss = joint_loss(want, samples.y_m, samples.y_v, 0.7, 1.3)
        params.zero_grads()
        nx.backward(want_loss)
        want_grads = {name: tensor.grad.copy() for name, tensor in params.items()}

        got = md.forward_batch(samples if source == "samples" else stack_windows(samples), params, config, features)
        got_loss = joint_loss(got, samples.y_m, samples.y_v, 0.7, 1.3)
        # a forward pass allocates no gradient buffers for the nodes it records
        assert all(node.grad is None for node in [*got.hidden, got.hidden[0]._parents[0], got.logits, got_loss])
        params.zero_grads()
        nx.backward(got_loss)

        for g, w in zip(got.hidden, want.hidden, strict=True):
            assert np.array_equal(g.value, w.value)
        if config.uses_context:
            assert np.array_equal(got.context.value, want.context.value)
        assert np.array_equal(got.logits.value, want.logits.value)
        assert np.array_equal(got_loss.value, want_loss.value)
        for name, tensor in params.items():
            assert np.array_equal(tensor.grad, want_grads[name]), name

    def test_gathered_projection_and_its_gradient_are_c_ordered(self, two_stock_samples):
        # an F-ordered block hands its layout to the gradient buffer, and the backward's
        # library product over it rounds differently from the parent's C-ordered one
        config = md.ModelConfig(input_dim=8, hidden_dim=32, window=4)
        params = make_params(config)
        samples = two_stock_samples[:100]
        trace = md.forward_batch(samples, params, config)
        wx = trace.hidden[0]._parents[0]  # the W x node every step reads
        assert wx.shape == (96, 4 * 100) and wx.value.flags.c_contiguous
        nx.backward(joint_loss(trace, samples.y_m, samples.y_v, 1.0))
        assert wx.grad.flags.c_contiguous

    @pytest.mark.parametrize("kind", sorted(FUSED_ORACLE_CONFIGS))
    def test_projection_per_distinct_day_and_no_products_of_the_zero_state(self, two_stock_samples, monkeypatch,
                                                                           kind):
        """A taped pass projects every (step, window) column in one product; a forward-only pass projects each
        distinct day once."""
        config = md.ModelConfig(input_dim=8, hidden_dim=6, window=4, **FUSED_ORACLE_CONFIGS[kind])
        params = make_params(config)
        samples = two_stock_samples[np.r_[0:40, 0:40, 100:110]]  # 90 windows, repeats and overlaps among them
        days = np.unique(samples.start[:, None] + np.arange(4))
        last_days = np.unique(samples.start + 3)
        assert len(days) < 4 * 90 and len(last_days) < 90
        shapes, calls = [], []

        def recording(a, b, out=None):
            shapes.append((a.shape, b.shape))
            return matmul_values(a, b, out=out)

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return matmul(*args, **kwargs)

        matmul_values, matmul = nx.matmul_values, nx.matmul
        monkeypatch.setattr(nx, "matmul_values", recording)
        monkeypatch.setattr(nx, "matmul", counting)
        # the context cell's own W reads the last step's columns, or the distinct days of the last step
        unshared = kind == "alerta-ctx-normalized"
        for store, w_cols in ((params, [4 * 90, 90]), (params.constants(), [len(days), len(last_days)])):
            shapes.clear()
            calls.clear()
            md.forward_batch(samples, store, config)
            assert [b[1] for a, b in shapes if a[1] == 8] == (w_cols if unshared else w_cols[:1])
            assert len(calls) == (2 if unshared else 1)
            recurrent = [b for a, b in shapes if a[1] == 6 and a[0] > 1]
            # both products at steps 2..4, none at step 1, and two more for the context step
            assert len(recurrent) == 2 * 3 + (2 if config.uses_context else 0)
            assert all(b == (6, 90) for b in recurrent)


class TestZeroStateProducts:
    @pytest.mark.parametrize("fill", [0.0, -0.0, 0.5])
    @pytest.mark.parametrize("bad", [None, ("R_zr", np.inf), ("R_h", -np.inf), ("R_zr", np.nan)])
    def test_cell_step_matches_oracle(self, fill, bad):
        config = md.ModelConfig(input_dim=3, hidden_dim=4, window=2)
        params = make_params(config, seed=3)
        if bad is not None:
            params[bad[0]].value[1, 2] = bad[1]
        wx = nx.constant(np.random.default_rng(2).normal(size=(12, 5)))
        h = nx.constant(np.full((4, 5), fill))
        with np.errstate(invalid="ignore"):  # inf * 0
            got, want = md.cell_step(wx, h, params).value, cell_step_oracle(wx, h, params).value
        assert np.array_equal(got, want, equal_nan=True)
        if fill == 0.0:  # a non-finite recurrent weight still turns the zero-state products to NaN
            assert np.isnan(got).any() == (bad is not None)


def bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


# model overrides, batch and loss weight of each graph ``train`` backpropagates; two-stage trains
# the movement stage with no volatility term, then the volatility head with it
WALK_GRAPHS = {
    "alerta-shared": ({}, 16, 0.7),
    "alerta-unshared": ({"shared_context_cell": False}, 16, 0.7),
    "gru": ({"arch": "gru"}, 16, 0.7),
    "tda-normalize": ({"tda_normalize": True}, 16, 0.7),
    "single-window": ({}, 1, 0.7),
    "two-stage-movement": ({"arch": "gru"}, 16, 0.0),
    "two-stage-volatility": ({"arch": "gru"}, 16, 1.0),
}


class TestBackwardWalksInCreationOrder:
    """``nx.backward`` runs the closures of the nodes it reaches in reverse creation order; the
    former walk, the reverse of a post-order depth-first search, is the oracle."""

    @pytest.mark.parametrize("kind", sorted(WALK_GRAPHS))
    def test_closures_run_in_the_oracle_order_and_gradients_bit_identical(self, two_stock_samples, kind):
        overrides, batch, loss_weight = WALK_GRAPHS[kind]
        config = md.ModelConfig(input_dim=8, hidden_dim=6, window=4, **overrides)
        samples = two_stock_samples[mixed_rows(two_stock_samples, batch, np.random.default_rng(batch))]
        grads = []
        for walk in (nx.backward, backward_oracle):
            params = make_params(config, seed=4)
            loss = joint_loss(md.forward_batch(samples, params, config), samples.y_m, samples.y_v, loss_weight, 1.3)
            want = [node for node in reversed(topo_order_oracle(loss)) if node._backward_fn is not None]
            called = []
            for node in want:
                node._backward_fn = self.recording(node, called)
            walk(loss)
            assert [id(node) for node in called] == [id(node) for node in want]
            grads.append([t.grad.copy() for _, t in params.items()])
        assert len(want) > config.window  # a closure for each step of the encoder, and more
        for g, w in zip(*grads):
            assert np.array_equal(bits(g), bits(w))

    @staticmethod
    def recording(node, called):
        """``node``'s closure, which first appends ``node`` to ``called``."""
        fn = node._backward_fn

        def backward_fn(grad):
            called.append(node)
            fn(grad)

        return backward_fn


class TestCellBackwardMatchesConcatOracle:
    """``cell_step``'s in-place backward against the former one, which concatenated the halves
    of ``d_zr`` before scaling them, summed the bias gradients with ``np.sum`` and added the
    z, r and h blocks to the gradients of ``W x`` and ``b`` one after the other."""

    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("kind", sorted(FUSED_ORACLE_CONFIGS))
    def test_every_gradient_of_a_backward_bit_identical(self, two_stock_samples, monkeypatch, kind, batch):
        config = md.ModelConfig(input_dim=8, hidden_dim=6, window=4, **FUSED_ORACLE_CONFIGS[kind])
        rng = np.random.default_rng(400 + batch)
        samples = two_stock_samples[mixed_rows(two_stock_samples, batch, rng)]
        runs = []
        for step in (md.cell_step, cell_step_concat_oracle):
            monkeypatch.setattr(md, "cell_step", step)
            params = make_params(config, seed=batch)
            trace = md.forward_batch(samples, params, config)
            nx.backward(joint_loss(trace, samples.y_m, samples.y_v, 0.7, 1.3))
            nodes = [*trace.hidden, trace.hidden[0]._parents[0]]
            if trace.context is not None:  # the context step, its projection and the mixed states
                nodes += [trace.context, *trace.context._parents[:2]]
            runs.append([t.grad for _, t in params.items()] + [node.grad for node in nodes])
        got, want = runs
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(bits(g), bits(w))

    @pytest.mark.parametrize("state", ["zero", "special"])
    def test_one_step_bit_identical_from_zero_and_special_inputs(self, state):
        config = md.ModelConfig(input_dim=3, hidden_dim=4, window=2)
        rng = np.random.default_rng(5)
        special = np.array([0.0, -0.0, 1e308, -1e308, 40.0, -40.0, 800.0, -800.0, 0.5, -1.5])
        wx = rng.choice(special, size=(12, 9))
        h = np.zeros((4, 9)) if state == "zero" else rng.choice(special, size=(4, 9))
        grad = rng.choice(special, size=(4, 9))
        runs = []
        with np.errstate(all="ignore"):
            for step in (md.cell_step, cell_step_concat_oracle):
                params = make_params(config, seed=2)
                wx_t, h_t = nx.Tensor(wx, requires_grad=True), nx.Tensor(h, requires_grad=True)
                out = step(wx_t, h_t, params)
                out._backward_fn(grad)
                runs.append([out.value, wx_t.grad, h_t.grad] + [t.grad for _, t in params.items()])
        got, want = runs
        for g, w in zip(got, want):
            assert np.array_equal(bits(g), bits(w))
        if state == "special":  # the inputs reach the saturated and non-finite corners
            assert np.isnan(got[1]).any() and (np.abs(got[0]) == 1.0).any()


KERNEL_WIDTHS = [1, 2, 63, 64, 512]
KERNEL_CONFIGS = {
    "alerta-shared": {},
    "alerta-unshared": {"shared_context_cell": False},
    "alerta-normalized": {"tda_normalize": True},
    "gru": {"arch": "gru"},
}
SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0])


def sprinkle(rng, arr, share=0.1, values=SPECIALS):
    """``arr`` with about ``share`` of its entries replaced by ``values``, in place; returns it."""
    hit = rng.random(arr.shape) < share
    arr[hit] = rng.choice(values, size=int(hit.sum()))
    return arr


class TestGruCellMatchesParentOracle:
    """``gru_cell`` in reused blocks, and both passes that call it, against the former cell arithmetic
    (``testutil.cell_forward_oracle``), bit for bit."""

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    @pytest.mark.parametrize("inputs", ["finite", "special"])
    @pytest.mark.parametrize("recurrent", ["finite", "non-finite"])
    @pytest.mark.parametrize("state", ["zero", "negative-zero", "random", "special"])
    def test_kernel_in_reused_blocks(self, state, recurrent, inputs, width):
        u = 5
        rng = np.random.default_rng([width, len(state), len(recurrent), len(inputs)])
        wx, b = rng.normal(scale=3.0, size=(3 * u, width)), rng.normal(size=(3 * u, 1))
        r_zr, r_h = rng.normal(size=(2 * u, u)), rng.normal(size=(u, u))
        h = {"zero": np.zeros((u, width)), "negative-zero": np.full((u, width), -0.0)}.get(
            state, rng.uniform(-1.0, 1.0, size=(u, width)))
        if state == "special":
            sprinkle(rng, h)
        if recurrent == "non-finite":
            r_zr[1, 2], r_h[3, 0] = np.inf, -np.inf
        if inputs == "special":
            sprinkle(rng, wx)
            b[[0, u + 1, 2 * u + 2, 3 * u - 1], 0] = SPECIALS
        with np.errstate(all="ignore"):
            want_zr, want_rh, want_cand, want = cell_forward_oracle(wx, h, r_zr, r_h, b)
            # blocks full of nan and of random flags: nothing an earlier step left in them may reach the result
            zr, work, cand, zc, out = (np.full(shape, np.nan) for shape in [(2 * u, width)] * 2 + [(u, width)] * 3)
            mask = rng.random((2 * u, width)) < 0.5
            got = md.gru_cell(wx, h, r_zr, r_h, b, zr=zr, work=work, mask=mask, cand=cand, zc=zc, out=out)
            assert got is out
            # what the taped backward reads: [z; r], r*h, 1 - z and the candidate
            for g, w in [(out, want), (zr, want_zr), (work[:u], want_rh), (work[u:], 1.0 - want_zr[:u]),
                         (cand, want_cand)]:
                assert np.array_equal(bits(g), bits(w))
            # again in the same blocks, with z*cand written over the candidate as the forward-only pass does
            md.gru_cell(wx, h, r_zr, r_h, b, zr=zr, work=work, mask=mask, cand=cand, zc=cand, out=out)
            assert np.array_equal(bits(out), bits(want))

    @pytest.mark.parametrize("width", KERNEL_WIDTHS)
    @pytest.mark.parametrize("values", ["finite", "special"])
    @pytest.mark.parametrize("kind", sorted(KERNEL_CONFIGS))
    def test_forward_only_and_taped_passes(self, monkeypatch, kind, values, width):
        """The forward-only pass against the former cell run step by step, and the taped pass's values and
        every parameter gradient against the former ``cell_step``; biases may hold nan, infinities and -0.0,
        and windows -0.0 and values near float64's range."""
        config = md.ModelConfig(input_dim=3, hidden_dim=5, window=4, **KERNEL_CONFIGS[kind])
        rng = np.random.default_rng([width, len(kind), len(values)])
        params = make_params(config, seed=width)
        x = rng.normal(scale=2.0, size=(width, 3, 4))
        if values == "special":
            sprinkle(rng, x, 0.05, np.array([-0.0, 1e308, -1e308]))
            for name in params.names():
                if name.removeprefix("ctx_") == "b":
                    params[name].value[[1, 7, 12, 14], 0] = SPECIALS
        y_m, y_v = rng.integers(0, 2, size=width).astype(np.int8), rng.integers(0, 2, size=width).astype(np.int8)
        with np.errstate(all="ignore"):
            want = forward_batch_oracle(x, params, config, cell=cell_step_parent_oracle)
            got = md.forward_batch(x, params.constants(), config)
            assert np.array_equal(bits(got.logits.value), bits(want.logits.value))
            assert np.array_equal(bits(got.hidden[-1].value), bits(want.hidden[-1].value))
            if config.uses_context:
                assert np.array_equal(bits(got.context.value), bits(want.context.value))

            runs = []
            for step in (md.cell_step, cell_step_concat_oracle):
                monkeypatch.setattr(md, "cell_step", step)
                trace = md.forward_batch(x, params, config)
                params.zero_grads()
                nx.backward(joint_loss(trace, y_m, y_v, 0.7, 1.3))
                runs.append(([h.value for h in trace.hidden] + [trace.logits.value],
                             [t.grad.copy() for _, t in params.items()]))
        (got_values, got_grads), (want_values, want_grads) = runs
        assert np.array_equal(bits(got_values[-1]), bits(want.logits.value))
        for g, w in zip(got_values, want_values, strict=True):
            assert np.array_equal(bits(g), bits(w))
        # the two backwards group their bias sums differently, so where two nans meet either may survive
        for g, w in zip(got_grads, want_grads, strict=True):
            assert np.array_equal(np.isnan(g), np.isnan(w))
            assert np.array_equal(bits(np.where(np.isnan(g), 0.0, g)), bits(np.where(np.isnan(w), 0.0, w)))

    @pytest.mark.parametrize("arch", ["alerta", "gru"])
    def test_params_that_do_not_fit_the_config_fail_alike_on_both_passes(self, arch):
        """The forward-only pass names the misfit before it gathers a step into its arena."""
        params = make_params(md.ModelConfig(input_dim=3, hidden_dim=5, window=3, arch=arch))
        config = md.ModelConfig(input_dim=3, hidden_dim=4, window=3, arch=arch)
        x = np.ones((7, 3, 3))
        for store in (params, params.constants()):
            with pytest.raises(DimensionError, match=r"cell_step: projection \(15, 7\) and state \(4, 7\) do not fit "
                                                     r"hidden_dim 5"):
                md.forward_batch(x, store, config)

    def test_returned_tensors_share_nothing_with_the_arena(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=5, window=4)
        params = make_params(config).constants()
        rng = np.random.default_rng(8)
        md.forward_batch(rng.normal(size=(64, 3, 4)), params, config)  # sizes this thread's arena
        first = md.forward_batch(rng.normal(size=(64, 3, 4)), params, config)
        kept = [first.hidden[-1].value.copy(), first.context.value.copy(), first.logits.value.copy()]
        md.forward_batch(rng.normal(size=(64, 3, 4)), params, config)  # same shape, so the same blocks
        buffer = md._thread.arena._buffer
        assert buffer.size > 0
        for returned, before in zip([first.hidden[-1], first.context, first.logits], kept):
            assert np.array_equal(bits(returned.value), bits(before))
            assert not np.shares_memory(returned.value, buffer)


class TestHeadsAndLossMatchPerOpOracle:
    """The heads node and the one-node loss against the per-op heads and loss they replaced.

    At batch 13, unlike 1, 7 and 64, ``0.7 / batch`` and ``(1 / batch) * 0.7``
    differ, so a regrouped volatility scale shows in the gradients.
    """

    @pytest.mark.parametrize("batch", [1, 7, 13, 64])
    @pytest.mark.parametrize("kind", sorted(FUSED_ORACLE_CONFIGS))
    def test_values_and_gradients_bit_identical(self, kind, batch):
        config = md.ModelConfig(input_dim=5, hidden_dim=6, window=4, **FUSED_ORACLE_CONFIGS[kind])
        params = make_params(config, seed=batch)
        rng = np.random.default_rng(200 + batch)
        for name in params.names():
            if name.removeprefix("ctx_").startswith("b"):
                params[name].value[...] = rng.normal(size=params[name].value.shape)
        x = rng.normal(size=(batch, 5, 4)) * 2.0
        y_m = rng.integers(0, 2, size=batch)
        y_m[::3] = ABSTAIN
        y_v = rng.integers(0, 2, size=batch)

        trace = md.forward_batch(x, params, config)
        loss, movement, volatility = tr._loss_terms(trace.logits, y_m, y_v, 0.7, 1.3)
        params.zero_grads()
        nx.backward(loss)
        grads = {name: tensor.grad.copy() for name, tensor in params.items()}

        # a fresh pass through the real encoder, then the heads and the loss op by op
        encoder = md.forward_batch(x, params, config)
        fusion = encoder.hidden[-1]
        if config.uses_context:
            fusion = concat_rows([fusion, encoder.context])
        movement_logit, movement_prob, volatility_logit, volatility_prob = per_op_heads(fusion, params)
        want_loss, want_movement, want_volatility = per_op_loss(
            movement_logit, volatility_logit, y_m, y_v, 0.7, 1.3
        )
        params.zero_grads()
        nx.backward(want_loss)

        assert np.array_equal(trace.logits.value, np.concatenate([movement_logit.value, volatility_logit.value]))
        probs = nx.sigmoid_values(trace.logits.value)
        assert np.array_equal(probs, np.concatenate([movement_prob.value, volatility_prob.value]))
        assert np.array_equal(loss.value, want_loss.value)
        assert movement == want_movement.item() and volatility == want_volatility.item()
        for name, got in grads.items():
            assert np.array_equal(got, params[name].grad), name


class TestTdaWeights:
    def test_t1(self):
        assert np.array_equal(md.tda_weights(1), np.array([1.0]))

    def test_t3(self):
        assert np.array_equal(md.tda_weights(3), np.array([1.0 / 3.0, 0.5, 1.0]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            md.tda_weights(0)

    def test_reciprocal_exactness_within_one_ulp(self):
        for t in (1, 2, 3, 7, 50, 999, 10_000):
            w = md.tda_weights(t)
            distances = np.arange(t, 0, -1, dtype=np.float64)
            assert np.max(np.abs(w * distances - 1.0)) <= np.spacing(1.0)

    def test_sum_is_harmonic_number(self):
        for t in (1, 5, 100, 1000):
            w = md.tda_weights(t)
            harmonic = 0.0
            for k in range(1, t + 1):
                harmonic += 1.0 / k
            assert abs(float(np.sum(w)) - harmonic) < 1e-12

    def test_strictly_increasing_with_unit_tail(self):
        w = md.tda_weights(37)
        assert np.all(np.diff(w) > 0)
        assert w[-1] == 1.0


class TestTdaContext:
    def test_single_state_equals_plain_step(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=4, window=1)
        params = make_params(config, seed=2)
        x = np.random.default_rng(3).normal(size=(3, 1))
        trace = md.forward(x, params, config)
        h1 = hidden_states(trace)[:, 0]
        assert np.array_equal(trace.context.value[:, 0], fused_step(x[:, 0], h1, params))

    def test_zero_states_equal_step_from_zero(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=4, window=5, shared_context_cell=False)
        params = make_params(config, seed=2)
        for name in ("W", "R_zr", "R_h", "b"):
            params[name].value[...] = 0.0  # every encoder state is exactly zero
        x = np.random.default_rng(4).normal(size=(3, 5))
        trace = md.forward(x, params, config)
        assert np.array_equal(hidden_states(trace), np.zeros((4, 5)))
        want = fused_step(x[:, -1], np.zeros(4), params, prefix="ctx_")
        assert np.array_equal(trace.context.value[:, 0], want)

    def test_matches_scalar_recomputation(self):
        config = md.ModelConfig(input_dim=2, hidden_dim=3, window=4)
        params = make_params(config, seed=9)
        x = np.random.default_rng(10).normal(size=(2, 4))
        trace = md.forward(x, params, config)
        states = hidden_states(trace).T.tolist()
        weights = [1.0 / (4 - i + 1) for i in range(1, 5)]
        mixed = [0.0, 0.0, 0.0]
        for w, h in zip(weights, states):
            for i in range(3):
                mixed[i] += w * h[i]
        oracle = scalar_gru_step(x[:, -1], mixed, params)
        assert np.max(np.abs(trace.context.value[:, 0] - np.array(oracle))) < 1e-12

    def test_normalized_variant_divides_by_weight_total(self):
        config = md.ModelConfig(input_dim=2, hidden_dim=3, window=6, tda_normalize=True)
        params = make_params(config, seed=9)
        x = np.random.default_rng(13).normal(size=(2, 6))
        trace = md.forward(x, params, config)
        w = md.tda_weights(6)
        scaled = (w / np.sum(w)).tolist()
        mixed = np.zeros(3)
        for c, h in zip(scaled, hidden_states(trace).T):
            mixed += c * h
        want = fused_step(x[:, -1], mixed, params)
        assert np.max(np.abs(trace.context.value[:, 0] - want)) < 1e-12


class TestForward:
    def test_zero_params_give_half_probabilities(self):
        config = md.ModelConfig(input_dim=4, hidden_dim=3, window=5)
        params = make_params(config)
        for name in params.names():
            params[name].value[...] = 0.0
        trace = md.forward(np.random.default_rng(0).normal(size=(4, 5)), params, config)
        assert np.array_equal(nx.sigmoid_values(trace.logits.value), [[0.5], [0.5]])

    def test_window_of_one(self):
        config = md.ModelConfig(input_dim=4, hidden_dim=3, window=1)
        params = make_params(config, seed=21)
        x = np.abs(np.random.default_rng(1).normal(size=(4, 1)))
        trace = md.forward(x, params, config)
        assert len(trace.hidden) == 1
        h1 = fused_step(x[:, 0], np.zeros(3), params)
        assert np.array_equal(hidden_states(trace)[:, 0], h1)
        # context with a single state: weight vector is [1.0]
        assert np.array_equal(trace.context.value[:, 0], fused_step(x[:, 0], h1, params))

    def test_bit_identical_across_runs(self):
        config = md.ModelConfig(input_dim=5, hidden_dim=4, window=6)
        rng_x = np.random.default_rng(77)
        x = rng_x.normal(size=(5, 6))
        t1 = md.forward(x, make_params(config, seed=3), config)
        t2 = md.forward(x.copy(), make_params(config, seed=3), config)
        assert np.array_equal(t1.logits.value, t2.logits.value)
        assert np.array_equal(hidden_states(t1), hidden_states(t2))

    def test_probabilities_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(123)
        for trial in range(10):
            config = md.ModelConfig(input_dim=3, hidden_dim=2, window=4)
            params = make_params(config, seed=trial)
            for name in params.names():
                params[name].value[...] *= 10.0  # exaggerate magnitudes
            trace = md.forward(rng.normal(size=(3, 4)) * 5, params, config)
            probs = nx.sigmoid_values(trace.logits.value)
            assert np.all((0.0 < probs) & (probs < 1.0))

    def test_ablation_mask_removes_rows_exactly(self):
        from alertanet.training import predict_probs

        names = ["macro_0", "sent_0", "macro_1", "sent_1", "macro_2"]
        keep = [1, 3]
        config = md.ModelConfig(input_dim=2, hidden_dim=3, window=4, feature_names=["sent_0", "sent_1"])
        params = make_params(config, seed=8)
        rng = np.random.default_rng(9)
        x_full = rng.normal(size=(5, 4))

        def probs(x):
            return predict_probs(params, config, sample_set([(x, 0, 0, "S", "2021-01-01")]), names)

        m_masked, v_masked = probs(x_full)
        direct = nx.sigmoid_values(md.forward(x_full[keep, :], params, config).logits.value)
        assert m_masked[0] == direct[0, 0]
        assert v_masked[0] == direct[1, 0]
        # values outside the mask are irrelevant, not merely small
        x_altered = x_full.copy()
        x_altered[0, :] = 0.0
        x_altered[2, :] = 99.0
        m_altered, v_altered = probs(x_altered)
        assert m_altered[0] == m_masked[0]
        assert v_altered[0] == v_masked[0]

    def test_movement_head_receives_volatility_gradient(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=2, window=4)
        params = make_params(config, seed=14)
        x = np.random.default_rng(15).normal(size=(3, 4))
        trace = md.forward(x, params, config)
        # ABSTAIN movement label: only the volatility term contributes
        from alertanet.data import ABSTAIN

        loss = joint_loss(trace, ABSTAIN, 1, loss_weight=1.0)
        params.zero_grads()
        nx.backward(loss)
        assert np.any(params["W_m"].grad != 0.0)
        assert np.any(params["b_m"].grad != 0.0)

    def test_shape_mismatch_errors(self):
        config = md.ModelConfig(input_dim=4, hidden_dim=3, window=5)
        params = make_params(config)
        with pytest.raises(DimensionError):
            md.forward(np.zeros((3, 5)), params, config)
        with pytest.raises(DimensionError):
            md.forward(np.zeros((4, 6)), params, config)

    def test_gru_arch_has_no_context(self):
        config = md.ModelConfig(input_dim=4, hidden_dim=3, window=5, arch="gru")
        params = make_params(config, seed=5)
        assert params["W_m"].value.shape == (1, 3)
        assert params["W_v"].value.shape == (1, 4)
        trace = md.forward(np.random.default_rng(2).normal(size=(4, 5)), params, config)
        assert trace.context is None

    def test_separate_context_cell_params_exist_and_are_used(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=2, window=4, shared_context_cell=False)
        params = make_params(config, seed=6)
        assert "ctx_W" in params.names()
        x = np.random.default_rng(7).normal(size=(3, 4))
        base = md.forward(x, params, config).logits.value[0, 0]
        params["ctx_W"].value[...] += 0.5
        assert md.forward(x, params, config).logits.value[0, 0] != base


class TestModelConfig:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ConfigError):
            md.ModelConfig(input_dim=2, hidden_dim=2, window=2, arch="transformer")

    def test_rejects_feature_name_mismatch(self):
        with pytest.raises(ConfigError):
            md.ModelConfig(input_dim=2, hidden_dim=2, window=2, feature_names=["a"])

    @pytest.mark.parametrize("key, value", [("hidden_dim", 2.5), ("window", True), ("arch", []),
                                            ("tda_normalize", 1), ("feature_names", ["a", 3])])
    def test_rejects_field_of_the_wrong_type_naming_it(self, key, value):
        fields = {"input_dim": 2, "hidden_dim": 2, "window": 2, key: value}
        with pytest.raises(ConfigError, match=f"model config '{key}' is"):
            md.ModelConfig(**fields)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        config = md.ModelConfig(
            input_dim=4, hidden_dim=3, window=5, feature_names=["sent_0", "sent_1", "macro_0", "price_0"]
        )
        params = make_params(config, seed=42)
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, params, config, extra={"note": "test"})
        loaded_params, loaded_config, extra = md.load_checkpoint(path)
        assert loaded_config == config
        assert extra["note"] == "test"
        for name, tensor in params.items():
            assert np.array_equal(loaded_params[name].value, tensor.value)

    def test_rejects_tampered_shapes(self, tmp_path):
        import json

        config = md.ModelConfig(input_dim=4, hidden_dim=3, window=5)
        params = make_params(config)
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, params, config)
        obj = json.loads(path.read_text())
        obj["config"]["input_dim"] = 7  # shapes no longer match
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match="shape"):
            md.load_checkpoint(path)

    def test_rejects_non_finite_parameter_naming_it(self, tmp_path):
        config = md.ModelConfig(input_dim=4, hidden_dim=3, window=5)
        params = make_params(config)
        params["R_h"].value[1, 2] = np.nan
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, params, config)
        with pytest.raises(CheckpointError, match=r"ckpt\.json: parameter 'R_h' has non-finite"):
            md.load_checkpoint(path)

    def test_rejects_version_1_checkpoint_asking_to_retrain(self, tmp_path):
        import json

        from alertanet.serialize import encode_array

        config = md.ModelConfig(input_dim=4, hidden_dim=3, window=5)
        params = make_params(config)
        path = tmp_path / "old.json"
        md.save_checkpoint(path, params, config)
        obj = json.loads(path.read_text())
        obj["format_version"] = 1  # version 1 stored each gate's matrices under its own name
        obj["params"] = {name: encode_array(t.value) for name, t in per_gate_store(params).items()}
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match=r"old\.json: checkpoint format version 1 .*retrain"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    def test_malformed_entries_raise_checkpoint_error_naming_file_and_culprit(self, tmp_path, case):
        edit, message = BAD_CHECKPOINTS[case]
        with pytest.raises(CheckpointError, match=message):
            md.load_checkpoint(bad_checkpoint(tmp_path, edit))

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(CheckpointError):
            md.load_checkpoint(path)
