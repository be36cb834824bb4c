import json
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from alertanet import model as md
from alertanet import numerics as nx
from alertanet import training as tr
from alertanet.data import ABSTAIN, SampleSet, build_dataset
from alertanet.errors import CheckpointError, ConfigError, TrainingError, UsageError
from alertanet.synth import SynthSpec, generate, generate_universe

from testutil import (
    AdamOracle, cell_step_parent_oracle, clip_gradients_oracle, dataset_loss_oracle, finite_difference_grads,
    forward_batch_fresh_oracle, forward_batch_oracle, joint_loss, max_grad_violation, predict_probs_oracle,
    sample_set, stack_windows, train_oracle, zero_grads_oracle,
)
from test_metrics import auc_all_pairs, mcc_exact_integer


def toy_split(n_days=320, n_features=4, seed=0, window=5, noise=0.0, lag=2):
    spec = SynthSpec(
        n_days=n_days, n_features=n_features, seed=seed, noise_flip_prob=noise, volatility_lag=lag
    )
    frame = generate(spec)
    split, _ = build_dataset([frame], window_len=window, train_frac=0.6, valid_frac=0.2)
    return split


class TestJointLoss:
    def _trace(self, m_logit, v_logit):
        return md.ForwardTrace(hidden=[], context=None, logits=nx.constant([[float(m_logit)], [float(v_logit)]]))

    def test_zero_logit_positive_label(self):
        loss = joint_loss(self._trace(0.0, 3.0), 1, 0, loss_weight=0.0)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_abstain_drops_movement_term(self):
        loss = joint_loss(self._trace(7.0, 0.0), ABSTAIN, 0, loss_weight=1.0)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_naive_formula_at_moderate_logits(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            zm, zv = rng.uniform(-8, 8, size=2)
            ym = int(rng.integers(0, 2))
            yv = int(rng.integers(0, 2))
            lam = float(rng.uniform(0, 2))
            loss = joint_loss(self._trace(zm, zv), ym, yv, loss_weight=lam).item()
            pm, pv = 1 / (1 + math.exp(-zm)), 1 / (1 + math.exp(-zv))
            naive = -(ym * math.log(pm) + (1 - ym) * math.log(1 - pm)) - lam * (
                yv * math.log(pv) + (1 - yv) * math.log(1 - pv)
            )
            assert loss == pytest.approx(naive, abs=1e-12)

    def test_finite_for_extreme_logits(self):
        for z in (-500.0, -250.0, 250.0, 500.0):
            loss = joint_loss(self._trace(z, -z), 1, 1, loss_weight=1.0)
            assert np.isfinite(loss.item())

    def test_pos_weight_scales_positive_term_only(self):
        base = joint_loss(self._trace(0.0, 0.0), ABSTAIN, 1, 1.0, volatility_pos_weight=1.0).item()
        heavy = joint_loss(self._trace(0.0, 0.0), ABSTAIN, 1, 1.0, volatility_pos_weight=3.0).item()
        assert heavy == pytest.approx(3.0 * base, abs=1e-12)
        neg = joint_loss(self._trace(0.0, 0.0), ABSTAIN, 0, 1.0, volatility_pos_weight=3.0).item()
        assert neg == pytest.approx(base, abs=1e-12)

    def test_full_model_gradients_match_finite_differences(self):
        config = md.ModelConfig(input_dim=4, hidden_dim=3, window=5)
        params = md.init_params(config, np.random.default_rng(19))
        rng = np.random.default_rng(20)
        x = rng.normal(size=(4, 5))
        y_m, y_v = 1, 0

        def compute():
            trace = md.forward(x, params, config)
            return joint_loss(trace, y_m, y_v, loss_weight=0.7, volatility_pos_weight=1.3)

        params.zero_grads()
        nx.backward(compute())
        analytic = {name: t.grad.copy() for name, t in params.items()}
        numeric = finite_difference_grads(lambda: compute().item(), params)
        assert max_grad_violation(analytic, numeric, rel=1e-5, floor=1e-8) <= 1.0


class TestAdam:
    def test_zero_learning_rate_is_identity(self):
        params = nx.ParamStore()
        params.add("w", np.array([[1.0, -2.0]]))
        params["w"].grad[...] = np.array([[0.3, 0.7]])
        tr.Adam(0.0).step(params)
        assert np.array_equal(params["w"].value, np.array([[1.0, -2.0]]))

    def test_step_direction_and_magnitude(self):
        params = nx.ParamStore()
        params.add("w", np.zeros((1, 2)))
        params["w"].grad[...] = np.array([[1.0, -1.0]])
        tr.Adam(0.1, beta1=0.9, beta2=0.999, eps=0.0).step(params)
        # first Adam step moves by exactly lr against the gradient sign
        assert np.allclose(params["w"].value, [[-0.1, 0.1]], atol=1e-12)

    def test_restricted_names_leave_others_alone(self):
        params = nx.ParamStore()
        params.add("a", np.ones((1, 1)))
        params.add("b", np.ones((1, 1)))
        params["a"].grad[...] = 1.0
        params["b"].grad[...] = 1.0
        tr.Adam(0.5).step(params, names=["a"])
        assert params["a"].value[0, 0] != 1.0
        assert params["b"].value[0, 0] == 1.0


class TestFlatOptimizerMatchesPerNameOracle:
    """Zeroing, clipping and Adam over one span of the flat buffers against the former per-name loops."""

    @pytest.mark.parametrize("names", [None, ["W_v", "b_v"], ["W_m", "b_m", "W_v", "b_v"]])
    @pytest.mark.parametrize("shared", [True, False])
    def test_parameters_after_five_clipped_steps_bit_identical(self, names, shared):
        config = md.ModelConfig(input_dim=5, hidden_dim=6, window=4, shared_context_cell=shared)
        rng = np.random.default_rng(17)
        batches = [(rng.normal(size=(16, 5, 4)), rng.integers(0, 2, 16), rng.integers(0, 2, 16)) for _ in range(5)]
        runs = []
        for zero, clip, adam in ((nx.ParamStore.zero_grads, tr.clip_gradients, tr.Adam(0.05)),
                                 (zero_grads_oracle, clip_gradients_oracle, AdamOracle(0.05))):
            params = md.init_params(config, np.random.default_rng(3))
            trainable = params.names() if names is None else names
            norms, grads = [], []
            for x, y_m, y_v in batches:
                loss = joint_loss(md.forward_batch(x, params, config), y_m, y_v, 0.7, 1.3)
                params["W"].grad[...] = 1.0  # stale gradients that zeroing must clear
                zero(params)
                nx.backward(loss)
                norms.append(clip(params, trainable, 0.05))
                grads.append(params.flat_grads.copy())
                adam.step(params, names)
            runs.append((norms, grads, {name: t.value.copy() for name, t in params.items()}))
        (got_norms, got_grads, got_values), (want_norms, want_grads, want_values) = runs
        assert got_norms == want_norms and min(got_norms) > 0.05  # clipping acted at every step
        for g, w in zip(got_grads, want_grads):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
        for name, value in want_values.items():
            assert np.array_equal(got_values[name].view(np.int64), value.view(np.int64)), name
        if names is not None:  # names outside the run kept their initial values
            init = md.init_params(config, np.random.default_rng(3))
            assert all(np.array_equal(got_values[n], init[n].value) for n in init.names() if n not in names)

    @pytest.mark.parametrize("names", [["W", "b"], ["b_v", "R_h", "W_m"]])
    def test_names_not_adjacent_in_the_store_raise_and_change_nothing(self, names):
        params = md.init_params(md.ModelConfig(input_dim=5, hidden_dim=6, window=4), np.random.default_rng(3))
        values = params.flat_values.copy()
        params.flat_grads[:] = 1.0
        adam = tr.Adam(0.05)
        with pytest.raises(UsageError, match="not adjacent"):
            tr.clip_gradients(params, names, 0.05)
        with pytest.raises(UsageError, match="not adjacent"):
            adam.step(params, names)
        assert np.all(params.flat_grads == 1.0) and np.array_equal(params.flat_values, values)
        assert adam.steps == 0 and adam.m is None


class TestClip:
    def test_norm_above_threshold_is_rescaled(self):
        params = nx.ParamStore()
        params.add("w", np.ones((1, 2)))
        params["w"].grad[...] = np.array([[6.0, 8.0]])  # norm 10
        norm = tr.clip_gradients(params, ["w"], 5.0)
        assert norm == pytest.approx(10.0)
        assert np.allclose(params["w"].grad, [[3.0, 4.0]])

    def test_norm_below_threshold_untouched(self):
        params = nx.ParamStore()
        params.add("w", np.ones((1, 2)))
        params["w"].grad[...] = np.array([[0.3, 0.4]])
        tr.clip_gradients(params, ["w"], 5.0)
        assert np.allclose(params["w"].grad, [[0.3, 0.4]])


    @pytest.mark.parametrize("grad", [1e200, np.nan], ids=["squares-overflow", "nan"])
    def test_norm_that_is_not_finite_is_returned_without_a_warning_or_scaling(self, grad):
        """The squares of 1e200 used to warn of overflow, and the inf norm scaled every gradient to 0."""
        params = nx.ParamStore()
        params.add("w", np.ones((1, 2)))
        params["w"].grad[...] = grad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = tr.clip_gradients(params, ["w"], 5.0)
        assert not math.isfinite(norm) and np.array_equal(params["w"].grad, [[grad, grad]], equal_nan=True)

    @pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 1e3, 1e150])
    @pytest.mark.parametrize("max_norm", [0.0, 1e-3, 5.0, 1e160])
    def test_finite_norms_keep_the_oracle_bits(self, scale, max_norm):
        config = md.ModelConfig(input_dim=3, hidden_dim=4, window=3)
        got, want = (md.init_params(config, np.random.default_rng(5)) for _ in range(2))
        grads = np.random.default_rng(6).standard_normal(got.flat_grads.shape) * scale
        got.flat_grads[:] = want.flat_grads[:] = grads
        names = got.names()
        assert tr.clip_gradients(got, names, max_norm) == clip_gradients_oracle(want, names, max_norm)
        assert got.flat_grads.tobytes() == want.flat_grads.tobytes()


class TestTrain:
    def test_loss_decreases_on_separable_toy(self):
        split = toy_split(noise=0.0)
        cfg = tr.TrainConfig(window=5, hidden=8, epochs=10, batch_size=32,
                             learning_rate=3e-3, seed=1, loss_weight=0.0, patience=10)
        _, _, report = tr.train(split, cfg)
        totals = [row["train_total"] for row in report.epochs]
        assert len(totals) == 10
        for earlier, later in zip(totals, totals[1:]):
            assert later < earlier

    def test_epoch_rows_report_gradient_and_parameter_norms(self):
        split = toy_split(n_days=200)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=1, batch_size=16, seed=7, clip_norm=1e-9)
        params, _, report = tr.train(split, cfg)
        row = report.epochs[0]
        assert row["clipped_fraction"] == 1.0
        assert 1e-6 < row["grad_norm_mean"] <= row["grad_norm_max"]  # norms before clipping
        total = 0.0  # one epoch, so the returned parameters are the end-of-epoch ones
        for _, tensor in params.items():
            total += float(np.sum(tensor.value * tensor.value))
        assert row["param_norm"] == math.sqrt(total)

    def test_clipped_fraction_zero_when_clipping_is_off_or_never_triggers(self):
        split = toy_split(n_days=200)
        rows = []
        for clip_norm in (0.0, 1e9):
            cfg = tr.TrainConfig(window=5, hidden=4, epochs=2, batch_size=16, seed=7, clip_norm=clip_norm)
            rows.append(tr.train(split, cfg)[2].epochs)
        assert rows[0] == rows[1]
        assert all(row["clipped_fraction"] == 0.0 for row in rows[0])

    def test_same_seed_bit_identical(self):
        split = toy_split(n_days=200)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=3, batch_size=16, seed=7, patience=5)
        params_a, config_a, report_a = tr.train(split, cfg)
        params_b, config_b, report_b = tr.train(split, cfg)
        assert config_a == config_b
        for name in params_a.names():
            assert np.array_equal(params_a[name].value, params_b[name].value)
        assert report_a.to_json_dict() == report_b.to_json_dict()

    def test_zero_learning_rate_keeps_init(self):
        split = toy_split(n_days=200)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=2, batch_size=16, seed=3, learning_rate=0.0)
        params, config, _ = tr.train(split, cfg)
        expected = md.init_params(config, np.random.default_rng(3))
        for name in params.names():
            assert np.array_equal(params[name].value, expected[name].value)

    def test_pos_weight_reflects_imbalance(self):
        split = toy_split(n_days=400)
        n_pos = sum(1 for s in split.train if s.y_v == 1)
        n_neg = sum(1 for s in split.train if s.y_v == 0)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=1, batch_size=32, seed=0)
        _, _, report = tr.train(split, cfg)
        assert report.pos_weight == pytest.approx(n_neg / n_pos)
        cfg_off = tr.TrainConfig(window=5, hidden=4, epochs=1, batch_size=32, seed=0, pos_weight_auto=False)
        _, _, report_off = tr.train(split, cfg_off)
        assert report_off.pos_weight == 1.0

    def test_two_stage_movement_phase_matches_single_stage(self):
        split = toy_split(n_days=220)
        base = dict(window=5, hidden=4, epochs=3, batch_size=16, seed=5, patience=5)
        params_two, _, report_two = tr.train(split, tr.TrainConfig(two_stage=True, **base))
        params_one, _, _ = tr.train(split, tr.TrainConfig(loss_weight=0.0, **base))
        assert [s["stage"] for s in report_two.stages] == ["movement", "volatility"]
        # stage 2 may only touch the volatility head
        for name in params_two.names():
            if name in ("W_v", "b_v"):
                continue
            assert np.array_equal(params_two[name].value, params_one[name].value)

    def test_patience_stops_once_validation_loss_rises_and_restores_the_best_epoch(self):
        split = toy_split(n_days=160)
        base = dict(window=5, hidden=4, batch_size=16, seed=2, learning_rate=3.0, patience=1)
        params, _, report = tr.train(split, tr.TrainConfig(epochs=5, **base))
        valid = [row["valid_total"] for row in report.epochs]
        assert len(report.epochs) == 2 and valid[1] > valid[0]
        assert report.stop_reason == "no validation improvement for 1 epochs"
        assert report.best_epoch == 1 and report.stages[0]["stop_reason"] == report.stop_reason
        first_epoch, _, _ = tr.train(split, tr.TrainConfig(epochs=1, **base))
        for name in params.names():
            assert np.array_equal(params[name].value, first_epoch[name].value)

    def test_window_mismatch_rejected(self):
        split = toy_split(window=5)
        cfg = tr.TrainConfig(window=7, hidden=4, epochs=1)
        with pytest.raises(ConfigError, match="window"):
            tr.train(split, cfg)

    def test_non_finite_loss_aborts_with_diagnostic(self):
        split = toy_split(n_days=200)
        # finite, so the config is valid, but the weighted volatility term's gradients overflow the first
        # batch's norm; clipping by that inf norm used to spread nan, and the run stopped at the next batch
        # with "non-finite loss ... first offender: batch inputs"
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=1, batch_size=16, loss_weight=1e308)
        with np.errstate(over="ignore"), pytest.raises(
                TrainingError, match=r"^non-finite gradient norm inf in stage 'joint', epoch 1, batch starting at 0$"):
            tr.train(split, cfg)

    @pytest.mark.parametrize("arch", ["alerta", "gru"])
    def test_infinite_recurrent_weight_aborts_naming_it(self, monkeypatch, arch):
        # inf * 0 in the zero initial state's products is what makes this loss NaN:
        # from step 2 on, sigmoid turns the infinite pre-activations into finite gates
        def init_params(config, rng):
            params = md.init_params(config, rng)
            params["R_zr"].value[0, 0] = np.inf
            return params

        monkeypatch.setattr(tr, "init_params", init_params)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=1, batch_size=16, arch=arch)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingError, match="first offender: parameter 'R_zr'"):
            tr.train(toy_split(n_days=200), cfg)

    def test_overflow_of_finite_values_is_named_as_such(self, monkeypatch):
        # finite head weights of 1e308 turn the movement logits infinite; no offender is non-finite to name
        def init_params(config, rng):
            params = md.init_params(config, rng)
            params["W_m"].value[...] = params["b_m"].value[...] = 1e308
            return params

        monkeypatch.setattr(tr, "init_params", init_params)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=1, batch_size=16)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError, match=re.escape(
                "non-finite loss in stage 'joint', epoch 1, batch starting at 0; no parameter, gradient or input "
                "is non-finite, so the forward pass overflowed")):
            tr.train(toy_split(n_days=200), cfg)

    def test_split_without_feature_names_is_rejected(self):
        nameless = replace(toy_split(n_days=200), feature_names=[])
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=1, batch_size=16)
        with pytest.raises(ConfigError, match=r"ablation mode 'full' selects no feature columns out of \[\]"):
            tr.train(nameless, cfg)

    def test_ablation_mode_changes_input_dim(self):
        split = toy_split(n_features=6)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=1, batch_size=32, ablation="s")
        _, config, report = tr.train(split, cfg)
        assert all(n.startswith("sent") for n in config.feature_names)
        assert config.input_dim == len(report.feature_names_used)
        assert config.input_dim < len(split.feature_names)


def criterion8_split():
    """The split of acceptance criterion 8's dataset: 2 stocks x 220 days, 6 features, window 8; 254 train windows."""
    frames = generate_universe(SynthSpec(n_days=220, n_features=6, seed=9), 2)
    return build_dataset(frames, 8, train_frac=0.6, valid_frac=0.2)[0]


# config overrides of each training run that the arena must leave bit-identical
ARENA_RUNS = {
    "alerta-shared": {},
    "alerta-unshared": {"shared_context_cell": False},
    "gru": {"arch": "gru"},
    "tda-normalize": {"tda_normalize": True},
    "two-stage": {"two_stage": True},
    "ablation-wo-m": {"ablation": "wo-m"},
}


def train_bits(split, cfg):
    """The raw bits of every trained parameter, and the report as JSON, whose floats round-trip exactly."""
    params, _, report = tr.train(split, cfg)
    return [t.value.tobytes() for _, t in params.items()], json.dumps(report.to_json_dict())


class TestTrainingArenaMatchesPerStepAllocationOracle:
    """``train`` runs every taped step in blocks of one arena; the oracle, the former taped pass, projects each
    distinct day and takes new blocks at every step, and ``nx.backward`` makes new gradient buffers for it."""

    # batches of 48 leave a last batch of 14 of the 254 windows, which runs in the arena's first blocks
    BASE = dict(window=8, hidden=6, epochs=2, batch_size=48, seed=13, patience=2)

    @pytest.fixture(scope="class")
    def split(self):
        return criterion8_split()

    @pytest.mark.parametrize("kind", sorted(ARENA_RUNS))
    def test_parameters_losses_and_report_bit_identical(self, split, monkeypatch, kind):
        cfg = tr.TrainConfig(**self.BASE, **ARENA_RUNS[kind])
        got = train_bits(split, cfg)
        backward = nx.backward
        monkeypatch.setattr(tr, "forward_batch", forward_batch_fresh_oracle)
        monkeypatch.setattr(nx, "backward", lambda loss, arena=None: backward(loss))
        want = train_bits(split, cfg)
        assert got[0] == want[0]
        assert got[1] == want[1]

    def test_passes_without_the_arena_share_no_memory_with_it(self, split, monkeypatch):
        """Between two steps, a taped pass with no arena takes new blocks; a forward-only pass on a pool thread
        returns tensors outside that thread's arena.  Neither changes what training computes."""
        cfg = tr.TrainConfig(**self.BASE)
        want = train_bits(split, cfg)
        checked = {"taped": [], "forward-only": []}

        def forward_batch(windows, params, config, features=None, arena=None):
            if arena is not None and arena._buffer.size:  # the arena's buffer exists from the second step on
                free = md.forward_batch(windows, params, config, features)
                blocks = [free.logits.value, free.context.value, *(h.value for h in free.hidden),
                          free.hidden[0]._parents[0].value]  # the last is the W x projection
                checked["taped"].append(any(np.shares_memory(b, arena._buffer) for b in blocks))
            trace = md.forward_batch(windows, params, config, features, arena)
            if arena is None:
                own = md._thread.arena._buffer  # the pool thread's arena, made in the call above
                returned = [trace.logits.value, trace.context.value, trace.hidden[-1].value]
                checked["forward-only"].append((own.size > 0, any(np.shares_memory(b, own) for b in returned)))
            return trace

        monkeypatch.setattr(tr, "forward_batch", forward_batch)
        monkeypatch.setattr(tr, "FORWARD_CHUNK", 16)  # so each pool thread runs several chunks in its arena
        assert train_bits(split, cfg) == want
        assert checked["taped"] and not any(checked["taped"])
        assert any(has_buffer for has_buffer, _ in checked["forward-only"])
        assert not any(shared for _, shared in checked["forward-only"])


class TestTrainMatchesSingleBodyOracle:
    """``train`` runs each stage in ``_run_stage`` and each epoch in ``_run_epoch``, and derives the stall count,
    the best epoch and the stop reason; the oracle, the former body, nests the three loops and tracks them."""

    # beyond the arena's runs: two that stop early and restore an earlier epoch, one per stage plan, and no clipping
    RUNS = {
        **ARENA_RUNS,
        "early-stop": {"epochs": 5, "patience": 1, "learning_rate": 0.3},
        "two-stage-early-stop": {"epochs": 5, "patience": 1, "learning_rate": 3.0, "two_stage": True},
        "clip-off": {"clip_norm": 0.0},
    }

    @pytest.fixture(scope="class")
    def split(self):
        return criterion8_split()

    def config(self, kind):
        return tr.TrainConfig(**{**TestTrainingArenaMatchesPerStepAllocationOracle.BASE, **self.RUNS[kind]})

    @pytest.mark.parametrize("kind", sorted(RUNS))
    def test_parameters_and_report_bit_identical(self, split, monkeypatch, kind):
        cfg = self.config(kind)
        got = train_bits(split, cfg)
        monkeypatch.setattr(tr, "train", train_oracle)
        assert train_bits(split, cfg) == got

    @pytest.mark.parametrize("kind, epochs, best", [("early-stop", 3, [2]), ("two-stage-early-stop", 6, [3, 5])])
    def test_the_early_stopping_runs_stop_and_restore_an_earlier_epoch(self, split, kind, epochs, best):
        _, _, report = tr.train(split, self.config(kind))
        assert len(report.epochs) == epochs and [stage["best_epoch"] for stage in report.stages] == best
        assert report.best_epoch == best[-1] < epochs
        assert {stage["stop_reason"] for stage in report.stages} == {"no validation improvement for 1 epochs"}


def random_samples(n, d=3, t=4, seed=0, abstain_rate=0.2):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        y_m = ABSTAIN if rng.random() < abstain_rate else int(rng.integers(0, 2))
        records.append((rng.normal(size=(d, t)), y_m, int(rng.integers(0, 2)), "R", f"2023-01-{i % 28 + 1:02d}"))
    return sample_set(records)


class TestEvaluate:
    def test_matches_metric_oracles_on_random_fixture(self):
        from alertanet import metrics as mt

        config = md.ModelConfig(input_dim=3, hidden_dim=4, window=4)
        params = md.init_params(config, np.random.default_rng(31))
        samples = random_samples(200, seed=32)
        report = tr.evaluate(params, config, samples, threshold=0.5)

        m_probs, v_probs = tr.predict_probs(params, config, samples)
        y_m = np.array([s.y_m for s in samples])
        y_v = np.array([s.y_v for s in samples])
        scored = y_m != ABSTAIN

        preds = (m_probs[scored] >= 0.5).astype(int)
        counts = mt.ConfusionCounts.from_predictions(y_m[scored].tolist(), preds.tolist())
        assert report.movement.accuracy == pytest.approx(
            (counts.tp + counts.tn) / counts.total, abs=1e-12
        )
        assert report.movement.mcc == pytest.approx(
            mcc_exact_integer(counts.tp, counts.tn, counts.fp, counts.fn), abs=1e-12
        )
        assert report.movement.auc == pytest.approx(
            auc_all_pairs(m_probs[scored], y_m[scored]), abs=1e-12
        )
        assert report.volatility.auc == pytest.approx(auc_all_pairs(v_probs, y_v), abs=1e-12)
        assert report.n_abstained == int(np.sum(~scored))

    def test_perfect_and_coin_flip_fixtures(self):
        # bypass the model: score the metric path through evaluate-level helpers
        from alertanet.training import _score_task

        y = np.array([1, 1, 0, 0])
        perfect = _score_task(y, np.array([0.9, 0.8, 0.1, 0.2]), 0.5, "movement")
        assert perfect.accuracy == 1.0 and perfect.mcc == 1.0 and perfect.auc == 1.0
        coin = _score_task(y, np.array([0.5, 0.5, 0.5, 0.5]), 0.5, "movement")
        assert coin.mcc == 0.0 and coin.auc == 0.5

    def test_all_abstain_reports_undefined_not_zero(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=2, window=4)
        params = md.init_params(config, np.random.default_rng(1))
        samples = random_samples(20, seed=2, abstain_rate=1.1)  # everything abstains
        report = tr.evaluate(params, config, samples)
        assert report.movement.accuracy is None
        assert report.movement.mcc is None
        assert report.movement.auc is None
        assert "undefined" in report.movement.note
        assert report.volatility.accuracy is not None

    def test_single_class_auc_is_undefined(self):
        config = md.ModelConfig(input_dim=3, hidden_dim=2, window=4)
        params = md.init_params(config, np.random.default_rng(1))
        samples = random_samples(20, seed=3, abstain_rate=0.0)
        samples.y_v[:] = 0
        report = tr.evaluate(params, config, samples)
        assert report.volatility.auc is None
        assert report.volatility.accuracy is not None

    def test_checkpoint_round_trip_reproduces_metrics_bitwise(self, tmp_path):
        split = toy_split(n_days=240)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=2, batch_size=16, seed=9)
        params, config, _ = tr.train(split, cfg)
        before = tr.evaluate(params, config, split.test, dataset_feature_names=split.feature_names)
        md.save_checkpoint(tmp_path / "c.json", params, config)
        loaded, loaded_config, _ = md.load_checkpoint(tmp_path / "c.json")
        after = tr.evaluate(loaded, loaded_config, split.test, dataset_feature_names=split.feature_names)
        assert before.to_json_dict() == after.to_json_dict()

    def test_feature_mismatch_names_checkpoint_config(self):
        config = md.ModelConfig(
            input_dim=2, hidden_dim=2, window=4, feature_names=["sent_0", "exotic_1"]
        )
        params = md.init_params(config, np.random.default_rng(0))
        samples = random_samples(5, d=3, t=4)
        with pytest.raises(CheckpointError, match="exotic_1"):
            tr.evaluate(params, config, samples, dataset_feature_names=["sent_0", "macro_0", "price_0"])

    def test_dimension_mismatch_without_names(self):
        config = md.ModelConfig(input_dim=5, hidden_dim=2, window=4)
        params = md.init_params(config, np.random.default_rng(0))
        with pytest.raises(CheckpointError, match="input_dim=5"):
            tr.evaluate(params, config, random_samples(5, d=3, t=4))


FEATURES = ["f0", "f1", "f2", "f3", "f4"]
MODELS = {
    "alerta": {"arch": "alerta"},
    "alerta_ctx_cell": {"arch": "alerta", "shared_context_cell": False},
    "alerta_tda_normalize": {"arch": "alerta", "tda_normalize": True},
    "gru": {"arch": "gru"},
}


def overlapping_samples(n, window=4, seed=0):
    """``n`` windows over one array of days, each a day after the last, as a split's windows are."""
    rng = np.random.default_rng(seed)
    days = rng.normal(size=(n + window - 1, len(FEATURES)))
    days.flags.writeable = False
    y_m = rng.choice(np.array([0, 1, ABSTAIN], dtype=np.int8), size=n)
    y_v = rng.integers(0, 2, size=n).astype(np.int8)
    return SampleSet(days, window, np.arange(n), y_m, y_v, np.full(n, "S"), np.full(n, "2023-01-02"))


def seeded_model(kind="alerta", subset=True):
    """A model over all of ``FEATURES``, or over three of them in another order; returns the rows it reads too."""
    names = ["f3", "f0", "f4"] if subset else []
    config = md.ModelConfig(input_dim=len(names) or len(FEATURES), hidden_dim=6, window=4,
                            feature_names=names, **MODELS[kind])
    rows = [FEATURES.index(name) for name in names] if subset else None
    return md.init_params(config, np.random.default_rng(41)), config, rows


def assert_probs_bits_equal(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


class TestForwardOnlyPool:
    """Forward-only passes run untaped on a thread pool and give the serial, taped oracles' bits."""

    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("kind", MODELS)
    @pytest.mark.parametrize("n", [1, 511, 512, 513, 3 * 512 + 5])
    def test_predict_probs_bit_identical_to_serial_taped_oracle(self, n, kind, subset):
        params, config, rows = seeded_model(kind, subset)
        samples = overlapping_samples(n)
        got = tr.predict_probs(params, config, samples, FEATURES if subset else None)
        assert_probs_bits_equal(got, predict_probs_oracle(params, config, samples, rows))

    @pytest.mark.parametrize("kind", MODELS)
    def test_fallback_product_pooled_matches_serial_oracle(self, monkeypatch, kind):
        """The rank-1 loop that numpy builds which fuse multiply-add run instead of einsum."""
        monkeypatch.setattr(nx, "_fixed_order_product", nx._loop_product)
        params, config, rows = seeded_model(kind)
        samples = overlapping_samples(3 * 512 + 5)
        got = tr.predict_probs(params, config, samples, FEATURES)
        assert_probs_bits_equal(got, predict_probs_oracle(params, config, samples, rows))

    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("cap", [1, 7, 299, 512, 1024])
    @pytest.mark.parametrize("kind", MODELS)
    def test_chunk_cap_and_worker_count_set_no_bits(self, monkeypatch, kind, cap, workers):
        """Probabilities and validation losses over more than one loss group, for any chunk cap and pool size."""
        monkeypatch.setattr(tr, "FORWARD_CHUNK", cap)
        monkeypatch.setattr(tr, "usable_cores", lambda: workers)
        params, config, rows = seeded_model(kind)
        samples = overlapping_samples(tr.LOSS_GROUP + 7)
        got = tr.predict_probs(params, config, samples, FEATURES)
        assert_probs_bits_equal(got, predict_probs_oracle(params, config, samples, rows))
        got = tr._dataset_loss(params, config, samples, rows, 0.7, 1.9)
        want = dataset_loss_oracle(params, config, samples, rows, 0.7, 1.9)
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    def test_many_workers_and_short_switch_interval_lose_no_chunk(self, monkeypatch):
        monkeypatch.setattr(tr, "FORWARD_CHUNK", 7)
        monkeypatch.setattr(tr, "usable_cores", lambda: 8)
        params, config, rows = seeded_model()
        samples = overlapping_samples(300)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = tr.predict_probs(params, config, samples, FEATURES)
        finally:
            sys.setswitchinterval(interval)
        assert_probs_bits_equal(got, predict_probs_oracle(params, config, samples, rows))

    @pytest.mark.parametrize("kind", MODELS)
    def test_dataset_loss_bit_identical_to_serial_taped_oracle(self, kind):
        params, config, rows = seeded_model(kind)
        samples = overlapping_samples(2 * tr.LOSS_GROUP + 37)
        got = tr._dataset_loss(params, config, samples, rows, 0.7, 1.9)
        want = dataset_loss_oracle(params, config, samples, rows, 0.7, 1.9)
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    @pytest.mark.parametrize("kind", MODELS)
    def test_loss_over_constants_has_the_taped_bits_and_rejects_backward(self, kind):
        params, config, rows = seeded_model(kind)
        samples = overlapping_samples(40)
        taped, untaped = (
            tr._loss_terms(md.forward_batch(samples, store, config, rows).logits, samples.y_m, samples.y_v, 0.7, 1.9)[0]
            for store in (params, params.constants())
        )
        assert np.array_equal(untaped.value.view(np.int64), taped.value.view(np.int64))
        with pytest.raises(UsageError, match="no recorded computation"):
            nx.backward(untaped)

    @pytest.mark.parametrize("n, workers, widths", [
        (1025, 2, [512, 512, 1]),
        (598, 2, [299, 299]),  # the validation part of acceptance criterion 6, on two cores
        (598, 1, [512, 86]),
        (598, 8, [75] * 7 + [73]),
    ])
    def test_forward_passes_record_no_tape(self, monkeypatch, n, workers, widths):
        traces = []

        def keep(*args):
            traces.append(md.forward_batch(*args))
            return traces[-1]

        monkeypatch.setattr(tr, "forward_batch", keep)
        monkeypatch.setattr(tr, "usable_cores", lambda: workers)
        params, config, rows = seeded_model()
        samples = overlapping_samples(n)
        tr.predict_probs(params, config, samples, FEATURES)
        tr._dataset_loss(params, config, samples, rows, 1.0, 1.0)
        assert sorted(t.logits.cols for t in traces) == sorted(2 * widths)
        assert not any(t.logits._parents or t.hidden[-1]._parents for t in traces)

    @pytest.mark.parametrize("kind", MODELS)
    def test_forward_only_trace_keeps_only_the_last_state(self, kind):
        params, config, rows = seeded_model(kind)
        samples = overlapping_samples(30)
        taped, untaped = (md.forward_batch(samples, store, config, rows) for store in (params, params.constants()))
        assert len(taped.hidden) == config.window and len(untaped.hidden) == 1
        assert np.array_equal(untaped.hidden[0].value.view(np.int64), taped.hidden[-1].value.view(np.int64))
        if config.uses_context:
            assert np.array_equal(untaped.context.value.view(np.int64), taped.context.value.view(np.int64))
        assert np.array_equal(untaped.logits.value.view(np.int64), taped.logits.value.view(np.int64))

    def test_error_in_one_chunk_keeps_its_type(self, monkeypatch):
        class ChunkFailure(Exception):
            pass

        def fail_last_chunk(windows, *args):
            if len(windows) < tr.FORWARD_CHUNK:
                raise ChunkFailure("the last chunk")
            return md.forward_batch(windows, *args)

        monkeypatch.setattr(tr, "forward_batch", fail_last_chunk)
        monkeypatch.setattr(tr, "usable_cores", lambda: 2)
        params, config, _ = seeded_model()
        with pytest.raises(ChunkFailure, match="the last chunk"):
            tr.predict_probs(params, config, overlapping_samples(3 * 512 + 5), FEATURES)

    def test_usable_cores_falls_back_to_cpu_count(self, monkeypatch):
        assert 1 <= tr.usable_cores() <= os.cpu_count()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert tr.usable_cores() == os.cpu_count()


class TestForwardOnlyWorkspace:
    """The forward-only pass reuses one arena per thread; its bits are the former cell's, run step by step."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", MODELS)
    def test_pooled_logits_with_a_last_chunk_one_window_wide(self, monkeypatch, kind, workers):
        monkeypatch.setattr(tr, "usable_cores", lambda: workers)
        params, config, rows = seeded_model(kind)
        samples = overlapping_samples(2 * tr.FORWARD_CHUNK + 1)  # chunks of 512, 512 and 1 windows
        got = tr._forward_logits(params, config, samples, rows)
        want = forward_batch_oracle(stack_windows(samples, rows), params, config, cell=cell_step_parent_oracle)
        assert np.array_equal(got.view(np.int64), want.logits.value.view(np.int64))

    def test_threads_at_once_each_get_their_own_bits(self):
        """Four models of one shape, so blocks of one size, each scored over and over on its own thread."""
        runs = []
        for seed, kind in enumerate(MODELS):
            params, config, rows = seeded_model(kind)
            samples = overlapping_samples(300, seed=seed)
            want = md.forward_batch(samples, params.constants(), config, rows).logits.value.copy()
            runs.append((params.constants(), config, rows, samples, want))
        start, mismatches, errors = threading.Barrier(len(runs)), [], []

        def score(params, config, rows, samples, want):
            try:
                start.wait(timeout=60)
                for _ in range(20):
                    got = md.forward_batch(samples, params, config, rows).logits.value
                    mismatches.append(not np.array_equal(got.view(np.int64), want.view(np.int64)))
            except Exception as exc:  # noqa: BLE001 -- reported below, on the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=score, args=run) for run in runs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(mismatches) == 20 * len(runs) and not any(mismatches)


def _peak_bytes(fn) -> int:
    """The peak of memory that ``fn()`` allocates, under ``tracemalloc``, after one untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestForwardOnlyPeakMemory:
    """A forward-only pass holds one step's ``W x`` columns and the TDA mix, not every step's and every state.

    At hidden 32 and window 10 the gathered block of 512 windows alone is
    96 x 5,120 entries, 3.9 MB, and the ten states 1.3 MB; keeping them peaked
    at 6.6 MB for one chunk and 7.7 MB for the loss of 598 windows; now they
    peak at 1.4 and 2.8 to 3.0 MB.  The chunk's thread made its arena's 1.3 MB
    buffer on the untraced warm-up call, while the loss's pool threads each
    make one of 0.8 MB, for their 299 windows.
    """

    CONFIG = md.ModelConfig(input_dim=len(FEATURES), hidden_dim=32, window=10)

    def test_chunk_of_512_windows_peaks_below_3_mb(self):
        params = md.init_params(self.CONFIG, np.random.default_rng(0))
        consts, samples = params.constants(), overlapping_samples(512, window=10)
        assert _peak_bytes(lambda: md.forward_batch(samples, consts, self.CONFIG)) < 3_000_000

    def test_validation_loss_of_598_windows_peaks_below_3_5_mb(self):
        params = md.init_params(self.CONFIG, np.random.default_rng(0))
        samples = overlapping_samples(598, window=10)
        assert _peak_bytes(lambda: tr._dataset_loss(params, self.CONFIG, samples, None, 1.0, 1.0)) < 3_500_000


class TestTrainConfig:
    @pytest.mark.parametrize("key, value, want", [
        ("two_stage", "false", "true or false"),
        ("tda_normalize", "no", "true or false"),
        ("pos_weight_auto", 1, "true or false"),
        ("epochs", "2", "an integer"),
        ("hidden", 2.5, "an integer"),
        ("seed", True, "an integer"),
        ("learning_rate", False, "a finite number"),
        ("learning_rate", "0.1", "a finite number"),
        ("clip_norm", float("nan"), "a finite number"),
        ("loss_weight", float("inf"), "a finite number"),
        ("ablation", 3, "a string"),
        ("arch", None, "a string"),
    ])
    def test_each_field_takes_the_type_of_its_default(self, key, value, want):
        with pytest.raises(ConfigError, match=rf"'{key}' is {re.escape(repr(value))}, expected {want}"):
            tr.TrainConfig(**{key: value}).validate()

    def test_numpy_scalars_are_accepted(self):
        tr.TrainConfig(epochs=np.int64(2), learning_rate=np.float32(0.5), loss_weight=np.int32(1),
                       two_stage=np.bool_(True)).validate()

    @pytest.mark.parametrize("changes, message", [
        ({"clip_norm": -1.0}, "clip_norm must be >= 0 (0 turns clipping off), got -1.0"),
        ({"clip_norm": -1.0, "adam_eps": -1.0}, "adam_eps must be > 0, got -1.0"),
        ({"adam_eps": 0.0}, "adam_eps must be > 0, got 0.0"),
        ({"adam_eps": -1e-8}, "adam_eps must be > 0, got -1e-08"),
    ])
    def test_negative_clip_norm_and_nonpositive_adam_eps_rejected(self, changes, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            tr.TrainConfig(**changes).validate()

    def test_zero_clip_norm_turns_clipping_off_and_is_valid(self):
        tr.TrainConfig(clip_norm=0.0).validate()
        tr.TrainConfig(clip_norm=0).validate()

    def test_invalid_config_fails_when_it_is_made(self):
        with pytest.raises(ConfigError, match="^epochs must be >= 1, got 0$"):
            tr.TrainConfig(epochs=0)

    def test_validation_rules(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(epochs=0).validate()
        with pytest.raises(ConfigError):
            tr.TrainConfig(learning_rate=-1e-3).validate()
        with pytest.raises(ConfigError):
            tr.TrainConfig(loss_weight=-0.1).validate()
        with pytest.raises(ConfigError):
            tr.TrainConfig(ablation="bogus").validate()
        tr.TrainConfig().validate()
