import math

import numpy as np
import pytest

from alertanet import model as md
from alertanet import numerics as nx
from alertanet import training as tr
from alertanet.data import ABSTAIN, build_dataset
from alertanet.errors import CheckpointError, ConfigError, TrainingError
from alertanet.synth import SynthSpec, generate

from testutil import finite_difference_grads, joint_loss, max_grad_violation, sample_set
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
        movement = nx.constant([[float(m_logit)]])
        volatility = nx.constant([[float(v_logit)]])
        return md.ForwardTrace(
            hidden=[],
            context=None,
            movement_logit=movement,
            movement_prob=nx.sigmoid(movement),
            volatility_logit=volatility,
            volatility_prob=nx.sigmoid(volatility),
        )

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
        assert np.array_equal(params.value("w"), np.array([[1.0, -2.0]]))

    def test_step_direction_and_magnitude(self):
        params = nx.ParamStore()
        params.add("w", np.zeros((1, 2)))
        params["w"].grad[...] = np.array([[1.0, -1.0]])
        tr.Adam(0.1, beta1=0.9, beta2=0.999, eps=0.0).step(params)
        # first Adam step moves by exactly lr against the gradient sign
        assert np.allclose(params.value("w"), [[-0.1, 0.1]], atol=1e-12)

    def test_restricted_names_leave_others_alone(self):
        params = nx.ParamStore()
        params.add("a", np.ones((1, 1)))
        params.add("b", np.ones((1, 1)))
        params["a"].grad[...] = 1.0
        params["b"].grad[...] = 1.0
        tr.Adam(0.5).step(params, names=["a"])
        assert params.value("a")[0, 0] != 1.0
        assert params.value("b")[0, 0] == 1.0


class TestClip:
    def test_norm_above_threshold_is_rescaled(self):
        params = nx.ParamStore()
        params.add("w", np.ones((1, 2)))
        params["w"].grad[...] = np.array([[6.0, 8.0]])  # norm 10
        norm = tr.clip_gradients(params, ["w"], 5.0)
        assert norm == pytest.approx(10.0)
        assert np.allclose(params.grad("w"), [[3.0, 4.0]])

    def test_norm_below_threshold_untouched(self):
        params = nx.ParamStore()
        params.add("w", np.ones((1, 2)))
        params["w"].grad[...] = np.array([[0.3, 0.4]])
        tr.clip_gradients(params, ["w"], 5.0)
        assert np.allclose(params.grad("w"), [[0.3, 0.4]])


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
            assert np.array_equal(params_a.value(name), params_b.value(name))
        assert report_a.to_json_dict() == report_b.to_json_dict()

    def test_zero_learning_rate_keeps_init(self):
        split = toy_split(n_days=200)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=2, batch_size=16, seed=3, learning_rate=0.0)
        params, config, _ = tr.train(split, cfg)
        expected = md.init_params(config, np.random.default_rng(3))
        for name in params.names():
            assert np.array_equal(params.value(name), expected.value(name))

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
            assert np.array_equal(params_two.value(name), params_one.value(name))

    def test_window_mismatch_rejected(self):
        split = toy_split(window=5)
        cfg = tr.TrainConfig(window=7, hidden=4, epochs=1)
        with pytest.raises(ConfigError, match="window"):
            tr.train(split, cfg)

    def test_non_finite_loss_aborts_with_diagnostic(self):
        split = toy_split(n_days=200)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=1, batch_size=16,
                             loss_weight=float("inf"))
        with pytest.raises(TrainingError, match="non-finite loss"):
            tr.train(split, cfg)

    def test_ablation_mode_changes_input_dim(self):
        split = toy_split(n_features=6)
        cfg = tr.TrainConfig(window=5, hidden=4, epochs=1, batch_size=32, ablation="s")
        _, config, report = tr.train(split, cfg)
        assert all(n.startswith("sent") for n in config.feature_names)
        assert config.input_dim == len(report.feature_names_used)
        assert config.input_dim < len(split.feature_names)


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


class TestTrainConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="mystery"):
            tr.TrainConfig.from_dict({"mystery": 1})

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
