"""Acceptance gate: one test per criterion, one PASS/FAIL line each (run with -s).

The learning criteria (5-7) train real models on planted-signal data and take
a few minutes combined; everything else is fast.  Every tolerance is pinned
here, not computed.
"""

import time

import numpy as np
import pytest

from alertanet import cli
from alertanet import metrics as mt
from alertanet import model as md
from alertanet import numerics as nx
from alertanet import training as tr
from alertanet.data import ABSTAIN, FeatureFrame, build_dataset, window
from alertanet.serialize import read_json
from alertanet.synth import SynthSpec, bayes_rate, generate
from alertanet.training import TrainConfig, evaluate, train

from testutil import GOLDEN_PRICES, finite_difference_grads, golden_label_oracle, joint_loss, max_grad_violation
from test_metrics import auc_all_pairs, mcc_exact_integer


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(3, 7))
        u = int(rng.integers(2, 5))
        t = int(rng.integers(2, 7))
        config = md.ModelConfig(
            input_dim=d, hidden_dim=u, window=t,
            tda_normalize=bool(trial % 4 == 1),
            shared_context_cell=bool(trial % 5 != 0),
        )
        params = md.init_params(config, np.random.default_rng(1000 + trial))
        x = rng.normal(size=(d, t))
        y_m = int(rng.integers(0, 2)) if trial % 3 else ABSTAIN
        y_v = int(rng.integers(0, 2))
        lam = float(rng.uniform(0.3, 1.5))
        pos_w = float(rng.uniform(1.0, 2.0))

        def compute():
            return joint_loss(md.forward(x, params, config), y_m, y_v, lam, pos_w)

        params.zero_grads()
        nx.backward(compute())
        analytic = {name: p.grad.copy() for name, p in params.items()}
        numeric = finite_difference_grads(lambda: compute().item(), params, h=1e-6)
        worst = max(worst, max_grad_violation(analytic, numeric, rel=1e-5, floor=1e-8))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 60.0
    _report(1, "gradient correctness", ok,
            f"20 configs, worst tolerance ratio {worst:.3g} (<=1), {elapsed:.1f}s (<60s)")


def test_criterion_2_tda_exactness():
    worst_ulp = 0.0
    worst_harmonic = 0.0
    for t in range(1, 1001):
        weights = md.tda_weights(t)
        distances = np.arange(t, 0, -1, dtype=np.float64)
        worst_ulp = max(worst_ulp, float(np.max(np.abs(weights * distances - 1.0))))
        harmonic = 0.0
        for k in range(1, t + 1):
            harmonic += 1.0 / k
        worst_harmonic = max(worst_harmonic, abs(float(np.sum(weights)) - harmonic))
    ok = worst_ulp <= np.spacing(1.0) and worst_harmonic < 1e-12
    _report(2, "temporal-distance weight exactness", ok,
            f"t=1..1000: max |w*(dist)-1| = {worst_ulp:.3g} (<=1 ulp), "
            f"max |sum(w)-H_t| = {worst_harmonic:.3g} (<1e-12)")


def test_criterion_3_metric_oracle_equivalence():
    rng = np.random.default_rng(77)
    n = 200
    worst = 0.0
    for _ in range(500):
        scores = rng.random(n).round(2)  # two decimals force plenty of ties
        labels = rng.integers(0, 2, size=n)
        assert 0 < labels.sum() < n
        preds = (scores >= 0.5).astype(int)

        counts = mt.ConfusionCounts.from_predictions(labels.tolist(), preds.tolist())
        acc_oracle = float(np.mean(labels == preds))
        mcc_oracle = mcc_exact_integer(counts.tp, counts.tn, counts.fp, counts.fn)
        pos, neg = scores[labels == 1], scores[labels == 0]
        auc_oracle = (np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])) / (
            len(pos) * len(neg)
        )
        worst = max(
            worst,
            abs(mt.accuracy(counts) - acc_oracle),
            abs(mt.mcc(counts) - mcc_oracle),
            abs(mt.auc(scores, labels) - auc_oracle),
        )
    ok = worst < 1e-12
    _report(3, "metric oracle equivalence", ok,
            f"500 sets of N=200: worst |metric - oracle| = {worst:.3g} (<1e-12)")


def test_criterion_4_labeling_golden_fixture():
    prices = np.array([float(p) for p in GOLDEN_PRICES])
    n = len(prices)
    rng = np.random.default_rng(4)
    frame = FeatureFrame(
        stock_id="GOLD",
        dates=[f"2021-{1 + i // 28:02d}-{i % 28 + 1:02d}" for i in range(n)],
        adj_close=prices,
        feature_names=["sent_0"],
        features=rng.uniform(0, 1, size=(n, 1)),
    )
    samples = window(frame, window_len=1)
    expect_m, expect_v = golden_label_oracle(GOLDEN_PRICES, ABSTAIN)
    got_m = [s.y_m for s in samples]
    got_v = [s.y_v for s in samples]
    ok = len(samples) == 50 and got_m == expect_m and got_v == expect_v
    abstains = sum(1 for label in got_m if label == ABSTAIN)
    _report(4, "labeling golden fixture", ok,
            f"50 days: movement and volatility match the exact-rational oracle "
            f"({abstains} abstain, {sum(got_v)} outlier days)")


def _criterion5_setup():
    spec = SynthSpec(n_days=5000, n_features=8, seed=11, noise_flip_prob=0.1, volatility_lag=7)
    frame = generate(spec)
    split, _ = build_dataset([frame], window_len=10, train_frac=0.7, valid_frac=0.15)
    return spec, split


def test_criterion_5_planted_signal_learning():
    start = time.perf_counter()
    spec, split = _criterion5_setup()
    cfg = TrainConfig(window=10, hidden=32, epochs=60, batch_size=64,
                      learning_rate=1e-3, seed=0, patience=15)
    params, config, report = train(split, cfg)
    result = evaluate(params, config, split.test, dataset_feature_names=split.feature_names)
    elapsed = time.perf_counter() - start
    accuracy = result.movement.accuracy
    ceiling = bayes_rate(spec)
    ok = accuracy >= 0.80 and len(report.epochs) <= 200 and elapsed < 600.0
    _report(5, "planted-signal learning", ok,
            f"held-out movement accuracy {accuracy:.4f} (>=0.80, ceiling {ceiling:.2f}) "
            f"after {len(report.epochs)} epochs in {elapsed:.0f}s (<600s)")


def test_criterion_6_tda_advantage_on_lagged_volatility():
    start = time.perf_counter()
    diffs = []
    pairs = []
    for seed in range(5):
        spec = SynthSpec(n_days=4000, n_features=8, seed=100 + seed,
                         noise_flip_prob=0.1, volatility_lag=7)
        frame = generate(spec)
        split, _ = build_dataset([frame], window_len=10, train_frac=0.7, valid_frac=0.15)
        aucs = {}
        for arch in ("alerta", "gru"):
            cfg = TrainConfig(window=10, hidden=32, epochs=60, batch_size=64,
                              learning_rate=1e-3, seed=seed, patience=20, arch=arch)
            params, config, _ = train(split, cfg)
            result = evaluate(params, config, split.test, dataset_feature_names=split.feature_names)
            aucs[arch] = result.volatility.auc
        diffs.append(aucs["alerta"] - aucs["gru"])
        pairs.append((aucs["alerta"], aucs["gru"]))
    mean_alerta = float(np.mean([p[0] for p in pairs]))
    mean_gru = float(np.mean([p[1] for p in pairs]))
    elapsed = time.perf_counter() - start
    ok = mean_alerta > mean_gru
    _report(6, "temporal-distance advantage on lagged volatility", ok,
            f"5 seeds, k=7: mean volatility AUC {mean_alerta:.4f} (context) vs "
            f"{mean_gru:.4f} (plain GRU), per-seed diffs "
            f"{['%+.3f' % d for d in diffs]}, {elapsed:.0f}s")


def test_criterion_7_ablation_harness(tmp_path):
    raw = tmp_path / "raw"
    prep = tmp_path / "prep"
    abl = tmp_path / "ablate"
    assert cli.run(["synth", "--out", str(raw), "--stocks", "1", "--days", "2500",
                    "--features", "8", "--seed", "42"]) == 0
    assert cli.run(["prepare", "--data", str(raw), "--out", str(prep), "--window", "10"]) == 0
    assert cli.run(["ablate", "--dataset", str(prep / "dataset.json"), "--out", str(abl),
                    "--hidden", "16", "--epochs", "20", "--learning-rate", "2e-3",
                    "--seed", "0", "--patience", "20"]) == 0
    rows = {row["label"]: row for row in read_json(abl / "ablation_report.json")["rows"]}
    assert set(rows) == {"FULL", "P", "S", "W/O M"}
    full_acc = rows["FULL"]["movement_accuracy"]
    s_acc = rows["S"]["movement_accuracy"]
    p_acc = rows["P"]["movement_accuracy"]
    ok = (full_acc - p_acc) >= 0.05 and (s_acc - p_acc) >= 0.05
    _report(7, "ablation harness", ok,
            f"movement accuracy FULL {full_acc:.4f} / S {s_acc:.4f} vs P {p_acc:.4f} "
            f"(both gaps >= 0.05; signal lives in sentiment columns)")


def test_criterion_8_byte_identical_reruns(tmp_path):
    raw = tmp_path / "raw"
    prep = tmp_path / "prep"
    assert cli.run(["synth", "--out", str(raw), "--stocks", "2", "--days", "220",
                    "--features", "6", "--seed", "9"]) == 0
    assert cli.run(["prepare", "--data", str(raw), "--out", str(prep), "--window", "8",
                    "--train-frac", "0.6", "--valid-frac", "0.2"]) == 0
    artifacts = []
    for tag in ("one", "two"):
        run_dir = tmp_path / f"train_{tag}"
        eval_dir = tmp_path / f"eval_{tag}"
        assert cli.run(["train", "--dataset", str(prep / "dataset.json"), "--out", str(run_dir),
                        "--epochs", "3", "--hidden", "6", "--seed", "13"]) == 0
        assert cli.run(["eval", "--dataset", str(prep / "dataset.json"),
                        "--checkpoint", str(run_dir / "checkpoint.json"),
                        "--out", str(eval_dir)]) == 0
        artifacts.append({
            "checkpoint": (run_dir / "checkpoint.json").read_bytes(),
            "train_report": (run_dir / "train_report.json").read_bytes(),
            "eval_report": (eval_dir / "eval_report.json").read_bytes(),
        })
    same = {name: artifacts[0][name] == artifacts[1][name] for name in artifacts[0]}
    ok = all(same.values())
    _report(8, "byte-identical reruns", ok,
            f"train+eval twice, same config/seed: " +
            ", ".join(f"{name} {'identical' if good else 'DIFFERS'}" for name, good in same.items()))
