import numpy as np
import pytest

from alertanet import synth
from alertanet.data import build_dataset, label_prices, load_frame, write_frame
from alertanet.errors import ConfigError

from testutil import price_path_oracle


class TestSpec:
    def test_default_layout_is_sentiment_heavy(self):
        names = synth.default_feature_names(8)
        assert names == ["sent_0", "sent_1", "sent_2", "sent_3", "macro_0", "macro_1", "price_0", "price_1"]

    def test_default_weights_zero_sum_on_sentiment_only(self):
        spec = synth.SynthSpec(n_days=100, n_features=8, seed=0)
        w = spec.signal_weights
        assert np.sum(np.abs(w[4:])) == 0.0  # macro and price carry no signal
        assert np.sum(w) == pytest.approx(0.0, abs=1e-15)
        assert np.any(w != 0.0)

    @pytest.mark.parametrize("base_price", [float("nan"), float("inf"), 0.0])
    def test_rejects_base_price_that_is_not_finite_and_positive(self, base_price):
        """A nan base price used to fail later, in a FeatureFrame message that did not name it."""
        with pytest.raises(ConfigError, match="base_price"):
            synth.SynthSpec(n_days=100, base_price=base_price)

    def test_rejects_bad_noise(self):
        with pytest.raises(ConfigError):
            synth.SynthSpec(n_days=100, noise_flip_prob=0.5)

    def test_bayes_rate(self):
        assert synth.bayes_rate(synth.SynthSpec(n_days=10, noise_flip_prob=0.1)) == pytest.approx(0.9)
        assert synth.bayes_rate(synth.SynthSpec(n_days=10, noise_flip_prob=0.0)) == 1.0
        assert synth.bayes_rate(synth.SynthSpec(n_days=10, noise_flip_prob=0.25)) == 0.75


class TestGenerate:
    def test_same_spec_twice_identical(self):
        a = synth.generate(synth.SynthSpec(n_days=300, seed=4))
        b = synth.generate(synth.SynthSpec(n_days=300, seed=4))
        assert np.array_equal(a.dates, b.dates)
        assert np.array_equal(a.adj_close, b.adj_close)
        assert np.array_equal(a.features, b.features)

    @pytest.mark.parametrize("n_days", [3, 17, 4000])
    @pytest.mark.parametrize("base_price", [100.0, 0.37, 12345.678])
    def test_price_path_bit_identical_to_loop_oracle(self, n_days, base_price):
        for seed in range(4):
            spec = synth.SynthSpec(n_days=n_days, seed=seed, base_price=base_price)
            frame, truth = synth.generate_with_truth(spec)
            want = price_path_oracle(base_price, truth["returns"])
            assert np.array_equal(frame.adj_close.view(np.int64), want.view(np.int64))

    def test_prices_positive_and_features_nonnegative(self):
        frame = synth.generate(synth.SynthSpec(n_days=2000, seed=1))
        assert np.all(frame.adj_close > 0)
        assert np.all(frame.features >= 0)

    def test_flip_rate_matches_noise_probability(self):
        spec = synth.SynthSpec(n_days=5000, seed=7, noise_flip_prob=0.1)
        _, truth = synth.generate_with_truth(spec)
        realized_up = truth["movement"]
        intended_up = (truth["signal_sign"] > 0).astype(int)
        flip_rate = float(np.mean(realized_up != intended_up))
        assert abs(flip_rate - 0.1) <= 0.02

    def test_zero_noise_signal_is_exact(self):
        spec = synth.SynthSpec(n_days=1000, seed=3, noise_flip_prob=0.0)
        _, truth = synth.generate_with_truth(spec)
        assert np.array_equal(truth["movement"], (truth["signal_sign"] > 0).astype(int))

    def test_movement_labels_never_abstain(self):
        spec = synth.SynthSpec(n_days=500, seed=5)
        frame, _ = synth.generate_with_truth(spec)
        y_m, _ = label_prices(frame.adj_close[:-1], frame.adj_close[1:])
        assert set(y_m.tolist()) <= {0, 1}

    def test_generator_and_labeler_agree_on_every_day(self):
        spec = synth.SynthSpec(n_days=1500, seed=11)
        frame, truth = synth.generate_with_truth(spec)
        prices = frame.adj_close
        got_m, got_v = label_prices(prices[:-1], prices[1:])
        assert np.array_equal(got_m, truth["movement"])
        assert np.array_equal(got_v, truth["volatility"])

    def test_volatility_events_follow_lagged_driver(self):
        spec = synth.SynthSpec(n_days=800, seed=13, volatility_lag=7)
        frame, truth = synth.generate_with_truth(spec)
        driver = frame.features[:, 0]
        # price columns were rewritten but sent_0 keeps the drawn driver values
        cutoff = np.quantile(driver, synth.VOLATILITY_DRIVER_QUANTILE)
        for t in range(1, spec.n_days):
            expected = t - 7 >= 0 and driver[t - 7] > cutoff
            assert bool(truth["volatility"][t - 1]) == expected

    def test_event_rate_near_ten_percent(self):
        spec = synth.SynthSpec(n_days=4000, seed=17)
        _, truth = synth.generate_with_truth(spec)
        rate = float(np.mean(truth["volatility"]))
        assert 0.06 <= rate <= 0.14

    def test_price_columns_reflect_realized_path(self):
        spec = synth.SynthSpec(n_days=300, seed=19)
        frame, truth = synth.generate_with_truth(spec)
        level = frame.features[:, frame.feature_names.index("price_0")]
        assert np.array_equal(level, frame.adj_close / spec.base_price)
        abs_ret = frame.features[:, frame.feature_names.index("price_1")]
        assert abs_ret[0] == 0.0
        assert np.array_equal(abs_ret[1:], np.abs(truth["returns"]))

    def test_csv_round_trip_through_pipeline(self, tmp_path):
        frame = synth.generate(synth.SynthSpec(n_days=120, seed=23), stock_id="SYNQ")
        path = tmp_path / "SYNQ.csv"
        write_frame(frame, path)
        loaded = load_frame(path)
        assert np.array_equal(loaded.adj_close, frame.adj_close)
        assert np.array_equal(loaded.features, frame.features)
        # and the full pipeline consumes it
        split, warnings = build_dataset([loaded], window_len=10, train_frac=0.6, valid_frac=0.2)
        assert warnings == []
        assert len(split.train) > 0

    def test_universe_stocks_differ_but_are_reproducible(self):
        spec = synth.SynthSpec(n_days=150, seed=29)
        frames_a = synth.generate_universe(spec, 3)
        frames_b = synth.generate_universe(spec, 3)
        assert [f.stock_id for f in frames_a] == ["SYN00", "SYN01", "SYN02"]
        for fa, fb in zip(frames_a, frames_b):
            assert np.array_equal(fa.adj_close, fb.adj_close)
        assert not np.array_equal(frames_a[0].adj_close, frames_a[1].adj_close)
