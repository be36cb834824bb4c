import csv
import json
import logging
import re
from datetime import date, timedelta

import numpy as np
import pytest

from alertanet import data as dp
from alertanet import serialize
from alertanet.errors import (
    ConfigError,
    DataIntegrityError,
    DomainError,
    ParseError,
    PreprocessingError,
    SchemaError,
    UsageError,
)
from alertanet.synth import SynthSpec, generate

from testutil import GOLDEN_PRICES, golden_label_oracle, load_frame_oracle, stack_windows


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def simple_csv(tmp_path):
    return write_csv(
        tmp_path / "ABC.csv",
        ["date", "adj_close", "sent_0", "macro_0"],
        [
            ["2021-01-04", "10.0", "0.5", "1.0"],
            ["2021-01-05", "10.5", "0.25", "2.0"],
            ["2021-01-06", "11.0", "0.75", "3.0"],
        ],
    )


class TestLoadFrame:
    def test_well_formed(self, simple_csv):
        frame = dp.load_frame(simple_csv)
        assert frame.stock_id == "ABC"
        assert frame.dates.dtype == "datetime64[D]"
        assert frame.dates.astype(str).tolist() == ["2021-01-04", "2021-01-05", "2021-01-06"]
        assert frame.feature_names == ["sent_0", "macro_0"]
        assert np.array_equal(frame.adj_close, [10.0, 10.5, 11.0])
        assert np.array_equal(frame.features[:, 1], [1.0, 2.0, 3.0])

    def test_missing_price_column(self, tmp_path):
        path = write_csv(tmp_path / "X.csv", ["date", "close", "sent_0"], [["2021-01-04", "1", "1"]])
        with pytest.raises(SchemaError, match="adj_close"):
            dp.load_frame(path)

    def test_missing_schema_column_listed(self, simple_csv):
        with pytest.raises(SchemaError, match="trend_0"):
            dp.load_frame(simple_csv, schema=["sent_0", "trend_0"])

    def test_shuffled_rows_match_sorted_input(self, tmp_path, simple_csv):
        shuffled = write_csv(
            tmp_path / "ABC2.csv",
            ["date", "adj_close", "sent_0", "macro_0"],
            [
                ["2021-01-06", "11.0", "0.75", "3.0"],
                ["2021-01-04", "10.0", "0.5", "1.0"],
                ["2021-01-05", "10.5", "0.25", "2.0"],
            ],
        )
        sorted_frame = dp.load_frame(simple_csv)
        shuffled_frame = dp.load_frame(shuffled)
        assert np.array_equal(shuffled_frame.dates, sorted_frame.dates)
        assert np.array_equal(shuffled_frame.adj_close, sorted_frame.adj_close)
        assert np.array_equal(shuffled_frame.features, sorted_frame.features)

    def test_duplicate_date_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "D.csv",
            ["date", "adj_close", "sent_0"],
            [["2021-01-04", "1.0", "0.1"], ["2021-01-04", "2.0", "0.2"]],
        )
        with pytest.raises(DataIntegrityError, match="duplicate date 2021-01-04"):
            dp.load_frame(path)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = write_csv(
            tmp_path / "N.csv",
            ["date", "adj_close", "sent_0"],
            [["2021-01-04", "1.0", "0.1"], ["2021-01-05", "oops", "0.2"]],
        )
        with pytest.raises(ParseError, match="row 3"):
            dp.load_frame(path)

    def test_negative_feature_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "G.csv",
            ["date", "adj_close", "macro_0"],
            [["2021-01-04", "1.0", "-0.5"]],
        )
        with pytest.raises(PreprocessingError, match="macro_0"):
            dp.load_frame(path)

    def test_negative_feature_names_first_offender_in_date_order(self, tmp_path):
        path = write_csv(
            tmp_path / "G2.csv",
            ["date", "adj_close", "sent_0", "macro_0"],
            [["2021-01-05", "1.0", "-1.0", "0.1"], ["2021-01-04", "1.0", "0.5", "-2.0"]],
        )
        with pytest.raises(PreprocessingError, match=r"row 3: negative value -2\.0 in feature column 'macro_0'"):
            dp.load_frame(path)

    @pytest.mark.parametrize("column, cell", [("adj_close", "nan"), ("sent_0", "inf"), ("macro_0", "-inf")])
    def test_non_finite_cell_names_file_row_and_column(self, tmp_path, column, cell):
        header = ["date", "adj_close", "sent_0", "macro_0"]
        rows = [["2021-01-04", "10.0", "0.5", "1.0"], ["2021-01-05", "10.5", "0.25", "2.0"],
                ["2021-01-06", "11.0", "0.75", "3.0"]]
        rows[1][header.index(column)] = cell
        path = write_csv(tmp_path / "NF.csv", header, rows)
        with pytest.raises(ParseError, match=rf"NF\.csv: row 3: non-finite value .* in column '{column}'"):
            dp.load_frame(path)

    def test_nonpositive_price_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "P.csv",
            ["date", "adj_close", "sent_0"],
            [["2021-01-04", "0.0", "0.5"]],
        )
        with pytest.raises(DataIntegrityError, match=r"P\.csv: row 2: adj_close 0\.0 is not a positive number"):
            dp.load_frame(path)

    def test_schema_selects_and_orders_columns(self, simple_csv):
        frame = dp.load_frame(simple_csv, schema=["macro_0", "sent_0"])
        assert frame.feature_names == ["macro_0", "sent_0"]
        assert np.array_equal(frame.features[0], [1.0, 0.5])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        frame = dp.FeatureFrame(
            stock_id="RT",
            dates=[f"2021-02-{d:02d}" for d in range(1, 11)],
            adj_close=rng.uniform(5, 500, size=10),
            feature_names=["sent_0", "trend_0", "macro_0"],
            features=rng.uniform(0, 3, size=(10, 3)),
        )
        out = tmp_path / "RT.csv"
        dp.write_frame(frame, out)
        loaded = dp.load_frame(out)
        assert np.array_equal(loaded.adj_close, frame.adj_close)
        assert np.array_equal(loaded.features, frame.features)
        assert np.array_equal(loaded.dates, frame.dates)

    def test_write_frame_bytes_match_a_row_by_row_writer(self, tmp_path):
        values = np.array([[-0.0, 5e-324, 1e300], [0.1, 1 / 3, 2.0], [1e-7, 123456789.125, 0.0]])
        frame = dp.FeatureFrame("W", ["2021-02-01", "2021-02-02", "2021-02-03"], [1.5, 1e-300, 7.0],
                                ["sent_0", "trend_0", "macro_0"], values)
        dp.write_frame(frame, tmp_path / "W.csv")
        with open(tmp_path / "rows.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "adj_close", *frame.feature_names])
            for i, day in enumerate(frame.dates):
                writer.writerow([day, repr(float(frame.adj_close[i])), *(repr(float(v)) for v in frame.features[i])])
        assert (tmp_path / "W.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_first_defect_in_row_order_is_named(self, tmp_path):
        """numpy's one call refuses the file; the record walk names row 3's cell, the first bad one in file order."""
        path = write_csv(tmp_path / "M.csv", ["date", "adj_close", "sent_0", "macro_0"], [
            ["2021-01-06", "1.0", "0.5", "1.0"],
            ["2021-01-05", "1.0", "0.5", "x1"],
            ["2021-13-01", "1.0", "bad", "1.0"],
            ["2021-01-07", "1.0", "0.5"],
            ["2021-01-06", "nan", "-1", "1.0"],
        ])
        with pytest.raises(ParseError) as caught:
            dp.load_frame(path)
        assert str(caught.value) == f"{path}: row 3: non-numeric value 'x1' in column 'macro_0'"
        with pytest.raises(ParseError) as oracle:
            load_frame_oracle(path)
        assert str(caught.value) == str(oracle.value)

    def test_long_shuffled_file_matches_oracle_across_passes(self, tmp_path):
        rng = np.random.default_rng(5)
        days = [(date(2015, 1, 1) + timedelta(days=int(d))).isoformat() for d in rng.permutation(1300)]
        rows = [[day, repr(rng.uniform(1, 9)), repr(rng.uniform(0, 1)), "junk"] for day in days]
        for i in (3, 511, 512, 900):
            rows.insert(i, [" ", "", "", ""])
        path = write_csv(tmp_path / "LONG.csv", ["date", "adj_close", "sent_0", "note"], rows)
        got, want = dp.load_frame(path, ["sent_0"]), load_frame_oracle(path, ["sent_0"])
        assert np.array_equal(got.dates, want.dates)
        assert got.adj_close.tobytes() == want.adj_close.tobytes()
        assert got.features.tobytes() == want.features.tobytes()

        rows[1100][1], rows[1200][0], rows[20][0] = "x", "2015-02-30", rows[1250][0]
        path = write_csv(tmp_path / "LONG.csv", ["date", "adj_close", "sent_0", "note"], rows)
        with pytest.raises(ParseError) as caught:
            dp.load_frame(path, ["sent_0"])
        with pytest.raises(ParseError) as oracle:
            load_frame_oracle(path, ["sent_0"])
        assert str(caught.value) == str(oracle.value)
        assert "row 1102: non-numeric value 'x' in column 'adj_close'" in str(caught.value)

    def test_cells_are_checked_one_by_one_only_on_the_error_path(self, simple_csv, monkeypatch):
        def called(*args):
            raise AssertionError(f"called with {args}")

        monkeypatch.setattr(dp, "_parse_date", called)
        monkeypatch.setattr(dp, "_parse_float", called)
        assert len(dp.load_frame(simple_csv)) == 3

    @pytest.mark.parametrize("header, schema, repeated", [
        (["date", "adj_close", "sent_0", "sent_0"], None, "sent_0"),
        (["date", "adj_close", "sent_0", "macro_0", "macro_0"], ["macro_0"], "macro_0"),
        (["date", "adj_close", "adj_close", "sent_0"], ["sent_0"], "adj_close"),
        (["date", "adj_close", "sent_0", "date"], ["sent_0"], "date"),
    ])
    def test_repeated_column_that_is_read_names_file_and_column(self, tmp_path, header, schema, repeated):
        path = write_csv(tmp_path / "R.csv", header, [["2021-01-04", "1.0", "0.5", "9.0", "2.0"][: len(header)]])
        with pytest.raises(SchemaError, match=rf"R\.csv: column '{repeated}' appears more than once in the header"):
            dp.load_frame(path, schema=schema)

    @pytest.mark.parametrize("schema", [["sent_0", "sent_0"], ["macro_0", "sent_0", "macro_0"]])
    def test_schema_that_repeats_a_column_names_it(self, tmp_path, schema):
        """The header names each column once; the schema used to select the same one twice."""
        path = write_csv(tmp_path / "R.csv", ["date", "adj_close", "sent_0", "macro_0"],
                         [["2021-01-04", "1.0", "0.5", "9.0"]])
        with pytest.raises(SchemaError, match=rf"schema names column '{schema[0]}' more than once"):
            dp.load_frame(path, schema=schema)

    @pytest.mark.parametrize("day", ["2021-01-04", "20210104"])
    def test_schema_that_selects_the_date_column_matches_oracle(self, tmp_path, day):
        """The date cell is then a feature cell too: ``float`` reads 20210104 and rejects 2021-01-04."""
        path = write_csv(tmp_path / "D.csv", ["date", "adj_close", "sent_0"], [[day, "1.0", "0.5"]])
        try:
            want = load_frame_oracle(path, ["date"])
        except ParseError as exc:
            with pytest.raises(ParseError, match=re.escape(str(exc))):
                dp.load_frame(path, ["date"])
        else:
            got = dp.load_frame(path, ["date"])
            assert got.features.tobytes() == want.features.tobytes() == np.array([[20210104.0]]).tobytes()

    def test_repeated_column_that_is_not_read_is_accepted(self, tmp_path):
        path = write_csv(tmp_path / "R.csv", ["date", "adj_close", "sent_0", "note", "note"],
                         [["2021-01-04", "1.0", "0.5", "x", "y"]])
        frame = dp.load_frame(path, schema=["sent_0"])
        assert frame.feature_names == ["sent_0"] and np.array_equal(frame.features, [[0.5]])

    def test_byte_order_mark_is_skipped(self, tmp_path, simple_csv):
        (tmp_path / "bom").mkdir()
        marked = tmp_path / "bom" / simple_csv.name
        marked.write_bytes(b"\xef\xbb\xbf" + simple_csv.read_bytes())
        want, got = dp.load_frame(simple_csv), dp.load_frame(marked)
        assert (got.stock_id, got.feature_names) == (want.stock_id, want.feature_names)
        assert np.array_equal(got.dates, want.dates)
        assert np.array_equal(got.adj_close, want.adj_close) and np.array_equal(got.features, want.features)

    def test_undecodable_file_names_line_and_byte(self, tmp_path):
        path = tmp_path / "U.csv"
        path.write_bytes(b"date,adj_close\n2021-01-04,1.0\n2021-01-05,caf\xe9\n")
        with pytest.raises(ParseError, match=r"U\.csv: line 3: not UTF-8 text \(byte 0xe9: invalid continuation byte\)"):
            dp.load_frame(path)

    def test_undecodable_file_after_a_byte_order_mark_names_line_and_byte(self, tmp_path):
        path = tmp_path / "U.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,adj_close\n2021-01-04,1.0\n2021-01-05,\xff\xe9\n")
        with pytest.raises(ParseError, match=r"U\.csv: line 3: not UTF-8 text \(byte 0xff: invalid start byte\)"):
            dp.load_frame(path)

    def test_cell_over_the_csv_field_limit_names_line(self, tmp_path):
        path = tmp_path / "L.csv"
        path.write_text("date,adj_close\n2021-01-04,1.0\n2021-01-05," + "2" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(ParseError, match=r"L\.csv: line 3: unreadable CSV \(field larger than field limit"):
            dp.load_frame(path)


class TestFeatureFrame:
    def test_iso_strings_become_days_read_as_load_frame_reads_them(self):
        frame = dp.FeatureFrame("S", ["2021-01-04", " 2021-01-05 ", "20210106"], [1.0, 2.0, 3.0], [],
                                np.zeros((3, 0)))
        assert frame.dates.dtype == "datetime64[D]"
        assert frame.dates.astype(str).tolist() == ["2021-01-04", "2021-01-05", "2021-01-06"]

    @pytest.mark.parametrize("dates, message", [
        (["2021-01-04", "2021-02-30"], r"S: bad date \(day is out of range for month\)"),
        (["2021-01-04", "2021-01"], r"S: bad date \(Invalid isoformat string: '2021-01'\)"),
        (["2021-01-05", "2021-01-04"], r"S: dates not strictly ascending at 2021-01-04"),
        (np.array(["2021-01-04", "NaT"], dtype="datetime64[D]"), r"S: a date is NaT"),
        # days that date.fromisoformat cannot read, so a CSV that write_frame wrote could not be read back
        (np.array(["0000-01-01", "2021-01-04"], dtype="datetime64[D]"),
         r"S: date 0000-01-01 is outside the years 1 to 9999"),
        (np.array(["2021-01-04", "10000-01-01"], dtype="datetime64[D]"),
         r"S: date 10000-01-01 is outside the years 1 to 9999"),
    ], ids=["no-such-day", "month-only", "descending", "not-a-time", "year-0", "year-10000"])
    def test_bad_dates_rejected(self, dates, message):
        with pytest.raises(DataIntegrityError, match=message):
            dp.FeatureFrame("S", dates, [1.0, 2.0], [], np.zeros((2, 0)))

    def test_non_finite_price_rejected(self):
        with pytest.raises(DataIntegrityError, match="adj_close nan on 2022-01-02"):
            make_frame("A", 3, prices=[10.0, np.nan, 11.0])

    def test_non_finite_feature_rejected(self):
        features = np.ones((3, 2))
        features[2, 1] = np.inf
        with pytest.raises(DataIntegrityError, match="non-finite value inf in feature 'price_0' on 2022-01-03"):
            make_frame("A", 3, features=features)


class TestNormalize:
    def test_zero_maps_to_log_epsilon(self):
        got = dp.normalize(np.zeros((1, 1)), 1e-8)
        assert got[0, 0] == pytest.approx(-18.420681, abs=1e-6)

    def test_one_minus_epsilon_maps_to_zero(self):
        got = dp.normalize(np.full((2, 2), 1.0 - 1e-8), 1e-8)
        assert np.allclose(got, 0.0, atol=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        raw = rng.uniform(0, 7, size=(5, 9))
        got = dp.normalize(raw, 1e-8)
        import math

        for i in range(5):
            for j in range(9):
                assert got[i, j] == math.log(raw[i, j] + 1e-8)

    def test_negative_entry_names_feature(self):
        raw = np.array([[0.1, 0.2], [0.3, -0.4]])
        with pytest.raises(PreprocessingError, match="tweet_count"):
            dp.normalize(raw, feature_names=["sent_0", "tweet_count"])

    def test_preserves_elementwise_order(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 5, size=(4, 6))
        b = a + rng.uniform(0.01, 1, size=(4, 6))
        na, nb = dp.normalize(a), dp.normalize(b)
        assert np.all(nb > na)


def labels(p_prev, p_t, **kwargs):
    """Movement and volatility label of one price pair."""
    y_m, y_v = dp.label_prices([p_prev], [p_t], **kwargs)
    return int(y_m[0]), int(y_v[0])


class TestLabels:
    def test_movement_examples(self):
        assert labels(100, 101)[0] == 1
        assert labels(100, 100.3)[0] == dp.ABSTAIN
        assert labels(100, 99.0)[0] == 0

    def test_movement_boundaries_belong_to_directional_classes(self):
        assert labels(100, 100.5)[0] == 1
        assert labels(100, 99.5)[0] == 0

    @pytest.mark.parametrize("kwargs, setting", [
        ({"outlier_threshold": float("nan")}, "outlier_threshold"),
        ({"outlier_threshold": float("inf")}, "outlier_threshold"),
        ({"dead_zone": (float("nan"), 0.005)}, "dead_zone"),
        ({"dead_zone": (-0.005, float("inf"))}, "dead_zone"),
    ])
    def test_non_finite_setting_is_config_error_naming_it(self, kwargs, setting):
        """A nan threshold used to label every window non-volatile, and an infinite edge to drop a class."""
        with pytest.raises(ConfigError, match=setting):
            labels(100, 106, **kwargs)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            labels(0.0, 1.0)
        with pytest.raises(DomainError):
            labels(-5.0, 1.0)

    def test_volatility_examples(self):
        assert labels(100, 106)[1] == 1
        assert labels(100, 95.0)[1] == 1  # |-5%| sits exactly on the closed boundary
        assert labels(100, 102)[1] == 0

    def test_golden_fixture_matches_rational_oracle(self):
        prices = [float(p) for p in GOLDEN_PRICES]
        expect_m, expect_v = golden_label_oracle(GOLDEN_PRICES, dp.ABSTAIN)
        got_m, got_v = (y.tolist() for y in dp.label_prices(prices[:-1], prices[1:]))
        assert got_m == expect_m
        assert got_v == expect_v
        # fixture exercises every outcome
        assert {0, 1, dp.ABSTAIN} <= set(got_m)
        assert {0, 1} <= set(got_v)


def make_frame(stock_id, n_days, seed=0, start_day=1, prices=None, features=None):
    rng = np.random.default_rng(seed)
    return dp.FeatureFrame(
        stock_id=stock_id,
        dates=np.datetime64("2022-01-01") + np.arange(start_day - 1, start_day - 1 + n_days),
        adj_close=rng.uniform(50, 150, size=n_days) if prices is None else prices,
        feature_names=["sent_0", "price_0"],
        features=rng.uniform(0, 1, size=(n_days, 2)) if features is None else features,
    )


def window_oracle(frame, window_len, dead_zone=dp.DEFAULT_DEAD_ZONE,
                  outlier_threshold=dp.DEFAULT_OUTLIER_THRESHOLD, epsilon=dp.DEFAULT_EPSILON):
    """Per-window reference: slice, log, and label each price pair in Python floats."""
    lo, hi = dead_zone
    out = []
    for t in range(window_len, len(frame)):
        raw = frame.features[t - window_len : t, :].T
        p_prev, p_t = float(frame.adj_close[t - 1]), float(frame.adj_close[t])
        r = (p_t - p_prev) / p_prev
        y_m = dp.ABSTAIN if lo < r < hi else (1 if r >= hi else 0)
        y_v = 1 if abs(r) >= outlier_threshold else 0
        out.append((np.log(raw + epsilon), y_m, y_v, str(frame.dates[t])))
    return out


class TestWindow:
    def test_eleven_days_window_ten_gives_one_sample(self):
        samples = dp.window(make_frame("A", 11), 10)
        assert len(samples) == 1
        assert samples[0].x.shape == (2, 10)

    def test_ten_days_window_ten_gives_zero_samples(self):
        samples = dp.window(make_frame("A", 10), 10)
        assert len(samples) == 0 and list(samples) == []

    @pytest.mark.parametrize("epsilon, message", [
        (-1.0, "epsilon must be > 0, got -1.0"), (0.0, "epsilon must be > 0, got 0.0"),
        (float("nan"), "'epsilon' is nan, expected a finite number"),
        (float("inf"), "'epsilon' is inf, expected a finite number"),
    ], ids=["-1.0", "0.0", "nan", "inf"])
    def test_epsilon_must_be_finite_and_positive(self, epsilon, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dp.window(make_frame("A", 12), 10, epsilon=epsilon)

    def test_sample_count(self):
        assert len(dp.window(make_frame("A", 25), 10)) == 15

    def test_no_temporal_leakage_and_normalized_content(self):
        frame = make_frame("A", 14, seed=3)
        samples = dp.window(frame, 5)
        for k, sample in enumerate(samples):
            t = 5 + k
            assert sample.target_date == str(frame.dates[t])
            expected = dp.normalize(frame.features[t - 5 : t].T, dp.DEFAULT_EPSILON)
            assert np.array_equal(sample.x, expected)
            # all feature days strictly before the target day
            assert str(frame.dates[t - 1]) < sample.target_date

    def test_labels_follow_price_pair(self):
        frame = make_frame("A", 12, seed=4)
        for k, sample in enumerate(dp.window(frame, 10)):
            t = 10 + k
            assert (sample.y_m, sample.y_v) == labels(frame.adj_close[t - 1], frame.adj_close[t])

    def test_windows_are_read_only(self):
        sample = dp.window(make_frame("A", 12), 10)[0]
        with pytest.raises(ValueError):
            sample.x[0, 0] = 1.0


class TestWindowMatchesPerWindowOracle:
    def check(self, frame, window_len, **kwargs):
        samples = dp.window(frame, window_len, **kwargs)
        expected = window_oracle(frame, window_len, **kwargs)
        assert len(samples) == len(expected) == len(frame) - window_len
        for sample, (x, y_m, y_v, target_date) in zip(samples, expected):
            assert np.array_equal(sample.x, x)
            assert (sample.y_m, sample.y_v, sample.target_date) == (y_m, y_v, target_date)
            assert type(sample.y_m) is int and type(sample.y_v) is int

    @pytest.mark.parametrize("seed, window_len", [(0, 1), (1, 5), (2, 10), (3, 30)])
    def test_synth_frames(self, seed, window_len):
        self.check(generate(SynthSpec(n_days=400, n_features=8, seed=seed)), window_len)

    def test_synth_frame_with_custom_zones(self):
        frame = generate(SynthSpec(n_days=300, n_features=4, seed=5))
        self.check(frame, 7, dead_zone=(-0.01, 0.002), outlier_threshold=0.02, epsilon=1e-3)

    @pytest.mark.parametrize("window_len", [1, 4])
    def test_golden_prices(self, window_len):
        n = len(GOLDEN_PRICES)
        frame = make_frame("GOLD", n, seed=6, prices=[float(p) for p in GOLDEN_PRICES],
                           features=np.random.default_rng(6).uniform(0, 3, size=(n, 2)))
        self.check(frame, window_len)


class TestSampleSet:
    def test_columns_gather_and_records_agree(self):
        samples = dp.window(make_frame("A", 16, seed=2), 10)
        x = np.stack([samples.days[s : s + 10].T for s in samples.start])  # each row's window, read from the columns
        assert x.shape == (6, 2, 10) and samples.y_m.dtype == samples.y_v.dtype == np.int8
        records = list(samples)
        assert all(np.array_equal(x[i], r.x) and np.array_equal(samples[i].x, r.x) for i, r in enumerate(records))
        assert [r.y_m for r in records] == samples.y_m.tolist() and samples[-1][1:] == records[5][1:]
        assert [type(v) for v in samples[0][1:]] == [int, int, str, str]

    def test_slices_and_parts_of_one_split_share_days(self):
        split = dp.chrono_split(dp.window(make_frame("A", 20), 10), 0.6, 0.2)
        whole = split.train + split.validation + split.test
        head = whole[:3]
        assert isinstance(head, dp.SampleSet) and len(head) == 3
        assert head.days is whole.days is split.train.days is split.test.days
        assert np.array_equal(stack_windows(whole), np.concatenate([stack_windows(p) for p in split.splits().values()]))
        assert whole.target_dates.tolist() == sorted(whole.target_dates.tolist())

    def test_sets_over_different_days_do_not_add(self):
        a, b = dp.window(make_frame("A", 14), 5), dp.window(make_frame("B", 14), 5)
        with pytest.raises(ValueError, match="same days"):
            a + b
        joined = dp.SampleSet.concat([a, b])
        assert not joined.days.flags.writeable
        assert np.array_equal(stack_windows(joined), np.concatenate([stack_windows(a), stack_windows(b)]))
        assert joined.stock_ids.tolist() == ["A"] * 9 + ["B"] * 9


class TestChronoSplit:
    def test_fraction_counts(self):
        samples = dp.window(make_frame("A", 20), 10)
        assert len(samples) == 10
        split = dp.chrono_split(samples, 0.6, 0.2)
        assert (len(split.train), len(split.validation), len(split.test)) == (6, 2, 2)

    def test_too_small_split_is_config_error(self):
        samples = dp.window(make_frame("A", 20), 10)
        with pytest.raises(ConfigError, match="empty split"):
            dp.chrono_split(samples, 0.95, 0.04)

    def test_bad_fractions(self):
        samples = dp.window(make_frame("A", 20), 10)
        for train_frac, valid_frac in [(0.0, 0.2), (0.5, 0.5), (0.9, 0.2), (-0.1, 0.3)]:
            with pytest.raises(ConfigError):
                dp.chrono_split(samples, train_frac, valid_frac)

    @pytest.mark.parametrize("train_frac, valid_frac, message", [
        (float("nan"), 0.2, "'train_frac' is nan, expected a finite number"),
        (0.6, float("nan"), "'valid_frac' is nan, expected a finite number"),
        (float("inf"), 0.2, "'train_frac' is inf, expected a finite number"),
        (0.6, float("-inf"), "'valid_frac' is -inf, expected a finite number"),
    ], ids=["nan-0.2", "0.6-nan", "inf-0.2", "0.6--inf"])
    def test_non_finite_fraction_is_config_error_naming_it(self, train_frac, valid_frac, message):
        """A nan fraction used to end in int()'s ValueError."""
        samples = dp.window(make_frame("A", 20), 10)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dp.chrono_split(samples, train_frac, valid_frac)

    def test_multi_stock_dates_never_straddle(self):
        frames = [make_frame(sid, 24, seed=i) for i, sid in enumerate(["AAA", "BBB", "CCC"])]
        samples = dp.SampleSet.concat([dp.window(f, 10) for f in frames])
        split = dp.chrono_split(samples, 0.6, 0.2)
        max_train = max(s.target_date for s in split.train)
        min_valid = min(s.target_date for s in split.validation)
        max_valid = max(s.target_date for s in split.validation)
        min_test = min(s.target_date for s in split.test)
        assert max_train < min_valid
        assert max_valid < min_test
        train_dates = {s.target_date for s in split.train}
        valid_dates = {s.target_date for s in split.validation}
        test_dates = {s.target_date for s in split.test}
        assert not (train_dates & valid_dates) and not (valid_dates & test_dates) and not (train_dates & test_dates)


def dated_frame(stock_id, n_days, first_day, seed):
    """A frame of ``n_days`` consecutive calendar days from ``first_day`` days after 2022-01-01."""
    rng = np.random.default_rng(seed)
    first = date(2022, 1, 1) + timedelta(days=first_day)
    return dp.FeatureFrame(stock_id, [(first + timedelta(days=i)).isoformat() for i in range(n_days)],
                           rng.uniform(50, 150, size=n_days), ["sent_0", "price_0"],
                           rng.uniform(0, 1, size=(n_days, 2)))


def split_oracle(frames, window_len, train_frac, valid_frac):
    """Per-sample reference split: window_oracle per frame, sorted by (date, stock), each
    cut moved one row at a time past rows that share the date before it."""
    rows = [(day, f.stock_id, x, y_m, y_v) for f in frames for x, y_m, y_v, day in window_oracle(f, window_len)]
    rows.sort(key=lambda r: (r[0], r[1]))
    n = len(rows)

    def advance(cut):
        while 0 < cut < n and rows[cut][0] == rows[cut - 1][0]:
            cut += 1
        return cut

    cut1 = advance(int(n * train_frac))
    cut2 = advance(max(int(n * (train_frac + valid_frac)), cut1))
    moved = cut1 != int(n * train_frac) or cut2 != max(int(n * (train_frac + valid_frac)), cut1)
    return {"train": rows[:cut1], "validation": rows[cut1:cut2], "test": rows[cut2:]}, moved


class TestBuildDatasetMatchesPerSampleOracle:
    # unequal lengths and offset first days: the stocks share most dates but not all
    FRAMES = [("ZZZ", 90, 0), ("AAA", 61, 7), ("MMM", 120, 3), ("BBB", 44, 30), ("SHORT", 5, 12)]

    @pytest.mark.parametrize("window_len, train_frac, valid_frac",
                             [(5, 0.6, 0.2), (1, 0.7, 0.15), (10, 0.5, 0.3), (3, 0.33, 0.33)])
    def test_windows_labels_ids_dates_and_boundaries(self, window_len, train_frac, valid_frac):
        frames = [dated_frame(sid, n, first, seed) for seed, (sid, n, first) in enumerate(self.FRAMES)]
        split, warnings = dp.build_dataset(frames, window_len, train_frac=train_frac, valid_frac=valid_frac)
        expected, moved = split_oracle(frames, window_len, train_frac, valid_frac)
        skipped = [] if window_len < 5 else [f"frame SHORT: too short for window {window_len}, skipped"]
        assert moved and warnings == skipped
        for name, part in split.splits().items():
            rows = expected[name]
            assert len(part) == len(rows)
            for record, (day, stock_id, x, y_m, y_v) in zip(part, rows):
                assert np.array_equal(record.x, x)
                assert (record.y_m, record.y_v, record.stock_id, record.target_date) == (y_m, y_v, stock_id, day)
            assert split.boundaries[name] == [rows[0][0], rows[-1][0]]
        whole = split.train + split.validation + split.test
        assert whole.days is split.train.days is split.validation.days is split.test.days
        assert not whole.days.flags.writeable


class TestAblationTaxonomy:
    def test_categories(self):
        assert dp.feature_category("sent_3") == "sentiment"
        assert dp.feature_category("macro_cpi") == "macro"
        assert dp.feature_category("price_level") == "price"
        assert dp.feature_category("adj_close") == "price"
        assert dp.feature_category("trend_gdp") == "trend"
        assert dp.feature_category("tweet_count") == "tweet"
        assert dp.feature_category("mystery") == "other"

    def test_mode_subsets(self):
        names = ["sent_0", "sent_1", "macro_0", "price_0", "trend_0"]
        assert dp.ablation_feature_indices(names, "full") == [0, 1, 2, 3, 4]
        assert dp.ablation_feature_indices(names, "p") == [3]
        assert dp.ablation_feature_indices(names, "s") == [0, 1]
        assert dp.ablation_feature_indices(names, "wo-m") == [0, 1, 3, 4]
        assert dp.ablation_feature_indices(names, "WO_M") == [0, 1, 3, 4]

    def test_empty_subset_is_config_error(self):
        with pytest.raises(ConfigError):
            dp.ablation_feature_indices(["macro_0"], "s")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            dp.normalize_ablation_mode("everything")


def dataset_text(window=10, **meta):
    """A dataset file's text with two 26-day frames, with the given settings replacing valid ones."""
    settings = {"dead_zone": [-0.005, 0.005], "outlier_threshold": 0.05, "epsilon": 1e-8,
                "train_frac": 0.7, "valid_frac": 0.15, **meta}
    frames = [make_frame("AAA", 26), make_frame("BBB", 26, seed=1)]
    return json.dumps({"kind": "alertanet-dataset", "format_version": 3, "meta": settings,
                       "feature_names": frames[0].feature_names, "window": window,
                       "frames": [{"stock_id": f.stock_id, "dates": ",".join(f.dates.astype(str).tolist()),
                                   "adj_close": serialize.encode_array(f.adj_close),
                                   "features": serialize.encode_array(f.features)} for f in frames]})


@pytest.mark.parametrize("record", [
    {"dtype": "<f8", "shape": [1], "data": "AAAAAAAAAA=="},  # 7 bytes: not a whole float64
    {"dtype": "<f8", "shape": [2], "data": "AAAAAAAAAAA="},  # one float64 for two entries
    {"dtype": "<f8", "shape": [-1, -1], "data": "AAAAAAAAAAA="},
    {"dtype": "<f8", "shape": [float("-inf"), 1], "data": "AAAAAAAAAAA="},  # int() raised OverflowError
    {"dtype": "<f8", "shape": [1.5], "data": "AAAAAAAAAAA="},  # int() read it as 1
    {"dtype": "<f8", "shape": [1]},
    {"dtype": "<f4", "shape": [1], "data": ""},
    5,
])
def test_decode_array_raises_parse_error_for_every_malformed_record(record):
    with pytest.raises(ParseError):
        serialize.decode_array(record)


class TestDatasetRoundTrip:
    @pytest.mark.parametrize(
        "settings, short_frame",
        [
            ({"window_len": 10, "train_frac": 0.6, "valid_frac": 0.2}, False),
            ({"window_len": 7, "dead_zone": (-0.01, 0.002), "outlier_threshold": 0.03, "epsilon": 1e-4,
              "train_frac": 0.5, "valid_frac": 0.3}, True),
        ],
        ids=["defaults", "custom-settings-short-frame"],
    )
    def test_save_load_bitwise(self, tmp_path, caplog, settings, short_frame):
        frames = [make_frame(sid, 26, seed=i) for i, sid in enumerate(["AAA", "BBB"])]
        if short_frame:
            frames.append(make_frame("SHORT", 6, seed=9))
        split, warnings = dp.build_dataset(frames, **settings)
        assert len(warnings) == short_frame
        assert [f.stock_id for f in split.frames] == ["AAA", "BBB"]
        split.meta["manifest_file"] = "manifest.json"  # as `prepare` adds it
        path = tmp_path / "dataset.json"
        dp.save_dataset(path, split)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="alertanet.data"):
            loaded = dp.load_dataset(path)
        assert caplog.records == []
        assert loaded.feature_names == split.feature_names
        assert loaded.window == split.window
        assert loaded.boundaries == split.boundaries
        assert loaded.meta == split.meta
        for name in ("train", "validation", "test"):
            original, restored = split.splits()[name], loaded.splits()[name]
            assert len(original) == len(restored)
            for a, b in zip(original, restored):
                assert np.array_equal(a.x, b.x)
                assert (a.y_m, a.y_v, a.stock_id, a.target_date) == (b.y_m, b.y_v, b.stock_id, b.target_date)

    def test_other_version_is_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        serialize.write_json(path, {"format_version": 1, "kind": "alertanet-dataset", "splits": {}})
        with pytest.raises(ParseError, match=r"old\.json: dataset format version 1 .*rerun `alertanet prepare`"):
            dp.load_dataset(path)

    def test_version_2_file_is_rejected_with_the_rerun_message(self, tmp_path):
        """Version 2 stored a frame's dates as a list of JSON strings."""
        path = tmp_path / "v2.json"
        path.write_text(dataset_text().replace('"format_version": 3', '"format_version": 2'), encoding="utf-8")
        with pytest.raises(ParseError, match=r"v2\.json: dataset format version 2 is not supported "
                                             r"\(this version reads 3.*rerun `alertanet prepare`"):
            dp.load_dataset(path)

    def test_dates_are_one_iso_string_per_frame(self, tmp_path):
        split, _ = dp.build_dataset([make_frame("AAA", 26)], window_len=10, train_frac=0.6, valid_frac=0.2)
        dp.save_dataset(tmp_path / "dataset.json", split)
        stored = serialize.read_json(tmp_path / "dataset.json")["frames"][0]["dates"]
        assert stored == ",".join((date(2022, 1, 1) + timedelta(days=i)).isoformat() for i in range(26))

    @pytest.mark.parametrize("bad", ["2022-01-32", "20220105", "2022-1-05", "2022-01-05T00", " 2022-01-05", "",
                                     "x"])
    def test_damaged_date_string_is_parse_error_naming_file(self, tmp_path, bad):
        """numpy would read 20220105 as a year and 2022-1-05 as a day; a stored date must be its own ISO form."""
        path = tmp_path / "dataset.json"
        path.write_text(dataset_text().replace("2022-01-05", bad, 1), encoding="utf-8")
        named = rf"""['"]{re.escape(bad)}['"]"""  # in the message of this module or of numpy
        with pytest.raises(ParseError, match=rf"dataset\.json: malformed dataset \(.*{named}.*rerun `alertanet prepare`"):
            dp.load_dataset(path)

    def test_stored_year_0_fails_naming_file_and_date(self, tmp_path):
        """numpy reads year 0, and the stored-date pattern admits any four-digit year; the frame check rejects it."""
        path = tmp_path / "dataset.json"
        text = dataset_text()
        assert '"dates": "2022-01-01,' in text
        path.write_text(text.replace('"dates": "2022-01-01,', '"dates": "0000-01-01,', 1), encoding="utf-8")
        with pytest.raises(DataIntegrityError,
                           match=r"dataset\.json: AAA: date 0000-01-01 is outside the years 1 to 9999"):
            dp.load_dataset(path)

    def test_stored_nan_price_fails_like_a_bad_csv(self, tmp_path):
        split, _ = dp.build_dataset([make_frame("AAA", 26), make_frame("BBB", 26, seed=1)], window_len=10,
                                    train_frac=0.6, valid_frac=0.2)
        path = tmp_path / "dataset.json"
        dp.save_dataset(path, split)
        obj = serialize.read_json(path)
        prices = serialize.decode_array(obj["frames"][1]["adj_close"])
        prices[3] = np.nan
        obj["frames"][1]["adj_close"] = serialize.encode_array(prices)
        serialize.write_json(path, obj)
        with pytest.raises(DataIntegrityError, match=r"dataset\.json: BBB: adj_close nan on 2022-01-04"):
            dp.load_dataset(path)

    @pytest.mark.parametrize("keys", [
        ("meta",), ("meta", "dead_zone"), ("meta", "outlier_threshold"), ("meta", "epsilon"),
        ("meta", "train_frac"), ("meta", "valid_frac"), ("window",), ("feature_names",), ("frames",),
        ("frames", 1, "stock_id"), ("frames", 1, "dates"), ("frames", 1, "adj_close"), ("frames", 1, "features"),
    ], ids=lambda keys: "/".join(map(str, keys)))
    def test_missing_key_is_parse_error_naming_file_and_key(self, tmp_path, keys):
        split, _ = dp.build_dataset([make_frame("AAA", 26), make_frame("BBB", 26, seed=1)], window_len=10,
                                    train_frac=0.6, valid_frac=0.2)
        path = tmp_path / "dataset.json"
        dp.save_dataset(path, split)
        obj = serialize.read_json(path)
        owner = obj
        for key in keys[:-1]:
            owner = owner[key]
        del owner[keys[-1]]
        serialize.write_json(path, obj)
        with pytest.raises(ParseError, match=rf"dataset\.json: missing key '{keys[-1]}'"):
            dp.load_dataset(path)

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "not a dataset file"),
        ('{"kind": "alertanet-dataset", "format_version": 3, "meta": {}, "feature_names": [], "window": "ten"}',
         "malformed dataset"),
        (dataset_text(dead_zone=[0.01]), r"malformed dataset \('dead_zone' is \[0.01\]"),
        (dataset_text(train_frac="0.7"), r"malformed dataset \('train_frac' is '0.7'"),
        (dataset_text(outlier_threshold=None), r"malformed dataset \('outlier_threshold' is None"),
        (dataset_text(window=8.5), r"malformed dataset \('window' is 8.5"),
        (dataset_text(dead_zone=[0.01, -0.01]), r"malformed dataset \(dead zone must satisfy lo < hi"),
        (dataset_text(train_frac=0.9, valid_frac=0.5), r"malformed dataset \(fractions must be positive"),
        (dataset_text(window=0), r"malformed dataset \(window must be >= 1, got 0\);"),
        (dataset_text(epsilon=-1.0), r"malformed dataset \(epsilon must be > 0, got -1\.0\);"),
        (dataset_text(outlier_threshold=float("nan")),
         r"malformed dataset \('outlier_threshold' is nan, expected a finite number\);"),
        (dataset_text(train_frac=float("nan")),
         r"malformed dataset \('train_frac' is nan, expected a finite number\);"),
    ], ids=["not-an-object", "window-not-an-int", "dead-zone-one-number", "train-frac-a-string",
            "outlier-null", "window-a-float", "dead-zone-reversed", "fractions-sum-above-1", "window-0",
            "epsilon-negative", "outlier-nan", "train-frac-nan"])
    def test_malformed_file_is_parse_error_naming_file(self, tmp_path, text, message):
        path = tmp_path / "dataset.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=rf"dataset\.json: {message}"):
            dp.load_dataset(path)

    def test_stored_negative_feature_names_file(self, tmp_path):
        """A negative stored feature used to fail with a message that did not name the file."""
        obj = json.loads(dataset_text())
        features = serialize.decode_array(obj["frames"][1]["features"])
        features[3, 0] = -1.0
        obj["frames"][1]["features"] = serialize.encode_array(features)
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(PreprocessingError, match=r"dataset\.json: negative entry in feature sent_0; "):
            dp.load_dataset(path)

    def test_save_without_frames_is_usage_error(self, tmp_path):
        split = dp.chrono_split(dp.window(make_frame("A", 20), 10), 0.6, 0.2)
        path = tmp_path / "dataset.json"
        with pytest.raises(UsageError, match="no source frames"):
            dp.save_dataset(path, split)
        assert not path.exists()

    def test_build_dataset_warns_on_short_frame(self):
        frames = [make_frame("AAA", 26), make_frame("SHORT", 5, seed=9)]
        split, warnings = dp.build_dataset(frames, window_len=10, train_frac=0.6, valid_frac=0.2)
        assert len(warnings) == 1 and "SHORT" in warnings[0]

    def test_build_dataset_rejects_mismatched_schemas(self):
        a = make_frame("AAA", 15)
        b = make_frame("BBB", 15)
        b.feature_names = ["sent_0", "macro_9"]
        with pytest.raises(SchemaError):
            dp.build_dataset([a, b], window_len=5)

    def test_build_dataset_requires_frames(self):
        with pytest.raises(ConfigError, match="no input frames"):
            dp.build_dataset([], window_len=5)
