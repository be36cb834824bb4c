import json
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import alertanet
from alertanet import cli
from alertanet import training as tr
from alertanet.errors import AlertaNetError
from alertanet.serialize import read_json, sha256_file

from testutil import BAD_CHECKPOINTS, bad_checkpoint


def run_cli(*argv):
    return cli.run([str(a) for a in argv])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "raw"
    assert run_cli("synth", "--out", out, "--stocks", "2", "--days", "160",
                   "--features", "6", "--seed", "3") == 0
    return out


@pytest.fixture
def prepared(tmp_path, synth_dir):
    out = tmp_path / "prep"
    assert run_cli("prepare", "--data", synth_dir, "--out", out, "--window", "8",
                   "--train-frac", "0.6", "--valid-frac", "0.2") == 0
    return out / "dataset.json"


@pytest.fixture
def criterion8_prepared(tmp_path):
    """The dataset of acceptance criterion 8."""
    raw, prep = tmp_path / "raw8", tmp_path / "prep8"
    assert run_cli("synth", "--out", raw, "--stocks", "2", "--days", "220",
                   "--features", "6", "--seed", "9") == 0
    assert run_cli("prepare", "--data", raw, "--out", prep, "--window", "8",
                   "--train-frac", "0.6", "--valid-frac", "0.2") == 0
    return prep / "dataset.json"


class TestSynthCommand:
    def test_writes_frames_and_manifest(self, synth_dir):
        files = sorted(p.name for p in synth_dir.iterdir())
        assert files == ["SYN00.csv", "SYN01.csv", "manifest.json"]
        manifest = read_json(synth_dir / "manifest.json")
        assert manifest["command"] == "synth"
        assert manifest["outputs"] == ["SYN00.csv", "SYN01.csv"]
        assert manifest["seed"] == 3

    def test_non_finite_base_price_fails_naming_it(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "raw", "--days", "30", "--base-price", "nan") == 1
        err = capsys.readouterr().err
        assert err == "error: synth spec 'base_price' is nan, expected a finite number\n"

    def test_base_price_that_overflows_fails_naming_it(self, tmp_path, capsys):
        """It used to print numpy's overflow warning, then an error naming SYN00, not the setting."""
        assert run_cli("synth", "--out", tmp_path / "raw", "--base-price", "1e308") == 1
        assert capsys.readouterr().err == (
            "error: base_price 1e+308 overflows float64 within n_days 1200; lower either\n")
        assert not (tmp_path / "raw").exists()
        assert run_cli("synth", "--out", tmp_path / "raw30", "--base-price", "1e308", "--days", "30") == 0
        assert (tmp_path / "raw30" / "SYN00.csv").is_file()

    def test_too_few_features_fails_naming_the_bound(self, tmp_path, capsys):
        """It used to ask for explicit signal weights, which no flag can pass."""
        out = tmp_path / "raw"
        assert run_cli("synth", "--out", out, "--days", "30", "--features", "2") == 1
        assert capsys.readouterr().err == "error: n_features must be >= 3, got 2\n"
        assert not out.exists()


class TestNegativeSeed:
    """``--seed -1`` used to reach ``np.random.default_rng`` and print its traceback."""

    def test_synth(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "raw", "--days", "30", "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_train(self, tmp_path, prepared, capsys):
        assert run_cli("train", "--dataset", prepared, "--out", tmp_path / "train", "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_ablate_fails_before_its_workers_start(self, tmp_path, prepared, capsys, monkeypatch):
        def train(*args):
            raise AlertaNetError("train was called")

        monkeypatch.setattr(cli, "train", train)  # forked workers inherit the patch
        assert run_cli("ablate", "--dataset", prepared, "--out", tmp_path / "ablate", "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["synth", "train", "ablate", "baseline"])
    def test_makes_no_out_directory(self, tmp_path, prepared, capsys, command):
        source = ("--days", "30") if command == "synth" else ("--dataset", prepared)
        out = tmp_path / f"{command}_out"
        assert run_cli(command, *source, "--out", out, "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestPrepareCommand:
    def test_outputs_dataset_and_split_manifest(self, tmp_path, synth_dir, prepared):
        out = prepared.parent
        manifest = read_json(out / "manifest.json")
        assert set(manifest["inputs"]) == {"SYN00.csv", "SYN01.csv"}
        split_manifest = read_json(out / "split_manifest.json")
        counts = split_manifest["counts"]
        assert counts["train"]["samples"] > counts["test"]["samples"] > 0
        for part in counts.values():
            total = part["movement_up"] + part["movement_down"] + part["movement_abstain"]
            assert total == part["samples"]
        assert split_manifest["manifest_file"] == "manifest.json"

    def test_dataset_smaller_than_its_csvs(self, criterion8_prepared):
        """Each day is stored once, not once per window that reads it."""
        csv_bytes = sum(p.stat().st_size for p in (criterion8_prepared.parent.parent / "raw8").glob("*.csv"))
        assert 0 < criterion8_prepared.stat().st_size < csv_bytes

    def test_empty_dir_fails_with_message(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run_cli("prepare", "--data", empty, "--out", tmp_path / "o") == 1
        assert "no input frames" in capsys.readouterr().err

    def test_dir_without_csv_makes_no_out_directory(self, tmp_path, capsys):
        empty, out = tmp_path / "none", tmp_path / "o"
        empty.mkdir()
        (empty / "notes.txt").write_text("no frames here")
        assert run_cli("prepare", "--data", empty, "--out", out) == 1
        assert capsys.readouterr().err == f"error: no input frames: no .csv files under {empty}\n"
        assert not out.exists()

    def test_short_frame_warns_but_continues(self, tmp_path, synth_dir, capsys):
        (synth_dir / "TINY.csv").write_text(
            "date,adj_close," + ",".join(f"sent_{i}" for i in range(3))
            + "," + ",".join(f"macro_{i}" for i in range(2)) + ",price_0\n"
            "2020-01-01,100,0.1,0.2,0.3,0.4,0.5,1.0\n"
            "2020-01-02,101,0.1,0.2,0.3,0.4,0.5,1.01\n"
        )
        out = tmp_path / "prep2"
        assert run_cli("prepare", "--data", synth_dir, "--out", out, "--window", "8",
                       "--train-frac", "0.6", "--valid-frac", "0.2") == 0
        err = capsys.readouterr().err
        assert "TINY" in err and "warning" in err
        manifest = read_json(out / "manifest.json")
        assert any("TINY" in w for w in manifest["warnings"])

    def test_short_frame_warned_once_on_stderr(self, tmp_path, synth_dir):
        """In a child process, so that a log record reaching stderr would show."""
        (synth_dir / "TINY.csv").write_text(
            "date,adj_close,sent_0,sent_1,sent_2,macro_0,macro_1,price_0\n"
            "2020-01-01,100,0.1,0.2,0.3,0.4,0.5,1.0\n"
        )
        src = str(Path(alertanet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "alertanet.cli", "prepare", "--data", str(synth_dir),
                               "--out", str(tmp_path / "prep2"), "--window", "8", "--train-frac", "0.6",
                               "--valid-frac", "0.2"], env=env, check=True, capture_output=True, text=True)
        assert done.stderr.count("TINY") == 1

    @pytest.mark.parametrize("epsilon", ["-1", "0"])
    def test_nonpositive_epsilon_fails_without_a_dataset(self, tmp_path, synth_dir, capsys, epsilon):
        out = tmp_path / "prep_eps"
        assert run_cli("prepare", "--data", synth_dir, "--out", out, "--window", "8",
                       "--epsilon", epsilon) == 1
        assert "epsilon" in capsys.readouterr().err
        assert not (out / "dataset.json").exists()

    def test_dead_zone_without_0_fails_naming_both_edges(self, tmp_path, synth_dir, capsys):
        """It used to exit 0 and label every training window "down"."""
        out = tmp_path / "prep_zone"
        assert run_cli("prepare", "--data", synth_dir, "--out", out, "--dead-zone", "1e300", "1e301") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: dead zone must contain 0 (lo <= 0 <= hi), got lo=1e+300 and hi=1e+301"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, values, label, classes", [
        ("--outlier", ["1e-300"], "volatility", ["212 volatile, 0 calm", "46 volatile, 0 calm", "46 volatile, 0 calm"]),
        ("--dead-zone", ["-1000000", "1000000"], "movement", ["0 up, 0 down"] * 3),
    ])
    def test_split_of_one_label_class_warns_naming_the_setting(self, tmp_path, synth_dir, capsys, flag, values,
                                                                label, classes):
        """Each run used to exit 0 with ``"warnings": []``: every window volatile, or every one abstaining."""
        out = tmp_path / "prep_one_class"
        assert run_cli("prepare", "--data", synth_dir, "--out", out, "--window", "8", flag, *values) == 0
        want = [f"{name} split: the {label} labels hold fewer than two classes ({shown}); check {flag}"
                for name, shown in zip(["train", "validation", "test"], classes)]
        assert read_json(out / "manifest.json")["warnings"] == want
        assert capsys.readouterr().err.splitlines() == [f"warning: {message}" for message in want]

    def test_negative_dead_zone_edge_is_read_in_decimal_form(self, tmp_path, synth_dir, capsys):
        """argparse reads ``-5e-3`` as a flag, and the help text says to write ``-0.005``."""
        out = tmp_path / "prep_decimal"
        assert run_cli("prepare", "--data", synth_dir, "--out", out, "--window", "8",
                       "--dead-zone", "-0.005", "0.005") == 0
        assert read_json(out / "manifest.json")["config"]["dead_zone"] == [-0.005, 0.005]
        with pytest.raises(SystemExit) as exc:
            run_cli("prepare", "--help")
        assert exc.value.code == 0
        assert "decimal form (-0.005)" in " ".join(capsys.readouterr().out.split())

    def test_undecodable_csv_fails_naming_file_and_line(self, tmp_path, synth_dir, capsys):
        (synth_dir / "LATIN1.csv").write_bytes(b"date,adj_close,sent_0\n2020-01-01,1.0,0.5\n2020-01-02,1.0,caf\xe9\n")
        out = tmp_path / "prep_bad"
        assert run_cli("prepare", "--data", synth_dir, "--out", out, "--window", "8") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "LATIN1.csv: line 3: not UTF-8 text (byte 0xe9" in err
        assert not (out / "dataset.json").exists()

    def test_oversized_cell_fails_naming_file_and_line(self, tmp_path, synth_dir, capsys):
        (synth_dir / "HUGE.csv").write_text("date,adj_close,sent_0\n2020-01-01,1.0," + "1" * 131_073 + "\n")
        out = tmp_path / "prep_huge"
        assert run_cli("prepare", "--data", synth_dir, "--out", out, "--window", "8") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "HUGE.csv: line 2: unreadable CSV (field larger than field limit (131072))" in err
        assert not (out / "dataset.json").exists()

    def test_repeated_feature_column_fails_naming_file_and_column(self, tmp_path, synth_dir, capsys):
        (synth_dir / "TWICE.csv").write_text("date,adj_close,sent_0,sent_0\n2020-01-01,1.0,0.5,9.0\n")
        out = tmp_path / "prep_twice"
        assert run_cli("prepare", "--data", synth_dir, "--out", out, "--window", "8") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "TWICE.csv: column 'sent_0' appears more than once in the header" in err
        assert not (out / "dataset.json").exists()

    @pytest.mark.parametrize("flag, value, setting", [
        ("--outlier", "nan", "outlier_threshold"), ("--outlier", "inf", "outlier_threshold"),
        ("--train-frac", "nan", "train_frac"), ("--dead-zone", "nan", "dead_zone"),
    ])
    def test_non_finite_setting_fails_naming_it(self, tmp_path, synth_dir, capsys, flag, value, setting):
        """``--outlier nan`` used to label every window non-volatile, ``--train-frac nan`` to print a traceback."""
        out = tmp_path / "prep_nan"
        values = [value, "0.005"] if flag == "--dead-zone" else [value]
        assert run_cli("prepare", "--data", synth_dir, "--out", out, "--window", "8", flag, *values) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and setting in err and "Traceback" not in err
        assert not (out / "dataset.json").exists()

    @pytest.mark.parametrize("flag, value, setting", [
        ("--outlier", "nan", "outlier_threshold"), ("--window", "0", "error: window must be >= 1, got 0"),
        ("--train-frac", "nan", "train_frac"),
    ])
    def test_bad_setting_fails_before_any_csv_is_read(self, tmp_path, synth_dir, capsys, monkeypatch,
                                                      flag, value, setting):
        """These used to fail in build_dataset, after every CSV was hashed and parsed."""
        def load_frame(*args):
            raise AlertaNetError("load_frame was called")

        monkeypatch.setattr(cli, "load_frame", load_frame)  # forked workers inherit the patch
        assert run_cli("prepare", "--data", synth_dir, "--out", tmp_path / "prep_bad", flag, value) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and setting in lines[0], lines

    @pytest.mark.parametrize("data", ["csvs", "missing"])
    def test_schema_that_repeats_a_column_fails_naming_it(self, tmp_path, synth_dir, capsys, data):
        """The schema is checked with the other settings, before the CSVs are listed and ``--out`` is made;
        it used to be checked only in ``load_frame``, after both."""
        out = tmp_path / "prep_schema"
        source = synth_dir if data == "csvs" else tmp_path / "nowhere"
        assert run_cli("prepare", "--data", source, "--out", out, "--schema", "sent_0,sent_0") == 1
        assert capsys.readouterr().err == "error: the schema names column 'sent_0' more than once\n"
        assert not out.exists()

    def test_schema_error_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "B.csv").write_text("date,close\n2020-01-01,3\n")
        assert run_cli("prepare", "--data", bad, "--out", tmp_path / "o2") == 1
        assert "B.csv" in capsys.readouterr().err


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, prepared):
        train_out = tmp_path / "run"
        assert run_cli("train", "--dataset", prepared, "--out", train_out,
                       "--epochs", "2", "--hidden", "4", "--seed", "5") == 0
        checkpoint = train_out / "checkpoint.json"
        report = read_json(train_out / "train_report.json")
        assert checkpoint.exists()
        assert report["kind"] == "alertanet-train-report"
        assert len(report["epochs"]) == 2
        assert "wall_time_seconds" not in report  # timing lives in the manifest
        manifest = read_json(train_out / "manifest.json")
        assert manifest["wall_time_seconds"] > 0
        assert manifest["config"]["hidden"] == 4

        eval_out = tmp_path / "ev"
        assert run_cli("eval", "--dataset", prepared, "--checkpoint", checkpoint,
                       "--out", eval_out) == 0
        eval_report = read_json(eval_out / "eval_report.json")
        assert eval_report["split"] == "test"
        assert eval_report["volatility"]["n_scored"] > 0
        assert eval_report["metadata"]["mcc_convention"] == "zero_denominator_returns_0"

    def test_config_file_with_cli_override(self, tmp_path, prepared):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"hidden": 4, "epochs": 3, "seed": 9}))
        out = tmp_path / "run2"
        assert run_cli("train", "--dataset", prepared, "--out", out,
                       "--config", cfg_path, "--epochs", "1") == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["hidden"] == 4  # from file
        assert manifest["config"]["epochs"] == 1  # CLI wins

    def test_every_train_flag_overrides_the_config_file(self, tmp_path):
        from_file = {"seed": 1, "hidden": 3, "window": 8, "epochs": 2, "batch_size": 16, "learning_rate": 0.1,
                     "loss_weight": 2.0, "ablation": "p", "arch": "alerta", "tda_normalize": True,
                     "two_stage": True, "patience": 4, "clip_norm": 1.0, "pos_weight_auto": True}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(from_file))
        args = cli.build_parser().parse_args([
            "train", "--dataset", "d.json", "--config", str(cfg_path), "--seed", "7", "--hidden", "5",
            "--window", "9", "--epochs", "6", "--batch-size", "8", "--learning-rate", "0.01", "--lambda", "0.3",
            "--ablation", "s", "--model", "gru", "--no-tda-normalize", "--no-two-stage", "--patience", "9",
            "--clip-norm", "2.5", "--no-pos-weight-auto",
        ])
        cfg = cli._resolve_train_config(args, dataset_window=9)
        assert {name: getattr(cfg, name) for name in from_file} == {
            "seed": 7, "hidden": 5, "window": 9, "epochs": 6, "batch_size": 8, "learning_rate": 0.01,
            "loss_weight": 0.3, "ablation": "s", "arch": "gru", "tda_normalize": False,
            "two_stage": False, "patience": 9, "clip_norm": 2.5, "pos_weight_auto": False,
        }

    def test_unknown_config_key_rejected(self, tmp_path, prepared, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"hidden_size": 4}))
        assert run_cli("train", "--dataset", prepared, "--out", tmp_path / "x",
                       "--config", cfg_path) == 1
        assert "hidden_size" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("two_stage", "false"), ("tda_normalize", "no"), ("epochs", "2"), ("hidden", 2.5), ("ablation", 3),
    ])
    def test_config_value_of_wrong_type_names_file_and_key(self, tmp_path, prepared, capsys, key, value):
        cfg_path = tmp_path / "typed.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "x"
        assert run_cli("train", "--dataset", prepared, "--out", out, "--config", cfg_path, "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert f"typed.json: training config {key!r} is {value!r}" in err and "Traceback" not in err
        assert not (out / "checkpoint.json").exists()

    def test_overflowing_parameter_norm_fails_instead_of_writing_infinity(self, tmp_path, criterion8_prepared,
                                                                          capsys):
        """A step of 1e300 drives the squares in the epoch's parameter norm past float64's range: the run
        stops at that epoch with one error line and no overflow warning, and writes no report or checkpoint."""
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("train", "--dataset", criterion8_prepared, "--out", out, "--learning-rate", "1e300",
                           "--epochs", "2", "--hidden", "4")
        assert code == 1 and not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err.splitlines() == ["error: non-finite param_norm inf in stage 'joint', epoch 1"]
        assert not (out / "train_report.json").exists() and not (out / "checkpoint.json").exists()

    def test_overflowing_gradient_norm_fails_naming_the_batch(self, tmp_path, criterion8_prepared, capsys):
        """A volatility weight of 1e308 drives the squares in the first batch's gradient norm past float64's
        range.  That used to warn of overflow in the norm, which a RuntimeWarning filter turns into a
        traceback, and to stop only at the epoch's end."""
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("train", "--dataset", criterion8_prepared, "--out", out, "--lambda", "1e308",
                           "--epochs", "2", "--hidden", "4", "--seed", "3")
        assert code == 1 and not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite gradient norm inf in stage 'joint', epoch 1, batch starting at 0"]
        assert not (out / "train_report.json").exists() and not (out / "checkpoint.json").exists()

    def test_negative_clip_norm_flag_fails(self, tmp_path, prepared, capsys):
        out = tmp_path / "x"
        assert run_cli("train", "--dataset", prepared, "--out", out, "--epochs", "1", "--clip-norm=-1") == 1
        err = capsys.readouterr().err
        assert "clip_norm must be >= 0 (0 turns clipping off), got -1.0" in err and "Traceback" not in err
        assert not (out / "checkpoint.json").exists()

    def test_nonpositive_adam_eps_in_config_file_fails(self, tmp_path, prepared, capsys):
        cfg_path = tmp_path / "eps.json"
        cfg_path.write_text(json.dumps({"adam_eps": 0}))
        assert run_cli("train", "--dataset", prepared, "--out", tmp_path / "x", "--config", cfg_path,
                       "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert "eps.json: adam_eps must be > 0, got 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "baseline"])
    def test_unknown_arch_in_config_file_names_file_and_makes_no_out_directory(self, tmp_path, prepared, capsys,
                                                                                command):
        """``train`` used to fail only once training began, after making ``--out``; ``baseline``, which
        sets the arch of each variant, used to accept the file."""
        cfg_path, out = tmp_path / "arch.json", tmp_path / command
        cfg_path.write_text(json.dumps({"arch": "lstm"}))
        assert run_cli(command, "--dataset", prepared, "--out", out, "--config", cfg_path, "--epochs", "1") == 1
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: unknown architecture 'lstm'; expected one of ('alerta', 'gru')\n")
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["dataset", "checkpoint"])
    def test_eval_of_a_missing_input_makes_no_out_directory(self, tmp_path, prepared, capsys, missing):
        dataset = tmp_path / "nope.json" if missing == "dataset" else prepared
        out = tmp_path / "e"
        assert run_cli("eval", "--dataset", dataset, "--checkpoint", tmp_path / "nope.json", "--out", out) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "nope.json" in lines[0], lines
        assert not out.exists()

    def test_config_file_not_an_object_names_file(self, tmp_path, prepared, capsys):
        cfg_path = tmp_path / "scalar.json"
        cfg_path.write_text("5")
        assert run_cli("train", "--dataset", prepared, "--out", tmp_path / "x", "--config", cfg_path) == 1
        err = capsys.readouterr().err
        assert "scalar.json: expected a JSON object" in err and "Traceback" not in err

    def test_eval_checkpoint_feature_mismatch_fails(self, tmp_path, prepared, synth_dir, capsys):
        train_out = tmp_path / "run3"
        assert run_cli("train", "--dataset", prepared, "--out", train_out,
                       "--epochs", "1", "--hidden", "4") == 0
        # prepare a dataset with a smaller schema, then evaluate the old checkpoint on it
        prep2 = tmp_path / "prep_small"
        assert run_cli("prepare", "--data", synth_dir, "--out", prep2, "--window", "8",
                       "--schema", "sent_0,sent_1", "--train-frac", "0.6",
                       "--valid-frac", "0.2") == 0
        code = run_cli("eval", "--dataset", prep2 / "dataset.json",
                       "--checkpoint", train_out / "checkpoint.json", "--out", tmp_path / "e2")
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err.lower()

    def test_eval_checkpoint_window_mismatch_names_both_windows(self, tmp_path, prepared, synth_dir, capsys):
        train_out = tmp_path / "run8"
        assert run_cli("train", "--dataset", prepared, "--out", train_out,
                       "--epochs", "1", "--hidden", "4") == 0
        prep10 = tmp_path / "prep10"
        assert run_cli("prepare", "--data", synth_dir, "--out", prep10, "--window", "10",
                       "--train-frac", "0.6", "--valid-frac", "0.2") == 0
        capsys.readouterr()
        assert run_cli("eval", "--dataset", prep10 / "dataset.json",
                       "--checkpoint", train_out / "checkpoint.json", "--out", tmp_path / "e10") == 1
        err = capsys.readouterr().err
        assert "error: sample window 10 does not match checkpoint config window 8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    def test_eval_of_a_malformed_checkpoint_prints_one_error_line(self, tmp_path, prepared, capsys, case):
        edit, message = BAD_CHECKPOINTS[case]
        path = bad_checkpoint(tmp_path, edit)
        assert run_cli("eval", "--dataset", prepared, "--checkpoint", path, "--out", tmp_path / "e") == 1
        err = capsys.readouterr().err
        assert re.search("^error: .*" + message, err, re.M) and "Traceback" not in err

    @pytest.mark.parametrize("case", ["config missing", "config is a directory", "config not UTF-8",
                                      "out under a file"])
    def test_unreadable_config_or_unwritable_out_prints_one_error_line(self, tmp_path, prepared, capsys, case):
        config, out = tmp_path / "cfg.json", tmp_path / "run"
        if case == "config is a directory":
            config.mkdir()
        elif case == "config not UTF-8":
            config.write_bytes(b'{"epochs": 1, "ablation": "\xff"}')
        elif case == "out under a file":
            config.write_text('{"epochs": 1}')
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "run"
        assert run_cli("train", "--dataset", prepared, "--config", config, "--out", out, "--hidden", "2") == 1
        lines = capsys.readouterr().err.splitlines()
        named = out if case == "out under a file" else config
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(named) in lines[0], lines

    @pytest.mark.parametrize("command", ["train", "ablate", "baseline"])
    def test_window_flag_mismatch_fails(self, tmp_path, criterion8_prepared, capsys, monkeypatch, command):
        """The windows are compared before ``--out`` is made and workers start; they used to be compared
        only in ``training.train``, after both."""
        def train(*args):
            raise AlertaNetError("train was called")

        monkeypatch.setattr(cli, "train", train)  # forked workers inherit the patch
        out = tmp_path / "w"
        assert run_cli(command, "--dataset", criterion8_prepared, "--out", out, "--epochs", "1", "--window", "9") == 1
        assert capsys.readouterr().err == "error: dataset window 8 does not match config window 9\n"
        assert not out.exists()

    def test_env_var_out_dir(self, tmp_path, prepared, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env_out"))
        monkeypatch.chdir(tmp_path)
        assert run_cli("train", "--dataset", prepared, "--epochs", "1", "--hidden", "4") == 0
        assert (tmp_path / "env_out" / "checkpoint.json").exists()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, prepared):
        outs = []
        for name in ("a", "b"):
            train_out = tmp_path / f"run_{name}"
            assert run_cli("train", "--dataset", prepared, "--out", train_out,
                           "--epochs", "2", "--hidden", "4", "--seed", "11") == 0
            eval_out = tmp_path / f"eval_{name}"
            assert run_cli("eval", "--dataset", prepared,
                           "--checkpoint", train_out / "checkpoint.json",
                           "--out", eval_out) == 0
            outs.append((train_out, eval_out))
        (run_a, eval_a), (run_b, eval_b) = outs
        assert (run_a / "checkpoint.json").read_bytes() == (run_b / "checkpoint.json").read_bytes()
        assert (run_a / "train_report.json").read_bytes() == (run_b / "train_report.json").read_bytes()
        assert (eval_a / "eval_report.json").read_bytes() == (eval_b / "eval_report.json").read_bytes()

    def test_synth_and_prepare_bytes_are_pinned(self, tmp_path):
        """The CSVs and ``dataset.json`` as their writers gave them before rows and dates were formatted a
        column at a time.  They depend on neither BLAS nor numpy's SIMD level, so a digest that moves is a
        change to a writer."""
        raw, prep = tmp_path / "raw", tmp_path / "prep"
        assert run_cli("synth", "--out", raw, "--stocks", "2", "--days", "300", "--seed", "9") == 0
        assert run_cli("prepare", "--data", raw, "--out", prep) == 0
        digests = {path: sha256_file(tmp_path / path)
                   for path in ("raw/SYN00.csv", "raw/SYN01.csv", "prep/dataset.json")}
        assert digests == {
            "raw/SYN00.csv": "5fe4d8720984b5c9d49c28e881e18d326ab802fd33b42ccb73ca5575e9f296c3",
            "raw/SYN01.csv": "7c7be5687396fae5a34061dc72493d0784c3fe6ceb214b21e447acad4432c743",
            "prep/dataset.json": "9cb0ac1e9e3934b49ac6e51657c69e5c84bd7f59d0e074e39deae75e736ddee8",
        }

    def test_environment_fingerprint_only_in_manifest(self, tmp_path, criterion8_prepared):
        """The fingerprint goes into manifest.json; the train report stays byte-identical."""
        reports = []
        for name in ("a", "b"):
            out = tmp_path / f"train_{name}"
            assert run_cli("train", "--dataset", criterion8_prepared, "--out", out,
                           "--epochs", "3", "--hidden", "6", "--seed", "13") == 0
            manifest = read_json(out / "manifest.json")
            assert manifest["python"] == platform.python_version()
            assert manifest["numpy"] == np.__version__
            assert manifest["cpu_count"] == os.cpu_count()
            assert manifest["usable_cores"] == tr.usable_cores()
            assert "blas_threads" in manifest
            assert manifest["blas_config"] == cli._blas_config()
            assert manifest["blas_config"] is None or manifest["blas_config"].startswith("OpenBLAS")
            reports.append((out / "train_report.json").read_bytes())
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert not {"python", "numpy", "cpu_count", "usable_cores", "blas_threads", "blas_config"} & set(report)

    def test_eval_report_bytes_independent_of_worker_count(self, tmp_path, criterion8_prepared, monkeypatch):
        """The criterion-8 fixture scored in chunks of up to 16 windows by one worker and by more workers than cores."""
        train_out = tmp_path / "train"
        assert run_cli("train", "--dataset", criterion8_prepared, "--out", train_out,
                       "--epochs", "3", "--hidden", "6", "--seed", "13") == 0
        monkeypatch.setattr(tr, "FORWARD_CHUNK", 16)
        reports = []
        for workers in (1, 2 * tr.usable_cores() + 1):
            monkeypatch.setattr(tr, "usable_cores", lambda workers=workers: workers)
            out = tmp_path / f"eval_{workers}"
            assert run_cli("eval", "--dataset", criterion8_prepared,
                           "--checkpoint", train_out / "checkpoint.json", "--out", out) == 0
            reports.append((out / "eval_report.json").read_bytes())
        assert read_json(out / "eval_report.json")["movement"]["n_scored"] > 2 * 16
        assert reports[0] == reports[1]

    def test_checkpoint_bytes_independent_of_blas_threads(self, tmp_path, criterion8_prepared):
        """The criterion-8 fixture, trained in child processes with 1 and with 2 BLAS threads."""
        src = str(Path(alertanet.__file__).resolve().parents[1])
        checkpoints, manifest_threads = [], []
        for threads in ("1", "2"):
            out = tmp_path / f"train_{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "alertanet.cli", "train", "--dataset",
                            str(criterion8_prepared), "--out", str(out), "--epochs", "3",
                            "--hidden", "6", "--seed", "13"], env=env, check=True, capture_output=True)
            checkpoints.append((out / "checkpoint.json").read_bytes())
            manifest_threads.append(read_json(out / "manifest.json")["blas_threads"])
        assert checkpoints[0] == checkpoints[1]
        if cli._blas_threads() is not None:  # the manifest records the count in effect
            assert manifest_threads[0] == 1 and manifest_threads[1] in (1, 2)


    def test_eval_report_bytes_independent_of_openblas_core_type(self, tmp_path, criterion8_prepared):
        """One checkpoint scored in child processes on two OpenBLAS kernels.

        Forward passes use only the fixed-order product and elementwise ops, so
        the kernel that OpenBLAS picks for the CPU sets none of their bits.
        """
        config = cli._blas_config()
        if config is None or "DYNAMIC_ARCH" not in config:
            pytest.skip(f"this OpenBLAS cannot switch kernels: {config}")
        train_out = tmp_path / "train"
        assert run_cli("train", "--dataset", criterion8_prepared, "--out", train_out,
                       "--epochs", "3", "--hidden", "6", "--seed", "13") == 0
        checkpoint = train_out / "checkpoint.json"
        # `alertanet eval`, then the raw bits of every window's probabilities, which the report only summarizes
        child = (
            "import hashlib, sys\n"
            "from alertanet import cli, data, model, training\n"
            "dataset, checkpoint, out = sys.argv[1:]\n"
            "assert cli.run(['eval', '--dataset', dataset, '--checkpoint', checkpoint, '--split', 'all', "
            "'--out', out]) == 0\n"
            "split, (params, config, _) = data.load_dataset(dataset), model.load_checkpoint(checkpoint)\n"
            "probs = training.predict_probs(params, config, split.train + split.validation + split.test, "
            "split.feature_names)\n"
            "print(hashlib.sha256(b''.join(p.tobytes() for p in probs)).hexdigest())\n"
        )
        src = str(Path(alertanet.__file__).resolve().parents[1])
        reports, digests, configs = [], [], []
        for core in ("Haswell", "Prescott"):
            out = tmp_path / f"eval_{core}"
            env = {**os.environ, "OPENBLAS_CORETYPE": core,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run([sys.executable, "-c", child, str(criterion8_prepared), str(checkpoint), str(out)],
                                  env=env, check=True, capture_output=True, text=True)
            digests.append(done.stdout.splitlines()[-1])
            reports.append((out / "eval_report.json").read_bytes())
            configs.append(read_json(out / "manifest.json")["blas_config"])
        # the names differ from the ones asked for (Prescott reports Katmai), so only compare them
        assert configs[0] != configs[1]
        assert reports[0] == reports[1]
        assert digests[0] == digests[1]


def with_workers(monkeypatch, workers: int) -> None:
    """Make the worker helper see ``workers`` usable cores, whatever this machine has."""
    monkeypatch.setattr(cli, "usable_cores", lambda: workers)


def pipeline(out: Path) -> dict[str, bytes]:
    """Run synth, prepare, ablate and baseline into ``out``; every artifact's bytes but the manifests', by path."""
    assert run_cli("synth", "--out", out / "raw", "--stocks", "3", "--days", "150", "--features", "6",
                   "--seed", "5") == 0
    assert run_cli("prepare", "--data", out / "raw", "--out", out / "prep", "--window", "8",
                   "--train-frac", "0.6", "--valid-frac", "0.2") == 0
    for command in ("ablate", "baseline"):
        assert run_cli(command, "--dataset", out / "prep" / "dataset.json", "--out", out / command,
                       "--epochs", "2", "--hidden", "4", "--seed", "6") == 0
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


class TestWorkerProcesses:
    # the phases each command's manifest times, by the output directory of pipeline()
    PHASES = {"raw": {"generate", "write"}, "prep": {"load", "build", "write"},
              "ablate": {"load", "variants", "write"}, "baseline": {"load", "variants", "write"}}

    def test_artifacts_identical_with_one_and_two_workers_and_on_rerun(self, tmp_path, monkeypatch, capsys):
        runs = []
        for name, workers in (("one", 1), ("two", 2), ("two_again", 2)):
            with_workers(monkeypatch, workers)
            runs.append(pipeline(tmp_path / name))
            for stage, phases in self.PHASES.items():
                manifest = read_json(tmp_path / name / stage / "manifest.json")
                assert manifest["workers"] == workers
                assert set(manifest["phase_seconds"]) == phases
                assert all(seconds >= 0 for seconds in manifest["phase_seconds"].values())
        assert {"raw/SYN02.csv", "prep/dataset.json", "prep/split_manifest.json", "ablate/checkpoint_wo_m.json",
                "ablate/ablation_table.txt", "ablate/ablation_report.json", "baseline/checkpoint_gru.json",
                "baseline/baseline_table.txt", "baseline/baseline_report.json"} <= set(runs[0])
        assert runs[0] == runs[1] == runs[2]
        assert capsys.readouterr().err == ""

    def test_first_damaged_csv_in_sorted_order_gives_the_same_error(self, tmp_path, monkeypatch, capsys):
        raw = tmp_path / "raw"
        assert run_cli("synth", "--out", raw, "--stocks", "4", "--days", "40", "--seed", "1") == 0
        for name, cell in (("SYN01.csv", "oops"), ("SYN02.csv", "-1.0")):
            lines = (raw / name).read_text().splitlines()
            lines[5] = ",".join([*lines[5].split(",")[:2], cell, *lines[5].split(",")[3:]])
            (raw / name).write_text("\n".join(lines) + "\n")
        errors = []
        for workers in (1, 2):
            with_workers(monkeypatch, workers)
            assert run_cli("prepare", "--data", raw, "--out", tmp_path / f"prep{workers}") == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and "SYN01.csv: row 6: non-numeric value 'oops'" in errors[0]
        with pytest.raises(ChildProcessError):  # the failed command left no worker behind
            os.waitpid(-1, os.WNOHANG)

    def test_results_come_back_in_item_order_from_at_most_two_workers(self, monkeypatch):
        with_workers(monkeypatch, 2)
        results, workers = cli._in_workers(lambda i: (i * i, os.getpid()), list(range(5)))
        assert workers == 2 and [r for r, _ in results] == [0, 1, 4, 9, 16]
        assert len({pid for _, pid in results}) == 2 and os.getpid() not in {pid for _, pid in results}
        assert multiprocessing.active_children() == []

    def test_first_failure_in_item_order_keeps_its_type_and_message(self, monkeypatch):
        with_workers(monkeypatch, 2)

        def fail_from_two(i):
            if i >= 2:
                raise ValueError(f"item {i} is bad")
            return i

        with pytest.raises(ValueError, match=r"^item 2 is bad$"):
            cli._in_workers(fail_from_two, [0, 1, 2, 3, 4])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_exits_is_named_and_reaped(self, monkeypatch):
        with_workers(monkeypatch, 2)
        with pytest.raises(alertanet.AlertaNetError, match=r"^worker process for b exited with code 3 before"):
            cli._in_workers(lambda item: os._exit(3) if item == "b" else item, ["a", "b", "c"])
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):  # no child is left running, nor unreaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("items, workers", [([0], 2), ([0, 1, 2], 1)])
    def test_one_worker_runs_in_process(self, monkeypatch, items, workers):
        with_workers(monkeypatch, workers)
        results, used = cli._in_workers(lambda i: os.getpid(), items)
        assert used == 1 and set(results) == {os.getpid()}

    def test_another_live_thread_keeps_the_work_in_process(self, monkeypatch):
        with_workers(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            results, used = cli._in_workers(lambda i: os.getpid(), [0, 1, 2])
        finally:
            release.set()
            other.join()
        assert used == 1 and set(results) == {os.getpid()}


class TestThreshold:
    @pytest.mark.parametrize("command", ["eval", "ablate", "baseline"])
    @pytest.mark.parametrize("threshold", ["-0.1", "1.5", "nan"])
    def test_out_of_range_is_config_error(self, tmp_path, prepared, capsys, command, threshold):
        extra = ["--checkpoint", tmp_path / "unused.json"] if command == "eval" else ["--epochs", "1"]
        assert run_cli(command, "--dataset", prepared, "--out", tmp_path / "o",
                       "--threshold", threshold, *extra) == 1
        assert "--threshold must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestAblateAndBaseline:
    def test_ablate_emits_four_rows(self, tmp_path, prepared):
        out = tmp_path / "abl"
        assert run_cli("ablate", "--dataset", prepared, "--out", out,
                       "--epochs", "1", "--hidden", "4", "--seed", "2") == 0
        report = read_json(out / "ablation_report.json")
        labels = [row["label"] for row in report["rows"]]
        assert labels == ["FULL", "P", "S", "W/O M"]
        for row in report["rows"]:
            assert row["movement_accuracy"] is not None
            assert row["volatility_accuracy"] is not None
        table = (out / "ablation_table.txt").read_text()
        assert "FULL" in table and "W/O M" in table
        # all four share one seed
        seeds = {report["results"][l]["train_config"]["seed"] for l in labels}
        assert seeds == {2}

    @pytest.mark.parametrize("command", ["ablate", "baseline"])
    def test_config_file_read_once(self, tmp_path, prepared, monkeypatch, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"hidden": 3}))
        reads = []
        read_json = cli.serialize.read_json
        monkeypatch.setattr(cli.serialize, "read_json", lambda path: reads.append(path) or read_json(path))
        assert run_cli(command, "--dataset", prepared, "--out", tmp_path / command, "--config", cfg_path,
                       "--epochs", "1") == 0
        assert [Path(p) for p in reads].count(cfg_path) == 1

    def test_baseline_compares_archs(self, tmp_path, prepared):
        out = tmp_path / "base"
        assert run_cli("baseline", "--dataset", prepared, "--out", out,
                       "--epochs", "1", "--hidden", "4") == 0
        report = read_json(out / "baseline_report.json")
        assert [row["label"] for row in report["rows"]] == ["alerta", "gru"]
        assert (out / "checkpoint_alerta.json").exists()
        assert (out / "checkpoint_gru.json").exists()
        gru_cfg = read_json(out / "checkpoint_gru.json")["config"]
        assert gru_cfg["arch"] == "gru"


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert "alertanet" in capsys.readouterr().out

    def test_missing_dataset_is_actionable(self, tmp_path, capsys):
        assert run_cli("train", "--dataset", tmp_path / "nope.json",
                       "--out", tmp_path / "o") == 1

    def test_dataset_missing_a_key_fails_with_message(self, tmp_path, prepared, capsys):
        obj = read_json(prepared)
        del obj["frames"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj), encoding="utf-8")
        assert run_cli("train", "--dataset", broken, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "broken.json: missing key 'frames'" in err and "Traceback" not in err
