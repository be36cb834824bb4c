"""The BENCH recorder's aggregation, on canned perfbench records: no runs, no timing gate."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END, PER_LAYER = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]


def canned(rate, setup, rss, raw=(0.5, 0.6, 0.7), calibration=(0.15, 0.16, 0.17), passed=True, failed=0):
    """A record shaped like the one ``perfbench/run.py`` writes."""
    values = {"samples_per_s": rate, "setup_s": setup, "peak_rss_mb": rss}
    return {
        "correct": passed and failed == 0, "attempted": 3, "failed": failed,
        "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()},
        "checks": {"train.params_repeat": passed}, "environment": {"python": "3.x"},
        "setups": {"raw": [0.01, 0.02, 0.03], "scaled": [0.01, 0.02, 0.03], "calibration": [0.2, 0.2, 0.2]},
        "ops": {"raw": list(raw), "scaled": list(raw), "calibration": list(calibration)},
    }


def pair(seed, first, parent, change):
    return {"seed": seed, "first": first, "parent": parent, "change": change}


def test_medians_quartiles_and_pairs_won_per_metric():
    pairs = [
        pair(1, "parent", canned(100.0, 0.10, 50.0), canned(110.0, 0.10, 51.0)),
        pair(2, "change", canned(104.0, 0.12, 50.0), canned(101.0, 0.11, 49.0, raw=(0.4, 0.4, 0.4))),
        pair(3, "parent", canned(96.0, 0.11, 52.0), canned(120.0, 0.09, 52.0)),
        pair(4, "change", canned(98.0, 0.13, 50.0), canned(99.0, 0.14, 50.5)),
    ]
    out = record_bench.aggregate(pairs, END_TO_END)
    rate = out["metrics"]["samples_per_s"]
    assert rate["parent"] == {"median": 99.0, "q1": 97.5, "q3": 101.0}
    assert rate["change"]["median"] == 105.5
    assert rate["change_over_parent"] == pytest.approx(105.5 / 99.0 - 1.0)
    assert rate["pairs_won"] == {"parent": 1, "change": 3}
    # lower is better; a tie (setup_s in pair 1, peak_rss_mb in pair 3) counts for neither side
    assert out["metrics"]["setup_s"]["pairs_won"] == {"parent": 1, "change": 2}
    assert out["metrics"]["peak_rss_mb"]["pairs_won"] == {"parent": 2, "change": 1}
    assert out["metrics"]["setup_s"]["bound"] == 0.25 and out["metrics"]["setup_s"]["better"] == "lower"
    assert out["raw_op_median_s"] == {"parent": 0.6, "change": 0.6}
    assert out["raw_setup_median_s"] == {"parent": 0.02, "change": 0.02}
    assert out["calibration_median_s"] == {"parent": 0.16, "change": 0.16}
    assert out["seeds"] == [1, 2, 3, 4] and out["first"] == ["parent", "change", "parent", "change"]
    assert out["all_checks_passed"] == {"parent": True, "change": True}
    assert out["per_pair"][1]["change"] == {"samples_per_s": 101.0, "setup_s": 0.11, "peak_rss_mb": 49.0,
                                            "raw_op_median_s": 0.4, "calibration_median_s": 0.16}
    json.dumps(out)


def test_a_failed_check_or_operation_is_reported_per_side():
    pairs = [
        pair(7, "parent", canned(100.0, 0.1, 50.0), canned(100.0, 0.1, 50.0, passed=False)),
        pair(8, "change", canned(100.0, 0.1, 50.0, failed=1), canned(100.0, 0.1, 50.0)),
    ]
    out = record_bench.aggregate(pairs, END_TO_END)
    assert out["all_checks_passed"] == {"parent": False, "change": False}
    assert out["failed_ops"] == {"parent": 1, "change": 0}
    assert out["metrics"]["samples_per_s"]["pairs_won"] == {"parent": 0, "change": 0}


def test_single_pair_has_degenerate_quartiles():
    out = record_bench.aggregate([pair(1, "parent", canned(10.0, 1.0, 5.0), canned(12.0, 1.0, 5.0))], END_TO_END)
    assert out["metrics"]["samples_per_s"]["change"] == {"median": 12.0, "q1": 12.0, "q3": 12.0}


def traced_record(seed, overrides, passed=True, failed=0):
    """A ``--trace 1`` record: every per-layer figure 1.0 but ``overrides``."""
    values = {layer["name"]: 1.0 for layer in PER_LAYER} | overrides
    return {"seed": seed, "correct": passed and failed == 0, "failed": failed, "checks": {"prepare.exit_code": passed},
            "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}


def test_traced_layers_of_both_sides_and_the_ones_worse_by_over_ten_percent():
    records = {
        "parent": traced_record(4, {"data.load_frame.s": 0.5, "trace.traced.samples_per_s": 100.0,
                                    "numerics.matmul.calls": 0.0, "cli.prepare.s": 2.0}),
        "change": traced_record(4, {"data.load_frame.s": 0.56, "trace.traced.samples_per_s": 89.0,
                                    "numerics.matmul.calls": 0.0, "cli.prepare.s": 2.1}, passed=False),
    }
    out = record_bench.traced_layers(records, PER_LAYER, core=1)
    assert (out["core"], out["seed"]) == (1, 4)
    load = out["layers"]["data.load_frame.s"]
    assert (load["parent"], load["change"], load["better"]) == (0.5, 0.56, "lower")
    assert load["change_over_parent"] == pytest.approx(0.12)
    assert out["layers"]["numerics.matmul.calls"]["change_over_parent"] is None  # a layer that never ran
    # 5% slower, and 1.0 -> 1.0 everywhere else, are within the bound; lower and higher are both checked
    assert sorted(out["worse_over_10pct"]) == ["data.load_frame.s", "trace.traced.samples_per_s"]
    assert set(out["layers"]) == {layer["name"] for layer in PER_LAYER}
    assert out["all_checks_passed"] == {"parent": True, "change": False}
    assert out["failed_ops"] == {"parent": 0, "change": 0}
    json.dumps(out)
