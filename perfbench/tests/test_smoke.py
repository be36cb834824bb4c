"""Smoke test: every workload, untraced and traced, on a tiny spec in seconds.

No timing gate: it checks that each workload runs, that every output check
passes, and that a run yields every metric BENCHMARK.json declares.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks_pass(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUPS", 2)
    spans = tmp_path / "spans.jsonl"
    run = workloads.run_workload(name, seed=5, seconds=0.1, trace=trace, work_dir=tmp_path,
                                 sizes=workloads.TINY, spans_path=spans)
    assert run.correct, run.checks.details
    assert run.attempted >= workloads.MIN_REPS and run.failed == 0
    assert run.checks.results

    values = run.per_layer if trace else workloads.end_to_end(run)
    declared = {m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert declared <= set(values)
    if not trace:
        assert all(values[m] > 0 for m in declared)
        return
    assert spans.is_file() and spans.stat().st_size > 0
    if name != "train":
        assert values["numerics.backward.s"] == 0.0
    if name == "prepare":
        assert values["numerics.matmul.calls"] == 0.0
        assert values["data.dataset_bytes"] > 0
    else:
        assert values["numerics.matmul.calls"] > 0
        assert values["model.forward_batch.p90_ms"] >= values["model.forward_batch.p50_ms"] > 0


def test_tracer_restores_patched_functions():
    from alertanet import cli, metrics, model, training
    from tracing import Tracer

    before = (model.forward_batch, training.forward_batch, cli.load_dataset,
              metrics.ConfusionCounts.from_predictions, training.Adam.step)
    with Tracer():
        assert training.forward_batch is not before[1]
    after = (model.forward_batch, training.forward_batch, cli.load_dataset,
             metrics.ConfusionCounts.from_predictions, training.Adam.step)
    assert after == before


def test_self_time_excludes_children():
    from tracing import Span, layer_totals

    spans = [
        Span("model.forward_batch", 0.0, 1.0, -1, "op-0", child_s=0.25),
        Span("numerics.matmul", 0.1, 0.35, 0, "op-0"),
        Span("model.save_checkpoint", 0.0, 0.5, -1, "setup-0"),
    ]
    totals = layer_totals(spans, n_setups=2, n_ops=1)
    assert totals["model.forward_batch.s"] == 1.0
    assert totals["model.forward_batch.self_s"] == 0.75
    assert totals["numerics.matmul.calls"] == 1.0
    assert totals["model.save_checkpoint.s"] == 0.25
    assert totals["numerics.backward.s"] == 0.0
