"""Run one alertanet benchmark workload and print its result.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: alertanet is imported from
``src/`` beside this directory, never from an installed copy.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines
before it name every metric with its unit, every output check with PASS or
FAIL, and the environment.  ``--workload all`` runs every workload, each in
its own process.  A full record, and with ``--trace 1`` every span, goes to
``perfbench/results/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "score", "prepare")
CHILD_TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_alertanet():
    """Import alertanet from this checkout's ``src/``; exit non-zero when it is absent."""
    if not (SRC / "alertanet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no alertanet sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import alertanet

    if Path(alertanet.__file__).resolve().parent != SRC / "alertanet":
        sys.exit(f"perfbench: imported alertanet from {alertanet.__file__}, not from {SRC}")


def run_one(args) -> int:
    # Pinned before numpy loads OpenBLAS, in this process only: the figures
    # are then steadier and do not depend on the core count.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _import_alertanet()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = BENCH_DIR / "_work" / f"{stem}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        run = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir,
            spans_path=results_dir / f"{stem}-spans.jsonl" if args.trace else None,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = run.per_layer if args.trace else workloads.end_to_end(run)
    env = workloads.environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, ok in run.checks.results.items():
        detail = run.checks.details.get(name, "")
        print(f"check {name} {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))
    print(f"operations attempted {run.attempted} failed {run.failed}")
    print(f"unscaled samples_per_s {run.samples_per_s(run.ops.raw):.6g} 1/s; calibration loop "
          f"{statistics.median(run.ops.calibration):.4g} s, nominal {workloads.CALIBRATION_NOMINAL_S} s")
    for phase, rate in run.extra.get("phase_samples_per_s", {}).items():
        print(f"unscaled phase {phase}_samples_per_s {rate:.6g} 1/s")
    metrics = {}
    for metric in declared:
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        print(f"metric {metric['name']} {values[metric['name']]:.6g} {metric['unit']}")
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "checks": run.checks.results, "check_details": run.checks.details,
              "setups": run.setups.as_dict(), "ops": run.ops.as_dict(), **run.extra}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if run.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and pinning stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        last = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if last is None:
            print(f"perfbench: workload {name} exited with code {proc.returncode} and no result",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
