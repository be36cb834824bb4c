"""Record alternating benchmark pairs of this working tree against a parent revision.

    python tools/record_bench.py --parent HEAD --tag mychange --pairs 10 --seconds 10

Both sides are ``git archive`` copies, at paths of equal length under one
temporary directory: the parent revision, and the working tree as it stands
(tracked and untracked files that git does not ignore).  For each workload of
``BENCHMARK.json`` the tool runs ``--pairs`` pairs of
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, one run in
each copy with the same fresh seed; which side runs first alternates.  It
reads the record each run writes under the copy's ``perfbench/results/`` and
writes ``BENCH_<TAG>.json`` at the repository root: for every workload and
end-to-end metric, both sides' medians and quartiles and the pairs each side
won, plus the raw operation and set-up medians, the median calibration time,
the median of each run's minor page faults, whether every check passed,
every pair's figures, perfbench's environment fingerprint and the OpenBLAS
build string.  A run's minor page faults are the rise of
``getrusage(RUSAGE_CHILDREN)`` across its subprocess, so they count its
set-ups, operations and imports, and the worker processes it waited for.

``samples_per_s`` is scaled by a calibration loop timed in the same process,
and that loop has drifted between the two sides' processes.  So each
workload also gets a ``raw_verdict`` from the unscaled operation times: the
pairs each side won on its raw median, the median of the per-pair raw rate
ratios, the median of the per-pair calibration ratios, and ``disagree``,
set when the scaled and raw changes point opposite ways and one of them is
larger than the parent's scaled interquartile range, as a share of its
median, or when they lie more than 10 points apart.

Each workload then gets one ``--trace 1`` run per side, in a child pinned to
one core with ``os.sched_setaffinity``.  On one core the CLI's worker helper
runs in-process and the scoring pool has one worker, so every traced layer
sees all of its work and the tracer's spans nest.  Their per-layer figures go
under ``traced_one_core``, with the layers that got more than 10% worse.  The
exit code is 0 only when every run passed every check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # equal lengths, so both copies sit at paths of equal length


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--tag", required=True, help="the output is BENCH_<TAG>.json at the repository root")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--first-seed", type=int, default=1, help="pair j of workload i runs seed FIRST + i*PAIRS + j")
    return parser.parse_args(argv)


def _git(*args, env=None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.PIPE, text=True,
                          env=env).stdout.strip()


def working_tree() -> str:
    """A git tree of the working copy, written through a scratch index so the real one is untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", env=env)
        return _git("write-tree", env=env)


def export(tree_ish: str, dest: Path) -> None:
    """``git archive`` of ``tree_ish``, unpacked into ``dest``."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    _git("archive", "--format=tar", "-o", str(archive), tree_ish)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()


def run_side(copy: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int = 0,
             core: int | None = None) -> dict:
    """One perfbench run in ``copy``, pinned to ``core`` when one is given.

    Returns the record it wrote, with the run's ``minor_faults`` added.
    """
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    pin = None if core is None else (lambda: os.sched_setaffinity(0, {core}))
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(argv, cwd=copy, stdout=subprocess.PIPE, text=True, timeout=600 + 10 * seconds,
                          preexec_fn=pin)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(argv[1:])} exited with code {proc.returncode}")
    record = json.loads((copy / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {**record, "minor_faults": faults}


def blas_config() -> str | None:
    """The build string of the OpenBLAS bundled with numpy, read the way every run manifest reads it."""
    sys.path.insert(0, str(ROOT / "src"))
    from alertanet.cli import _blas_config

    return _blas_config()


def _spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _median_of_medians(records: list[dict], clock: str, key: str) -> float:
    return float(np.median([np.median(r[clock][key]) for r in records]))


def aggregate(pairs: list[dict], metrics: list[dict]) -> dict:
    """Reduce one workload's pairs to the per-metric summary of BENCH_<TAG>.json.

    Each pair is ``{"seed", "first", "parent": record, "change": record}``,
    where a record is what ``perfbench/run.py`` writes; ``metrics`` are
    BENCHMARK.json's ``end_to_end`` entries.
    """
    records = {side: [p[side] for p in pairs] for side in SIDES}
    per_pair = [{"seed": p["seed"], "first": p["first"],
                 **{side: {**{m["name"]: p[side]["metrics"][m["name"]]["value"] for m in metrics},
                           "raw_op_median_s": float(np.median(p[side]["ops"]["raw"])),
                           "calibration_median_s": float(np.median(p[side]["ops"]["calibration"])),
                           "minor_faults": p[side]["minor_faults"]}
                    for side in SIDES}} for p in pairs]
    summary = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in records[side]] for side in SIDES}
        won = {side: 0 for side in SIDES}
        for parent, change in zip(values["parent"], values["change"]):
            if parent != change:
                won["change" if (change > parent) == higher else "parent"] += 1
        spread = {side: _spread(values[side]) for side in SIDES}
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric.get("bound"),
            **spread,
            "change_over_parent": spread["change"]["median"] / spread["parent"]["median"] - 1.0,
            "pairs_won": won,
        }
    return {
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "metrics": summary,
        "raw_op_median_s": {side: _median_of_medians(records[side], "ops", "raw") for side in SIDES},
        "raw_setup_median_s": {side: _median_of_medians(records[side], "setups", "raw") for side in SIDES},
        "calibration_median_s": {side: _median_of_medians(records[side], "ops", "calibration") for side in SIDES},
        "minor_faults_median": {side: float(np.median([r["minor_faults"] for r in records[side]])) for side in SIDES},
        "all_checks_passed": {side: all(r["correct"] and all(r["checks"].values()) for r in records[side])
                              for side in SIDES},
        "failed_ops": {side: sum(r["failed"] for r in records[side]) for side in SIDES},
        "raw_verdict": raw_verdict(per_pair, summary["samples_per_s"]),
        "per_pair": per_pair,
    }


def raw_verdict(per_pair: list[dict], scaled: dict) -> dict:
    """The verdict of the unscaled operation times beside ``scaled``, :func:`aggregate`'s ``samples_per_s`` entry.

    A pair's raw rate ratio is the parent's raw operation median over the
    change's, so above 1 means the change ran faster, as a rising
    ``samples_per_s`` does; its calibration ratio is the change's calibration
    median over the parent's.  Opposite directions count as a disagreement
    only when one of the two changes is larger than the parent's spread, so
    two changes within noise of zero do not.
    """
    raw = [(p["parent"]["raw_op_median_s"], p["change"]["raw_op_median_s"]) for p in per_pair]
    raw_change = float(np.median([parent / change for parent, change in raw])) - 1.0
    scaled_change, parent = scaled["change_over_parent"], scaled["parent"]
    spread = (parent["q3"] - parent["q1"]) / parent["median"]
    return {
        "pairs_won": {"parent": sum(parent < change for parent, change in raw),
                      "change": sum(change < parent for parent, change in raw)},
        "rate_change_median": raw_change,
        "calibration_ratio_median": float(np.median([p["change"]["calibration_median_s"]
                                                     / p["parent"]["calibration_median_s"] for p in per_pair])),
        "disagree": ((scaled_change * raw_change < 0 and max(abs(scaled_change), abs(raw_change)) > spread)
                     or abs(scaled_change - raw_change) > 0.10),
    }


def traced_layers(records: dict[str, dict], layers: list[dict], core: int) -> dict:
    """Both sides' per-layer figures from one traced run each on ``core``.

    ``records`` maps each side to what ``perfbench/run.py --trace 1`` wrote;
    ``layers`` are BENCHMARK.json's ``per_layer`` entries.  ``worse_over_10pct``
    lists the layers whose figure moved the wrong way by more than 10%.
    """
    summary, worse = {}, []
    for layer in layers:
        name = layer["name"]
        values = {side: records[side]["metrics"][name]["value"] for side in SIDES}
        ratio = values["change"] / values["parent"] - 1.0 if values["parent"] else None
        if ratio is not None and (ratio > 0.1 if layer["better"] == "lower" else ratio < -0.1):
            worse.append(name)
        summary[name] = {"unit": layer["unit"], "better": layer["better"], **values, "change_over_parent": ratio}
    return {
        "core": core,
        "seed": records["parent"]["seed"],
        "layers": summary,
        "worse_over_10pct": worse,
        "all_checks_passed": {side: records[side]["correct"] and all(records[side]["checks"].values())
                              for side in SIDES},
        "failed_ops": {side: records[side]["failed"] for side in SIDES},
    }


def record(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    tree = working_tree()
    bench = {"tag": args.tag, "parent": parent, "change_tree": tree, "pairs": args.pairs,
             "seconds": args.seconds, "date": time.strftime("%Y-%m-%d", time.gmtime()),
             "blas_config": blas_config(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="record_bench-") as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        export(parent, copies["parent"])
        export(tree, copies["change"])
        for i, workload in enumerate(w["name"] for w in spec["workloads"]):
            pairs = []
            for j in range(args.pairs):
                seed = args.first_seed + i * args.pairs + j
                order = SIDES if j % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(copies[side], spec["command"], workload, seed, args.seconds)
                pairs.append(pair)
                rate = {side: pair[side]["metrics"]["samples_per_s"]["value"] for side in SIDES}
                print(f"{workload} pair {j + 1}/{args.pairs} seed {seed}: samples_per_s parent "
                      f"{rate['parent']:.6g} change {rate['change']:.6g}", file=sys.stderr, flush=True)
            bench["workloads"][workload] = aggregate(pairs, spec["end_to_end"])
            bench.setdefault("environment", pairs[0]["change"]["environment"])
            core = min(os.sched_getaffinity(0))
            traced = {side: run_side(copies[side], spec["command"], workload, pairs[0]["seed"], args.seconds,
                                     trace=1, core=core) for side in SIDES}
            bench["workloads"][workload]["traced_one_core"] = traced_layers(traced, spec["per_layer"], core)
    return bench


def main(argv=None) -> int:
    args = _parse(argv)
    bench = record(args)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for workload, summary in bench["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                  f"({m['change_over_parent']:+.1%}), change won {m['pairs_won']['change']} of {bench['pairs']}")
        raw, scaled = summary["raw_verdict"], summary["metrics"]["samples_per_s"]["change_over_parent"]
        print(f"{workload} raw operation rate: {raw['rate_change_median']:+.1%} (scaled "
              f"{scaled:+.1%}), change won {raw['pairs_won']['change']} of {bench['pairs']}, "
              f"calibration ratio {raw['calibration_ratio_median']:.3f}"
              f"{', the two disagree' if raw['disagree'] else ''}")
        faults = summary["minor_faults_median"]
        print(f"{workload} minor page faults per run: {faults['parent']:.0f} -> {faults['change']:.0f}")
        traced = summary["traced_one_core"]
        print(f"{workload} traced on core {traced['core']}: worse by over 10%: "
              f"{', '.join(traced['worse_over_10pct']) or 'none'}")
    print(f"wrote {out.name}")
    passed = all(all(s["all_checks_passed"].values()) and all(s["traced_one_core"]["all_checks_passed"].values())
                 for s in bench["workloads"].values())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
