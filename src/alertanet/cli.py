"""Command-line entry point: synth, prepare, train, eval, ablate, baseline.

Every command writes its artifacts plus a ``manifest.json`` into the output
directory (flag ``--out``, else the ``ALERTANET_OUT_DIR`` environment
variable, else a per-command default).  Manifests carry timestamps, wall
time and input hashes; the data-bearing artifacts (datasets, checkpoints,
reports) deliberately do not, so reruns with identical inputs and seed are
byte-identical.

``synth``, ``prepare``, ``ablate`` and ``baseline`` map their independent
items (frames to write, CSVs to parse, variants to train) over forked worker
processes with :func:`_in_workers`; the artifacts do not depend on how many.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import pickle
import platform
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import astuple, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__, serialize
from .data import (
    DEFAULT_DEAD_ZONE,
    DEFAULT_EPSILON,
    DEFAULT_OUTLIER_THRESHOLD,
    ABSTAIN,
    PrepareSettings,
    build_dataset,
    check_schema,
    load_dataset,
    load_frame,
    save_dataset,
    write_frame,
)
from .errors import AlertaNetError, ConfigError
from .model import load_checkpoint, save_checkpoint
from .synth import SynthSpec, generate_universe
from .training import TrainConfig, evaluate, train, usable_cores

OUT_DIR_ENV = "ALERTANET_OUT_DIR"
MANIFEST_NAME = "manifest.json"


def _openblas_query(symbols: tuple[str, ...], restype):
    """What the first of ``symbols`` that the OpenBLAS bundled with numpy exports returns, or None."""
    for path in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the already loaded library, not a second copy
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, []
                return fn()
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None when it cannot be asked."""
    return _openblas_query(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                            "openblas_get_num_threads"), ctypes.c_int)


def _blas_config() -> str | None:
    """Build string of the OpenBLAS bundled with numpy (version, kernel, threading), or None when it cannot be asked."""
    config = _openblas_query(("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"),
                             ctypes.c_char_p)
    return None if config is None else config.decode("ascii", "replace")


def _in_workers(fn, items: list) -> tuple[list, int]:
    """``[fn(item) for item in items]`` from ``min(len(items), usable_cores())`` forked worker processes,
    and the number of processes that computed it.

    Worker ``w`` of ``k`` inherits ``items`` through ``os.fork``, so no input
    is pickled, and writes the pickled ``fn`` of items ``w, w + k, w + 2k, ...``
    to its own pipe.  The main thread reads the results in item order, so the
    workers run side by side and no thread is started.  The first failure in
    item order is raised: the item's own exception, or an ``AlertaNetError``
    that names the item when its worker died first.  Every worker is reaped
    before this returns or raises; once the parent stops reading, each worker
    stops at its next result.

    It runs in-process when one worker suffices, when ``os.fork`` is missing,
    or when another thread is alive, which a forked child would lack while
    inheriting the locks it might hold.
    """
    workers = min(len(items), usable_cores())
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items], 1
    pids, readers = [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[w::workers], write_fd)
                pids.append(pid)
            finally:
                os.close(write_fd)  # the worker holds the only write end, so its exit ends the pipe
        results = []
        for i, item in enumerate(items):
            try:
                ok, value = pickle.load(readers[i % workers])
            except (EOFError, pickle.UnpicklingError):
                pid = pids[i % workers]
                pids.remove(pid)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise AlertaNetError(f"worker process for {item} exited with code {code} before its result") from None
            if not ok:
                raise value
            results.append(value)
        return results, workers
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(fn, share: list, write_fd: int) -> NoReturn:
    """A worker's life: write ``(True, fn(item))`` for each item, or ``(False, exception)`` for the first
    that fails, then ``os._exit``, so that nothing of the parent's stack runs in the child."""
    code = 1
    try:
        with os.fdopen(write_fd, "wb") as out:
            for item in share:
                try:
                    result = (True, fn(item))
                except Exception as exc:
                    result = (False, exc)
                out.write(pickle.dumps(result))  # whole, so a result that cannot be pickled sends nothing
                out.flush()
                if not result[0]:
                    break
        code = 0
    except BrokenPipeError:  # the parent stopped reading after an earlier item failed
        code = 0
    finally:
        os._exit(code)


def _resolve_out(args, command: str) -> Path:
    if args.out:
        out = Path(args.out)
    elif os.environ.get(OUT_DIR_ENV):
        out = Path(os.environ[OUT_DIR_ENV])
    else:
        out = Path("alertanet_runs") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


class _ManifestWriter:
    """Collects run metadata and writes manifest.json as the final artifact."""

    def __init__(self, command: str, out_dir: Path | None, seed: int | None):
        self.command = command
        self.out_dir = out_dir
        self.seed = seed
        self.started = time.perf_counter()
        self.started_at = datetime.now(timezone.utc).isoformat()
        self.config: dict = {}
        self.inputs: dict[str, dict] = {}
        self.outputs: list[str] = []
        self.warnings: list[str] = []
        self.workers: int | None = None  # processes that mapped the command's items, when it has any
        self.phase_seconds: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        """Time the block as the phase ``name`` of ``phase_seconds``."""
        start = time.perf_counter()
        yield
        self.phase_seconds[name] = time.perf_counter() - start

    def add_input(self, label: str, path: str | Path, sha256: str | None = None) -> None:
        """Record an input file with its sha256, hashing it here unless the caller already has."""
        self.inputs[label] = {"path": str(path), "sha256": sha256 or serialize.sha256_file(path)}

    def add_output(self, name: str) -> None:
        self.outputs.append(name)

    def write(self) -> Path:
        path = self.out_dir / MANIFEST_NAME
        serialize.write_json(
            path,
            {
                "command": self.command,
                "tool_version": __version__,
                "config": self.config,
                "inputs": self.inputs,
                "outputs": self.outputs,
                "warnings": self.warnings,
                "seed": self.seed,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
                "usable_cores": usable_cores(),
                "blas_threads": _blas_threads(),
                "blas_config": _blas_config(),
                "workers": self.workers,
                "phase_seconds": self.phase_seconds,
                "started_at": self.started_at,
                "finished_at": datetime.now(timezone.utc).isoformat(),
                "wall_time_seconds": time.perf_counter() - self.started,
            },
        )
        return path


def _write_report(out_dir: Path, name: str, kind: str, payload: dict, manifest: _ManifestWriter) -> None:
    serialize.write_json(out_dir / name, {"kind": kind, "manifest_file": MANIFEST_NAME, **payload})
    manifest.add_output(name)


# --- train-config layering --------------------------------------------------

def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with TrainConfig fields")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--hidden", type=int, default=None, help="hidden state size")
    parser.add_argument("--window", type=int, default=None, help="must match the prepared dataset")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--learning-rate", type=float, default=None)
    parser.add_argument("--lambda", dest="loss_weight", type=float, default=None,
                        help="weight on the volatility loss term")
    parser.add_argument("--ablation", choices=["full", "p", "s", "wo-m"], default=None)
    parser.add_argument("--model", dest="arch", choices=["alerta", "gru"], default=None)
    parser.add_argument("--tda-normalize", action=argparse.BooleanOptionalAction, default=None,
                        help="divide the temporal-distance sum by its weight total")
    parser.add_argument("--two-stage", action=argparse.BooleanOptionalAction, default=None,
                        help="train movement first, then the volatility head with the rest frozen")
    parser.add_argument("--patience", type=int, default=None)
    parser.add_argument("--clip-norm", type=float, default=None)
    parser.add_argument("--pos-weight-auto", action=argparse.BooleanOptionalAction, default=None)


def _resolve_train_config(args, dataset_window: int) -> TrainConfig:
    """Defaults, then the ``--config`` file, then flags; the window defaults to the prepared dataset's.

    The file's values are validated first, so that an error names the file;
    then the whole config, and its window against the dataset's, so that a
    bad setting fails before ``--out`` is made.
    """
    cfg = TrainConfig(window=dataset_window)
    if args.config:
        file_cfg = serialize.read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: expected a JSON object of training config keys")
        unknown = set(file_cfg) - set(cfg.to_dict())
        if unknown:
            raise ConfigError(f"{args.config}: unknown training config keys {sorted(unknown)}")
        cfg = replace(cfg, **file_cfg)
        try:
            cfg.validate()
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    flags = {name: getattr(args, name, None) for name in cfg.to_dict()}
    cfg = replace(cfg, **{name: value for name, value in flags.items() if value is not None})
    cfg.validate()
    if cfg.window != dataset_window:
        raise ConfigError(f"dataset window {dataset_window} does not match config window {cfg.window}")
    return cfg


# --- commands ---------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_days=args.days,
        n_features=args.features,
        seed=args.seed,
        noise_flip_prob=args.noise,
        volatility_lag=args.vol_lag,
        base_price=args.base_price,
    )
    manifest = _ManifestWriter("synth", None, args.seed)
    manifest.config = {
        "days": args.days, "features": args.features, "noise": args.noise,
        "vol_lag": args.vol_lag, "base_price": args.base_price, "stocks": args.stocks,
        "feature_names": spec.feature_names,
    }
    with manifest.phase("generate"):
        frames = generate_universe(spec, args.stocks)
    manifest.out_dir = out = _resolve_out(args, "synth")  # made once the settings and the price paths passed
    paths = {out / f"{frame.stock_id}.csv": frame for frame in frames}
    with manifest.phase("write"):
        _, manifest.workers = _in_workers(lambda path: write_frame(paths[path], path), list(paths))
    manifest.outputs.extend(path.name for path in paths)
    manifest.write()
    print(f"wrote {args.stocks} synthetic frame(s) to {out}")
    return 0


def cmd_prepare(args) -> int:
    # a bad setting fails before any CSV is listed
    settings = PrepareSettings(args.window, tuple(args.dead_zone), args.outlier, args.train_frac, args.valid_frac,
                               args.epsilon)
    schema = [c.strip() for c in args.schema.split(",")] if args.schema else None
    check_schema(schema)
    data_dir = Path(args.data)
    csv_paths = sorted(data_dir.glob("*.csv"))
    if not csv_paths:
        raise ConfigError(f"no input frames: no .csv files under {data_dir}")
    out = _resolve_out(args, "prepare")  # made once the settings passed and there are frames to read
    manifest = _ManifestWriter("prepare", out, None)
    with manifest.phase("load"):
        loaded, manifest.workers = _in_workers(lambda path: (serialize.sha256_file(path), load_frame(path, schema)),
                                               csv_paths)
    for path, (digest, _) in zip(csv_paths, loaded):
        manifest.add_input(path.name, path, digest)
    frames = [frame for _, frame in loaded]
    with manifest.phase("build"):
        split, warnings = build_dataset(frames, *astuple(settings))
    manifest.warnings.extend(warnings)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    split.meta["manifest_file"] = MANIFEST_NAME
    counts = {}
    for name, part in split.splits().items():
        abstain = int(np.count_nonzero(part.y_m == ABSTAIN))
        counts[name] = {
            "samples": len(part),
            "movement_up": int(np.count_nonzero(part.y_m == 1)),
            "movement_down": int(np.count_nonzero(part.y_m == 0)),
            "movement_abstain": abstain,
            "volatility_positive": int(np.count_nonzero(part.y_v == 1)),
            "abstain_rate": abstain / max(1, len(part)),
        }
    manifest.config = {
        "window": args.window, "dead_zone": list(args.dead_zone), "outlier": args.outlier,
        "train_frac": args.train_frac, "valid_frac": args.valid_frac,
        "schema": split.feature_names, "counts": counts, "boundaries": split.boundaries,
    }
    with manifest.phase("write"):
        save_dataset(out / "dataset.json", split)
        manifest.add_output("dataset.json")
        _write_report(out, "split_manifest.json", "alertanet-split-manifest",
                      {"counts": counts, "boundaries": split.boundaries,
                       "feature_names": split.feature_names, "window": args.window},
                      manifest)
    manifest.write()
    print(f"prepared dataset with {sum(c['samples'] for c in counts.values())} samples -> {out}")
    return 0


def _write_checkpoint(out: Path, name: str, params, config, cfg: TrainConfig, manifest: _ManifestWriter) -> None:
    save_checkpoint(out / name, params, config, extra={"train_config": cfg.to_dict(), "manifest_file": MANIFEST_NAME})
    manifest.add_output(name)


def cmd_train(args) -> int:
    split = load_dataset(args.dataset)
    cfg = _resolve_train_config(args, split.window)
    out = _resolve_out(args, "train")
    manifest = _ManifestWriter("train", out, cfg.seed)
    manifest.add_input("dataset", args.dataset)
    manifest.config = cfg.to_dict()
    params, config, report = train(split, cfg)
    report.checkpoint_file = "checkpoint.json"
    _write_checkpoint(out, "checkpoint.json", params, config, cfg, manifest)
    _write_report(out, "train_report.json", "alertanet-train-report", report.to_json_dict(), manifest)
    manifest.write()
    print(
        f"trained {cfg.arch} ({cfg.ablation}) for {len(report.epochs)} epochs; "
        f"best epoch {report.best_epoch}; wall {time.perf_counter() - manifest.started:.1f}s -> {out}"
    )
    return 0


def cmd_eval(args) -> int:
    split = load_dataset(args.dataset)
    params, config, _ = load_checkpoint(args.checkpoint)
    out = _resolve_out(args, "eval")  # made once the dataset and the checkpoint loaded
    manifest = _ManifestWriter("eval", out, None)
    manifest.add_input("dataset", args.dataset)
    manifest.add_input("checkpoint", args.checkpoint)
    manifest.config = {"split": args.split, "threshold": args.threshold}
    if args.split == "all":
        samples = split.train + split.validation + split.test
    else:
        samples = split.splits()[args.split]
    report = evaluate(params, config, samples, args.threshold, split.feature_names)
    payload = report.to_json_dict()
    payload["split"] = args.split
    payload["dataset_sha256"] = manifest.inputs["dataset"]["sha256"]
    payload["checkpoint_sha256"] = manifest.inputs["checkpoint"]["sha256"]
    _write_report(out, "eval_report.json", "alertanet-eval-report", payload, manifest)
    manifest.write()
    print(_format_table([_metrics_row(args.split, report)]))
    return 0


def _metrics_row(label: str, report) -> dict:
    return {
        "label": label,
        "movement_accuracy": report.movement.accuracy,
        "movement_mcc": report.movement.mcc,
        "volatility_accuracy": report.volatility.accuracy,
        "volatility_mcc": report.volatility.mcc,
        "volatility_auc": report.volatility.auc,
    }


_TABLE_COLUMNS = (
    ("label", "model"),
    ("movement_accuracy", "move acc"),
    ("movement_mcc", "move mcc"),
    ("volatility_accuracy", "vol acc"),
    ("volatility_mcc", "vol mcc"),
    ("volatility_auc", "vol auc"),
)


def _format_table(rows: list[dict]) -> str:
    def cell(value):
        if value is None:
            return "n/a"
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    table = [[header for _, header in _TABLE_COLUMNS]]
    table.extend([cell(row.get(key)) for key, _ in _TABLE_COLUMNS] for row in rows)
    widths = [max(len(r[i]) for r in table) for i in range(len(_TABLE_COLUMNS))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _run_variants(args, variants: list[tuple[str, dict]], command: str, report_stub: str) -> int:
    """Shared driver for ablate/baseline: same data, same seed, varied config.

    The variants train and evaluate in worker processes (:func:`_in_workers`);
    this process writes their checkpoints, the table and the report in variant order.
    """
    manifest = _ManifestWriter(command, None, None)
    with manifest.phase("load"):
        split = load_dataset(args.dataset)
    manifest.add_input("dataset", args.dataset)
    base = _resolve_train_config(args, split.window)  # a bad setting fails before --out is made and workers start
    manifest.out_dir = out = _resolve_out(args, command)
    configs = {label: replace(base, **overrides) for label, overrides in variants}

    def train_and_evaluate(label):
        params, config, train_report = train(split, configs[label])
        return params, config, train_report, evaluate(params, config, split.test, args.threshold, split.feature_names)

    with manifest.phase("variants"):
        trained, manifest.workers = _in_workers(train_and_evaluate, list(configs))
    manifest.seed = base.seed
    manifest.config = {"threshold": args.threshold, "seed": manifest.seed, "variants": list(configs)}
    rows = []
    results = {}
    with manifest.phase("write"):
        for (label, cfg), (params, config, train_report, eval_report) in zip(configs.items(), trained):
            checkpoint = f"checkpoint_{label.replace('/', '').replace(' ', '_').lower()}.json"
            _write_checkpoint(out, checkpoint, params, config, cfg, manifest)
            rows.append(_metrics_row(label, eval_report))
            results[label] = {
                "train_config": cfg.to_dict(),
                "epochs_run": len(train_report.epochs),
                "best_epoch": train_report.best_epoch,
                "checkpoint": checkpoint,
                "eval": eval_report.to_json_dict(),
            }
        table_text = _format_table(rows)
        with serialize.atomic_writer(out / f"{report_stub}_table.txt") as fh:
            fh.write(table_text + "\n")
        manifest.add_output(f"{report_stub}_table.txt")
        _write_report(out, f"{report_stub}_report.json", f"alertanet-{report_stub}-report",
                      {"rows": rows, "results": results}, manifest)
    manifest.write()
    print(table_text)
    return 0


def cmd_ablate(args) -> int:
    variants = [
        ("FULL", {"ablation": "full"}),
        ("P", {"ablation": "p"}),
        ("S", {"ablation": "s"}),
        ("W/O M", {"ablation": "wo-m"}),
    ]
    return _run_variants(args, variants, "ablate", "ablation")


def cmd_baseline(args) -> int:
    variants = [
        ("alerta", {"arch": "alerta"}),
        ("gru", {"arch": "gru"}),
    ]
    return _run_variants(args, variants, "baseline", "baseline")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alertanet",
        description="Train and evaluate the temporal-distance-aware movement/volatility model.",
    )
    parser.add_argument("--version", action="version", version=f"alertanet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic per-stock CSVs with planted signal")
    p.add_argument("--out", default=None)
    p.add_argument("--stocks", type=int, default=1)
    p.add_argument("--days", type=int, default=1200)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.1, help="movement label flip probability")
    p.add_argument("--vol-lag", type=int, default=7, help="days between driver spike and volatility event")
    p.add_argument("--base-price", type=float, default=100.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="ingest per-stock CSVs into a windowed, labeled dataset")
    p.add_argument("--data", required=True, help="directory of per-stock CSV files")
    p.add_argument("--out", default=None)
    p.add_argument("--schema", default=None, help="comma-separated feature columns (default: all)")
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--dead-zone", nargs=2, type=float, default=list(DEFAULT_DEAD_ZONE),
                   metavar=("LO", "HI"))
    p.add_argument("--outlier", type=float, default=DEFAULT_OUTLIER_THRESHOLD)
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--valid-frac", type=float, default=0.15)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a prepared dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a prepared dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--split", choices=["train", "validation", "test", "all"], default="test")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train/eval the FULL, P, S and W/O M feature subsets")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("baseline", help="train/eval the full model against the plain-GRU baseline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    _add_train_flags(p)
    p.set_defaults(func=cmd_baseline)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threshold = getattr(args, "threshold", 0.5)
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(f"--threshold must lie in [0, 1], got {threshold}")
        return args.func(args)
    except (AlertaNetError, OSError) as exc:  # an unreadable --config or unwritable --out is no bug either
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
