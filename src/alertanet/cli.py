"""Command-line entry point: synth, prepare, train, eval, ablate, baseline.

Every command writes its artifacts plus a ``manifest.json`` into the output
directory (flag ``--out``, else the ``ALERTANET_OUT_DIR`` environment
variable, else a per-command default).  Manifests carry timestamps, wall
time and input hashes; the data-bearing artifacts (datasets, checkpoints,
reports) deliberately do not, so reruns with identical inputs and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import platform
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, serialize
from .data import (
    DEFAULT_DEAD_ZONE,
    DEFAULT_EPSILON,
    DEFAULT_OUTLIER_THRESHOLD,
    ABSTAIN,
    build_dataset,
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

    def __init__(self, command: str, out_dir: Path, seed: int | None):
        self.command = command
        self.out_dir = out_dir
        self.seed = seed
        self.started = time.perf_counter()
        self.started_at = datetime.now(timezone.utc).isoformat()
        self.config: dict = {}
        self.inputs: dict[str, dict] = {}
        self.outputs: list[str] = []
        self.warnings: list[str] = []

    def add_input(self, label: str, path: str | Path) -> None:
        self.inputs[label] = {"path": str(path), "sha256": serialize.sha256_file(path)}

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

    The file's values are validated here, so that an error names the file; ``train`` validates the rest.
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
    return replace(cfg, **{name: value for name, value in flags.items() if value is not None})


# --- commands ---------------------------------------------------------------


def cmd_synth(args) -> int:
    out = _resolve_out(args, "synth")
    manifest = _ManifestWriter("synth", out, args.seed)
    spec = SynthSpec(
        n_days=args.days,
        n_features=args.features,
        seed=args.seed,
        noise_flip_prob=args.noise,
        volatility_lag=args.vol_lag,
        base_price=args.base_price,
    )
    manifest.config = {
        "days": args.days, "features": args.features, "noise": args.noise,
        "vol_lag": args.vol_lag, "base_price": args.base_price, "stocks": args.stocks,
        "feature_names": spec.feature_names,
    }
    for frame in generate_universe(spec, args.stocks):
        name = f"{frame.stock_id}.csv"
        write_frame(frame, out / name)
        manifest.add_output(name)
    manifest.write()
    print(f"wrote {args.stocks} synthetic frame(s) to {out}")
    return 0


def cmd_prepare(args) -> int:
    out = _resolve_out(args, "prepare")
    manifest = _ManifestWriter("prepare", out, None)
    data_dir = Path(args.data)
    csv_paths = sorted(data_dir.glob("*.csv"))
    if not csv_paths:
        raise ConfigError(f"no input frames: no .csv files under {data_dir}")
    schema = [c.strip() for c in args.schema.split(",")] if args.schema else None
    frames = []
    for path in csv_paths:
        manifest.add_input(path.name, path)
        frames.append(load_frame(path, schema))
    dead_zone = tuple(args.dead_zone)
    split, warnings = build_dataset(
        frames,
        window_len=args.window,
        dead_zone=dead_zone,
        outlier_threshold=args.outlier,
        train_frac=args.train_frac,
        valid_frac=args.valid_frac,
        epsilon=args.epsilon,
    )
    manifest.warnings.extend(warnings)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    split.meta["manifest_file"] = MANIFEST_NAME
    save_dataset(out / "dataset.json", split)
    manifest.add_output("dataset.json")

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
        "window": args.window, "dead_zone": list(dead_zone), "outlier": args.outlier,
        "train_frac": args.train_frac, "valid_frac": args.valid_frac,
        "schema": split.feature_names, "counts": counts, "boundaries": split.boundaries,
    }
    _write_report(out, "split_manifest.json", "alertanet-split-manifest",
                  {"counts": counts, "boundaries": split.boundaries,
                   "feature_names": split.feature_names, "window": args.window},
                  manifest)
    manifest.write()
    print(f"prepared dataset with {sum(c['samples'] for c in counts.values())} samples -> {out}")
    return 0


def _train_once(split, cfg, out: Path, manifest: _ManifestWriter, checkpoint_name: str, report_name: str | None):
    params, config, report = train(split, cfg)
    report.checkpoint_file = checkpoint_name
    save_checkpoint(
        out / checkpoint_name, params, config,
        extra={"train_config": cfg.to_dict(), "manifest_file": MANIFEST_NAME},
    )
    manifest.add_output(checkpoint_name)
    if report_name:
        _write_report(out, report_name, "alertanet-train-report", report.to_json_dict(), manifest)
    return params, config, report


def cmd_train(args) -> int:
    out = _resolve_out(args, "train")
    split = load_dataset(args.dataset)
    cfg = _resolve_train_config(args, split.window)
    manifest = _ManifestWriter("train", out, cfg.seed)
    manifest.add_input("dataset", args.dataset)
    manifest.config = cfg.to_dict()
    _, _, report = _train_once(split, cfg, out, manifest, "checkpoint.json", "train_report.json")
    manifest.write()
    print(
        f"trained {cfg.arch} ({cfg.ablation}) for {len(report.epochs)} epochs; "
        f"best epoch {report.best_epoch}; wall {time.perf_counter() - manifest.started:.1f}s -> {out}"
    )
    return 0


def cmd_eval(args) -> int:
    out = _resolve_out(args, "eval")
    split = load_dataset(args.dataset)
    params, config, _ = load_checkpoint(args.checkpoint)
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
    """Shared driver for ablate/baseline: same data, same seed, varied config."""
    out = _resolve_out(args, command)
    split = load_dataset(args.dataset)
    manifest = _ManifestWriter(command, out, None)
    manifest.add_input("dataset", args.dataset)
    base = _resolve_train_config(args, split.window)
    rows = []
    results = {}
    for label, overrides in variants:
        cfg = replace(base, **overrides)
        safe = label.replace("/", "").replace(" ", "_").lower()
        params, config, train_report = _train_once(
            split, cfg, out, manifest, f"checkpoint_{safe}.json", None
        )
        manifest.seed = cfg.seed
        eval_report = evaluate(params, config, split.test, args.threshold, split.feature_names)
        rows.append(_metrics_row(label, eval_report))
        results[label] = {
            "train_config": cfg.to_dict(),
            "epochs_run": len(train_report.epochs),
            "best_epoch": train_report.best_epoch,
            "checkpoint": f"checkpoint_{safe}.json",
            "eval": eval_report.to_json_dict(),
        }
    manifest.config = {"threshold": args.threshold, "seed": manifest.seed,
                       "variants": [label for label, _ in variants]}
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
