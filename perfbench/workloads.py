"""The benchmark's workloads, their output checks and the measurement loop.

Each workload drives alertanet only through public library and CLI calls on
inputs generated with ``synth`` from the run's seed:

* ``train``  -- ``training.train`` on 1 stock x 4,000 days, batch 64; the
  forward product, the tape and backward, and the optimizer dominate.
* ``score``  -- ``training.evaluate`` over every window of 8 stocks x 2,500
  days from a saved and reloaded checkpoint: the same forward 512 wide, no
  backward, and ``metrics`` over ~20k scores.
* ``prepare`` -- ``cli prepare`` over 16 stocks x 2,500 days of CSVs, then
  ``data.load_dataset``: no model work, only ``data``, ``serialize``, ``cli``.

README.md in this directory says why each workload exists and how to read
the per-layer figures.
"""

from __future__ import annotations

import base64
import contextlib
import ctypes
import gc
import glob
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from alertanet import cli, data, model, numerics, synth, training

import tracing

# Seed of the checkpoint ``score`` evaluates; it does not depend on --seed.
CHECKPOINT_SEED = 7
# sha256 of the movement then volatility probabilities that checkpoint gives
# on the reference universe below, recorded when the benchmark was written.
# The forward pass is fixed-order, so any change to this digest means the
# forward contract was broken.
REFERENCE_SEED = 0
REFERENCE_DAYS = 700
REFERENCE_DIGEST = "2e4d7e33da41b3df04d7ee1e3f58ff56bce1d02ef603a51b73b280fcaf81bad3"

# matmul shapes the workloads use: input (u x d)(d x batch), recurrent
# (u x u)(u x batch) at batch 64 for train and 512 for score.
KERNEL_SHAPES = ((32, 8, 64), (32, 32, 64), (32, 32, 512))

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_REPS = 3  # timed operations per run, at least

# The machine this benchmark was written on is shared: its speed changed by
# up to 1.5x for minutes at a time, so two runs of the same code ten minutes
# apart differed by 30%.  A fixed calibration loop, timed between calls,
# tracks that speed: every reported time is scaled to a machine on which the
# loop takes CALIBRATION_NOMINAL_S.  README.md gives the measurements.
CALIBRATION_NOMINAL_S = 0.14


@dataclass(frozen=True)
class Spec:
    stocks: int
    days: int
    features: int = 8
    window: int = 10
    hidden: int = 32
    batch: int = 64
    epochs: int = 2

    @property
    def windows(self) -> int:
        return self.stocks * (self.days - self.window)


FULL = {
    "train": Spec(stocks=1, days=4000),
    "score": Spec(stocks=8, days=2500),
    "prepare": Spec(stocks=16, days=2500),
}
# A few seconds in all: for the smoke test, never for measurement.
TINY = {
    "train": Spec(stocks=1, days=300),
    "score": Spec(stocks=2, days=300),
    "prepare": Spec(stocks=2, days=300),
}


class Checks:
    """Named pass/fail output checks; a run is correct only if all pass."""

    def __init__(self):
        self.results: dict[str, bool] = {}
        self.details: dict[str, str] = {}

    def check(self, name: str, ok, detail: str = "") -> None:
        ok = bool(ok)
        # a check repeated on every operation passes only if it always passes
        self.results[name] = self.results.get(name, True) and ok
        if not ok:
            self.details.setdefault(name, detail)

    @property
    def passed(self) -> bool:
        return all(self.results.values())


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def _synth_spec(spec: Spec, seed: int) -> synth.SynthSpec:
    return synth.SynthSpec(n_days=spec.days, n_features=spec.features, seed=seed)


def _all_samples(split: data.DatasetSplit) -> list:
    return split.train + split.validation + split.test


# --- workloads ----------------------------------------------------------------


class Workload:
    """Set-up, one timed operation, and the checks on its output.

    ``check`` runs after every operation and must be cheap; ``final_check``
    runs once on the last output, after peak memory has been read.
    """

    uses_model = True

    def final_check(self, out, checks: Checks) -> None:
        pass


class TrainWorkload(Workload):

    def __init__(self, spec: Spec, seed: int, work_dir: Path):
        self.spec, self.seed = spec, seed
        self.digest = None

    def setup(self) -> None:
        frame = synth.generate(_synth_spec(self.spec, self.seed))
        self.split, _ = data.build_dataset([frame], self.spec.window)
        self.cfg = training.TrainConfig(
            window=self.spec.window,
            hidden=self.spec.hidden,
            epochs=self.spec.epochs,
            batch_size=self.spec.batch,
            patience=self.spec.epochs,  # early stopping cannot cut the work
            seed=self.seed,
            arch="alerta",
        )
        self.samples = self.spec.epochs * len(self.split.train)

    def op(self):
        return training.train(self.split, self.cfg)

    def check(self, out, checks: Checks) -> None:
        params, _, report = out
        values = [t.value for _, t in params.items()]
        checks.check("train.epochs_run", len(report.epochs) == self.spec.epochs,
                     f"{len(report.epochs)} epochs run, expected {self.spec.epochs}")
        checks.check("train.params_finite", all(np.all(np.isfinite(v)) for v in values))
        first_loss, last_loss = report.epochs[0]["train_total"], report.epochs[-1]["train_total"]
        checks.check("train.loss_decreases", last_loss < first_loss,
                     f"train loss {first_loss} -> {last_loss}")
        d = digest(*values)
        self.digest = self.digest or d
        checks.check("train.params_repeat", d == self.digest, "parameter digest changed between repetitions")

    def forward_batch(self) -> np.ndarray:
        return np.stack([s.x for s in self.split.train[: self.spec.batch]])


class ScoreWorkload(Workload):

    def __init__(self, spec: Spec, seed: int, work_dir: Path):
        self.spec, self.seed = spec, seed
        self.checkpoint = work_dir / "checkpoint.json"
        self.report = None

    def setup(self) -> None:
        frames = synth.generate_universe(_synth_spec(self.spec, self.seed), self.spec.stocks)
        self.split, _ = data.build_dataset(frames, self.spec.window)
        self.samples_list = _all_samples(self.split)
        self.samples = len(self.samples_list)
        # seeded untrained parameters, saved and reloaded as `eval` would
        config = model.ModelConfig(self.spec.features, self.spec.hidden, self.spec.window,
                                   feature_names=self.split.feature_names)
        params = model.init_params(config, np.random.default_rng(CHECKPOINT_SEED))
        model.save_checkpoint(self.checkpoint, params, config)
        self.params, self.config, _ = model.load_checkpoint(self.checkpoint)

    def op(self):
        return training.evaluate(self.params, self.config, self.samples_list, 0.5, self.split.feature_names)

    def check(self, out, checks: Checks) -> None:
        report = out.to_json_dict()
        self.report = self.report or report
        checks.check("score.report_repeat", report == self.report,
                     "evaluation report changed between repetitions")

    def final_check(self, out, checks: Checks) -> None:
        self._check_against_oracles(out, checks)
        self._check_reference_digest(checks)

    def _check_against_oracles(self, report: training.EvalReport, checks: Checks) -> None:
        m_probs, v_probs = training.predict_probs(
            self.params, self.config, self.samples_list, self.split.feature_names
        )
        for name, probs in (("movement", m_probs), ("volatility", v_probs)):
            checks.check(f"score.{name}_probs_finite", np.all(np.isfinite(probs)))
            checks.check(f"score.{name}_probs_in_unit_interval", np.all((probs >= 0) & (probs <= 1)))
        y_m = np.array([s.y_m for s in self.samples_list])
        y_v = np.array([s.y_v for s in self.samples_list])
        scored = y_m != data.ABSTAIN
        for name, task, y, probs in (
            ("movement", report.movement, y_m[scored], m_probs[scored]),
            ("volatility", report.volatility, y_v, v_probs),
        ):
            expected = oracle_task(y, probs, report.threshold)
            checks.check(f"score.{name}_confusion", task.confusion == expected["confusion"],
                         f"{task.confusion} vs oracle {expected['confusion']}")
            for metric in ("accuracy", "mcc"):
                got, want = getattr(task, metric), expected[metric]
                checks.check(f"score.{name}_{metric}", abs(got - want) <= 1e-12, f"{got} vs oracle {want}")
            checks.check(f"score.{name}_auc", task.auc == expected["auc"],
                         f"{task.auc} vs oracle {expected['auc']}")

    def _check_reference_digest(self, checks: Checks) -> None:
        spec = Spec(stocks=1, days=REFERENCE_DAYS)
        frame = synth.generate(_synth_spec(spec, REFERENCE_SEED))
        split, _ = data.build_dataset([frame], spec.window)
        config = model.ModelConfig(spec.features, spec.hidden, spec.window, feature_names=split.feature_names)
        params = model.init_params(config, np.random.default_rng(CHECKPOINT_SEED))
        probs = training.predict_probs(params, config, _all_samples(split), split.feature_names)
        got = digest(*probs)
        checks.check("score.reference_digest", got == REFERENCE_DIGEST,
                     f"reference probabilities digest {got}, recorded {REFERENCE_DIGEST}")

    def forward_batch(self) -> np.ndarray:
        return np.stack([s.x for s in self.samples_list[:512]])


class PrepareWorkload(Workload):
    uses_model = False

    def __init__(self, spec: Spec, seed: int, work_dir: Path):
        self.spec, self.seed = spec, seed
        self.csv_dir = work_dir / "csv"
        self.out_dir = work_dir / "prepared"
        self.dataset = self.out_dir / "dataset.json"
        self.file_digest = None
        self.phase_s: dict[str, list[float]] = {"prepare": [], "load": []}

    def setup(self) -> None:
        argv = ["synth", "--out", str(self.csv_dir), "--stocks", str(self.spec.stocks),
                "--days", str(self.spec.days), "--features", str(self.spec.features),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.run(argv) != 0:
                raise RuntimeError(f"alertanet {' '.join(argv)} failed")
        self.samples = self.spec.windows

    def op(self):
        argv = ["prepare", "--data", str(self.csv_dir), "--out", str(self.out_dir),
                "--window", str(self.spec.window)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run(argv)
        t1 = time.perf_counter()
        split = data.load_dataset(self.dataset)
        t2 = time.perf_counter()
        self.phase_s["prepare"].append(t1 - t0)
        self.phase_s["load"].append(t2 - t1)
        return rc, split

    def check(self, out, checks: Checks) -> None:
        rc, split = out
        checks.check("prepare.exit_code", rc == 0, f"cli prepare returned {rc}")
        samples = _all_samples(split)
        checks.check("prepare.window_count", len(samples) == self.spec.windows,
                     f"{len(samples)} windows, expected {self.spec.windows}")
        with open(self.dataset, "rb") as fh:
            file_digest = hashlib.sha256(fh.read()).hexdigest()
        self.file_digest = self.file_digest or file_digest
        checks.check("prepare.dataset_bytes_repeat", file_digest == self.file_digest,
                     "dataset.json bytes changed between repetitions")

    def final_check(self, out, checks: Checks) -> None:
        _, split = out
        self._check_labels(_all_samples(split), checks)
        self._check_round_trip(split, checks)

    def _check_labels(self, samples: list, checks: Checks) -> None:
        """Labels against a vectorised oracle computed from the CSV prices."""
        expected = {}
        for path in sorted(self.csv_dir.glob("*.csv")):
            dates = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, dtype=str)
            prices = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, dtype=np.float64)
            r = (prices[1:] - prices[:-1]) / prices[:-1]
            lo, hi = data.DEFAULT_DEAD_ZONE
            y_m = np.where((r > lo) & (r < hi), data.ABSTAIN, np.where(r >= hi, 1, 0))
            y_v = (np.abs(r) >= data.DEFAULT_OUTLIER_THRESHOLD).astype(int)
            for t in range(self.spec.window, len(prices)):
                expected[(path.stem, str(dates[t]))] = (int(y_m[t - 1]), int(y_v[t - 1]))
        got = {(s.stock_id, s.target_date): (s.y_m, s.y_v) for s in samples}
        wrong = sum(1 for key, labels in got.items() if expected.get(key) != labels)
        checks.check("prepare.labels_match_oracle", got.keys() == expected.keys() and wrong == 0,
                     f"{wrong} of {len(got)} windows labelled differently from the price oracle")

    def _check_round_trip(self, loaded: data.DatasetSplit, checks: Checks) -> None:
        """``load_dataset`` gives the arrays ``build_dataset`` made in memory."""
        frames = [data.load_frame(p) for p in sorted(self.csv_dir.glob("*.csv"))]
        built, _ = data.build_dataset(frames, self.spec.window)
        same = built.boundaries == loaded.boundaries and built.feature_names == loaded.feature_names
        for name, part in built.splits().items():
            other = loaded.splits()[name]
            same = same and len(part) == len(other) and np.array_equal(
                np.stack([s.x for s in part]), np.stack([s.x for s in other])
            ) and [(s.y_m, s.y_v, s.stock_id, s.target_date) for s in part] == [
                (s.y_m, s.y_v, s.stock_id, s.target_date) for s in other
            ]
        checks.check("prepare.round_trip_equal", same, "load_dataset differs from the in-memory dataset")


WORKLOADS = {"train": TrainWorkload, "score": ScoreWorkload, "prepare": PrepareWorkload}


# --- oracles and guards ---------------------------------------------------------


def oracle_task(y: np.ndarray, probs: np.ndarray, threshold: float) -> dict:
    """Confusion counts, accuracy, MCC and an all-pairs AUC, computed directly."""
    pred = probs >= threshold
    pos = y == 1
    tp, fn = int(np.sum(pred & pos)), int(np.sum(~pred & pos))
    fp, tn = int(np.sum(pred & ~pos)), int(np.sum(~pred & ~pos))
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    pos_scores, neg_scores = probs[pos], probs[~pos]
    wins = ties = 0
    for lo in range(0, len(pos_scores), 256):  # every (positive, negative) pair
        block = pos_scores[lo : lo + 256, None]
        wins += int(np.sum(block > neg_scores[None, :]))
        ties += int(np.sum(block == neg_scores[None, :]))
    return {
        "confusion": {"tp": tp, "tn": tn, "fp": fp, "fn": fn},
        "accuracy": (tp + tn) / len(y),
        "mcc": (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0,
        "auc": (wins + 0.5 * ties) / (len(pos_scores) * len(neg_scores)),
    }


def scalar_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple loop over Python floats, adding left to right over the inner index."""
    rows, cols = a.tolist(), b.T.tolist()
    return np.array([[_dot(row, col) for col in cols] for row in rows])


def _dot(row: list[float], col: list[float]) -> float:
    total = 0.0
    for x, y in zip(row, col):
        total = total + x * y
    return total


def check_kernel(seed: int, checks: Checks) -> None:
    """``numerics.matmul_values`` must equal the scalar loop bit for bit."""
    rng = np.random.default_rng(seed)
    for m, k, n in KERNEL_SHAPES:
        a, b = rng.uniform(-1, 1, (m, k)), rng.uniform(-1, 1, (k, n))
        checks.check(f"kernel.fixed_order[{m}x{k}x{n}]",
                     np.array_equal(numerics.matmul_values(a, b), scalar_matmul(a, b)))


def context_share(x: np.ndarray, spec: Spec, repeats: int = 7) -> float:
    """(alerta - gru) / alerta forward time on one batch, medians of interleaved calls."""
    runs = {}
    for arch in ("alerta", "gru"):
        config = model.ModelConfig(spec.features, spec.hidden, spec.window, arch=arch)
        runs[arch] = (model.init_params(config, np.random.default_rng(CHECKPOINT_SEED)), config, [])
    for _ in range(repeats):
        for params, config, times in runs.values():
            t0 = time.perf_counter()
            model.forward_batch(x, params, config)
            times.append(time.perf_counter() - t0)
    alerta, gru = (statistics.median(runs[a][2]) for a in ("alerta", "gru"))
    return (alerta - gru) / alerta


# --- environment ------------------------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


# --- one run ------------------------------------------------------------------------


def _calibration_work() -> None:
    """Fixed work that never touches alertanet, in the same kinds as the
    workloads: small numpy ops, Python dict and sort churn, JSON and base64."""
    a = np.linspace(-1.0, 1.0, 2048).reshape(32, 64)
    b = a[::-1].copy()
    out = np.empty_like(a)
    for _ in range(10000):
        np.multiply(a, b, out=out)
        np.add(out, a, out=out)
    table = {str(i): (i, i * 0.5) for i in range(10000)}
    sorted(table, key=lambda k: -table[k][1])
    blob = {f"k{i}": [j * 1.1 for j in range(50)] for i in range(300)}
    for _ in range(3):
        json.loads(json.dumps(blob, indent=2))
        base64.b64decode(base64.b64encode(a.tobytes() * 20))


def calibration_s() -> float:
    """Time of the calibration loop.  The cyclic collector is off while it
    runs, so its time does not grow with the objects the workload keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Wall times of calls, and the same times scaled to the nominal machine.

    The calibration loop runs between calls; a call's scaled time is its wall
    time times CALIBRATION_NOMINAL_S over the mean of the loop's times just
    before and just after it.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.calibration: list[float] = []
        self._last = None

    def time(self, fn):
        before = self._last if self._last is not None else calibration_s()
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        self._last = calibration_s()
        calibration = 0.5 * (before + self._last)
        self.raw.append(elapsed)
        self.scaled.append(elapsed * CALIBRATION_NOMINAL_S / calibration)
        self.calibration.append(calibration)
        return out

    def __len__(self) -> int:
        return len(self.raw)

    def as_dict(self) -> dict[str, list[float]]:
        return {"raw": self.raw, "scaled": self.scaled, "calibration": self.calibration}


@dataclass
class Run:
    """What one invocation measured, before it is reduced to metrics."""

    checks: Checks = field(default_factory=Checks)
    attempted: int = 0
    failed: int = 0
    setups: Clock = field(default_factory=Clock)
    ops: Clock = field(default_factory=Clock)
    samples: int = 0
    peak_rss_mb: float = 0.0  # read before the final checks, which allocate too
    per_layer: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checks.passed

    def samples_per_s(self, times: list[float] | None = None) -> float:
        return self.samples / statistics.median(times if times is not None else self.ops.scaled)


def _setups(workload, n: int, clock: Clock, tracer=None) -> None:
    for i in range(n):
        if tracer is not None:
            tracer.run_id = f"setup-{i}"
        clock.time(workload.setup)


def _measure(workload, run: Run, seconds: float, clock: Clock, tracer=None):
    """Repeat the operation until ``seconds`` of it are measured, checking every output.

    Returns the last output, or None when an operation failed.
    """
    out = None
    while len(clock) < MIN_REPS or sum(clock.raw) < seconds:
        out = None  # the previous output is freed before the next operation
        if tracer is not None:
            tracer.run_id = f"op-{len(clock)}"
        run.attempted += 1
        try:
            out = clock.time(workload.op)
            workload.check(out, run.checks)
        except Exception:  # a failed operation is counted and reported, then the run stops
            run.failed += 1
            traceback.print_exc()
            return None
    return out


def _final_check(workload, run: Run, out) -> None:
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if out is not None:
        workload.final_check(out, run.checks)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
                 sizes: dict[str, Spec] = FULL, spans_path: Path | None = None) -> Run:
    spec = sizes[name]
    workload = WORKLOADS[name](spec, seed, work_dir)
    run = Run()
    if workload.uses_model:
        check_kernel(seed, run.checks)
    _setups(workload, SETUPS, run.setups)
    run.samples = workload.samples
    if not trace:
        _final_check(workload, run, _measure(workload, run, seconds, run.ops))
        _record_phases(workload, run)
        return run

    # Traced run: half the time untraced and half traced, so the difference
    # between the two is the tracing overhead.
    run.per_layer["model.context_share"] = (
        context_share(workload.forward_batch(), spec) if workload.uses_model else 0.0
    )
    _final_check(workload, run, _measure(workload, run, seconds / 2, run.ops))
    _record_phases(workload, run)
    traced_setups, traced_ops = Clock(), Clock()
    with tracing.Tracer() as tracer:
        _setups(workload, SETUPS, traced_setups, tracer)
        _measure(workload, run, seconds / 2, traced_ops, tracer)
    if spans_path is not None:
        tracer.write(spans_path)
    run.per_layer.update(tracing.layer_totals(tracer.spans, len(traced_setups), max(1, len(traced_ops))))
    forward_ms = [s.seconds * 1e3 for s in tracer.spans
                  if s.name == "model.forward_batch" and s.run_id.startswith("op")]
    run.per_layer["model.forward_batch.p50_ms"] = _quantile(forward_ms, 0.5)
    run.per_layer["model.forward_batch.p90_ms"] = _quantile(forward_ms, 0.9)
    run.per_layer["data.dataset_bytes"] = float(workload.dataset.stat().st_size) if name == "prepare" else 0.0
    untraced = run.samples_per_s()
    traced = run.samples_per_s(traced_ops.scaled) if len(traced_ops) else 0.0
    run.per_layer["trace.untraced.samples_per_s"] = untraced
    run.per_layer["trace.traced.samples_per_s"] = traced
    run.per_layer["trace.overhead_share"] = 1.0 - traced / untraced
    run.per_layer["trace.setup_overhead_share"] = (
        statistics.median(traced_setups.scaled) / statistics.median(run.setups.scaled) - 1.0
    )
    run.extra["traced_setups"] = traced_setups.as_dict()
    run.extra["traced_ops"] = traced_ops.as_dict()
    run.extra["spans"] = len(tracer.spans)
    return run


def _record_phases(workload, run: Run) -> None:
    """Unscaled rates of the phases inside one untraced operation, for the human report only."""
    for phase, times in getattr(workload, "phase_s", {}).items():
        run.extra.setdefault("phase_samples_per_s", {})[phase] = run.samples_per_s(times)


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "samples_per_s": run.samples_per_s(),
        "setup_s": statistics.median(run.setups.scaled),
        "peak_rss_mb": run.peak_rss_mb,
    }
