"""Outside-in tracing: timers wrapped around alertanet's public functions.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
module attributes with timing wrappers for the duration of a ``with`` block
and restores the originals afterwards.  A function is patched at every name
its callers resolve at call time: ``training`` imports ``forward_batch`` by
name, so ``model.forward_batch`` and ``training.forward_batch`` both get the
wrapper, while ``model`` calls ``nx.matmul`` through the module, so patching
``numerics.matmul`` is enough.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from pathlib import Path

# span name -> the (module, attribute) names callers resolve at call time
TRACED: dict[str, tuple[tuple[str, str], ...]] = {
    "numerics.matmul": (("numerics", "matmul"),),
    "numerics.backward": (("numerics", "backward"),),
    "numerics.bce_with_logits": (("numerics", "bce_with_logits"),),
    "model.forward_batch": (("model", "forward_batch"), ("training", "forward_batch")),
    "model.save_checkpoint": (("model", "save_checkpoint"), ("cli", "save_checkpoint")),
    "model.load_checkpoint": (("model", "load_checkpoint"), ("cli", "load_checkpoint")),
    "training.train": (("training", "train"), ("cli", "train")),
    "training.evaluate": (("training", "evaluate"), ("cli", "evaluate")),
    "training.predict_probs": (("training", "predict_probs"),),
    "training.clip_gradients": (("training", "clip_gradients"),),
    "training.Adam.step": (("training", "Adam.step"),),
    "metrics.auc": (("metrics", "auc"),),
    "metrics.ConfusionCounts.from_predictions": (("metrics", "ConfusionCounts.from_predictions"),),
    "data.load_frame": (("data", "load_frame"), ("cli", "load_frame")),
    "data.write_frame": (("data", "write_frame"), ("cli", "write_frame")),
    "data.build_dataset": (("data", "build_dataset"), ("cli", "build_dataset")),
    "data.save_dataset": (("data", "save_dataset"), ("cli", "save_dataset")),
    "data.load_dataset": (("data", "load_dataset"), ("cli", "load_dataset")),
    "serialize.encode_array": (("serialize", "encode_array"),),
    "serialize.decode_array": (("serialize", "decode_array"),),
    "serialize.write_json": (("serialize", "write_json"),),
    "serialize.read_json": (("serialize", "read_json"),),
    "serialize.sha256_file": (("serialize", "sha256_file"),),
    "synth.generate_universe": (("synth", "generate_universe"), ("cli", "generate_universe")),
    "cli.prepare": (("cli", "cmd_prepare"),),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: str
    child_s: float = 0.0  # time covered by direct children

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Records one span per call of a patched function, kept in memory.

    Single-threaded by design: the parent of a span is whatever span is open
    when it starts, so spans nest and children never overlap.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, 0.0, 0.0, parent, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start

        return timed

    def __enter__(self) -> "Tracer":
        for name, targets in TRACED.items():
            for module_name, attr_path in targets:
                owner = importlib.import_module(f"alertanet.{module_name}")
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(original.__func__, name))
                else:
                    patched = self._wrap(original, name)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times in seconds from tracer creation."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start - self._origin,
                    "end": span.end - self._origin,
                    "parent": span.parent,
                    "run_id": span.run_id,
                }
                fh.write(json.dumps(record) + "\n")


def layer_totals(spans: list[Span], n_setups: int, n_ops: int) -> dict[str, float]:
    """Per-layer ``<name>.s``, ``<name>.self_s`` and ``<name>.calls``.

    Each figure is the layer's share of one set-up plus one timed operation:
    sums over spans recorded under a ``setup-*`` run id are divided by the
    number of traced set-ups, the others by the number of traced operations.
    Every traced layer is present, reading zero when it never ran.
    """
    sums = {phase: {} for phase in ("setup", "op")}
    for span in spans:
        acc = sums["setup" if span.run_id.startswith("setup") else "op"].setdefault(span.name, [0.0, 0.0, 0])
        acc[0] += span.seconds
        acc[1] += span.self_s
        acc[2] += 1
    out = {}
    for name in TRACED:
        setup = sums["setup"].get(name, (0.0, 0.0, 0))
        op = sums["op"].get(name, (0.0, 0.0, 0))
        for i, key in enumerate(("s", "self_s", "calls")):
            out[f"{name}.{key}"] = setup[i] / n_setups + op[i] / n_ops
    return out
