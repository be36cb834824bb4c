"""Ingestion, normalization, labeling, windowing and chronological splitting.

Input files are per-stock CSVs with a header row: ``date, adj_close,
<feature...>``, ISO-8601 dates, UTF-8, ``.`` decimal separator.  Feature
columns must be nonnegative (log normalization has no meaning for signed
values); signed series must be shifted before ingestion, and the loader
rejects violations rather than silently transforming them.

Labels follow the day-over-day relative price change r = (p_t - p_{t-1}) /
p_{t-1}: the movement label is 1 for r at or above the upper dead-zone edge,
0 at or below the lower edge, and ABSTAIN strictly inside the dead zone
(default (-0.5%, +0.5%)); the volatility label is 1 exactly when |r| >= the
outlier threshold (default 5%).
"""

from __future__ import annotations

import codecs
import csv
from dataclasses import dataclass, field
from datetime import date as _date
from itertools import compress, count, islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import serialize
from .errors import (
    ConfigError,
    DataIntegrityError,
    DomainError,
    ParseError,
    PreprocessingError,
    SchemaError,
    UsageError,
)

ABSTAIN = -1
DEFAULT_DEAD_ZONE = (-0.005, 0.005)
DEFAULT_OUTLIER_THRESHOLD = 0.05
DEFAULT_EPSILON = 1e-8

DATE_COLUMN = "date"
PRICE_COLUMN = "adj_close"

DATASET_VERSION = 2

# Records that load_frame converts at a time, so that the cells of a whole file
# are never held at once.  On a 2,500-row, 10-column file the traced peak was
# 2.6 MB with every record held, 1.2 MB with 512 at a time, and 1.6 MB when
# converting one row at a time; the held cells grow with the file, a pass does not.
_RECORDS_PER_PASS = 512


@dataclass
class FeatureFrame:
    """Aligned daily series for one stock: price plus named feature columns."""

    stock_id: str
    dates: list[str]
    adj_close: np.ndarray
    feature_names: list[str]
    features: np.ndarray  # shape (n_days, n_features)

    def __post_init__(self):
        self.adj_close = np.asarray(self.adj_close, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DataIntegrityError(f"{self.stock_id}: features must be 2-D")
        n = len(self.dates)
        if self.adj_close.shape != (n,) or self.features.shape[0] != n:
            raise DataIntegrityError(
                f"{self.stock_id}: {n} dates vs {self.adj_close.shape[0]} prices "
                f"vs {self.features.shape[0]} feature rows"
            )
        if self.features.shape[1] != len(self.feature_names):
            raise DataIntegrityError(
                f"{self.stock_id}: {len(self.feature_names)} feature names vs "
                f"{self.features.shape[1]} feature columns"
            )
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise DataIntegrityError(f"{self.stock_id}: dates not strictly ascending at {cur}")
        bad = np.flatnonzero(~(np.isfinite(self.adj_close) & (self.adj_close > 0)))
        if bad.size:
            raise DataIntegrityError(
                f"{self.stock_id}: adj_close {self.adj_close[bad[0]]} on {self.dates[bad[0]]} "
                "is not a positive finite number"
            )
        bad = np.argwhere(~np.isfinite(self.features))
        if bad.size:
            day, col = bad[0]
            raise DataIntegrityError(
                f"{self.stock_id}: non-finite value {self.features[day, col]} in feature "
                f"{self.feature_names[col]!r} on {self.dates[day]}"
            )

    def __len__(self) -> int:
        return len(self.dates)


def _parse_date(cell: str, line_no: int, path) -> str:
    try:
        return _date.fromisoformat(cell.strip()).isoformat()
    except ValueError as exc:
        raise ParseError(f"{path}: row {line_no}: bad date {cell!r} ({exc})") from exc


def _parse_float(cell: str, line_no: int, column: str, path) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: row {line_no}: non-numeric value {cell!r} in column {column!r}") from None


def load_frame(path: str | Path, schema: list[str] | None = None) -> FeatureFrame:
    """Load one per-stock CSV.

    ``schema`` selects and orders the feature columns; ``None`` takes every
    column after ``date``/``adj_close`` in header order.  Rows are sorted by
    date; duplicate dates, non-numeric or non-finite cells, nonpositive
    prices and negative feature values are rejected, as are files that are
    not UTF-8 or that the CSV reader cannot split, headers that name
    ``date``, ``adj_close`` or a selected feature more than once, and a
    ``schema`` that names a column more than once.  A leading
    UTF-8 byte-order mark is skipped.

    Records are read ``_RECORDS_PER_PASS`` at a time, and each selected
    column of them is converted in one pass of ``float`` (the date column in
    one of ``date.fromisoformat``).  Only when a pass fails, or a record has
    the wrong width, do that pass's records go through one at a time, to name
    the first bad cell in file order.
    """
    path = Path(path)
    if schema is not None and len(set(schema)) < len(schema):
        repeated = next(c for c in schema if schema.count(c) > 1)
        raise SchemaError(f"the schema names column {repeated!r} more than once")
    line_nos, dates, parts = [], [], []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise SchemaError(f"{path}: empty file") from None
            if schema is None:
                schema = [h for h in header if h not in (DATE_COLUMN, PRICE_COLUMN)]
            columns = [PRICE_COLUMN, *schema]
            missing = [c for c in [DATE_COLUMN, *columns] if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing required columns {missing}")
            repeated = [c for c in dict.fromkeys([DATE_COLUMN, *columns]) if header.count(c) > 1]
            if repeated:
                raise SchemaError(f"{path}: column {repeated[0]!r} appears more than once in the header")
            col_idx = {name: header.index(name) for name in header}
            value_cols = [col_idx[c] for c in columns]
            first = 2  # the header is row 1
            while records := list(islice(reader, _RECORDS_PER_PASS)):
                # a record with no cells or only blank ones is skipped
                kept = list(map(any, map(map, repeat(str.strip), records)))
                numbers = list(compress(count(first), kept))
                first += len(records)
                records = list(compress(records, kept))
                converted = _convert_columns(records, len(header), col_idx[DATE_COLUMN], value_cols)
                if converted is None:
                    _raise_first_bad_cell(path, header, col_idx, columns, zip(numbers, records))
                line_nos += numbers
                dates += converted[0]
                parts.append(converted[1])
    except UnicodeDecodeError as exc:
        raise _decode_error(path) from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: unreadable CSV ({exc})") from None

    order = sorted(range(len(dates)), key=dates.__getitem__)  # stable: duplicates keep file order
    dates = list(map(dates.__getitem__, order))
    line_nos = list(map(line_nos.__getitem__, order))
    # Price then features, one row per day in date order, filled in place
    # rather than sorted once built, which would allocate and free a second block.
    block = np.empty((len(dates), len(columns)))
    rows = np.array(order, dtype=np.intp)
    for j, column in enumerate(zip(*parts)):
        block[:, j] = np.concatenate(column)[rows]
    same = list(map(str.__eq__, dates, dates[1:]))
    if True in same:
        i = same.index(True)
        raise DataIntegrityError(f"{path}: duplicate date {dates[i]} (rows {line_nos[i]} and {line_nos[i + 1]})")
    bad = np.argwhere(~np.isfinite(block))
    if bad.size:
        i, j = bad[0]
        raise ParseError(f"{path}: row {line_nos[i]}: non-finite value {block[i, j]} in column {columns[j]!r}")
    bad = np.argwhere(block[:, 1:] < 0)
    if bad.size:
        i, j = bad[0]
        raise PreprocessingError(
            f"{path}: row {line_nos[i]}: negative value {block[i, j + 1]} in feature column {schema[j]!r}; "
            "shift signed series before ingestion"
        )
    bad = np.flatnonzero(block[:, 0] <= 0)
    if bad.size:
        i = bad[0]
        raise DataIntegrityError(f"{path}: row {line_nos[i]}: adj_close {block[i, 0]} is not a positive number")

    return FeatureFrame(
        stock_id=path.stem,
        dates=dates,
        adj_close=block[:, 0],
        feature_names=list(schema),
        features=block[:, 1:],
    )


def _convert_columns(records: list[list[str]], width: int, date_col: int, value_cols: list[int]):
    """ISO dates and a float array per value column of ``records``, or None if a record or cell is bad."""
    if not set(map(len, records)) <= {width}:
        return None
    cols = list(zip(*records)) or [()] * width
    try:
        dates = list(map(_date.isoformat, map(_date.fromisoformat, map(str.strip, cols[date_col]))))
        return dates, [np.fromiter(map(float, cols[c]), np.float64, count=len(records)) for c in value_cols]
    except ValueError:
        return None


def _raise_first_bad_cell(path, header, col_idx, columns, numbered_records) -> None:
    """Check the records one at a time, in file order, and raise for the first bad one."""
    for line_no, cells in numbered_records:
        if len(cells) != len(header):
            raise ParseError(f"{path}: row {line_no}: expected {len(header)} cells, got {len(cells)}")
        _parse_date(cells[col_idx[DATE_COLUMN]], line_no, path)
        for c in columns:
            _parse_float(cells[col_idx[c]], line_no, c, path)
    raise AssertionError(f"{path}: a column failed to convert but no record has a bad cell")


def _decode_error(path: Path) -> ParseError:
    """A :class:`ParseError` naming the line and byte of the first bytes of ``path`` that are not UTF-8."""
    # the "utf-8-sig" reader skips a byte-order mark, and so do the offsets here
    raw = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return ParseError(f"{path}: line {line}: not UTF-8 text (byte 0x{raw[exc.start]:02x}: {exc.reason})")
    return ParseError(f"{path}: not UTF-8 text")


def write_frame(frame: FeatureFrame, path: str | Path) -> None:
    """Write a frame back to CSV, atomically, with full float64 round-trip precision (``repr`` of every value)."""
    values = np.column_stack([frame.adj_close, frame.features]).T.tolist()
    with serialize.atomic_writer(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([DATE_COLUMN, PRICE_COLUMN, *frame.feature_names])
        writer.writerows(zip(frame.dates, *(map(repr, col) for col in values)))


def normalize(window_values, epsilon: float = DEFAULT_EPSILON, feature_names: list[str] | None = None) -> np.ndarray:
    """Elementwise log normalization ``ln(e + epsilon)`` of a raw window."""
    arr = np.asarray(window_values, dtype=np.float64)
    if np.any(arr < 0):
        row = int(np.argwhere(arr < 0)[0][0])
        name = feature_names[row] if feature_names else f"row {row}"
        raise PreprocessingError(f"negative entry in feature {name}; log normalization requires nonnegative values")
    return np.log(arr + epsilon)


def label_prices(
    p_prev,
    p_t,
    dead_zone: tuple[float, float] = DEFAULT_DEAD_ZONE,
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """Movement and volatility labels (int8) for every pair of previous and current prices."""
    lo, hi = dead_zone
    if not -np.inf < lo < hi < np.inf:
        raise ConfigError(f"dead zone must satisfy lo < hi, both finite, got dead_zone={dead_zone}")
    if not 0 < outlier_threshold < np.inf:
        raise ConfigError(f"outlier_threshold must be a finite number > 0, got {outlier_threshold}")
    p_prev = np.asarray(p_prev, dtype=np.float64)
    bad = p_prev[p_prev <= 0]
    if bad.size:
        raise DomainError(f"previous price must be positive, got {float(bad[0])}")
    r = (np.asarray(p_t, dtype=np.float64) - p_prev) / p_prev
    y_m = np.where((lo < r) & (r < hi), ABSTAIN, np.where(r >= hi, 1, 0)).astype(np.int8)
    return y_m, (np.abs(r) >= outlier_threshold).astype(np.int8)


class WindowedSample(NamedTuple):
    """One sample as a record: what indexing or iterating a :class:`SampleSet` yields."""

    x: np.ndarray  # (n_features, window), a read-only view of the set's days
    y_m: int  # 0, 1, or ABSTAIN
    y_v: int  # 0 or 1
    stock_id: str
    target_date: str


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Samples as columns over one shared, read-only array of logged feature days.

    Row ``i`` reads the window ``days[start[i] : start[i] + window].T``, of shape
    (n_features, window), and is labelled at its target date.  Slices, index
    arrays and sums of the parts of one split share ``days``.
    """

    days: np.ndarray  # (n_days, n_features) float64
    window: int
    start: np.ndarray  # (n,) int: first day of each row's window
    y_m: np.ndarray  # (n,) int8: 0, 1, or ABSTAIN
    y_v: np.ndarray  # (n,) int8: 0 or 1
    stock_ids: np.ndarray  # (n,) str
    target_dates: np.ndarray  # (n,) str, ISO dates

    @staticmethod
    def concat(sets: list[SampleSet]) -> SampleSet:
        """The rows of ``sets`` in order, over a new array that concatenates their days."""
        days = np.concatenate([s.days for s in sets])
        days.flags.writeable = False
        start, *rest = map(np.concatenate, zip(*(s._columns() for s in sets)))
        offsets = np.cumsum([0] + [len(s.days) for s in sets[:-1]])
        return SampleSet(days, sets[0].window, start + np.repeat(offsets, [len(s) for s in sets]), *rest)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.start, self.y_m, self.y_v, self.stock_ids, self.target_dates

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, key):
        """A :class:`WindowedSample` for an int, else a :class:`SampleSet` of those rows over the same days."""
        if isinstance(key, (int, np.integer)):
            s = int(self.start[key])
            return WindowedSample(self.days[s : s + self.window].T, int(self.y_m[key]), int(self.y_v[key]),
                                  str(self.stock_ids[key]), str(self.target_dates[key]))
        return SampleSet(self.days, self.window, *(c[key] for c in self._columns()))

    def __iter__(self):
        for s, *rest in zip(*(c.tolist() for c in self._columns())):
            yield WindowedSample(self.days[s : s + self.window].T, *rest)

    def __add__(self, other: SampleSet) -> SampleSet:
        """The rows of ``self`` then ``other``, which must read the same days (as the parts of one split do)."""
        if not isinstance(other, SampleSet):
            return NotImplemented
        if other.days is not self.days or other.window != self.window:
            raise ValueError("only sample sets over the same days add up, such as the parts of one split; "
                             "use SampleSet.concat to join others")
        return SampleSet(self.days, self.window, *map(np.concatenate, zip(self._columns(), other._columns())))


def window(
    frame: FeatureFrame,
    window_len: int,
    dead_zone: tuple[float, float] = DEFAULT_DEAD_ZONE,
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> SampleSet:
    """Slice a frame into samples: features from days [t-window, t), labels at day t.

    Every feature date is strictly before the target date, so there is no
    temporal leakage.  Samples read the frame's logged days ``log(x + epsilon)``
    in place; a frame shorter than window+1 days yields none.
    """
    if window_len < 1:
        raise ConfigError(f"window length must be >= 1, got {window_len}")
    if not 0 < epsilon < np.inf:
        raise ConfigError(f"epsilon must be a finite number > 0, got {epsilon}")
    n = len(frame)
    # windows read days [t - window_len, t) for targets t in [window_len, n): day n - 1 is only a target
    n_days = n - 1 if n > window_len else 0
    days = normalize(frame.features[:n_days].T, epsilon, frame.feature_names).T
    days.flags.writeable = False  # neighbouring windows share this memory
    y_m, y_v = label_prices(frame.adj_close[window_len - 1 : n_days], frame.adj_close[window_len : n_days + 1],
                            dead_zone, outlier_threshold)
    return SampleSet(days, window_len, np.arange(len(y_m)), y_m, y_v, np.full(len(y_m), frame.stock_id),
                     np.array(frame.dates[window_len : n_days + 1], dtype=str))


@dataclass
class DatasetSplit:
    """Chronologically disjoint train/validation/test sample sets and the frames that yield them."""

    train: SampleSet
    validation: SampleSet
    test: SampleSet
    frames: list[FeatureFrame] = field(default_factory=list)
    feature_names: list[str] = field(default_factory=list)
    window: int = 0
    meta: dict = field(default_factory=dict)

    def splits(self) -> dict[str, SampleSet]:
        return {"train": self.train, "validation": self.validation, "test": self.test}

    @property
    def boundaries(self) -> dict[str, list[str]]:
        """First and last target date of each part."""
        return {name: [str(p.target_dates[0]), str(p.target_dates[-1])] for name, p in self.splits().items()}


def chrono_split(samples: SampleSet, train_frac: float, valid_frac: float) -> DatasetSplit:
    """Split by (target date, stock) order; a calendar date never straddles two splits.

    The three parts share the days of ``samples``.
    """
    if not (0 < train_frac and 0 < valid_frac and train_frac + valid_frac < 1):  # false for a nan too
        raise ConfigError(
            f"fractions must be positive and sum below 1, got train_frac={train_frac} valid_frac={valid_frac}"
        )
    ordered = samples[np.lexsort((samples.stock_ids, samples.target_dates))]
    dates = ordered.target_dates
    n = len(ordered)

    def _advance_to_date_boundary(cut: int) -> int:
        if not 0 < cut < n:
            return cut
        return int(np.searchsorted(dates, dates[cut - 1], side="right"))

    cut1 = _advance_to_date_boundary(int(n * train_frac))
    cut2 = _advance_to_date_boundary(max(int(n * (train_frac + valid_frac)), cut1))
    parts = {"train": ordered[:cut1], "validation": ordered[cut1:cut2], "test": ordered[cut2:]}
    empty = [name for name, part in parts.items() if not part]
    if empty:
        raise ConfigError(
            f"too few samples for the requested fractions: empty split(s) {empty} "
            f"(n={n}, train_frac={train_frac}, valid_frac={valid_frac})"
        )
    return DatasetSplit(train=parts["train"], validation=parts["validation"], test=parts["test"])


def build_dataset(
    frames: list[FeatureFrame],
    window_len: int,
    dead_zone: tuple[float, float] = DEFAULT_DEAD_ZONE,
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD,
    train_frac: float = 0.7,
    valid_frac: float = 0.15,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple[DatasetSplit, list[str]]:
    """Window every frame and split chronologically.

    Frames are processed in stock-id order so multi-stock merges are
    deterministic.  Returns the split plus human-readable warnings (e.g.
    frames too short to window).
    """
    if not frames:
        raise ConfigError("no input frames")
    names = frames[0].feature_names
    for frame in frames:
        if frame.feature_names != names:
            raise SchemaError(
                f"feature columns differ between stocks: {names} vs {frame.feature_names} ({frame.stock_id})"
            )
    warnings: list[str] = []
    parts: list[SampleSet] = []
    windowed: list[FeatureFrame] = []
    for frame in sorted(frames, key=lambda f: f.stock_id):
        part = window(frame, window_len, dead_zone, outlier_threshold, epsilon)
        if part:
            windowed.append(frame)
        else:
            warnings.append(f"frame {frame.stock_id}: too short for window {window_len}, skipped")
        parts.append(part)
    split = chrono_split(SampleSet.concat(parts), train_frac, valid_frac)
    split.frames = windowed
    split.feature_names = list(names)
    split.window = window_len
    split.meta = {
        "dead_zone": list(dead_zone),
        "outlier_threshold": outlier_threshold,
        "epsilon": epsilon,
        "train_frac": train_frac,
        "valid_frac": valid_frac,
    }
    return split, warnings


# --- feature taxonomy for ablation modes ---------------------------------

ABLATION_MODES = ("full", "p", "s", "wo-m")

_CATEGORY_PREFIXES = (
    ("sentiment", ("sent",)),
    ("macro", ("macro",)),
    ("price", ("price", "adj")),
    ("trend", ("trend",)),
    ("tweet", ("tweet",)),
)


def feature_category(name: str) -> str:
    lowered = name.lower()
    for category, prefixes in _CATEGORY_PREFIXES:
        if lowered.startswith(prefixes):
            return category
    return "other"


def normalize_ablation_mode(mode: str) -> str:
    cleaned = mode.strip().lower().replace("_", "-").replace("w/o-m", "wo-m")
    if cleaned == "wo-m" or cleaned == "wom":
        cleaned = "wo-m"
    if cleaned not in ABLATION_MODES:
        raise ConfigError(f"unknown ablation mode {mode!r}; expected one of {ABLATION_MODES}")
    return cleaned


def ablation_feature_indices(feature_names: list[str], mode: str) -> list[int]:
    """Feature-row subset for an ablation mode (rows are removed, not zeroed)."""
    mode = normalize_ablation_mode(mode)
    categories = [feature_category(n) for n in feature_names]
    if mode == "full":
        keep = [True] * len(feature_names)
    elif mode == "p":
        keep = [c == "price" for c in categories]
    elif mode == "s":
        keep = [c == "sentiment" for c in categories]
    else:  # wo-m
        keep = [c != "macro" for c in categories]
    indices = [i for i, k in enumerate(keep) if k]
    if not indices:
        raise ConfigError(
            f"ablation mode {mode!r} selects no feature columns out of {feature_names}"
        )
    return indices


# --- dataset (de)serialization --------------------------------------------


def save_dataset(path: str | Path, split: DatasetSplit) -> None:
    """Write each source frame of ``split`` once, with the settings that rebuild its samples.

    :func:`load_dataset` windows, labels and splits the frames again, so any change to
    windowing, labelling or splitting semantics has to bump ``DATASET_VERSION``.
    """
    if not split.frames:
        raise UsageError("the split has no source frames; build it with build_dataset to save it")
    serialize.write_json(
        path,
        {
            "format_version": DATASET_VERSION,
            "kind": "alertanet-dataset",
            "feature_names": split.feature_names,
            "window": split.window,
            "meta": split.meta,
            "frames": [
                {"stock_id": f.stock_id, "dates": f.dates, "adj_close": serialize.encode_array(f.adj_close),
                 "features": serialize.encode_array(f.features)}
                for f in split.frames
            ],
        },
    )


def _stored_setting(key: str, value):
    """``value``, if a stored setting is an int window, two dead-zone numbers, or a number; else ``ValueError``."""
    if key == "window":
        ok, want = type(value) is int, "an integer"
    elif key == "dead_zone":
        ok = isinstance(value, list) and len(value) == 2 and all(type(v) in (int, float) for v in value)
        want = "a list of two numbers"
    else:
        ok, want = type(value) in (int, float), "a number"
    if not ok:
        raise ValueError(f"{key!r} is {value!r}, expected {want}")
    return value


def load_dataset(path: str | Path) -> DatasetSplit:
    """Rebuild the split of a :func:`save_dataset` file; its frames pass the :class:`FeatureFrame` checks."""
    if not Path(path).is_file():
        raise ConfigError(f"dataset file {path} not found; run the `prepare` step first")
    obj = serialize.read_json(path)
    if not isinstance(obj, dict) or obj.get("kind") != "alertanet-dataset":
        raise ParseError(f"{path}: not a dataset file")
    if obj.get("format_version") != DATASET_VERSION:
        raise ParseError(
            f"{path}: dataset format version {obj.get('format_version')} is not supported (this version "
            f"reads {DATASET_VERSION}, which stores each source frame once); rerun `alertanet prepare`"
        )
    try:
        meta, names, window_len = obj["meta"], obj["feature_names"], _stored_setting("window", obj["window"])
        settings = {k: _stored_setting(k, meta[k])
                    for k in ("dead_zone", "outlier_threshold", "epsilon", "train_frac", "valid_frac")}
        frames = [FeatureFrame(r["stock_id"], r["dates"], serialize.decode_array(r["adj_close"]),
                               list(names), serialize.decode_array(r["features"]))
                  for r in obj["frames"]]
        split, _ = build_dataset(frames, window_len, **settings)
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc.args[0]!r}; rerun `alertanet prepare`") from None
    except (TypeError, ValueError, ConfigError) as exc:
        raise ParseError(f"{path}: malformed dataset ({exc}); rerun `alertanet prepare`") from exc
    except (DataIntegrityError, ParseError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    split.meta = meta
    return split
