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
import re
from dataclasses import astuple, dataclass, field, fields, replace
from datetime import date as _date
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
    check_fields,
)

ABSTAIN = -1
DEFAULT_DEAD_ZONE = (-0.005, 0.005)
DEFAULT_OUTLIER_THRESHOLD = 0.05
DEFAULT_EPSILON = 1e-8

DATE_COLUMN = "date"
PRICE_COLUMN = "adj_close"

DATASET_VERSION = 3

# datetime64[D] counts days from 1970-01-01, the day with this proleptic Gregorian ordinal
_EPOCH_ORDINAL = _date(1970, 1, 1).toordinal()
# the days that date.fromisoformat reads, and so the ones a CSV written by write_frame can hold
_FIRST_DAY, _LAST_DAY = np.datetime64("0001-01-01", "D"), np.datetime64("9999-12-31", "D")
# a line of commas and whitespace only (str.isspace's whitespace), which csv splits into blank cells
_BLANK_RECORD = re.compile(r"[\s,]*").fullmatch
# a dataset file's dates: YYYY-MM-DD, comma-separated
_ISO_DATES = re.compile(r"\d{4}-\d{2}-\d{2}(?:,\d{4}-\d{2}-\d{2})*")


@dataclass
class FeatureFrame:
    """Aligned daily series for one stock: price plus named feature columns.

    ``dates`` becomes a datetime64[D] array; ISO strings are read as
    :func:`load_frame` reads a CSV's date cells, with ``date.fromisoformat``.
    """

    stock_id: str
    dates: np.ndarray  # (n_days,) datetime64[D], strictly ascending
    adj_close: np.ndarray
    feature_names: list[str]
    features: np.ndarray  # shape (n_days, n_features)

    def __post_init__(self):
        dates = np.asarray(self.dates)
        if dates.dtype.kind != "M":
            try:
                dates = np.array(list(map(_day_number, dates.tolist())), dtype=np.int64)
            except (AttributeError, ValueError) as exc:
                raise DataIntegrityError(f"{self.stock_id}: bad date ({exc})") from None
        self.dates = dates.astype("datetime64[D]", copy=False)
        self.adj_close = np.asarray(self.adj_close, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DataIntegrityError(f"{self.stock_id}: features must be 2-D")
        n = len(self.dates)
        if self.dates.shape != (n,) or self.adj_close.shape != (n,) or self.features.shape[0] != n:
            raise DataIntegrityError(
                f"{self.stock_id}: {n} dates vs {self.adj_close.shape[0]} prices "
                f"vs {self.features.shape[0]} feature rows"
            )
        if self.features.shape[1] != len(self.feature_names):
            raise DataIntegrityError(
                f"{self.stock_id}: {len(self.feature_names)} feature names vs "
                f"{self.features.shape[1]} feature columns"
            )
        if np.isnat(self.dates).any():
            raise DataIntegrityError(f"{self.stock_id}: a date is NaT, not a day")
        outside = np.flatnonzero((self.dates < _FIRST_DAY) | (self.dates > _LAST_DAY))
        if outside.size:
            raise DataIntegrityError(f"{self.stock_id}: date {self.dates[outside[0]]} is outside the years 1 to 9999")
        late = np.flatnonzero(self.dates[1:] <= self.dates[:-1])
        if late.size:
            raise DataIntegrityError(f"{self.stock_id}: dates not strictly ascending at {self.dates[late[0] + 1]}")
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


def _day_number(cell: str) -> int:
    """Days from 1970-01-01 to the ISO date in ``cell``, which may have blanks around it."""
    return _date.fromisoformat(cell.strip()).toordinal() - _EPOCH_ORDINAL


def _parse_date(cell: str, line_no: int, path) -> int:
    try:
        return _day_number(cell)
    except ValueError as exc:
        raise ParseError(f"{path}: row {line_no}: bad date {cell!r} ({exc})") from exc


def _parse_float(cell: str, line_no: int, column: str, path) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: row {line_no}: non-numeric value {cell!r} in column {column!r}") from None


def check_schema(schema: list[str] | None) -> None:
    """Raise a :class:`SchemaError` if ``schema`` names a column more than once."""
    if schema is not None and len(set(schema)) < len(schema):
        repeated = next(c for c in schema if schema.count(c) > 1)
        raise SchemaError(f"the schema names column {repeated!r} more than once")


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

    The file is read once as lines of text, its header split with ``csv``,
    and every cell below it converted in one ``np.loadtxt`` call: values by
    numpy's C parser, which gives ``float``'s bits, and dates by
    ``date.fromisoformat`` through a converter, so that a date cell is split
    from its record exactly as the value cells are, quotes included.  The call
    reads every column (one that is not selected through a converter that takes
    any cell), because with ``usecols`` numpy lets a record wider than the
    header through.  Lines of commas and whitespace only (``,,,,`` as
    spreadsheets export) are left out of the call, as the ``csv`` records of
    blank cells they split into are skipped.  Some files go to a walk over the
    ``csv`` records instead, one record at a time in file order, which names
    the first bad cell or, when there is none, reads the file as the one call
    would have:

    * files that numpy refuses: a short record, a width change, a cell such
      as ``1_000`` that ``float`` reads and numpy does not, or a bad cell;
    * files with no records, with a record that spans lines (a quoted line
      break, where the row count differs from the count of lines), with a
      line longer than the ``csv`` field limit, or whose schema selects the
      date column.

    The one call replaced passes of 512 records, each converted column by
    column with ``float``.  The passes bounded the cell strings held at once;
    numpy makes no object per value cell, so the largest thing held is now the
    file's lines, and on a 2,500-row, 10-column file the traced peak stayed at
    about 1.2 MB.
    """
    path = Path(path)
    check_schema(schema)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = fh.readlines()  # the lines csv.reader splits: at "\n", "\r\n" and "\r" only
    except UnicodeDecodeError as exc:
        raise _decode_error(path) from exc
    reader = csv.reader(lines)
    try:
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
        rows, days, block = (_read_all(lines[reader.line_num :], len(header), col_idx[DATE_COLUMN], value_cols)
                             or _walk(path, reader, header, col_idx, columns))
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: unreadable CSV ({exc})") from None

    order = np.argsort(days, kind="stable")  # stable: duplicates keep file order
    dates, rows, block = days[order].astype("datetime64[D]"), np.asarray(rows)[order], block[order]
    same = np.flatnonzero(dates[1:] == dates[:-1])
    if same.size:
        i = same[0]
        raise DataIntegrityError(f"{path}: duplicate date {dates[i]} (rows {rows[i]} and {rows[i + 1]})")
    bad = np.argwhere(~np.isfinite(block))
    if bad.size:
        i, j = bad[0]
        raise ParseError(f"{path}: row {rows[i]}: non-finite value {block[i, j]} in column {columns[j]!r}")
    bad = np.argwhere(block[:, 1:] < 0)
    if bad.size:
        i, j = bad[0]
        raise PreprocessingError(
            f"{path}: row {rows[i]}: negative value {block[i, j + 1]} in feature column {schema[j]!r}; "
            "shift signed series before ingestion"
        )
    bad = np.flatnonzero(block[:, 0] <= 0)
    if bad.size:
        i = bad[0]
        raise DataIntegrityError(f"{path}: row {rows[i]}: adj_close {block[i, 0]} is not a positive number")

    return FeatureFrame(
        stock_id=path.stem,
        dates=dates,
        adj_close=block[:, 0],
        feature_names=list(schema),
        features=block[:, 1:],
    )


def _read_all(lines: list[str], width: int, date_col: int, value_cols: list[int]):
    """Row numbers, day numbers and the ``value_cols`` block of the records in ``lines``, from one
    ``np.loadtxt`` call; None for a file that :func:`load_frame` must walk instead."""
    # a schema may select the date column as a feature, which only the walk reads as csv does
    if date_col in value_cols or max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    # records of blank cells only (",,,," as spreadsheets export) are left out, as the walk skips them;
    # the header is row 1
    rows = [row for row, line in enumerate(lines, 2) if not _BLANK_RECORD(line)]
    if not rows:  # no records: numpy would warn
        return None
    kept = [lines[row - 2] for row in rows]
    # a column that is not read takes any cell
    converters = {c: lambda cell: 0.0 for c in range(width) if c not in value_cols} | {date_col: _day_number}
    try:
        block = np.loadtxt(kept, delimiter=",", quotechar='"', comments=None, ndmin=2, converters=converters)
    except ValueError:
        return None
    if block.shape != (len(rows), width):  # a record spans lines, or no record is as wide as the header
        return None
    return rows, block[:, date_col].astype(np.int64), block[:, value_cols]


def _walk(path, reader, header, col_idx, columns):
    """Row numbers, day numbers and values of the records of ``reader``, one record at a time in file
    order; the first bad cell raises."""
    rows, days, values = [], [], []
    for row, cells in enumerate(reader, 2):
        if not any(map(str.strip, cells)):  # a record with no cells or only blank ones is skipped
            continue
        if len(cells) != len(header):
            raise ParseError(f"{path}: row {row}: expected {len(header)} cells, got {len(cells)}")
        days.append(_parse_date(cells[col_idx[DATE_COLUMN]], row, path))
        values.append([_parse_float(cells[col_idx[c]], row, c, path) for c in columns])
        rows.append(row)
    return rows, np.array(days, dtype=np.int64), np.array(values, dtype=np.float64).reshape(len(rows), len(columns))


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
        writer.writerows(zip(frame.dates.astype(str).tolist(), *(map(repr, col) for col in values)))


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
    PrepareSettings(dead_zone=dead_zone, outlier_threshold=outlier_threshold)
    lo, hi = dead_zone
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
    target_dates: np.ndarray  # (n,) datetime64[D]; records give them as ISO str

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
        *columns, dates = self._columns()
        for s, *rest in zip(*(c.tolist() for c in columns), dates.astype(str).tolist()):
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
    PrepareSettings(window_len, epsilon=epsilon)
    n = len(frame)
    # windows read days [t - window_len, t) for targets t in [window_len, n): day n - 1 is only a target
    n_days = n - 1 if n > window_len else 0
    days = normalize(frame.features[:n_days].T, epsilon, frame.feature_names).T
    days.flags.writeable = False  # neighbouring windows share this memory
    y_m, y_v = label_prices(frame.adj_close[window_len - 1 : n_days], frame.adj_close[window_len : n_days + 1],
                            dead_zone, outlier_threshold)
    return SampleSet(days, window_len, np.arange(len(y_m)), y_m, y_v, np.full(len(y_m), frame.stock_id),
                     frame.dates[window_len : n_days + 1])


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
    PrepareSettings(train_frac=train_frac, valid_frac=valid_frac)
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


@dataclass
class PrepareSettings:
    """The settings of :func:`build_dataset`, in the order of its parameters; checked when made.

    :func:`window`, :func:`label_prices` and :func:`chrono_split` check their
    own settings here, leaving the others at their defaults, which pass; so
    ``prepare`` can check them all before it reads a CSV.
    """

    window: int = field(default=10, metadata={"min": 1})
    dead_zone: tuple[float, float] = DEFAULT_DEAD_ZONE
    outlier_threshold: float = field(default=DEFAULT_OUTLIER_THRESHOLD, metadata={"above": 0})
    train_frac: float = field(default=0.7, metadata={"above": 0})
    valid_frac: float = field(default=0.15, metadata={"above": 0})
    epsilon: float = field(default=DEFAULT_EPSILON, metadata={"above": 0})

    def __post_init__(self):
        check_fields(self)
        if not self.dead_zone[0] < self.dead_zone[1]:
            raise ConfigError(f"dead zone must satisfy lo < hi, got dead_zone={self.dead_zone}")
        if not self.train_frac + self.valid_frac < 1:
            raise ConfigError(f"fractions must be positive and sum below 1, "
                              f"got train_frac={self.train_frac} valid_frac={self.valid_frac}")


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

    A frame's dates are one string of comma-separated ISO dates, not a JSON
    string each.  :func:`load_dataset` windows, labels and splits the frames
    again, so any change to windowing, labelling or splitting semantics, or to
    this layout, has to bump ``DATASET_VERSION``.
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
                {"stock_id": f.stock_id, "dates": ",".join(f.dates.astype(str).tolist()),
                 "adj_close": serialize.encode_array(f.adj_close),
                 "features": serialize.encode_array(f.features)}
                for f in split.frames
            ],
        },
    )


def _stored_dates(text: str) -> np.ndarray:
    """The days of a dataset file's comma-separated ISO dates; ValueError for any other text.

    The pattern admits only the form numpy writes, and numpy rejects a day
    that is not on the calendar, so the text is exactly what the days format
    back to: a round trip, checked without formatting 2,500 dates a frame.
    Alone, numpy would read ``20220105`` as a year and ``2022-1-05`` as a day.
    """
    if not _ISO_DATES.fullmatch(text):
        bad = next(cell for cell in text.split(",") if not _ISO_DATES.fullmatch(cell))
        raise ValueError(f"stored date {bad!r} is not an ISO date")
    return np.array(text.split(","), dtype="datetime64[D]")


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
        meta, names = obj["meta"], obj["feature_names"]
        # the window is stored outside meta, and checked first: a malformed one fails whatever else is missing
        settings = replace(PrepareSettings(obj["window"]), **{f.name: meta[f.name]
                                                              for f in fields(PrepareSettings)[1:]})
        frames = [FeatureFrame(r["stock_id"], _stored_dates(r["dates"]), serialize.decode_array(r["adj_close"]),
                               list(names), serialize.decode_array(r["features"]))
                  for r in obj["frames"]]
        split, _ = build_dataset(frames, *astuple(settings))
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc.args[0]!r}; rerun `alertanet prepare`") from None
    except (TypeError, ValueError, ConfigError) as exc:
        raise ParseError(f"{path}: malformed dataset ({exc}); rerun `alertanet prepare`") from exc
    except (DataIntegrityError, ParseError, PreprocessingError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    split.meta = meta
    return split
