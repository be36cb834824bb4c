"""Property tests: CSV loading, labelling, chronological splitting, array serialization and damaged artifacts."""

import codecs
import contextlib
import functools
import io
import json
import re
import tempfile
import warnings
from datetime import date, timedelta
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alertanet import cli
from alertanet import data as dp
from alertanet import model as md
from alertanet.errors import AlertaNetError, ConfigError
from alertanet.serialize import decode_array, encode_array
from alertanet.synth import SynthSpec, generate

from testutil import golden_label_oracle, load_frame_oracle, sample_set

# Derandomized and without an example database, so every run draws the same examples.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# |r| at which a label changes: the dead-zone edge and the outlier threshold
LABEL_EDGES = (Fraction(1, 200), Fraction(1, 20))
# Parsing and the float quotient move r by far less than this near an edge;
# pairs closer than this to an edge are the golden fixture's job.
EDGE_MARGIN = Fraction(1, 10**12)


def _price(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


@st.composite
def price_pairs(draw):
    """A (previous, current) pair of cent prices, often a cent or two from a label edge."""
    prev = draw(st.integers(min_value=1, max_value=10**7))
    if draw(st.booleans()):
        cur = draw(st.integers(min_value=1, max_value=10**7))
    else:
        edge = draw(st.sampled_from([-e for e in LABEL_EDGES] + list(LABEL_EDGES)))
        cur = max(1, round(prev * (1 + edge)) + draw(st.integers(min_value=-2, max_value=2)))
    return _price(prev), _price(cur)


@PROPERTY
@given(st.lists(price_pairs(), min_size=1, max_size=40))
def test_labels_match_exact_rational_oracle_off_the_edges(pairs):
    prev, cur = zip(*pairs)
    y_m, y_v = dp.label_prices([float(p) for p in prev], [float(c) for c in cur])
    for (p, c), m, v in zip(pairs, y_m.tolist(), y_v.tolist()):
        r = (Fraction(c) - Fraction(p)) / Fraction(p)
        if min(abs(abs(r) - edge) for edge in LABEL_EDGES) <= EDGE_MARGIN:
            continue
        movement, volatility = golden_label_oracle([p, c], dp.ABSTAIN)
        assert (m, v) == (movement[0], volatility[0]), (p, c, float(r))


@st.composite
def sample_sets(draw):
    """Samples with unique (stock, date) keys, most dates shared by several stocks, in any order.

    Sample ``i`` has the 1x1 window ``[[i]]``.
    """
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 14)),
                         min_size=1, max_size=60, unique=True))
    start = date(2021, 1, 4)
    return sample_set([
        dp.WindowedSample(x=np.full((1, 1), float(i)), y_m=0, y_v=0, stock_id=f"S{stock}",
                          target_date=(start + timedelta(days=day)).isoformat())
        for i, (stock, day) in enumerate(keys)
    ])


@st.composite
def split_fractions(draw):
    """(train_frac, valid_frac), both positive and summing below 1, in whole percent."""
    train_pct = draw(st.integers(1, 98))
    return train_pct / 100, draw(st.integers(1, 99 - train_pct)) / 100


@PROPERTY
@given(sample_sets(), split_fractions())
def test_chrono_split_separates_dates_without_leakage(samples, fractions):
    train_frac, valid_frac = fractions
    try:
        split = dp.chrono_split(samples, train_frac, valid_frac)
    except ConfigError as exc:
        assert "empty split" in str(exc)
        return
    parts = [split.train, split.validation, split.test]
    # a partition of the input: every sample once, none invented
    assert sorted(s.x.item() for part in parts for s in part) == list(range(len(samples)))
    dates = [{s.target_date for s in part} for part in parts]
    # no calendar date in two sets, and every earlier set ends before the next begins
    assert not (dates[0] & dates[1] or dates[0] & dates[2] or dates[1] & dates[2])
    assert max(dates[0]) < min(dates[1]) and max(dates[1]) < min(dates[2])
    for name, part in split.splits().items():
        assert split.boundaries[name] == [part[0].target_date, part[-1].target_date]
        keys = [(s.target_date, s.stock_id) for s in part]
        assert keys == sorted(keys)


_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)
_ARRAYS = hnp.arrays(np.float64, _SHAPES, elements=st.floats(allow_nan=True, allow_infinity=True))


@PROPERTY
@given(_ARRAYS, st.booleans())
def test_encode_decode_round_trip_keeps_bits(arr, transposed):
    if transposed:
        arr = arr.T  # a non-contiguous view of the same values
    record = json.loads(json.dumps(encode_array(arr)))  # through JSON text, as on disk
    back = decode_array(record)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    assert back.tobytes() == np.ascontiguousarray(arr).tobytes()
    assert back.flags.c_contiguous and back.flags.writeable


# Cells that ``float`` reads in odd ways but accepts, values that the checks
# after parsing reject, and cells that stop parsing.
_ODD_VALID = [" 2.5 ", '"3.0"', '" 4 "', "1_000", "1e3", "-0.0", "0"]
_BAD_VALUES = ["nan", "inf", "-inf", "-1"]
_UNPARSED = ["", "abc", '"1,5"']
_BAD_DATES = ["2021-02-30", "2021/01/05", "soon", ""]
_BLANK_LINES = ["", " ", " , , , , ", ",,,,", ",,"]
_CSV_HEADER = ["date", "adj_close", "sent_0", "note", "macro_0"]


@st.composite
def csv_texts(draw):
    """CSV text with the header above, in one of three kinds, each with empty and blank lines.

    A ``clean`` file has distinct dates, in any order, and cells that
    ``float`` accepts.  A ``values`` file parses but may repeat a date, and
    holds one kind of non-finite or negative value.  A ``messy`` file may also
    hold bad dates, cells that do not parse, and rows a cell short or over.
    The ``note`` column holds junk, which only a schema that selects it reads,
    except in some clean files.
    """
    kind = draw(st.sampled_from(["clean", "values", "messy"]))
    days = draw(st.lists(st.integers(0, 25), max_size=12, unique=kind == "clean"))
    valid = st.one_of(st.floats(0.5, 1e6).map(repr), st.sampled_from(_ODD_VALID))
    number = {"clean": valid, "values": st.one_of(valid, valid, st.just(draw(st.sampled_from(_BAD_VALUES)))),
              "messy": valid | st.sampled_from(_BAD_VALUES + _UNPARSED)}[kind]
    price = st.floats(0.5, 1e6).map(repr) | st.just(" 2.5 ") if kind == "clean" else number
    note = valid if kind == "clean" and draw(st.booleans()) else number | st.sampled_from(["n/a", "?", "  "])
    lines = []
    for d in days:
        iso = (date(2021, 1, 4) + timedelta(days=d)).isoformat()
        day = st.sampled_from([iso, f" {iso} ", iso.replace("-", "")])
        cells = [draw(day | st.sampled_from(_BAD_DATES) if kind == "messy" else day), draw(price),
                 draw(number), draw(note), draw(number)]
        if kind == "messy":
            cells = cells[: draw(st.sampled_from([4, 5, 5, 5]))] + ["1.0"] * draw(st.sampled_from([0, 0, 0, 1]))
        lines.append(",".join(cells))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(_BLANK_LINES)))
    return "\n".join([",".join(_CSV_HEADER), *lines]) + "\n"


def _outcome(load, path, schema):
    try:
        frame = load(path, schema)
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc), str(exc)
    return frame


def _check_against_oracle(data: bytes, schema):
    """``load_frame`` of a file holding ``data`` gives the oracle's frame bits, or its exception type and
    message, and lets no warning through."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp) / "S.csv"
        path.write_bytes(data)
        got, want = _outcome(dp.load_frame, path, schema), _outcome(load_frame_oracle, path, schema)
    assert caught == []
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, dp.FeatureFrame), got
    assert (got.stock_id, got.feature_names) == (want.stock_id, want.feature_names)
    assert got.dates.astype(str).tolist() == want.dates.astype(str).tolist()
    assert np.array_equal(got.adj_close, want.adj_close) and np.array_equal(got.features, want.features)
    assert got.adj_close.tobytes() == want.adj_close.tobytes()
    assert got.features.tobytes() == want.features.tobytes()


@PROPERTY
@given(csv_texts(), st.sampled_from([None, ["macro_0", "sent_0"], ["sent_0"]]))
def test_load_frame_matches_row_by_row_oracle(text, schema):
    _check_against_oracle(text.encode(), schema)


_HEADER = "date,adj_close,sent_0,note,macro_0\n"
_EXPLICIT_SCHEMA = ["sent_0", "macro_0"]


@pytest.mark.parametrize("data, message", [
    (_HEADER.encode(), None),
    ((_HEADER + "2021-01-04,1.5,2,x,3\n,,,,\n,,,,\n").encode(), None),  # a spreadsheet export's blank records
    ((_HEADER + "2021-01-04,1_000,2,x,3\n").encode(), None),  # float reads 1_000, numpy does not
    ((_HEADER + '2021-01-04," 4 ","3.0",x,3\n').encode(), None),
    (codecs.BOM_UTF8 + (_HEADER + "2021-01-05,1.5,2,x,3\n2021-01-04,2.5,2,x,3\n").encode(), None),
    ((_HEADER + "2021-01-05,1.5,2,x,3\n2021-01-04,2.5,2,x,3\n").replace("\n", "\r\n").encode(), None),
    ((_HEADER + "2021-01-04,1.5,2,x,3\n2021-01-05,1.5,nan,x,3\n").encode(),
     "row 3: non-finite value nan in column 'sent_0'"),
    ((_HEADER + "2021-01-04,1.5,2,x,3\n2021-01-05,1.5,2,x,-1\n").encode(),
     "row 3: negative value -1.0 in feature column 'macro_0'"),
], ids=["header-only", "trailing-blank-records", "underscore", "quoted-cells", "byte-order-mark", "crlf",
        "nan-cell", "negative-cell"])
def test_load_frame_matches_oracle_on_explicit_cases(data, message):
    _check_against_oracle(data, _EXPLICIT_SCHEMA)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "S.csv"
        path.write_bytes(data)
        if message is None:
            dp.load_frame(path, _EXPLICIT_SCHEMA)
        else:
            with pytest.raises(AlertaNetError, match=re.escape(message)):
                dp.load_frame(path, _EXPLICIT_SCHEMA)


@pytest.mark.parametrize("blank", [",,,,", " , , , , ", "", "  ", "\t,,\t"])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_blank_records_stay_on_the_one_call_reader(blank, end):
    """Records of blank cells only, trailing or between others, are skipped without the per-record walk."""
    lines = [_HEADER.strip(), "2021-01-05,1.5,2,x,3", blank, "2021-01-04,2.5,2,x,3", blank, blank]
    data = end.join(lines).encode() + end.encode()
    with mock.patch.object(dp, "_walk", side_effect=AssertionError("the record walk ran")), \
            tempfile.TemporaryDirectory() as tmp:
        _check_against_oracle(data, _EXPLICIT_SCHEMA)
        path = Path(tmp) / "S.csv"
        path.write_bytes(data)
        assert dp.load_frame(path, _EXPLICIT_SCHEMA).dates.astype(str).tolist() == ["2021-01-04", "2021-01-05"]


@st.composite
def decimal_texts(draw):
    """Decimal text with 1 to 25 significant digits and an exponent that reaches subnormal and overflowing values."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(0, len(digits)))
    exponent = draw(st.integers(-350, 330))
    sign = draw(st.sampled_from(["", "-", "+"]))
    return f"{sign}{digits[:point]}.{digits[point:]}e{exponent}" if point < len(digits) else f"{sign}{digits}e{exponent}"


@PROPERTY
@given(st.lists(decimal_texts(), min_size=1, max_size=20))
def test_numpy_reader_gives_float_bits_on_decimal_text(texts):
    """The one ``np.loadtxt`` call of ``load_frame`` rounds as ``float`` does, subnormals and overflow included."""
    lines = [f"2021-01-04,{text}\n" for text in texts]
    rows, days, block = dp._read_all(lines, width=2, date_col=0, value_cols=[1])
    assert rows == list(range(2, 2 + len(texts))) and days.tolist() == [18631] * len(texts)
    assert block[:, 0].tobytes() == np.array([float(text) for text in texts]).tobytes()


def test_benchmark_synth_csvs_never_reach_the_record_walk(tmp_path):
    """The fast reader must not fall back silently on the files ``synth`` writes, as the benchmark's are."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["synth", "--out", str(tmp_path), "--stocks", "2", "--days", "400", "--features", "8",
                        "--seed", "21"]) == 0
    with mock.patch.object(dp, "_walk", side_effect=AssertionError("the record walk ran")):
        frames = [dp.load_frame(path) for path in sorted(tmp_path.glob("*.csv"))]
    assert [len(f) for f in frames] == [400, 400]


@functools.lru_cache(maxsize=None)
def _valid_artifacts() -> dict[str, bytes]:
    """The bytes of a valid CSV, ``dataset.json`` and checkpoint of one small synthetic stock."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        frame = generate(SynthSpec(n_days=40, n_features=3, seed=3), "S")
        dp.write_frame(frame, tmp / "S.csv")
        split, _ = dp.build_dataset([dp.load_frame(tmp / "S.csv")], window_len=4)
        dp.save_dataset(tmp / "dataset.json", split)
        config = md.ModelConfig(input_dim=3, hidden_dim=2, window=4, feature_names=split.feature_names)
        md.save_checkpoint(tmp / "checkpoint.json", md.init_params(config, np.random.default_rng(0)), config)
        return {name: (tmp / name).read_bytes() for name in ("S.csv", "dataset.json", "checkpoint.json")}


def _paths(obj, prefix=()):
    """The key path of ``obj`` and of every value nested in it."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


# what a mutated field becomes: a value of another type or range, or a cut-down copy of itself
_JUNK = [None, True, 0, -1, 2.5, 1e308, float("nan"), float("-inf"), "", "x", "AAAA", [], [0], {}, {"a": 1}]


@st.composite
def mutated_json(draw, text: bytes):
    """A JSON object with one field replaced by junk, cut short or deleted."""
    obj = json.loads(text)
    path = draw(st.sampled_from(list(_paths(obj))))
    parent = functools.reduce(lambda o, k: o[k], path[:-1], obj)
    old = parent[path[-1]] if path else obj
    new = draw(st.sampled_from(_JUNK) | st.just(old[: len(old) // 2] if isinstance(old, (str, list)) else old))
    if not path:
        return json.dumps(new).encode()
    if draw(st.booleans()) and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return json.dumps(obj).encode()


@st.composite
def mutated_bytes(draw, text: bytes):
    """``text`` with one to four bytes replaced, deleted or inserted."""
    data = bytearray(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b',\n\r.-+0eE"\xff\x00 x') | st.integers(0, 255))
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "insert" or at == len(data):
            data.insert(at, byte)
        elif op == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


_READERS = {"S.csv": dp.load_frame, "dataset.json": dp.load_dataset, "checkpoint.json": md.load_checkpoint}


@st.composite
def damaged_artifacts(draw):
    """An artifact's name and damaged bytes: a JSON artifact gets either kind of damage."""
    name = draw(st.sampled_from(sorted(_READERS)))
    text = _valid_artifacts()[name]
    return name, draw(mutated_bytes(text) if name.endswith(".csv") else mutated_bytes(text) | mutated_json(text))


def _with_byte_ff(name):
    """``name``'s valid bytes with the byte 0xff, which no UTF-8 text holds, inserted after the opening brace."""
    return name, _valid_artifacts()[name].replace(b"{", b"{\xff", 1)


@PROPERTY
@given(damaged_artifacts())
@example(_with_byte_ff("dataset.json"))
@example(_with_byte_ff("checkpoint.json"))
def test_damaged_artifacts_load_or_fail_naming_the_file(damage):
    """Each reader loads a damaged artifact or raises an AlertaNetError that names it; ``eval`` exits 1."""
    name, damaged = damage
    valid = _valid_artifacts()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(damaged)
        try:
            _READERS[name](path)
        except AlertaNetError as exc:
            assert str(path) in str(exc), exc
        else:
            return
        if name == "checkpoint.json":
            (Path(tmp) / "dataset.json").write_bytes(valid["dataset.json"])
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(["eval", "--dataset", str(Path(tmp) / "dataset.json"), "--checkpoint", str(path),
                                "--out", str(Path(tmp) / "eval")])
            lines = stderr.getvalue().splitlines()
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines
