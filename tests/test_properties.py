"""Property tests: labelling, chronological splitting and array serialization."""

import json
from datetime import date, timedelta
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alertanet import data as dp
from alertanet.errors import ConfigError
from alertanet.serialize import decode_array, encode_array

from testutil import golden_label_oracle, sample_set

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
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=st.floats(allow_nan=True, allow_infinity=True)),
    hnp.arrays(np.int8, _SHAPES),
)


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
