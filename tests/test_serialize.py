"""Artifacts are written whole or not at all, and JSON is streamed without a text copy."""

import contextlib
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from alertanet import data as dp
from alertanet import serialize
from alertanet.errors import ParseError


class Unencodable:
    """A value ``json`` rejects only when it reaches it, after earlier chunks were written."""


def _temporaries(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


class TestAtomicWrites:
    def test_write_json_bytes_are_the_one_shot_text(self, tmp_path):
        obj = {"b": [1.5, None, {"z": "é", "a": -0.0}], "a": serialize.encode_array(np.arange(5.0))}
        serialize.write_json(tmp_path / "x.json", obj)
        want = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "x.json").read_bytes() == want.encode("utf-8")

    def test_failed_json_write_leaves_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        serialize.write_json(path, {"old": True})
        old = path.read_bytes()
        # sorted keys put "z" last, so a megabyte of text is streamed before the encoder fails
        with pytest.raises(TypeError, match="Unencodable"):
            serialize.write_json(path, {"a": ["x" * 100] * 10_000, "z": Unencodable()})
        assert path.read_bytes() == old
        assert _temporaries(tmp_path) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_float_is_refused_naming_the_path_and_keeps_the_old_file(self, tmp_path, bad):
        path = tmp_path / "report.json"
        serialize.write_json(path, {"old": True})
        old = path.read_bytes()
        with pytest.raises(ParseError, match=re.escape(f"{path}: cannot be written as JSON (Out of range float")):
            serialize.write_json(path, {"a": ["x" * 100] * 10_000, "z": {"auc": bad}})
        assert path.read_bytes() == old
        assert _temporaries(tmp_path) == []

    def test_failed_json_write_leaves_no_file_where_there_was_none(self, tmp_path):
        with pytest.raises(TypeError):
            serialize.write_json(tmp_path / "new.json", [1, Unencodable()])
        assert list(tmp_path.iterdir()) == []

    def test_failed_frame_write_leaves_the_old_csv_and_no_temporary(self, tmp_path, monkeypatch):
        frame = dp.FeatureFrame("S", ["2021-01-04", "2021-01-05"], np.array([10.0, 11.0]), ["f"],
                                np.array([[0.5], [0.25]]))
        path = tmp_path / "S.csv"
        dp.write_frame(frame, path)
        old = path.read_bytes()

        real_writer = serialize.atomic_writer

        class FailingFile:
            """Writes the header, then fails on the rows."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return self.fh.write(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        @contextlib.contextmanager
        def failing_writer(path, newline=None):
            with real_writer(path, newline) as fh:
                yield FailingFile(fh)

        monkeypatch.setattr(dp.serialize, "atomic_writer", failing_writer)
        with pytest.raises(OSError, match="disk full"):
            dp.write_frame(dataclasses.replace(frame, adj_close=frame.adj_close * 2), path)
        assert path.read_bytes() == old
        assert _temporaries(tmp_path) == []

    def test_replaced_file_keeps_the_usual_permissions(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{}\n", encoding="utf-8")
        want = path.stat().st_mode
        serialize.write_json(path, {"a": 1})
        assert path.stat().st_mode == want


def test_write_json_holds_no_copy_of_the_text(tmp_path):
    """Streaming holds under 1 MB beyond the object; encoding it in one piece held about 3 times the text."""
    rng = np.random.default_rng(0)
    obj = {"arrays": [serialize.encode_array(rng.normal(size=1000)) for _ in range(450)],
           "values": rng.normal(size=20_000).tolist()}  # about 5 MB of indented JSON
    path = tmp_path / "big.json"
    serialize.write_json(path, obj)
    assert path.stat().st_size > 5_000_000
    tracemalloc.start()
    try:
        serialize.write_json(path, obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_only_float64_arrays_are_stored():
    """Artifacts store float64 (``<f8``) records only; an int8 (``<i1``) array or record is rejected."""
    with pytest.raises(ParseError, match="unsupported dtype for serialization: int8"):
        serialize.encode_array(np.array([0, 1, -1], dtype=np.int8))
    record = {"shape": [3], "dtype": "<i1", "data": "AAH/"}  # the bytes 0, 1 and -1
    with pytest.raises(ParseError, match="unsupported array dtype '<i1'"):
        serialize.decode_array(record)
    assert serialize.decode_array(serialize.encode_array(np.array([0.0, 1.0, -1.0]))).tolist() == [0.0, 1.0, -1.0]
