"""Deterministic on-disk encoding shared by checkpoints, datasets and reports.

Arrays are stored as base64 little-endian payloads inside ordinary JSON, so
artifacts are single files, diffable, and byte-identical across reruns (no
archive timestamps).

Every artifact is written whole or not at all: :func:`atomic_writer` streams
it into a temporary file beside the target and moves that over the target
only once the last byte is written, so an interrupted or failed write leaves
the old file, and no temporary file, behind.  JSON is streamed chunk by
chunk, so writing holds no copy of the text.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import operator
import os
from pathlib import Path

import numpy as np

from .errors import ParseError

def encode_array(arr: np.ndarray) -> dict:
    shape = list(np.shape(arr))  # before ascontiguousarray, which makes a 0-d array 1-d
    arr = np.ascontiguousarray(arr)
    if arr.dtype != np.float64:
        raise ParseError(f"unsupported dtype for serialization: {arr.dtype}")
    payload = arr.astype("<f8", copy=False).tobytes(order="C")
    return {
        "shape": shape,
        "dtype": "<f8",
        "data": base64.b64encode(payload).decode("ascii"),
    }


def decode_array(obj: dict) -> np.ndarray:
    try:
        if obj["dtype"] != "<f8":
            raise ParseError(f"unsupported array dtype {obj['dtype']!r}; artifacts store only '<f8'")
        shape = tuple(operator.index(s) for s in obj["shape"])  # a float, even inf, is a TypeError
        arr = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8")
        if arr.size != int(np.prod(shape)):
            raise ParseError(f"array payload size {arr.size} does not match shape {shape}")
        return arr.reshape(shape).astype(np.float64, copy=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed array record: {exc}") from exc


@contextlib.contextmanager
def atomic_writer(path: str | Path, newline: str | None = None):
    """A UTF-8 text file to write ``path``'s new content into; it replaces ``path`` when the block ends.

    The temporary file sits in ``path``'s directory, so ``os.replace`` is a
    rename on one file system.  If the block raises, the temporary file is
    removed and ``path`` is left as it was.  ``newline`` is :func:`open`'s.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        # open's "x" gives the file the permissions a plain write would; tempfile's would be 0600
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Stream ``obj`` as sorted, indented JSON plus a newline into ``path``, atomically.

    JSON has no nan or infinity, so a float that is one raises a
    :class:`ParseError` naming ``path``, and ``path`` is left as it was.
    """
    try:
        with atomic_writer(path) as fh:
            json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    except ValueError as exc:
        raise ParseError(f"{path}: cannot be written as JSON ({exc})") from exc


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError for bytes that are not UTF-8
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
