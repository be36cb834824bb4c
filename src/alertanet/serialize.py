"""Deterministic on-disk encoding shared by checkpoints, datasets and reports.

Arrays are stored as base64 little-endian payloads inside ordinary JSON, so
artifacts are single files, diffable, and byte-identical across reruns (no
archive timestamps).
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ParseError

_DTYPES = {"<f8": np.dtype("<f8"), "<i1": np.dtype("<i1")}


def encode_array(arr: np.ndarray) -> dict:
    shape = list(np.shape(arr))  # before ascontiguousarray, which makes a 0-d array 1-d
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.float64:
        dtype = "<f8"
    elif arr.dtype == np.int8:
        dtype = "<i1"
    else:
        raise ParseError(f"unsupported dtype for serialization: {arr.dtype}")
    payload = arr.astype(_DTYPES[dtype], copy=False).tobytes(order="C")
    return {
        "shape": shape,
        "dtype": dtype,
        "data": base64.b64encode(payload).decode("ascii"),
    }


def decode_array(obj: dict) -> np.ndarray:
    try:
        dtype = _DTYPES[obj["dtype"]]
        shape = tuple(int(s) for s in obj["shape"])
        arr = np.frombuffer(base64.b64decode(obj["data"]), dtype=dtype)
        if arr.size != int(np.prod(shape)):
            raise ParseError(f"array payload size {arr.size} does not match shape {shape}")
        return arr.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed array record: {exc}") from exc


def write_json(path: str | Path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
