"""Checkpoint file format.

A checkpoint is one file: a JSON header line (format tag, version, model
spec, preprocessing-artifact hash, seed, tensor directory) followed by the
raw parameter data as little-endian 64-bit floats, concatenated in header
order, so a loaded model holds the very values that were saved.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ..config import output_to
from ..errors import RangeError, ShapeError

FORMAT_TAG = "tabseq-checkpoint"
VERSION = 2


def save_checkpoint(
    path,
    params: dict[str, np.ndarray],
    model_spec: dict,
    vocab_hash: str | None = None,
    seed: int | None = None,
) -> None:
    names = sorted(params)
    header = {
        "format": FORMAT_TAG,
        "version": VERSION,
        "model_spec": model_spec,
        "vocab_hash": vocab_hash,
        "seed": seed,
        "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    with output_to(path), open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for n in names:
            fh.write(np.ascontiguousarray(params[n], dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (header dict, params dict of float64 arrays); a file that cannot
    be read, is not a checkpoint of this version or lists a tensor twice is a
    ``RangeError``, and data of the wrong size a ``ShapeError``, each naming it."""
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            blob = fh.read()
    except OSError as exc:
        raise RangeError(f"{path}: {exc.strerror}") from None
    try:  # undecodable bytes, bad JSON and a bad tensor directory alike
        header = json.loads(header_line)
        if header.get("format") != FORMAT_TAG or header.get("version") != VERSION:
            raise RangeError(f"{path}: not a version-{VERSION} {FORMAT_TAG} file")
        entries = [(entry["name"], tuple(entry["shape"])) for entry in header["tensors"]]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise RangeError(f"{path}: not a checkpoint file: {exc}") from exc
    seen = set()
    for name, shape in entries:
        if not isinstance(name, str) or not all(type(d) is int and d >= 0 for d in shape):
            raise RangeError(f"{path}: bad tensor {name!r} of shape {shape} in its header")
        if name in seen:
            raise RangeError(f"{path}: tensor {name!r} is listed twice in its header")
        seen.add(name)
    sizes = [math.prod(shape) for _, shape in entries]
    if 8 * sum(sizes) != len(blob):
        raise ShapeError(f"{path}: checkpoint data holds {len(blob)} bytes, "
                         f"its header lists {8 * sum(sizes)}")
    values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    parts = np.split(values, np.cumsum(sizes)[:-1])
    return header, {name: part.reshape(shape) for (name, shape), part in zip(entries, parts)}
