"""Binary parameter checkpoints, and the atomic file write that every
checkpoint, JSON and CSV artifact goes through.

Layout, all little-endian:

    magic   7 bytes  b"COSEP1\\0"
    meta    u32 byte length, then canonical JSON (sorted keys; may be empty)
    records until EOF, sorted by tensor name:
        u32  name byte length
        ...  UTF-8 name
        u64  rank
        u64  dims[rank]
        f32  payload, row-major

The meta block carries run/model headers (network configs, activation
mode, temperature, config hashes); plain tensor files write an empty one.
Writes are deterministic: same content, same bytes, and atomic: a
checkpoint is either the old file or the complete new one.  A truncated
or garbled file fails to load with a ``ValueError`` that names it.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .tensor import Tensor

MAGIC = b"COSEP1\x00"


def write_atomic(path, data: bytes | str) -> None:
    """Write ``data`` (text as UTF-8) to ``path`` atomically.

    The bytes go to a temporary file beside ``path``, which is synced and
    then replaces ``path``, so a write that fails midway leaves any
    earlier file intact.  The ``OSError`` of a failed write names ``path``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_tensors(path, tensors: dict, meta: dict | None = None) -> None:
    """Write named float32 arrays (or Tensors) plus an optional meta dict,
    atomically (``write_atomic``)."""
    meta_bytes = json.dumps(meta or {}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(meta_bytes)), meta_bytes]
    for name in sorted(tensors):
        arr = tensors[name]
        if isinstance(arr, Tensor):
            arr = arr.data
        arr = np.asarray(arr, dtype=np.float32, order="C")   # keeps rank 0, unlike ascontiguousarray
        name_b = name.encode("utf-8")
        parts += [struct.pack("<I", len(name_b)), name_b, struct.pack("<Q", arr.ndim),
                  struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.astype("<f4", copy=False).tobytes()]
    write_atomic(path, b"".join(parts))


def load_tensors(path) -> tuple[dict, dict]:
    """Read a checkpoint back; returns (name -> float32 array, meta dict).

    A file that is not a complete checkpoint raises ``ValueError`` naming
    ``path``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a cosep checkpoint (bad magic)")
    try:
        return _parse(blob)
    except (struct.error, ValueError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint: {exc}") from exc


def _parse(blob: bytes) -> tuple[dict, dict]:
    off = len(MAGIC)
    (meta_len,) = struct.unpack_from("<I", blob, off)
    off += 4
    meta = json.loads(blob[off:off + meta_len].decode("utf-8")) if meta_len else {}
    if not isinstance(meta, dict):
        raise ValueError("meta block is not a JSON object")
    off += meta_len
    out: dict = {}
    while off < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off:off + name_len].decode("utf-8")
        off += name_len
        (rank,) = struct.unpack_from("<Q", blob, off)
        off += 8
        if off + 8 * rank > len(blob):
            raise ValueError(f"dims of {name} run past the end of the file")
        dims = struct.unpack_from(f"<{rank}Q", blob, off)
        off += 8 * rank
        count = math.prod(dims)
        if off + 4 * count > len(blob):
            raise ValueError(f"payload of {name} is shorter than its {count} values")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=off).reshape(dims)
        off += 4 * count
        out[name] = arr.astype(np.float32).copy()
    return out, meta
