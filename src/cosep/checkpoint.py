"""Binary parameter checkpoints, the atomic file write that every
checkpoint, JSON and CSV artifact goes through, and the ordered map that
runs independent work items on the CPUs BLAS leaves idle.

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

``map_ordered(fn, items)`` is ``[fn(x) for x in items]`` on W workers:
the calling thread and W - 1 helper threads.  W is the CPUs of this
process (``os.sched_getaffinity``) divided by the BLAS thread count,
capped at the item count.  The BLAS thread count is the first of
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` that holds a positive
integer, as OpenBLAS reads them; without one, BLAS already uses every
CPU, and W is 1: the caller takes every item and no thread starts.
The work is numpy and BLAS calls, which release the GIL.  Results come
back in item order and each item is computed alone, so the output does
not depend on W.

Speed was measured at W = 2 only (2 CPUs).  Each worker beyond the
first costs about 4 MB of peak RSS in ``eval`` (one malloc arena per
thread): 56.4, 59.2, 63.0, 66.7 and 80.9 MB at W = 1, 2, 3, 4 and 8 on
the bench ``infer`` run.  Whether W > 2 is faster on a host with that
many CPUs is untested; the mixture loop holds the GIL about a fifth of
its time, which bounds the gain.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading

import numpy as np

from .tensor import Tensor

MAGIC = b"COSEP1\x00"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")   # recorded in run_manifest.json


def worker_count(n_items: int) -> int:
    """W for ``n_items`` items: this process's CPUs divided by the BLAS
    thread count, capped at ``n_items``, and 1 when no variable of
    ``BLAS_THREAD_VARS`` holds a positive integer."""
    for var in BLAS_THREAD_VARS:
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, min(len(os.sched_getaffinity(0)) // blas, n_items))
    return 1


def map_ordered(fn, items) -> list:
    """``[fn(x) for x in items]`` on ``worker_count(len(items))`` workers,
    the calling thread among them, each taking the next untaken item.

    Once a call raises, no further item starts; after the started ones
    return, the exception of the lowest-index failing item is raised, the
    one the plain loop would raise.  No helper thread outlives the call."""
    items = list(items)
    workers = worker_count(len(items))
    results = [None] * len(items)
    errors: dict = {}
    lock = threading.Lock()
    taken = 0

    def work():
        nonlocal taken
        while True:
            with lock:
                if errors or taken == len(items):
                    return
                i, taken = taken, taken + 1
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        with lock:
            taken = len(items)   # after an interrupt outside ``fn``, no further item starts
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


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
