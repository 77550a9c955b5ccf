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
the calling process and W - 1 children it forks, W being
``tensor.worker_count(len(items))`` (the W rule of ``tensor``'s module
docstring).  At W = 1 the caller takes every item and nothing is forked.
A forked child runs every convolution range itself (``tensor`` drops its
helper threads at fork), so W workers keep to W CPUs.  A child inherits
``fn`` and the items, so closures need no pickling; only its results, or
its exception with the exception's cause, come back pickled over a pipe.
Results come back in item order and each item is computed alone, so the
output does not depend on W.

Speed was measured at W = 2 only (2 CPUs); whether W > 2 is faster on a
host with that many CPUs is untested.  A child shares the caller's pages
until one of them writes a page, so most of a child's resident set is
not its own.  What a command's processes peaked at is in
``run_manifest.json`` under ``resources``: the caller's ``peak_rss_mb``
and the largest child's ``workers_peak_rss_mb`` (a peak read from
``wait4`` is that of the largest process, not the sum).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import struct
import sys
import traceback

import numpy as np

from .tensor import Tensor, worker_count

MAGIC = b"COSEP1\x00"


class WorkerError(RuntimeError):
    """A worker of ``map_ordered`` could not be started or ended without
    sending back its results."""


def map_ordered(fn, items) -> list:
    """``[fn(x) for x in items]`` on ``worker_count(len(items))`` workers:
    the caller and W - 1 forked children.  Worker k runs items k, k + W,
    k + 2W, ... in order and stops at its first failing item, so the
    lowest failing index over all workers is the one the plain loop fails
    at; its exception, with its ``__cause__``, is raised.  A worker that
    ends without sending its results raises ``WorkerError`` naming the
    first item it did not return and how the worker ended.

    Children leave by ``os._exit``: no ``atexit`` handler runs and no
    inherited buffer is flushed in them.  A child whose parent has gone
    stops before its next item.  Every child is reaped before this
    returns or raises."""
    items = list(items)
    workers = worker_count(len(items))
    caller = os.getpid()
    children: dict = {}   # k -> (pid, read end of the pipe worker k answers on)
    if workers > 1:
        for stream in (sys.stdout, sys.stderr):   # so no child holds a copy of pending output
            stream.flush()
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(read_fd)
                os.close(write_fd)
                raise WorkerError(f"cannot start worker {k}: {exc.strerror}") from exc
            if pid == 0:
                _serve(fn, items, k, workers, caller, write_fd,
                       [read_fd, *(fd for _, fd in children.values())])
            os.close(write_fd)
            children[k] = (pid, read_fd)
        shares = {0: _run_share(fn, items, 0, workers)}
        for k, (pid, read_fd) in list(children.items()):
            with open(read_fd, "rb", closefd=False) as pipe:
                blob = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[k]
            os.close(read_fd)
            shares[k] = _receive(blob, status, pid, k)
    finally:
        for pid, read_fd in children.values():   # left only when the caller itself failed
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [None] * len(items)
    failures = []
    for k, (done, failure) in shares.items():
        results[k:k + workers * len(done):workers] = done
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _run_share(fn, items, k: int, step: int, caller: int | None = None):
    """Worker k's items, in order: (results, None) or, at the first item
    that raises, (results before it, (index, exception)).  In a child
    (``caller`` set), None once the caller is no longer its parent."""
    done = []
    for i in range(k, len(items), step):
        if caller is not None and os.getppid() != caller:
            return None
        try:
            done.append(fn(items[i]))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _serve(fn, items, k: int, step: int, caller: int, write_fd: int, inherited: list) -> None:
    """Body of the forked worker k: run its share, write it pickled to
    ``write_fd``, and leave by ``os._exit`` (1 after an error outside
    ``fn``, printed to stderr)."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        share = _run_share(fn, items, k, step, caller)
        if share is not None:
            done, failure = share
            cause = None if failure is None else failure[1].__cause__   # pickling drops it
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps((done, failure, cause), protocol=pickle.HIGHEST_PROTOCOL))
        code = 0
    except BaseException:
        traceback.print_exc()   # stderr is line-buffered, so this is written before _exit
    finally:
        os._exit(code)


def _receive(blob: bytes, status: int, pid: int, k: int):
    """Worker k's share, as ``_run_share`` returns it, from the bytes it
    sent and its wait status; a worker that sent none, or bytes that
    cannot be read back, fails at its first item with a ``WorkerError``."""
    if os.WIFSIGNALED(status):
        how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    elif os.waitstatus_to_exitcode(status) != 0 or not blob:
        how = f"ended with exit code {os.waitstatus_to_exitcode(status)}"
    else:
        try:
            done, failure, cause = pickle.loads(blob)
        except Exception as exc:
            how = f"sent results that cannot be read back ({type(exc).__name__}: {exc})"
        else:
            if failure is not None:
                failure[1].__cause__ = cause
            return done, failure
    return [], (k, WorkerError(f"worker {k} (pid {pid}) {how} before returning item {k}"))


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
