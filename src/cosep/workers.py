"""How many CPUs cosep uses, and the two ways it spreads work over them.
The method needs no parallelism; this module puts the CPUs that BLAS
leaves idle to work, and it alone starts threads or forks processes.

The W rule: ``worker_count(n)`` for n independent items is this
process's CPUs (``os.sched_getaffinity``) divided by the BLAS thread
count (the first of ``BLAS_THREAD_VARS`` that holds a positive integer,
as OpenBLAS reads them), capped at n, at least 1.  Without such a
variable BLAS already uses every CPU, and W is 1.  ``run_manifest.json``
records what the rule read (``rule_inputs``) for every command, so W at
any site follows from the record and the site's item count.

``over_samples`` runs an op's sample ranges on the caller and W - 1
persistent helper threads; ``tensor.conv2d`` does so, and gains because
its BLAS calls release the GIL.  ``map_ordered`` runs independent items
on the caller and W - 1 forked children; ``make-data`` writes its clips
(``toyworld.generate``), and ``eval`` scores its mixtures and fits the
NMF bases, so.  A forked child drops the helper threads, which fork does
not copy (``os.register_at_fork``), and runs every range itself, so W
workers keep to W CPUs.  No output depends on W: a range
writes only its own samples, and ``conv2d`` sums across samples on the
caller in the order of W = 1 (the ``tensor`` docstring); a mapped item is
computed alone, from its own seed where it draws random numbers, and the
results come back in item order.

Speed was measured at W = 2 only (2 CPUs).  ROADMAP item 15 (closed) ran
``map_ordered`` on the helper threads instead: bench ``infer`` ``run_s``
+35% and ``nmf`` +22% (4 pairs each), as ``eval``'s batch-1 mixture loop
holds the GIL.  A later threaded map needs grad mode per thread
(``tensor.no_grad`` is one process-global flag) and helpers that can run
a ``conv2d``: a nested ``over_samples`` on a helper would wait for
helpers that are all busy, a deadlock.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import queue
import signal
import sys
import threading
import traceback

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def rule_inputs() -> dict:
    """What the W rule reads: each of ``BLAS_THREAD_VARS`` as the environment
    holds it (None when unset), and ``cpus``, this process's CPU count."""
    return {**{var: os.environ.get(var) for var in BLAS_THREAD_VARS}, "cpus": len(os.sched_getaffinity(0))}


def _cpus_per_blas_thread() -> int:
    """W before the cap of the W rule (module docstring), at least 1."""
    for var in BLAS_THREAD_VARS:
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, len(os.sched_getaffinity(0)) // blas)
    return 1


def worker_count(n_items: int) -> int:
    """W for ``n_items`` items, by the W rule of the module docstring."""
    return max(1, min(_cpus_per_blas_thread(), n_items))


# ---------------------------------------------------------------------
# sample ranges on helper threads
# ---------------------------------------------------------------------

_jobs = queue.SimpleQueue()   # (context, fn, lo, hi, reply queue) for the helper threads
_helper_count = 0
_forked = False               # set in a forked child, which runs every range itself


def _serve_ranges(jobs) -> None:
    """Body of a helper thread: run each range taken from ``jobs`` in the
    context it came with and reply (lo, exception or None)."""
    while True:
        ctx, fn, lo, hi, reply = jobs.get()
        failure = None
        try:
            ctx.run(fn, lo, hi)
        except BaseException as exc:   # raised again by the caller, which waits for every reply
            failure = exc
        # drop the range's closure, and the buffers it holds, before the caller goes on
        del ctx, fn
        reply.put((lo, failure))


def _drop_helpers() -> None:
    """Run in a forked child (``os.register_at_fork``): the helper threads
    were not copied, so no range may wait for one."""
    global _jobs, _helper_count, _forked
    _jobs, _helper_count, _forked = queue.SimpleQueue(), 0, True


os.register_at_fork(after_in_child=_drop_helpers)


def over_samples(fn, n: int) -> None:
    """``fn(lo, hi)`` over the samples [0, n), split into W =
    ``worker_count(n)`` contiguous ranges (1 in a forked child).  The
    caller runs the first range and W - 1 persistent helper threads the
    others, each in a copy of the caller's ``contextvars`` context (so
    ``np.errstate`` holds there too).  The caller waits for every range;
    then the exception of its own range, or else of the lowest failing
    helper range, is raised.  ``fn`` must write only to samples
    [lo, hi) of buffers allocated before the call."""
    global _helper_count
    workers = 1 if _forked else worker_count(n)
    if workers == 1:
        fn(0, n)
        return
    while _helper_count < workers - 1:
        threading.Thread(target=_serve_ranges, args=(_jobs,), name=f"cosep-samples-{_helper_count + 1}",
                         daemon=True).start()
        _helper_count += 1
    bounds = [n * k // workers for k in range(workers + 1)]
    reply = queue.SimpleQueue()
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        _jobs.put((contextvars.copy_context(), fn, lo, hi, reply))
    try:
        fn(0, bounds[1])
    finally:
        answers = [reply.get() for _ in range(workers - 1)]
    failures = [answer for answer in answers if answer[1] is not None]
    if failures:
        raise min(failures, key=lambda answer: answer[0])[1]


# ---------------------------------------------------------------------
# the ordered map on forked workers
# ---------------------------------------------------------------------

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

    A child inherits ``fn`` and the items, so closures need no pickling;
    only its results, or its exception with its cause, come back pickled
    over a pipe.  Children leave by ``os._exit``: no ``atexit`` handler runs and no
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
