"""Checkpoint round trip, and the ordered map with its worker-count rule."""

import errno
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosep import checkpoint, tensor

# float32 bit patterns the payload must carry unchanged
SPECIAL_BITS = [0x7FC00000, 0xFFC00001, 0x7F800001, 0x7F800000, 0xFF800000, 0x80000000, 0x00000001]


@st.composite
def float32_arrays(draw):
    """Rank 0-4 arrays, zero-size dims included, with NaN, +-inf, -0.0
    and subnormal bit patterns mixed into the values."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=0, max_size=4)))
    size = int(np.prod(shape, dtype=np.int64))
    bits = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**32 - 1)),
                         min_size=size, max_size=size))
    return np.array(bits, dtype=np.uint32).view(np.float32).reshape(shape)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**53, 2**53) | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(tensors=st.dictionaries(st.text(min_size=1, max_size=12), float32_arrays(), max_size=4),
           meta=st.dictionaries(st.text(max_size=8), json_values, max_size=4))
    def test_load_returns_the_bits_and_a_resave_the_bytes(self, tmp_path_factory, tensors, meta):
        path = tmp_path_factory.mktemp("ckpt") / "t.ckpt"
        checkpoint.save_tensors(path, tensors, meta)
        loaded, loaded_meta = checkpoint.load_tensors(path)
        assert loaded_meta == meta and sorted(loaded) == sorted(tensors)
        for name, arr in tensors.items():
            assert loaded[name].dtype == np.float32 and loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()
        again = path.with_name("again.ckpt")
        checkpoint.save_tensors(again, loaded, loaded_meta)
        assert again.read_bytes() == path.read_bytes()


def set_workers(monkeypatch, cpus: int, blas: str | None = "1", omp: str | None = None):
    """Pin the affinity and the two BLAS thread variables."""
    monkeypatch.setattr(checkpoint.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for var, value in zip(tensor.BLAS_THREAD_VARS, (blas, omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)


class TestWorkerCount:
    @pytest.mark.parametrize("blas,omp,cpus,expected", [
        (None, None, 2, 1),    # unset: BLAS uses every CPU
        ("1", None, 2, 2),
        ("1", None, 1, 1),
        ("2", None, 2, 1),
        ("3", None, 2, 1),
        ("", None, 2, 1),
        ("x", None, 2, 1),
        ("0", None, 2, 1),
        ("-1", None, 2, 1),
        (None, "1", 2, 2),     # OMP_NUM_THREADS when OPENBLAS_NUM_THREADS is unset
        ("x", "1", 2, 2),      # or not a positive integer, as OpenBLAS reads them
        ("2", "1", 2, 1),
        ("1", None, 8, 5),     # capped at the item count
    ])
    def test_rule(self, monkeypatch, blas, omp, cpus, expected):
        set_workers(monkeypatch, cpus, blas, omp)
        assert checkpoint.worker_count(5) == expected

    def test_no_items_one_worker(self, monkeypatch):
        set_workers(monkeypatch, 2)
        assert checkpoint.worker_count(0) == 1


def assert_no_child():
    """Every process this test process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def logged_runs(log) -> list:
    """(item, pid) of every call that ``log_run`` recorded, sorted."""
    return sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())


def log_run(log, x):
    """Append ``x`` and this pid to ``log``; one small O_APPEND write, so
    records of concurrent workers do not interleave."""
    with open(log, "a") as fh:
        fh.write(f"{x} {os.getpid()}\n")


class Unreadable(Exception):
    """Pickles, but its unpickling calls ``__init__`` with one argument too few."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


class TestMapOrdered:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_results_in_item_order(self, monkeypatch, cpus):
        set_workers(monkeypatch, cpus)

        def slow_square(x):
            time.sleep(0.002 * (x % 3))
            return x * x
        assert checkpoint.map_ordered(slow_square, range(20)) == [x * x for x in range(20)]
        assert checkpoint.map_ordered(slow_square, []) == []
        assert_no_child()

    def test_every_item_runs_once_with_more_workers_than_cpus(self, monkeypatch, tmp_path):
        """8 workers on a 2-CPU host: every call is logged, and each item
        ran once, in the worker the returned pids name."""
        set_workers(monkeypatch, 8)
        log = tmp_path / "runs"

        def record(x):
            log_run(log, x)
            return x, os.getpid()
        out = checkpoint.map_ordered(record, range(300))
        assert [x for x, _ in out] == list(range(300))
        assert logged_runs(log) == sorted(out)
        assert_no_child()

    @pytest.mark.parametrize("blas", [None, "1"])
    def test_one_worker_forks_nothing(self, monkeypatch, blas):
        set_workers(monkeypatch, 1 if blas else 2, blas)
        monkeypatch.setattr(checkpoint.os, "fork", lambda: pytest.fail("forked at W = 1"))
        assert checkpoint.map_ordered(lambda x: os.getpid(), range(4)) == [os.getpid()] * 4

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_workers_are_the_caller_and_forked_children(self, monkeypatch, cpus):
        """Worker k runs items k, k + W, ...: worker 0 is the calling
        process, the others W - 1 distinct children, all reaped after."""
        set_workers(monkeypatch, cpus)
        pids = checkpoint.map_ordered(lambda x: os.getpid(), range(10))
        workers = pids[:cpus]
        assert workers[0] == os.getpid() and len(set(workers)) == cpus
        assert pids == [workers[i % cpus] for i in range(10)]
        assert_no_child()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lowest_failing_item_raises(self, monkeypatch, tmp_path, cpus):
        """Items 2 and 3 raise; 3 raises first, 2 after a pause.  The plain
        loop raises item 2's exception, with its cause, and so does every
        W; each worker stops at its own first failure."""
        set_workers(monkeypatch, cpus)
        log = tmp_path / "runs"

        def work(x):
            log_run(log, x)
            if x == 2:
                time.sleep(0.05)
                raise ValueError("item 2") from OSError(5, "cause of item 2", "clip.wav")
            if x == 3:
                raise KeyError("item 3")
            return x
        with pytest.raises(ValueError, match="item 2") as info:
            checkpoint.map_ordered(work, range(10))
        cause = info.value.__cause__
        assert isinstance(cause, OSError) and (cause.errno, cause.strerror, cause.filename) == \
            (5, "cause of item 2", "clip.wav")
        expected = []
        for k in range(cpus):
            share = range(k, 10, cpus)
            expected += [i for i in share if i <= min({2, 3} & set(share), default=10)]
        assert sorted(x for x, _ in logged_runs(log)) == sorted(expected)
        assert_no_child()

    @pytest.mark.parametrize("end,message", [
        ("kill", "was killed by SIGKILL"),
        ("exit", "ended with exit code 3"),
        ("unreadable", "sent results that cannot be read back (TypeError"),
    ])
    def test_worker_ending_without_results_raises(self, monkeypatch, end, message):
        """Worker 1 (items 1, 3, 5, ...) ends at item 3 without sending its
        results: an error names item 1, the first it did not return, and
        how it ended; no None result comes back and no child is left."""
        set_workers(monkeypatch, 2)
        caller = os.getpid()

        def work(x):
            if x == 3 and os.getpid() != caller:
                if end == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                if end == "exit":
                    os._exit(3)
                raise Unreadable("a", "b")
            return x
        with pytest.raises(checkpoint.WorkerError, match=r"worker 1 \(pid \d+\) " + re.escape(message)) as info:
            checkpoint.map_ordered(work, range(6))
        assert str(info.value).endswith("before returning item 1")
        assert_no_child()

    def test_failed_fork_raises_and_reaps_the_started_workers(self, monkeypatch):
        """At W = 3 the second fork fails: the error names worker 2, and
        worker 1, already running, is stopped and reaped."""
        set_workers(monkeypatch, 3)
        forks, fork = [], os.fork

        def fork_once():
            forks.append(1)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()
        monkeypatch.setattr(checkpoint.os, "fork", fork_once)
        with pytest.raises(checkpoint.WorkerError, match="cannot start worker 2: Resource temporarily"):
            checkpoint.map_ordered(lambda x: time.sleep(0.2), range(6))
        assert_no_child()


ORPHAN_PROBE = """
import os, sys, time
from cosep import checkpoint
os.environ["OPENBLAS_NUM_THREADS"] = "1"
checkpoint.os.sched_getaffinity = lambda pid: {0, 1}
log = sys.argv[1]

def work(x):
    if x % 2:   # worker 1: log the item, then take a while
        with open(log, "a") as fh:
            fh.write(f"{x}\\n")
        time.sleep(0.5)
    else:       # the caller: wait to be killed
        time.sleep(60)
    return x

checkpoint.map_ordered(work, range(60))
"""

OUTPUT_PROBE = """
import atexit, os
from cosep import checkpoint
os.environ["OPENBLAS_NUM_THREADS"] = "1"
checkpoint.os.sched_getaffinity = lambda pid: {0, 1}
atexit.register(print, "atexit")
print("before")   # stdout is a pipe, so this waits in the buffer
assert checkpoint.map_ordered(lambda x: x + 1, range(4)) == [1, 2, 3, 4]
print("after")
"""


def probe_env():
    """This environment with ``cosep`` importable, and stdout to a pipe
    block-buffered."""
    src = os.path.dirname(os.path.dirname(checkpoint.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    return env


class TestForkedWorkers:
    def test_worker_stops_once_its_parent_is_gone(self, tmp_path):
        """The caller is killed while worker 1 runs item 1: the worker
        starts no further item and exits, closing the stdout it shares."""
        log = tmp_path / "runs"
        proc = subprocess.Popen([sys.executable, "-c", ORPHAN_PROBE, str(log)], env=probe_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            while not (log.exists() and log.read_text()):
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.01)
            proc.kill()
            proc.communicate(timeout=30)   # EOF only once the worker has exited too
        finally:
            proc.kill()
            proc.wait()
        assert log.read_text().split() in (["1"], ["1", "3"])

    def test_output_before_a_map_appears_once(self):
        out = subprocess.run([sys.executable, "-c", OUTPUT_PROBE], env=probe_env(),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "before\nafter\natexit\n"
