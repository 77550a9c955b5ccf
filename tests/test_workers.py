"""``cosep.workers``: the W rule, the sample ranges on helper threads,
the ordered map on forked workers, and the guard that keeps every
thread, fork and CPU count of the package in that one module."""

import ast
import errno
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cosep import tensor as tc, trainer, workers
from cosep.avnets import AudioNetCfg, ImageNetCfg, ModelBundle
from cosep.tensor import Tensor

from oracles import LOWERINGS, conv_bytes, deadline, set_workers

CONCURRENCY_MODULES = {"threading", "queue", "contextvars", "pickle", "signal"}
CONCURRENCY_CALLS = {"fork", "register_at_fork", "sched_getaffinity"}   # of ``os``


def concurrency_uses(path: Path) -> set:
    """The concurrency modules that the source at ``path`` imports (as
    ``"threading"``), and the functions of ``CONCURRENCY_CALLS`` that it
    names on ``os``, an alias of ``os`` or in ``from os import`` (as
    ``"os.fork"``)."""
    tree = ast.parse(path.read_text(), str(path))
    os_names = {"os"} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                         for a in node.names if a.name == "os" and a.asname}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names} & CONCURRENCY_MODULES
        elif isinstance(node, ast.ImportFrom) and node.module:
            found |= {node.module.split(".")[0]} & CONCURRENCY_MODULES
            if node.module == "os":
                found |= {f"os.{a.name}" for a in node.names if a.name in CONCURRENCY_CALLS}
        elif (isinstance(node, ast.Attribute) and node.attr in CONCURRENCY_CALLS
              and isinstance(node.value, ast.Name) and node.value.id in os_names):
            found.add(f"os.{node.attr}")
    return found


PACKAGE = sorted(Path(workers.__file__).parent.glob("*.py"))


class TestOneModuleOwnsTheCpus:
    @pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "workers.py"], ids=lambda p: p.name)
    def test_no_other_module_threads_forks_or_counts_cpus(self, path):
        assert concurrency_uses(path) == set()

    def test_the_guard_sees_every_use_in_workers(self):
        """The guard finds all eight uses where they are, so an empty set
        elsewhere means none."""
        assert concurrency_uses(Path(workers.__file__)) == \
            CONCURRENCY_MODULES | {f"os.{name}" for name in CONCURRENCY_CALLS}


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
        assert workers.worker_count(5) == expected

    def test_no_items_one_worker(self, monkeypatch):
        set_workers(monkeypatch, 2)
        assert workers.worker_count(0) == 1

    def test_rule_inputs_are_what_the_rule_reads(self, monkeypatch):
        set_workers(monkeypatch, 3, "x", "1")
        assert workers.rule_inputs() == {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1", "cpus": 3}
        set_workers(monkeypatch, 2, None)
        assert workers.rule_inputs() == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, "cpus": 2}


def range_threads(monkeypatch) -> list:
    """Records the thread that runs each sample range of ``conv2d``."""
    names, real = [], tc.over_samples

    def recording(fn, n):
        def named(lo, hi):
            names.append(threading.current_thread().name)
            fn(lo, hi)
        real(named, n)

    monkeypatch.setattr(tc, "over_samples", recording)
    return names


class TestSampleRanges:
    """``conv2d`` splits its samples over W threads; every bit is the same
    at W = 1 and W = 2."""

    @pytest.mark.parametrize("case", list(LOWERINGS))
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_conv_bytes_equal_at_one_and_two_workers(self, monkeypatch, n, case):
        set_workers(monkeypatch, 1)
        alone = conv_bytes(n, case)
        set_workers(monkeypatch, 2)
        threads = range_threads(monkeypatch)
        assert conv_bytes(n, case) == alone
        # forward and backward: two ranges each once there are two samples
        assert len(set(threads)) == min(n, 2) and len(threads) == 2 * min(n, 2)

    def test_training_step_equal_at_one_and_two_workers(self, monkeypatch):
        rng = np.random.default_rng(6)
        batch = (rng.random((3, 1, 64, 64)).astype(np.float32),
                 rng.random((6, 3, 64, 64)).astype(np.float32),
                 (rng.random((6, 1, 64, 64)) > 0.5).astype(np.float32))
        runs = []
        for cpus in (1, 2):
            set_workers(monkeypatch, cpus)
            bundle = ModelBundle(ImageNetCfg(), AudioNetCfg(), seed=5)
            opt = tc.Adam(bundle.param_list(), lr=1e-3)
            losses = [trainer._step_batch(batch, bundle, opt) for _ in range(2)]
            runs.append((losses, {name: p.data.tobytes() for name, p in bundle.params().items()}))
        assert runs[0] == runs[1]

    def test_helper_keeps_the_callers_errstate(self, monkeypatch):
        """Sample 1 runs on the helper, whose overflow the caller's
        ``np.errstate(over="ignore")`` silences as well."""
        set_workers(monkeypatch, 2)
        x = Tensor(np.full((2, 3, 5, 5), 1e30, dtype=np.float32))
        w = Tensor(np.full((4, 3, 3, 3), 1e30, dtype=np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                y = tc.conv2d(x, w, b, padding=1)
        assert np.isposinf(y.data).all()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failure_is_raised_once_every_range_has_finished(self, monkeypatch, failing):
        """Range ``failing`` (0 on the caller, 1 on the helper) raises at
        once while the other takes a while: the caller raises that
        exception, and only after the other range has finished."""
        set_workers(monkeypatch, 2)
        finished = []

        def work(lo, hi):
            if lo == failing:
                raise KeyError(f"range {lo}")
            time.sleep(0.3)
            finished.append(lo)

        with pytest.raises(KeyError, match=f"range {failing}"):
            workers.over_samples(work, 2)
        assert finished == [1 - failing]

    def test_forked_child_runs_every_range_itself(self, monkeypatch):
        """A child forked while a helper thread exists has no helper; its
        conv with two samples finishes and gives the parent's bytes."""
        set_workers(monkeypatch, 2)
        expected = conv_bytes(2, "narrow")
        assert any(t.name.startswith("cosep-samples") for t in threading.enumerate())
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(b"".join(conv_bytes(2, "narrow")))
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        got, ended, deadline = b"", False, time.monotonic() + 60
        try:
            while not ended and select.select([read_fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
                chunk = os.read(read_fd, 1 << 16)
                got += chunk
                ended = not chunk
        finally:
            os.close(read_fd)
            if not ended:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
        assert ended, "the forked child did not finish its conv within 60 s"
        assert os.waitstatus_to_exitcode(status) == 0 and got == b"".join(expected)


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
        assert workers.map_ordered(slow_square, range(20)) == [x * x for x in range(20)]
        assert workers.map_ordered(slow_square, []) == []
        assert_no_child()

    def test_every_item_runs_once_with_more_workers_than_cpus(self, monkeypatch, tmp_path):
        """8 workers on a 2-CPU host: every call is logged, and each item
        ran once, in the worker the returned pids name."""
        set_workers(monkeypatch, 8)
        log = tmp_path / "runs"

        def record(x):
            log_run(log, x)
            return x, os.getpid()
        out = workers.map_ordered(record, range(300))
        assert [x for x, _ in out] == list(range(300))
        assert logged_runs(log) == sorted(out)
        assert_no_child()

    @pytest.mark.parametrize("blas", [None, "1"])
    def test_one_worker_forks_nothing(self, monkeypatch, blas):
        set_workers(monkeypatch, 1 if blas else 2, blas)
        monkeypatch.setattr(workers.os, "fork", lambda: pytest.fail("forked at W = 1"))
        assert workers.map_ordered(lambda x: os.getpid(), range(4)) == [os.getpid()] * 4

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_workers_are_the_caller_and_forked_children(self, monkeypatch, cpus):
        """Worker k runs items k, k + W, ...: worker 0 is the calling
        process, the others W - 1 distinct children, all reaped after."""
        set_workers(monkeypatch, cpus)
        pids = workers.map_ordered(lambda x: os.getpid(), range(10))
        firsts = pids[:cpus]
        assert firsts[0] == os.getpid() and len(set(firsts)) == cpus
        assert pids == [firsts[i % cpus] for i in range(10)]
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
            workers.map_ordered(work, range(10))
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
        with pytest.raises(workers.WorkerError, match=r"worker 1 \(pid \d+\) " + re.escape(message)) as info:
            workers.map_ordered(work, range(6))
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
        monkeypatch.setattr(workers.os, "fork", fork_once)
        with pytest.raises(workers.WorkerError, match="cannot start worker 2: Resource temporarily"):
            workers.map_ordered(lambda x: time.sleep(0.2), range(6))
        assert_no_child()


ORPHAN_PROBE = """
import os, sys, time
from cosep import workers
os.environ["OPENBLAS_NUM_THREADS"] = "1"
workers.os.sched_getaffinity = lambda pid: {0, 1}
log = sys.argv[1]

def work(x):
    if x % 2:   # worker 1: log the item, then take a while
        with open(log, "a") as fh:
            fh.write(f"{x}\\n")
        time.sleep(0.5)
    else:       # the caller: wait to be killed
        time.sleep(60)
    return x

workers.map_ordered(work, range(60))
"""

OUTPUT_PROBE = """
import atexit, os
from cosep import workers
os.environ["OPENBLAS_NUM_THREADS"] = "1"
workers.os.sched_getaffinity = lambda pid: {0, 1}
atexit.register(print, "atexit")
print("before")   # stdout is a pipe, so this waits in the buffer
assert workers.map_ordered(lambda x: x + 1, range(4)) == [1, 2, 3, 4]
print("after")
"""


def probe_env():
    """This environment with ``cosep`` importable, and stdout to a pipe
    block-buffered."""
    src = os.path.dirname(os.path.dirname(workers.__file__))
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


    def test_conv_in_a_forked_worker_gives_the_serial_bytes(self, monkeypatch):
        """At W = 2, item 1 runs in a child forked while a helper thread
        exists: its 4-sample ``conv2d`` runs every range itself, finishes,
        and gives the bytes of the plain loop."""
        set_workers(monkeypatch, 2)

        def item(seed):
            return os.getpid(), b"".join(conv_bytes(4, "narrow", seed))
        serial = [item(seed) for seed in range(2)]
        assert any(t.name.startswith("cosep-samples") for t in threading.enumerate())
        with deadline(60):
            mapped = workers.map_ordered(item, range(2))
        assert mapped[0] == serial[0] and mapped[1][0] != os.getpid()
        assert mapped[1][1] == serial[1][1]
        assert_no_child()
