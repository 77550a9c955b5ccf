"""Checkpoint round trip, and the ordered map with its worker-count rule."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosep import checkpoint

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
    for var, value in zip(checkpoint.BLAS_THREAD_VARS, (blas, omp)):
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


class TestMapOrdered:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_results_in_item_order(self, monkeypatch, cpus):
        set_workers(monkeypatch, cpus)

        def slow_square(x):
            time.sleep(0.002 * (x % 3))
            return x * x
        assert checkpoint.map_ordered(slow_square, range(20)) == [x * x for x in range(20)]
        assert checkpoint.map_ordered(slow_square, []) == []

    def test_every_item_runs_once_under_contention(self, monkeypatch):
        """8 workers on a 2-CPU host, switching threads every microsecond:
        a lost update of the shared index would skip or repeat an item."""
        set_workers(monkeypatch, 8)
        ran = []

        def record(x):
            ran.append(x)
            return -x
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = checkpoint.map_ordered(record, range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert out == [-x for x in range(3000)] and sorted(ran) == list(range(3000))

    @pytest.mark.parametrize("blas", [None, "1"])
    def test_one_worker_starts_no_thread(self, monkeypatch, blas):
        set_workers(monkeypatch, 1 if blas else 2, blas)
        before = threading.active_count()
        seen = checkpoint.map_ordered(lambda x: (threading.current_thread(), threading.active_count()), range(4))
        assert seen == [(threading.main_thread(), before)] * 4

    def test_two_workers_use_the_caller_and_one_helper(self, monkeypatch):
        set_workers(monkeypatch, 2)
        before = threading.active_count()
        barrier = threading.Barrier(2, timeout=10)

        def meet(x):
            barrier.wait()   # both workers hold an item at once
            return threading.current_thread()
        threads = checkpoint.map_ordered(meet, range(4))
        assert threading.main_thread() in threads and len(set(threads)) == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lowest_failing_item_raises(self, monkeypatch, cpus):
        """Items 2 and 3 raise; 3 raises first, 2 after a pause.  The plain
        loop raises item 2's exception, and so does every W."""
        set_workers(monkeypatch, cpus)
        before = threading.active_count()
        started = []

        def work(x):
            started.append(x)
            if x == 2:
                time.sleep(0.05)
                raise ValueError("item 2")
            if x == 3:
                raise KeyError("item 3")
            return x
        with pytest.raises(ValueError, match="item 2"):
            checkpoint.map_ordered(work, range(10))
        assert set(range(3)) <= set(started) and max(started) < 3 + cpus
        assert threading.active_count() == before
