import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from effectgeom import mc
from effectgeom.errors import DomainError


class TestChunkLayout:
    def test_exact_multiple(self):
        layout = mc.chunk_layout(2 * mc.CHUNK_SIZE)
        assert layout == [(0, mc.CHUNK_SIZE), (1, mc.CHUNK_SIZE)]

    def test_remainder(self):
        layout = mc.chunk_layout(mc.CHUNK_SIZE + 7)
        assert layout == [(0, mc.CHUNK_SIZE), (1, 7)]

    def test_small(self):
        assert mc.chunk_layout(10) == [(0, 10)]


def test_proportion():
    assert mc.proportion(3, 4) == (0.75, math.sqrt(0.75 * 0.25 / 4))
    assert mc.proportion(5, 5) == (1.0, 0.0)
    assert mc.proportion(0, 5) == (0.0, 0.0)
    assert mc.proportion(0, 0) == (0.0, 0.0)  # every replicate degenerate


class TestChunkRng:
    def test_streams_depend_on_both_seed_and_index(self):
        a = mc.chunk_rng(1, 0).random(4)
        b = mc.chunk_rng(1, 1).random(4)
        c = mc.chunk_rng(2, 0).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_streams_are_reproducible(self):
        assert np.array_equal(mc.chunk_rng(5, 3).random(8), mc.chunk_rng(5, 3).random(8))


def _toy_task(scale: int, index: int, size: int) -> np.ndarray:
    rng = mc.chunk_rng(0, index)
    return np.array([scale * int(rng.integers(0, 1000)) + size], dtype=np.int64)


def _fake_cpu_count(monkeypatch, cpus):
    """Make ``os.cpu_count()`` return ``cpus`` and hide the affinity set, so
    that `run_chunked` takes its fallback for systems without one."""
    monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)


def _inline_pool(monkeypatch) -> list:
    """Replace the per-count thread pool with one that runs each task inline,
    so that a huge worker count starts no thread; returns the pool sizes
    asked for.  The fake is patched over `mc._pool`, not cached by it, so no
    later test sees it."""
    sizes = []

    class InlinePool:
        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    def pool(workers):
        sizes.append(workers)
        return InlinePool()

    monkeypatch.setattr(mc, "_pool", pool)
    return sizes


class TestRunChunked:
    def test_rejects_workers_below_one(self):
        # the rule of mc.check_int: an integer-valued real, so also no 2.5, None or "2"
        for workers in (0, 2.5, None, "2"):
            with pytest.raises(DomainError, match=r"workers must be an integer in \[1, "):
                mc.run_chunked(_toy_task, (2,), 10, workers=workers)

    def test_sum_is_worker_independent(self):
        n = 3 * mc.CHUNK_SIZE + 11
        serial = mc.run_chunked(_toy_task, (2,), n, workers=1)
        parallel = mc.run_chunked(_toy_task, (2,), n, workers=4)
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("cpus, pool_size", [(None, None), (1, None), (2, 2), (3, 3), (64, 5)])
    def test_pool_is_capped_at_chunks_and_cpus(self, monkeypatch, cpus, pool_size):
        sizes = _inline_pool(monkeypatch)
        _fake_cpu_count(monkeypatch, cpus)
        n = 5 * mc.CHUNK_SIZE
        total = mc.run_chunked(_toy_task, (2,), n, workers=100_000)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert np.array_equal(total, mc.run_chunked(_toy_task, (2,), n, workers=1))

    def test_pool_is_capped_at_the_affinity_set(self, monkeypatch):
        # a container or taskset may allow one CPU on a 64-CPU machine
        sizes = _inline_pool(monkeypatch)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        n = 5 * mc.CHUNK_SIZE
        total = mc.run_chunked(_toy_task, (2,), n, workers=4)
        assert sizes == []
        assert np.array_equal(total, mc.run_chunked(_toy_task, (2,), n, workers=1))

    def test_worker_exception_reaches_the_caller_unchanged(self, monkeypatch):
        # the CLI maps DomainError to exit 3 and ConfigError to exit 2, so an
        # error raised on a worker thread must arrive as the same object
        raised = []

        def task(index, size):
            if index == 1:
                assert threading.current_thread() is not threading.main_thread()
                raised.append(DomainError(f"chunk {index}"))
                raise raised[-1]
            return np.array([size], dtype=np.int64)

        _fake_cpu_count(monkeypatch, 2)
        with pytest.raises(DomainError, match="chunk 1") as info:
            mc.run_chunked(task, (), 3 * mc.CHUNK_SIZE, workers=2)
        assert info.value is raised[0]

    def test_a_raising_chunk_cancels_the_queued_ones(self, monkeypatch):
        # chunk 0 raises at once; without cancellation both threads would
        # work through all 64 chunks before the error reached the caller
        ran = []

        def task(index, size):
            ran.append(index)
            if index == 0:
                raise DomainError("chunk 0")
            time.sleep(0.01)
            return np.array([size], dtype=np.int64)

        _fake_cpu_count(monkeypatch, 2)
        with pytest.raises(DomainError, match="chunk 0"):
            mc.run_chunked(task, (), 64 * mc.CHUNK_SIZE, workers=2)
        assert len(ran) < 64

    # Ctrl-C reaches `run_chunked` as a KeyboardInterrupt, in the main thread
    # while it waits on a chunk, or through the future of the chunk it hit
    @pytest.mark.parametrize("error", [DomainError, KeyboardInterrupt])
    def test_no_chunk_runs_once_a_raising_call_returns(self, monkeypatch, error):
        # the pool outlives the call, so the call itself waits for its running chunks
        log, lock = [], threading.Lock()

        def task(index, size):
            with lock:
                log.append(("start", index))
            if index == 0:
                raise error("chunk 0")
            time.sleep(0.01)
            with lock:
                log.append(("end", index))
            return np.array([size], dtype=np.int64)

        _fake_cpu_count(monkeypatch, 2)
        with pytest.raises(error, match="chunk 0"):
            mc.run_chunked(task, (), 64 * mc.CHUNK_SIZE, workers=2)
        with lock:
            returned = list(log)
        started = {i for what, i in returned if what == "start"}
        assert {i for what, i in returned if what == "end"} == started - {0}
        time.sleep(0.1)
        assert log == returned

    def test_two_calls_reuse_one_executor(self, monkeypatch):
        _fake_cpu_count(monkeypatch, 2)
        pools, threads = [], []
        real_pool = mc._pool

        def spy(workers):
            pools.append(real_pool(workers))
            return pools[-1]

        monkeypatch.setattr(mc, "_pool", spy)

        def task(index, size):
            threads.append(threading.current_thread())
            return _toy_task(2, index, size)

        n = 3 * mc.CHUNK_SIZE
        first = mc.run_chunked(task, (), n, workers=2)
        assert np.array_equal(mc.run_chunked(task, (), n, workers=2), first)
        assert len(pools) == 2 and pools[0] is pools[1]
        # the pool's threads outlive each call, and the two calls shared at most two
        assert len(set(threads)) <= 2
        assert all(t.is_alive() and t is not threading.main_thread() for t in threads)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_chunks_on_threads_of_its_own(self, monkeypatch):
        # the child inherits the parent's cached pool, but not its threads
        _fake_cpu_count(monkeypatch, 2)
        n = 3 * mc.CHUNK_SIZE
        first = mc.run_chunked(_toy_task, (2,), n, workers=2)
        read, write = os.pipe()
        with warnings.catch_warnings():  # later Pythons warn of a fork with threads running
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child leaves by os._exit, whatever happens, and runs no teardown
            code = 1
            try:
                os.write(write, mc.run_chunked(_toy_task, (2,), n, workers=2).tobytes())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:  # the child hung on a pool without threads
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        with os.fdopen(read, "rb") as f:
            got = f.read()
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        assert np.frombuffer(got, dtype=np.int64).tolist() == first.tolist()


def test_import_starts_no_thread():
    code = "import threading, effectgeom.cli; print(threading.active_count())"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "1\n"
