import threading
import time

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
        # a stand-in pool that records its size and runs each task inline, so
        # that a huge worker count starts no thread
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
        n = 5 * mc.CHUNK_SIZE
        total = mc.run_chunked(_toy_task, (2,), n, workers=100_000)
        assert sizes == ([] if pool_size is None else [pool_size])
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

        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
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

        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        with pytest.raises(DomainError, match="chunk 0"):
            mc.run_chunked(task, (), 64 * mc.CHUNK_SIZE, workers=2)
        assert len(ran) < 64
