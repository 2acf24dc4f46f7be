"""Deterministic chunked execution for Monte Carlo loops.

The sample index space [0, n) is cut into fixed-size chunks.  Chunk i gets
its own generator derived from (seed, i), so results depend only on the
spec, never on scheduling: workers may process chunks in any order and
aggregation is a sum of per-chunk integer counts.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

import numpy as np

from .errors import DomainError

#: Samples per chunk; fixed so that (seed, chunk index) -> stream is stable.
CHUNK_SIZE = 65536

#: Largest sample or replicate count: 65536 chunks, about 110 MB of bookkeeping.
MAX_COUNT = 2**32


def check_int(name: str, value, low: int, high: int) -> int:
    """``value`` as an int; it must be an integer-valued real in [low, high]."""
    try:  # int() rejects NaN and inf; ints of any size compare exactly
        if isinstance(value, numbers.Real) and value == int(value) and low <= value <= high:
            return int(value)
    except (ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def check_seed(seed) -> int:
    """The seed as an int; it must be an unsigned 64-bit integer."""
    return check_int("seed", seed, 0, 2**64 - 1)


def proportion(k: int, n: int) -> tuple[float, float]:
    """k / n and its binomial standard error sqrt(p(1 - p) / n); (0.0, 0.0) at n = 0."""
    if n == 0:
        return 0.0, 0.0
    p = k / n
    return p, math.sqrt(p * (1.0 - p) / n)


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk ``index`` of a run seeded with ``seed``."""
    return np.random.default_rng([int(seed), int(index)])


def chunk_layout(n: int) -> list[tuple[int, int]]:
    """(index, size) pairs covering [0, n)."""
    return [(i, min(CHUNK_SIZE, n - start)) for i, start in enumerate(range(0, n, CHUNK_SIZE))]


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads, built on first use and kept."""
    return ThreadPoolExecutor(max_workers=workers)


if hasattr(os, "register_at_fork"):  # a forked child inherits the pools but not their threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def run_chunked(
    task: Callable[..., np.ndarray],
    args: tuple,
    n: int,
    workers: int = 1,
) -> np.ndarray:
    """Sum ``task(*args, index, size)`` over all chunks covering n samples.

    ``task`` must return an integer ndarray of fixed shape; the sum is
    order-independent, so any worker count yields identical totals.  The
    chunks run on a thread pool with no more threads than chunks or than CPUs
    this process may run on (its affinity set where the OS has one).  There
    is one pool per thread count for the life of the process, built on first
    use, whose threads outlive each call (a forked child builds its own); a
    task that itself called `run_chunked` with more than one worker could
    deadlock on its own pool.  An
    exception a task raises, or an interrupt, cancels the queued chunks and
    reaches the caller unchanged once the running chunks finish.

    Raises:
        DomainError: unless ``workers`` passes `check_int` in [1, MAX_COUNT].
    """
    layout = chunk_layout(n)
    affinity = getattr(os, "sched_getaffinity", None)  # the CPUs this process may use
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(check_int("workers", workers, 1, MAX_COUNT), len(layout), cpus)
    if workers == 1:
        parts = [task(*args, index, size) for index, size in layout]
    else:
        pool = _pool(workers)
        futures = [pool.submit(task, *args, *chunk) for chunk in layout]
        try:
            parts = [f.result() for f in futures]
        except BaseException:  # a task's exception or an interrupt: no chunk outlives the call
            for f in futures:
                f.cancel()
            wait(futures)
            raise
    return np.sum(np.stack(parts), axis=0)
