"""Deterministic chunked execution for Monte Carlo loops.

The sample index space [0, n) is cut into fixed-size chunks.  Chunk i gets
its own generator derived from (seed, i), so results depend only on the
spec, never on scheduling: workers may process chunks in any order and
aggregation is a sum of per-chunk integer counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

#: Samples per chunk; fixed so that (seed, chunk index) -> stream is stable.
CHUNK_SIZE = 65536

#: Rows a chunk task evaluates at a time, which bounds each worker's
#: temporaries; results do not depend on it.
BLOCK_SIZE = 4096


def check_seed(seed) -> int:
    """The seed as an int; it must be an unsigned 64-bit integer."""
    seed = int(seed)
    if not (0 <= seed < 2**64):
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk ``index`` of a run seeded with ``seed``."""
    return np.random.default_rng([int(seed), int(index)])


def chunk_layout(n: int) -> list[tuple[int, int]]:
    """(index, size) pairs covering [0, n)."""
    out = []
    index = 0
    remaining = int(n)
    while remaining > 0:
        size = min(CHUNK_SIZE, remaining)
        out.append((index, size))
        index += 1
        remaining -= size
    return out


def run_chunked(
    task: Callable[..., np.ndarray],
    args: tuple,
    n: int,
    workers: int = 1,
) -> np.ndarray:
    """Sum ``task(*args, index, size)`` over all chunks covering n samples.

    ``task`` must return an integer ndarray of fixed shape; the sum is
    order-independent, so any worker count yields identical totals.  The
    chunks run on a thread pool with no more threads than chunks or CPUs,
    and an exception a task raises reaches the caller unchanged.

    Raises:
        DomainError: if ``workers`` is below 1.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    layout = chunk_layout(n)
    workers = min(workers, len(layout), os.cpu_count() or 1)
    if workers == 1:
        parts = [task(*args, index, size) for index, size in layout]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(task, *args, index, size) for index, size in layout]
            parts = [f.result() for f in futures]
    return np.sum(np.stack(parts), axis=0)
