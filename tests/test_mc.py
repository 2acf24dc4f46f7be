import numpy as np
import pytest

from effectgeom import mc
from effectgeom.errors import ConfigError


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


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(mc.WORKERS_ENV_VAR, "7")
        assert mc.resolve_workers(2) == 2

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(mc.WORKERS_ENV_VAR, "3")
        assert mc.resolve_workers(None) == 3

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(mc.WORKERS_ENV_VAR, raising=False)
        assert mc.resolve_workers(None) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mc.resolve_workers(0)

    def test_env_override_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv(mc.WORKERS_ENV_VAR, "abc")
        with pytest.raises(ConfigError):
            mc.resolve_workers(None)


def _toy_task(scale: int, index: int, size: int) -> np.ndarray:
    rng = mc.chunk_rng(0, index)
    return np.array([scale * int(rng.integers(0, 1000)) + size], dtype=np.int64)


class TestRunChunked:
    def test_sum_is_worker_independent(self):
        n = 3 * mc.CHUNK_SIZE + 11
        serial = mc.run_chunked(_toy_task, (2,), n, workers=1)
        parallel = mc.run_chunked(_toy_task, (2,), n, workers=4)
        assert np.array_equal(serial, parallel)
