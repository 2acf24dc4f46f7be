"""Spans around effectgeom's public entry points, recorded from outside.

`Tracer.installed()` replaces each entry point at the module attribute its
caller looks it up by, records a span per call, and restores the originals
on exit.  Spans carry name, start, end, parent span and query id; they are
kept in memory and written out when the run ends.  Only a run with
workers = 1 may be traced: the wrapped chunk task is a closure, which a
process pool cannot pickle.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from collections import defaultdict
from time import perf_counter

from effectgeom import cli, coords, homogeneity, mc, power, volume

#: (module, attribute, span name) of the entry points timed as plain calls.
_PLAIN = (
    (cli, "main", "cli.main"),
    (volume, "estimate", "volume.estimate"),
    (power, "simulate_power", "power.simulate_power"),
    (homogeneity, "eta_min_log_odds_ratio_vec", "coords.eta_min_log_odds_ratio_vec"),
    (homogeneity, "eta_attainable_vec", "coords.eta_attainable_vec"),
    (coords, "from_rr_eta", "coords.from_rr_eta"),
    (coords, "from_rr_op", "coords.from_rr_op"),
    (homogeneity, "check_compatibility", "homogeneity.check_compatibility"),
    (homogeneity, "complete_table", "homogeneity.complete_table"),
    (power, "wald_interaction_pvalue", "power.wald_interaction_pvalue"),
)

#: Per-layer self-time metrics: metric -> span name.  A span's self time is
#: its duration minus that of its child spans, so these partition the traced
#: wall time up to `trace.unattributed_s`.
SELF_TIME = {
    "mc.draw_s": "mc.draw",
    "mc.reduce_s": "mc.run_chunked",
    "volume.scale_s": "volume.task",
    "homogeneity.batch_self_s": "homogeneity.check_compatibility_batch",
    "homogeneity.check_compatibility_s": "homogeneity.check_compatibility",
    "homogeneity.complete_table_s": "homogeneity.complete_table",
    "coords.eta_min_log_odds_ratio_vec_s": "coords.eta_min_log_odds_ratio_vec",
    "coords.eta_attainable_vec_s": "coords.eta_attainable_vec",
    "coords.from_rr_eta_s": "coords.from_rr_eta",
    "coords.from_rr_op_s": "coords.from_rr_op",
    "power.wald_s": "power.task",
    "power.wald_interaction_pvalue_s": "power.wald_interaction_pvalue",
    "cli.self_s": "cli.main",
}


class _DrawProxy:
    """A chunk generator whose `random` and `binomial` calls are spans."""

    def __init__(self, rng, tracer: "Tracer"):
        self._rng = rng
        self._tracer = tracer

    def _draw(self, method, args, kwargs, size):
        self._tracer.draw_values += math.prod(size) if isinstance(size, tuple) else int(size)
        with self._tracer.span("mc.draw"):
            return method(*args, **kwargs)

    def random(self, size=None, *args, **kwargs):
        return self._draw(self._rng.random, (size, *args), kwargs, 1 if size is None else size)

    def binomial(self, n, p, size=None):
        return self._draw(self._rng.binomial, (n, p, size), {}, 1 if size is None else size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self._open: list[int] = []
        self.query = -1
        self.draw_values = 0
        self.points = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), math.nan, parent, self.query])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        real_run_chunked = mc.run_chunked
        real_chunk_rng = mc.chunk_rng
        real_batch = volume.check_compatibility_batch

        def run_chunked(task, args, n, workers=None):
            name = task.__module__.rsplit(".", 1)[-1] + ".task"
            return real_run_chunked(self.wrap(name, task), args, n, workers)

        def chunk_rng(seed, index):
            with self.span("mc.draw"):
                return _DrawProxy(real_chunk_rng(seed, index), self)

        def batch(system, points, target):
            self.points += len(points)
            return real_batch(system, points, target)

        patches = [(m, attr, self.wrap(name, getattr(m, attr))) for m, attr, name in _PLAIN]
        patches += [
            (mc, "run_chunked", self.wrap("mc.run_chunked", run_chunked)),
            (mc, "chunk_rng", chunk_rng),
            (volume, "check_compatibility_batch",
             self.wrap("homogeneity.check_compatibility_batch", batch)),
        ]
        saved = [(m, attr, getattr(m, attr)) for m, attr, _ in patches]
        try:
            for m, attr, fn in patches:
                setattr(m, attr, fn)
            yield self
        finally:
            for m, attr, fn in saved:
                setattr(m, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Self times per layer plus the span-derived counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_time[name] += end - start - inner
            calls[name] += 1
        out = {metric: self_time[name] for metric, name in SELF_TIME.items()}
        out["mc.chunks"] = calls["volume.task"] + calls["power.task"]
        out["volume.estimate_calls"] = calls["volume.estimate"]
        out["mc.draw_values"] = self.draw_values
        out["homogeneity.points"] = self.points
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"], "spans": self.spans}, fh)
