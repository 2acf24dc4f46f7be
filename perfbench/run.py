"""effectgeom benchmark: closed-loop queries through the CLI and the library.

Run from the root of an effectgeom checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the workload for S seconds with tracing off and prints
the end-to-end metrics.  ``--trace 1`` runs a fixed query list three times
(traced at workers = 1, untraced at workers = 1, untraced at workers = 2),
checks that all three print the same bytes, and prints the per-layer split.
Every output is checked; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import resource
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

WORKLOAD_NAMES = ("volume_rr_eta", "volume_cheap", "power_wald", "scalar_api")
SETUP_LAUNCHES = 9
IMPORT_LAUNCHES = 3
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)  # fallbacks below a workload's own
TRACE_DIR = Path("perfbench") / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiplies sample and replicate counts (smoke test only)")
    return p.parse_args(argv)


def cpu_seconds(children: bool) -> float:
    """User plus system time of this process and, optionally, reaped children."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) if children else (resource.RUSAGE_SELF,)
    return sum(u.ru_utime + u.ru_stime for u in map(resource.getrusage, who))


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def execute(q, workers: int):
    """Answer one query.

    A CLI query gives (exit code, stdout, stderr); a call query gives
    ("ok", result) or ("raised", repr of the exception).
    """
    from effectgeom import cli

    if q.argv is None:
        try:
            return ("ok", getattr(q.module, q.fn)(*q.args))
        except Exception as exc:  # a failed query is counted, not fatal
            return ("raised", repr(exc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(q.argv + ["--workers", str(workers), "--format", "json"])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return (code, out.getvalue(), err.getvalue())


def check(q, output) -> list[str]:
    """Problems with one query's output; an output of the wrong shape is one too."""
    status, *rest = output
    if q.argv is not None and status != 0:
        return [f"{q.form}: exit {status}: {rest[1].strip()[-300:]}"]
    if q.argv is None and status != "ok":
        return [f"{q.form}: raised {rest[0]}"]
    try:
        return q.check(json.loads(rest[0]) if q.argv is not None else rest[0])
    except Exception as exc:  # malformed output fails the query, not the run
        return [f"{q.form}: output not as expected: {exc!r}"]


@dataclass
class Pass:
    """What one closed-loop pass keeps: compact, so memory barely grows with it."""

    latency: array = field(default_factory=lambda: array("d"))
    by_form: dict[str, array] = field(default_factory=dict)
    cpu: float = 0.0
    evals: int = 0
    digests: list[bytes] | None = None  # per-query output digests, when asked for
    problems: dict[int, list[str]] = field(default_factory=dict)
    wall: float = 0.0


def run_pass(wl, queries, workers: int, seconds: float | None = None, tracer=None,
             digests: bool = False, between=None) -> Pass:
    """Closed loop: each query is sent after the previous one returned and was checked.

    With ``seconds``, stops at the first whole cycle of query forms after
    that time.  Latency and CPU time cover the call into effectgeom only, not
    the benchmark's checks or ``between(elapsed seconds)``, which runs after
    every query.
    """
    rec = Pass(digests=[] if digests else None)
    cross = wl.cross_check() if wl.cross_check else None
    children = wl.cli and workers > 1
    start = perf_counter()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        c0 = cpu_seconds(children)
        t0 = perf_counter()
        out = execute(q, workers)
        t1 = perf_counter()
        rec.cpu += cpu_seconds(children) - c0
        rec.latency.append(t1 - t0)
        rec.by_form.setdefault(q.form, array("d")).append(t1 - t0)
        rec.evals += q.evals
        if digests:
            rec.digests.append(hashlib.blake2b(repr(out).encode(), digest_size=16).digest())
        found = check(q, out)
        if cross is not None and out[0] == "ok":
            found += [m for _, m in cross.add(i, q, out[1])]
        if found:
            rec.problems.setdefault(i, []).extend(found)
        if between is not None:
            between(perf_counter() - start)
        if seconds is not None and (i + 1) % wl.cycle == 0 and perf_counter() - start >= seconds:
            break
    rec.wall = perf_counter() - start
    for i, m in cross.flush() if cross is not None else ():
        rec.problems.setdefault(i, []).append(m)
    return rec


def tail(wl, latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the workload's tail percentile, lowered if fewer
    than 10 queries lie beyond it."""
    import numpy as np

    n = len(latencies)
    ladder = [wl.tail_pct] + [p for p in TAIL_PERCENTILES if p < wl.tail_pct]
    pct = next((p for p in ladder if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return pct, float(np.percentile(latencies, pct))


def timed_run(wl, args, src, report):
    import probes

    from effectgeom import cli

    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        cli.main(list(probes.MEASURES_ARGV))
    probe = probes.SetupProbe(src, expected.getvalue())

    def between(elapsed: float) -> None:
        # launches are spread over the pass, so their median sees the same
        # machine as the queries do
        due = len(probe.times) * args.seconds / SETUP_LAUNCHES
        if len(probe.times) < SETUP_LAUNCHES and elapsed >= due:
            probe.launch()

    wl.prepare()
    run_pass(wl, itertools.islice(wl.queries(), wl.cycle), wl.workers)  # warm-up
    rec = run_pass(wl, wl.queries(), wl.workers, args.seconds, between=between)
    while len(probe.times) < SETUP_LAUNCHES:
        probe.launch()

    evals = rec.evals
    pct, tail_s = tail(wl, rec.latency)
    metrics = {
        "setup_s": (statistics.median(probe.times), "s"),
        "evals_per_s": (evals / sum(rec.latency), "1/s"),
        "query_p50_s": (statistics.median(rec.latency), "s"),
        "query_tail_s": (tail_s, "s"),
        "cpu_us_per_eval": (rec.cpu / evals * 1e6, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    n = len(rec.latency)
    report(f"{n} queries, {evals} evaluations in {rec.wall:.3f} s at workers={wl.workers}; "
           f"query_tail_s is p{pct:g} over {n} queries; "
           f"setup_s is the median of {SETUP_LAUNCHES} launches")
    for form, lat in sorted(rec.by_form.items()):
        report(f"  {form}: {len(lat)} queries, median {statistics.median(lat):.6g} s")
    messages = [m for found in rec.problems.values() for m in found]
    if probe.failed:
        messages.append(f"{probe.failed} of {SETUP_LAUNCHES} setup launches failed")
    return metrics, n + SETUP_LAUNCHES, len(rec.problems) + probe.failed, messages


def traced_run(wl, args, src, report):
    import probes
    import tracing

    metrics = {k: (v, "s") for k, v in probes.import_times(src, IMPORT_LAUNCHES).items()}
    wl.prepare()
    count = max(wl.cycle, int(wl.trace_queries * min(1.0, args.scale)))
    queries = list(itertools.islice(wl.queries(), count))
    run_pass(wl, queries[: wl.cycle], 1)  # warm-up

    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_pass(wl, queries, 1, tracer=tracer, digests=True)
    plain = run_pass(wl, queries, 1, digests=True)
    passes = [traced, plain]
    pool_speedup = 1.0  # a call workload has no pool
    if wl.cli:
        pooled = run_pass(wl, queries, 2, digests=True)
        passes.append(pooled)
        pool_speedup = plain.wall / pooled.wall

    problems = {}
    for p in passes:
        for i, found in p.problems.items():
            problems.setdefault(i, []).extend(found)
    for i, q in enumerate(queries):
        if len({p.digests[i] for p in passes}) > 1:
            problems.setdefault(i, []).append(
                f"{q.form}: output differs between the traced w=1, w=1 and w=2 passes")
    messages = [m for found in problems.values() for m in found]

    layers = tracer.layer_metrics()
    expected = {
        "mc.draw_values": sum(q.draws for q in queries),
        "mc.chunks": sum(q.chunks for q in queries),
        "homogeneity.points": sum(q.points for q in queries),
        "volume.estimate_calls": sum(q.estimates for q in queries),
    }
    messages += [f"{k} = {layers[k]}, expected {v} from the query list"
                 for k, v in expected.items() if layers[k] != v]
    self_sum = sum(layers[m] for m in tracing.SELF_TIME)
    for name, value in layers.items():
        metrics[name] = (value, "count" if name in expected else "s")
    metrics["mc.pool_speedup"] = (pool_speedup, "ratio")
    metrics["trace.wall_s"] = (traced.wall, "s")
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    metrics["trace.unattributed_s"] = (traced.wall - self_sum, "s")
    metrics["src.lines"] = (probes.source_lines(src), "lines")

    path = TRACE_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.write(path)
    report(f"{len(queries)} queries traced at workers=1 in {traced.wall:.3f} s, untraced "
           f"{plain.wall:.3f} s; layer self times sum to {self_sum:.3f} s; spans in {path}")
    return metrics, len(queries) * len(passes), len(problems), messages


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "effectgeom" / "__init__.py").is_file():
        print("error: no src/effectgeom here; run from the root of an effectgeom checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import effectgeom
    import workloads

    if Path(effectgeom.__file__).resolve().parent != (src / "effectgeom").resolve():
        print(f"error: imported effectgeom from {effectgeom.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    report = lambda line: print(f"# {line}", flush=True)
    run = traced_run if args.trace else timed_run
    metrics, attempted, failed, messages = run(wl, args, src, report)
    for m in messages[:20]:
        report(f"FAILED {m}")
    for name, (value, unit) in metrics.items():
        report(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
