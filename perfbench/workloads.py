"""The benchmark's four workloads: query streams and output checks.

Every workload is a closed loop with one client: the next query is sent
only after the previous one returns.  A workload's query stream is a pure
function of the workload seed (``random.Random(seed)``, consumed in order),
so a seed fixes the inputs whatever the run length.  Queries cycle through
a fixed list of forms; the seed draws the Monte Carlo seeds, boxes and
points, never the mix, so every seed costs the same.

CLI queries are argv lists for ``effectgeom.cli.main`` without
``--workers`` and ``--format``, which the runner appends.  Call queries name
a public library function by module and attribute, looked up at call time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from effectgeom import coords, homogeneity, mc, power, table

import oracles


@dataclass
class Query:
    form: str
    evals: int
    check: Callable[[object], list[str]]
    argv: list[str] | None = None  # CLI query
    module: object = None  # call query: getattr(module, fn)(*args)
    fn: str = ""
    args: tuple = ()
    # counts the traced run must reproduce exactly
    draws: int = 0
    chunks: int = 0
    points: int = 0
    estimates: int = 0


@dataclass
class Workload:
    name: str
    queries: Callable[[], Iterator[Query]]
    cycle: int  # queries per cycle of forms; the warm-up runs one cycle
    tail_pct: float  # latency percentile with >= 10 queries beyond it in a run
    trace_queries: int  # fixed query count of a traced run
    workers: int = 1  # timed-pass worker count of a CLI workload
    prepare: Callable[[], None] = lambda: None
    # makes a checker for properties of many answers together (see BatchAgreement)
    cross_check: Callable[[], "BatchAgreement"] | None = None
    cli: bool = True


def _chunks(n: int) -> int:
    return -(-n // mc.CHUNK_SIZE)


def _bounds(box) -> str:
    return "--bounds=" + ",".join(f"{float(lo)!r}:{float(hi)!r}" for lo, hi in box)


def _volume_query(form, system, targets, n, seed, box, extra_check) -> Query:
    """A volume query plus the checks every volume output must pass."""
    argv = ["volume", "--system", system, "--n-samples", str(n), "--seed", str(seed)]
    for t in targets:
        argv += ["--target", t]
    argv.append(_bounds(box))

    def check(rows) -> list[str]:
        got = [(r["system"], r["target"], r["n_samples"], r["seed"]) for r in rows]
        want = [(system, t, n, seed) for t in targets]
        if got != want:
            return [f"{form}: rows {got} != {want}"]
        bad = [r["target"] for r in rows if r["probability"] != r["n_compatible"] / n]
        if bad:
            return [f"{form}: probability != n_compatible / n for {bad}"]
        return extra_check({r["target"]: r for r in rows})

    k = len(targets)
    return Query(form, n * k, check, argv=argv, draws=3 * n * k,
                 chunks=_chunks(n) * k, points=n * k, estimates=k)


# ---------------------------------------------------------------------------
# volume_rr_eta
# ---------------------------------------------------------------------------

RR_ETA_BOXES = (
    ("default", ((-1.5, 1.5), (-1.0, 1.0), (-1.0, 1.0))),
    ("neg", ((-1.5, 0.0), (-1.0, 1.0), (-1.0, 1.0))),
    ("pos", ((0.0, 1.5), (-1.0, 1.0), (-1.0, 1.0))),
    ("wide", ((-3.0, 3.0), (-2.0, 2.0), (-1.0, 1.0))),
)


def volume_rr_eta(seed: int, scale: float) -> Workload:
    n = max(1, int(131072 * scale))

    def rr_eta_check(box):
        def check(rows) -> list[str]:
            rr, or_ = rows["rr"], rows["or"]
            out = []
            if rr["n_compatible"] > or_["n_compatible"]:
                out.append(f"rr_eta/{box}: n_compatible(rr) {rr['n_compatible']} "
                           f"> n_compatible(or) {or_['n_compatible']}")
            if box == "neg" and rr["n_compatible"] != n:
                out.append(f"rr_eta/neg: rr gave {rr['n_compatible']}/{n}, expected all")
            if box == "default" and not oracles.within_se(rr["probability"], oracles.RR_ETA_DEFAULT_RR, n):
                out.append(f"rr_eta/default: rr {rr['probability']} not within "
                           f"{oracles.Z_TOL} SE of {oracles.RR_ETA_DEFAULT_RR}")
            return out
        return check

    def queries():
        rng = random.Random(seed)
        while True:
            for name, box in RR_ETA_BOXES:
                yield _volume_query(f"rr_eta/{name}", "rr_eta", ("rr", "or"), n,
                                    rng.getrandbits(32), box, rr_eta_check(name))

    # p85 falls inside the slowest box's latencies (the top quarter); p75
    # would fall between two boxes and jump with the query count
    return Workload("volume_rr_eta", queries, cycle=4, tail_pct=85.0,
                    trace_queries=8, workers=2)


# ---------------------------------------------------------------------------
# volume_cheap
# ---------------------------------------------------------------------------

UNIT_CUBE = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))


def _guard_safe_box(rng: random.Random):
    """A random box inside [-3, 3]^3, where the rr_op eps guard never binds."""
    box = []
    for _ in range(3):
        lo = rng.uniform(-3.0, 2.5)
        box.append((lo, rng.uniform(lo + 0.5, 3.0)))
    return tuple(box)


def volume_cheap(seed: int, scale: float) -> Workload:
    n = max(1, int(1048576 * scale))

    def cube_check(rows) -> list[str]:
        out = []
        for t, row in rows.items():
            exact = oracles.CUBE_PROBABILITY[t]
            if row["analytic"] != exact:
                out.append(f"prob/{t}: analytic {row['analytic']} != {exact}")
            if t == "or":
                # all n, except the rare draws the eps guard rejects; those are
                # recounted exactly, and only when there are any (it costs a query)
                misses = n - row["n_compatible"]
                if misses and misses != oracles.cube_or_guard_misses(row["seed"], n):
                    out.append(f"prob/or: {row['n_compatible']}/{n} compatible, and not every "
                               f"incompatible draw is an eps-guard case")
            elif not oracles.within_se(row["probability"], exact, n):
                out.append(f"prob/{t}: {row['probability']} not within {oracles.Z_TOL} SE of {exact}")
        return out

    def rr_op_check(rows) -> list[str]:
        return [f"rr_op/{t}: {r['n_compatible']}/{n} compatible, expected all"
                for t, r in rows.items() if r["n_compatible"] != n]

    def prob(rng):
        return _volume_query("prob/cube", "prob", ("rd", "rr", "or"), n,
                             rng.getrandbits(32), UNIT_CUBE, cube_check)

    def rr_op(rng):
        return _volume_query("rr_op/box", "rr_op", ("rr", "or"), n,
                             rng.getrandbits(32), _guard_safe_box(rng), rr_op_check)

    # prob runs twice per cycle: the two forms cost about the same but not
    # quite, and with an even mix the median would fall between them
    forms = (prob, rr_op, prob)

    def queries():
        rng = random.Random(seed)
        while True:
            for make in forms:
                yield make(rng)

    return Workload("volume_cheap", queries, cycle=len(forms), tail_pct=75.0,
                    trace_queries=12, workers=1)


# ---------------------------------------------------------------------------
# power_wald
# ---------------------------------------------------------------------------

ALPHA = 0.05
TRUTHS = (
    ("null", (0.2, 0.35, 0.2, 0.35)),  # strata identical: no interaction on any scale
    ("alt", (0.2, 0.35, 0.3, 0.6)),
)
# The unbalanced design runs twice per cycle: with four designs of distinct
# cost the median latency would fall between two of them and jump with the
# query count; with five it falls inside the unbalanced design's latencies.
DESIGNS = (
    ("n10", (10, 10, 10, 10)),
    ("n100", (100, 100, 100, 100)),
    ("n1000", (1000, 1000, 1000, 1000)),
    ("unbalanced", (40, 160, 25, 400)),
    ("unbalanced", (40, 160, 25, 400)),
)
#: The design whose exact rejection rates are enumerated.
EXACT_DESIGN = "n10"


def power_wald(seed: int, scale: float) -> Workload:
    reps = max(1, int(262144 * scale))
    exact: dict[str, dict] = {}

    def prepare() -> None:
        cells = dict(DESIGNS)[EXACT_DESIGN]
        for truth, probs in TRUTHS:
            exact[truth] = oracles.exact_power(probs, cells[0], ALPHA)

    def power_check(form, truth, dname, design):
        def check(rows) -> list[str]:
            pattern = "/".join(map(str, design))
            got = [(r["scale"], r["n_pattern"], r["alpha"], r["reps"]) for r in rows]
            want = [(s, pattern, ALPHA, reps) for s in power.SCALES]
            if got != want:
                return [f"{form}: rows {got} != {want}"]
            out = []
            for r in rows:
                valid = reps - r["degenerate_count"]
                if r["scale"] != "identity" and r["degenerate_count"] != 0:
                    out.append(f"{form}/{r['scale']}: degenerate count {r['degenerate_count']}")
                elif not 0.0 <= r["rejection_rate"] <= 1.0:
                    out.append(f"{form}/{r['scale']}: rate {r['rejection_rate']}")
                elif dname == EXACT_DESIGN:
                    ref = exact[truth][r["scale"]]
                    if not oracles.within_se(r["rejection_rate"], ref, valid):
                        out.append(f"{form}/{r['scale']}: rate {r['rejection_rate']} not within "
                                   f"{oracles.Z_TOL} SE of exact {ref}")
            return out
        return check

    def queries():
        rng = random.Random(seed)
        while True:
            for truth, probs in TRUTHS:
                for dname, design in DESIGNS:
                    argv = ["power", "--reps", str(reps), "--seed", str(rng.getrandbits(32)),
                            "--alpha", repr(ALPHA)]
                    argv += [f"--{c}={p!r}" for c, p in zip(("p00", "p01", "p10", "p11"), probs)]
                    argv += [f"--{c}={m}" for c, m in zip(("n00", "n01", "n10", "n11"), design)]
                    form = f"{truth}/{dname}"
                    yield Query(form, reps, power_check(form, truth, dname, design), argv=argv,
                                draws=4 * reps, chunks=_chunks(reps))

    cycle = len(TRUTHS) * len(DESIGNS)
    return Workload("power_wald", queries, cycle=cycle, tail_pct=90.0,
                    trace_queries=2 * cycle, workers=2, prepare=prepare)


# ---------------------------------------------------------------------------
# scalar_api
# ---------------------------------------------------------------------------

ROUND_TRIP_TOL = 1e-9


def _round_trip(forward, fields, c, tables) -> list[str]:
    out = []
    for t in tables:
        back = forward(t)
        err = max(abs(getattr(back, f) - getattr(c, f)) for f in fields)
        if not err <= ROUND_TRIP_TOL:
            out.append(f"{forward.__name__} round trip of {c} off by {err:.3g}")
    return out


def _check_completion(q: homogeneity.HomogeneityQuery, got) -> list[str]:
    if q.measure == "rd":
        cand = q.p10 + q.p01 - q.p00
    elif q.measure == "rr":
        cand = q.p10 * q.p01 / q.p00
    else:
        x = math.log(q.p10 / (1 - q.p10)) + math.log(q.p01 / (1 - q.p01)) - math.log(q.p00 / (1 - q.p00))
        cand = 1.0 / (1.0 + math.exp(-x))
    inside = table.DEFAULT_EPS < cand < 1.0 - table.DEFAULT_EPS
    if (got is None) == inside or (got is not None and abs(got - cand) > 1e-12):
        return [f"complete_table({q}) = {got}, closed form {cand}"]
    return []


def scalar_api(seed: int, scale: float) -> Workload:
    def from_rr_eta(rng):
        c = coords.RrEtaCoords(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        return Query("from_rr_eta", 1, lambda tables: _round_trip(
            coords.to_rr_eta, ("alpha0", "alpha1", "e0", "e1"), c, tables),
            module=coords, fn="from_rr_eta", args=(c,))

    def from_rr_op(rng):
        c = coords.RrOpCoords(rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-2, 2))
        return Query("from_rr_op", 1, lambda t: _round_trip(
            coords.to_rr_op, ("alpha0", "alpha1", "gamma0", "gamma1"), c, [t]),
            module=coords, fn="from_rr_op", args=(c,))

    def compat(system, target, point):
        q = homogeneity.CompatibilityQuery(system, point, target)
        # the verdict is also compared with the batch kernel (BatchAgreement)
        return Query(f"check_compatibility/{system}", 1,
                     lambda v: [] if isinstance(v, bool) else [f"verdict {v!r} is not a bool"],
                     module=homogeneity, fn="check_compatibility", args=(q,))

    def rr_eta_or(rng):
        return compat("rr_eta", "or", (rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(-1, 1)))

    def prob(rng):
        return compat("prob", rng.choice(("rd", "rr", "or")), tuple(rng.uniform(0.01, 0.99) for _ in range(3)))

    def complete(rng):
        q = homogeneity.HomogeneityQuery(rng.choice(table.MEASURES), rng.uniform(0.01, 0.99),
                                         rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
        return Query("complete_table", 1, lambda got: _check_completion(q, got),
                     module=homogeneity, fn="complete_table", args=(q,))

    def wald(rng):
        totals = [rng.randint(2, 200) for _ in range(4)]
        events = [rng.randint(1, m - 1) for m in totals]
        s = rng.choice(power.SCALES)
        ref = oracles.wald_pvalue(events, totals, s)
        return Query("wald_interaction_pvalue", 1,
                     lambda p: [] if abs(p - ref) <= 1e-12 else [f"p-value {p} != straight-line {ref}"],
                     module=power, fn="wald_interaction_pvalue",
                     args=(power.CellCounts(*events, *totals), s))

    # from_rr_eta runs twice per cycle: its scalar bisection is the path that
    # the closed-form inversion and the scalar-as-vector-kernel change alter.
    forms = (from_rr_op, complete, wald, from_rr_eta, prob, rr_eta_or, from_rr_eta)

    def queries():
        rng = random.Random(seed)
        while True:
            for make in forms:
                yield make(rng)

    # p99 is the top 7% of the rr_eta/or checks; p99.9 is a few dozen calls
    # that hit a scheduler stall, and it varied 4x more between runs
    return Workload("scalar_api", queries, cycle=len(forms), tail_pct=99.0, trace_queries=1500 * len(forms), cross_check=BatchAgreement,
                    cli=False)


class BatchAgreement:
    """Scalar `check_compatibility` verdicts against one batch call per block.

    Verdicts are kept per (system, target) and compared with
    `check_compatibility_batch` on the same points every `BLOCK` verdicts,
    so memory stays bounded however long the run.
    """

    BLOCK = 256

    def __init__(self):
        self.pending: dict[tuple, list] = {}

    def add(self, index: int, q: Query, verdict) -> list[tuple[int, str]]:
        if q.fn != "check_compatibility":
            return []
        cq = q.args[0]
        group = self.pending.setdefault((cq.system, cq.target), [])
        group.append((index, cq.point, verdict))
        return self._compare(cq.system, cq.target) if len(group) >= self.BLOCK else []

    def flush(self) -> list[tuple[int, str]]:
        return [p for system, target in list(self.pending) for p in self._compare(system, target)]

    def _compare(self, system, target) -> list[tuple[int, str]]:
        items = self.pending.pop((system, target))
        batch = homogeneity.check_compatibility_batch(system, [p for _, p, _ in items], target)
        return [(i, f"check_compatibility{p} = {v}, batch says {bool(b)} ({system}/{target})")
                for b, (i, p, v) in zip(batch, items) if bool(b) != v]


WORKLOADS = {f.__name__: f for f in (volume_rr_eta, volume_cheap, power_wald, scalar_api)}
