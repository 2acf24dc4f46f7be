"""Repeated-sampling power of Wald interaction tests on three scales.

Each replicate draws four independent binomial cells from a true risk table,
one uniform per cell through a Walker alias table of the cell's binomial pmf,
then tests "interaction = 0" on each scale with a plug-in Wald statistic:

    identity  (p11 - p10) - (p01 - p00)        var  sum p(1-p)/n
    log       contrast of log p                 var  sum (1-p)/(n p)
    logit     contrast of log odds              var  sum 1/(n p (1-p))

against a two-sided normal reference.  Cells observed at 0 or n get the
standard continuity correction (+0.5 events, +1 total) before the log and
logit tests; the identity test uses raw proportions and a replicate whose
identity variance degenerates to 0 is counted separately, never folded into
either tally.

Each statistic combines per-cell terms, and a cell's count is an integer in
[0, n].  So each query builds, per cell, the alias table (Walker 1977, as Vose
1991 builds it) and the terms of each count the alias table can yield, and a
chunk maps each uniform straight to its column of terms, then builds one
scale's statistic at a time from 1-D gathers of those columns.  A cell with
n + 1 above `ALIAS_COUNTS` is drawn by `rng.binomial` instead, and a chunk
evaluates the terms once per distinct count it drew, or per replicate where
they span too wide a range.  Replicates are distributed over fixed-size chunks
with counter-based seeding (:mod:`effectgeom.mc`), so results are
reproducible for any worker count.  `simulate_dataset` is the same draw at
one replicate.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import mc
from .errors import DegenerateCountsError, DomainError
from .table import RiskTable, check_finite, logit

#: Test scales, in reporting order.
SCALES = ("identity", "log", "logit")

_CELLS = ("00", "01", "10", "11")  # (v, a) order used for all 4-vectors

_MAX_CELL = 2**63 - 1  # numpy draws binomial cells as int64

#: Rows each block gathers and combines; tallies do not depend on it.  A block
#: holds about four block-length arrays, so it is sized for numpy's call cost.
BLOCK_ROWS = 32768

#: Block rows where a cell's (6, rows) terms are evaluated per replicate, and
#: the widest drawn range a binomial cell tabulates instead.
EVAL_ROWS = 4096

#: Most counts n + 1 a cell draws through an alias table; wider cells draw
#: `rng.binomial`.  The tables are Python loops, about 1.3 us per count and
#: cell: at 2 workers on a 2-vCPU Xeon they cut a 262144-replicate query from
#: 84 to 35 ms at n = 1000, but cost more than they save past about 2000
#: counts (60 against 43 ms at n = 4095, 363 against 39 at n = 65535).
ALIAS_COUNTS = 1024


@dataclass(frozen=True)
class StudyDesign:
    """Per-cell sample sizes n[v][a], all >= 1 and below 2**63."""

    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self) -> None:
        for name in ("n00", "n01", "n10", "n11"):
            object.__setattr__(self, name, mc.check_int(name, getattr(self, name), 1, _MAX_CELL))

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n00, self.n01, self.n10, self.n11)

    def pattern(self) -> str:
        return "/".join(str(n) for n in self.as_tuple())


@dataclass(frozen=True)
class CellCounts:
    """Observed events and totals per (v, a) cell."""

    e00: int
    e01: int
    e10: int
    e11: int
    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self) -> None:
        for cell in _CELLS:
            n = mc.check_int(f"n{cell}", getattr(self, f"n{cell}"), 1, _MAX_CELL)
            e = mc.check_int(f"e{cell}", getattr(self, f"e{cell}"), 0, n)
            object.__setattr__(self, f"n{cell}", n)
            object.__setattr__(self, f"e{cell}", e)

    def events(self) -> tuple[int, int, int, int]:
        return (self.e00, self.e01, self.e10, self.e11)

    def totals(self) -> tuple[int, int, int, int]:
        return (self.n00, self.n01, self.n10, self.n11)


@dataclass(frozen=True)
class ScalePower:
    """Rejection rate of one scale's test, over non-degenerate replicates."""

    rate: float
    std_error: float
    n_rejected: int
    n_degenerate: int


@dataclass(frozen=True)
class PowerResult:
    alpha: float
    reps: int
    by_scale: dict[str, ScalePower]


def _cell_terms(events: np.ndarray, totals) -> np.ndarray:
    """A cell's six terms, stacked: each scale's statistic and its variance term.

    Identity reads the raw proportion, log and logit the continuity-corrected
    one.  ``events`` is an int array; float64 ``totals`` broadcasts against it.
    """
    raw = events / totals
    boundary = (events == 0) | (events == totals)
    adj = np.where(boundary, (events + 0.5) / (totals + 1.0), raw)
    adj_tot = np.where(boundary, totals + 1.0, totals)
    return np.stack([
        raw, raw * (1.0 - raw) / totals,
        np.log(adj), (1.0 - adj) / (adj_tot * adj),
        logit(adj), 1.0 / (adj_tot * adj * (1.0 - adj)),
    ])


def _combine(row: Callable[[int, int], np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Plug-in interaction estimate and variance on each scale, in `SCALES` order.

    ``row(cell, k)`` is a fresh 1-D array of term k of `_cell_terms` for cell
    0-3 (00, 01, 10, 11).  Each scale is built in place from its rows before
    the next scale's are read.  A variance of 0 marks a degenerate replicate.
    """
    for k in (0, 2, 4):
        est = row(3, k)
        est -= row(2, k)
        if k:
            est -= row(1, k)
            est += row(0, k)
        else:  # identity: (t11 - t10) - (t01 - t00)
            est -= np.subtract(row(1, k), row(0, k))
        var = row(0, k + 1)
        for cell in (1, 2, 3):
            var += row(cell, k + 1)
        yield est, var
        del est, var  # so the next scale's rows can reuse their memory once the caller's are gone


def wald_interaction(counts: CellCounts, scale: str) -> tuple[float, float]:
    """Plug-in interaction estimate and its delta-method standard error.

    `_cell_terms` and `_combine` at one replicate.

    Raises:
        DomainError: for a scale outside `SCALES`.
        DegenerateCountsError: identity scale only, when every cell sits at
            0 or n so the plug-in variance vanishes.
    """
    if scale not in SCALES:
        raise DomainError(f"scale must be one of {SCALES}, got {scale!r}")
    terms = _cell_terms(np.array(counts.events()), np.array(counts.totals(), dtype=float))
    scales = list(_combine(lambda cell, k: terms[k, [cell]]))  # one replicate
    est, var = (x.item() for x in scales[SCALES.index(scale)])
    if not var > 0.0:
        raise DegenerateCountsError(
            f"all cells at 0 or n, {scale}-scale variance is 0: {counts.events()}"
        )
    return float(est), math.sqrt(var)


def wald_interaction_pvalue(counts: CellCounts, scale: str) -> float:
    """Two-sided normal p-value for the zero-interaction null on one scale."""
    est, se = wald_interaction(counts, scale)
    return math.erfc(abs(est / se) / math.sqrt(2.0))


def _alias_table(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias table of the Binomial(n, p) pmf over [0, n]: (accept, alias).

    The pmf is built in log space with scalar `math`, not numpy ufuncs, so
    the table, and so every count drawn through it, is the same at any SIMD
    level.  Entries the pairing leaves over keep accept 1 and alias k.
    """
    m = n + 1
    log_c = math.lgamma(m)
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [math.exp(log_c - math.lgamma(k + 1) - math.lgamma(m - k) + k * log_p + (n - k) * log_q)
           for k in range(m)]
    scale = m / math.fsum(pmf)
    prob = [q * scale for q in pmf]
    accept, alias = [1.0] * m, list(range(m))
    small = [k for k in range(m) if prob[k] < 1.0]
    large = [k for k in range(m) if prob[k] >= 1.0]
    while small and large:
        k, j = small.pop(), large[-1]
        accept[k], alias[k] = prob[k], j
        prob[j] = (prob[j] + prob[k]) - 1.0
        if prob[j] < 1.0:
            small.append(large.pop())
    return np.array(accept), np.array(alias)


def _draw_tables(n: int, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """A cell's per-query tables for `_draw`, or None where n + 1 > `ALIAS_COUNTS`.

    (accept, counts, terms): the alias table's accept probabilities, the
    count of each column, and the (6, 2m) `_cell_terms` of those counts.
    Column 2k + 1 holds count k and column 2k alias[k].
    """
    if n + 1 > ALIAS_COUNTS:
        return None
    accept, alias = _alias_table(n, p)
    counts = np.column_stack((alias, np.arange(n + 1))).ravel()
    return accept, counts, _cell_terms(counts, float(n))


def _cells(truth: RiskTable, design: StudyDesign) -> tuple[tuple[int, float, tuple | None], ...]:
    """Each cell's (n, p, `_draw_tables`), in (v, a) cell order."""
    probs = (truth.p00, truth.p01, truth.p10, truth.p11)
    return tuple((n, p, _draw_tables(n, p)) for n, p in zip(design.as_tuple(), probs))


def _alias_columns(accept: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The terms-table column of the count each uniform in ``u`` draws; overwrites ``u``.

    With m = accept.size, x = u m splits into k = floor(x) and a coin
    x - k; the count is k where the coin is below accept[k], else alias[k],
    and its column in the `_draw_tables` terms is 2k + coin.  For u < 1 and
    an integer m up to 2**53, u m rounds to below m, so k lies in [0, m - 1]
    with no clip.  The coin resolves at least 53 - ceil(log2 m) bits: 43 at
    m = `ALIAS_COUNTS` = 2**10, about 37 at m = 2**16.  Columns are int32,
    half the uniforms' memory.
    """
    u *= accept.size
    k = u.astype(np.int32)
    u -= k
    coin = u < accept.take(k)
    k <<= 1
    k += coin
    return k


def _draw(rng: np.random.Generator, n: int, p: float, tables, size: int) -> np.ndarray:
    """``size`` draws of one cell: `_alias_columns` of uniforms, or `rng.binomial` counts."""
    if tables is None:
        return rng.binomial(n, p, size=size)
    return _alias_columns(tables[0], rng.random(size))


def _chunk_tallies(
    cells: tuple[tuple[int, float, tuple | None], ...],
    z_crit: float,
    seed: int,
    index: int,
    size: int,
) -> np.ndarray:
    """Per-chunk [rejected, degenerate] pairs for each scale, as a flat array.

    ``cells`` is `_cells`.  Each cell is drawn whole by `_draw`, in cell
    order 00, 01, 10, 11, since drawing it in blocks would change the
    stream.  A block feeds `_combine` 1-D row gathers of each cell's terms
    table and tallies each scale before the next is built; a chunk with a cell
    whose terms it evaluates per replicate runs in `EVAL_ROWS`-row blocks.
    """
    rng = mc.chunk_rng(seed, index)
    draws, tables = [], []  # per cell: a column or count per replicate, and its terms table or None
    for n, p, cell_tables in cells:
        c = _draw(rng, n, p, cell_tables, size)
        draws.append(c)
        if cell_tables is not None:
            tables.append(cell_tables[2])
            continue
        lo, hi = int(c.min()), int(c.max())
        if hi - lo < EVAL_ROWS:  # the int64 counts lo..hi; np.arange(lo, hi + 1) is float at 2**63
            tables.append(_cell_terms(lo + np.arange(hi - lo + 1), float(n)))
            c -= lo
        else:  # a table of the range would outgrow a block's terms, such as at n = 2**62
            tables.append(None)
    rows = EVAL_ROWS if any(t is None for t in tables) else BLOCK_ROWS

    def row(cell, k):  # term k of the cell over the current block
        t = tables[cell]
        return evaluated[cell][k].copy() if t is None else t[k].take(block[cell])

    out = np.zeros(6, dtype=np.int64)  # (rej, degen) x (identity, log, logit)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, size, rows):
            block = [d[start : start + rows] for d in draws]
            evaluated = None  # frees the last block's terms before this block's are evaluated
            evaluated = [_cell_terms(b, float(n)) if t is None else None
                         for t, b, (n, _, _) in zip(tables, block, cells)]
            tallies = []
            for est, var in _combine(row):
                valid = var > 0.0
                est /= np.sqrt(var, out=var)
                tallies += [np.count_nonzero(valid & (np.abs(est, out=est) > z_crit)),
                            valid.size - np.count_nonzero(valid)]
                del est, var  # so the next scale's rows can reuse their memory
            out += tallies
    return out


def simulate_power(
    truth: RiskTable,
    design: StudyDesign,
    alpha: float,
    reps: int,
    seed: int,
    workers: int = 1,
) -> PowerResult:
    """Rejection rate of each scale's test over ``reps`` simulated studies.

    Rejection means p-value < alpha, equivalently |z| above the two-sided
    normal critical value.  Rates are over non-degenerate replicates; the
    degenerate count is reported per scale.  Reproducible given the seed,
    for any worker count.
    """
    alpha = check_finite("alpha", alpha)
    # below about 1.1e-16, 1 - alpha/2 rounds to 1, which has no normal quantile
    if not (0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0):
        raise DomainError(f"alpha must be in (0, 1) with 1 - alpha/2 < 1 in floats, got {alpha}")
    reps = mc.check_int("reps", reps, 1, mc.MAX_COUNT)
    seed = mc.check_seed(seed)
    z_crit = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    totals = mc.run_chunked(_chunk_tallies, (_cells(truth, design), z_crit, seed), reps, workers)
    by_scale: dict[str, ScalePower] = {}
    for i, scale in enumerate(SCALES):
        rejected = int(totals[2 * i])
        degenerate = int(totals[2 * i + 1])
        rate, se = mc.proportion(rejected, reps - degenerate)
        by_scale[scale] = ScalePower(rate, se, rejected, degenerate)
    return PowerResult(alpha=alpha, reps=reps, by_scale=by_scale)


def simulate_dataset(truth: RiskTable, design: StudyDesign, seed: int) -> CellCounts:
    """The dataset ``simulate_power(truth, design, alpha, 1, seed)`` tests, in (v, a) cell order."""
    rng = mc.chunk_rng(mc.check_seed(seed), 0)
    events = []
    for n, p, tables in _cells(truth, design):
        (d,) = _draw(rng, n, p, tables, 1)
        events.append(int(d if tables is None else tables[1][d]))
    return CellCounts(*events, *design.as_tuple())
