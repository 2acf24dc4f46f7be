"""Repeated-sampling power of Wald interaction tests on three scales.

Each replicate draws four independent binomial cells from a true risk table,
then tests "interaction = 0" on each scale with a plug-in Wald statistic:

    identity  (p11 - p10) - (p01 - p00)        var  sum p(1-p)/n
    log       contrast of log p                 var  sum (1-p)/(n p)
    logit     contrast of log odds              var  sum 1/(n p (1-p))

against a two-sided normal reference.  Cells observed at 0 or n get the
standard continuity correction (+0.5 events, +1 total) before the log and
logit tests; the identity test uses raw proportions and a replicate whose
identity variance degenerates to 0 is counted separately, never folded into
either tally.

Replicates are distributed over fixed-size chunks with counter-based seeding
(:mod:`effectgeom.mc`), so results are reproducible for any worker count.
"""

from __future__ import annotations

import math
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


def _wald(events: np.ndarray, totals: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Plug-in interaction estimate and variance on each scale, in `SCALES` order.

    ``events`` and ``totals`` hold the four cells in (v, a) order along the
    first axis; further axes (replicates) broadcast.  The identity scale uses
    raw proportions; the log and logit scales continuity-correct cells at 0
    or n.  A variance of 0 marks a degenerate replicate.
    """
    raw = events / totals
    boundary = (events == 0) | (events == totals)
    adj = np.where(boundary, (events + 0.5) / (totals + 1.0), raw)
    adj_tot = np.where(boundary, totals + 1.0, totals)
    identity = (raw[3] - raw[2]) - (raw[1] - raw[0]), (raw * (1.0 - raw) / totals).sum(axis=0)
    log = (
        np.log(adj[3]) - np.log(adj[2]) - np.log(adj[1]) + np.log(adj[0]),
        ((1.0 - adj) / (adj_tot * adj)).sum(axis=0),
    )
    # the (4, n) log odds are formed last, once the other scales' temporaries
    # are freed, to keep a chunk's peak memory low
    lo = logit(adj)
    var = (1.0 / (adj_tot * adj * (1.0 - adj))).sum(axis=0)
    return [identity, log, (lo[3] - lo[2] - lo[1] + lo[0], var)]


def wald_interaction(counts: CellCounts, scale: str) -> tuple[float, float]:
    """Plug-in interaction estimate and its delta-method standard error.

    `_wald` at one replicate.

    Raises:
        DomainError: for a scale outside `SCALES`.
        DegenerateCountsError: identity scale only, when every cell sits at
            0 or n so the plug-in variance vanishes.
    """
    if scale not in SCALES:
        raise DomainError(f"scale must be one of {SCALES}, got {scale!r}")
    events = np.array(counts.events(), dtype=float)
    totals = np.array(counts.totals(), dtype=float)
    est, var = _wald(events, totals)[SCALES.index(scale)]
    if not var > 0.0:
        raise DegenerateCountsError(
            f"all cells at 0 or n, {scale}-scale variance is 0: {counts.events()}"
        )
    return float(est), math.sqrt(var)


def wald_interaction_pvalue(counts: CellCounts, scale: str) -> float:
    """Two-sided normal p-value for the zero-interaction null on one scale."""
    est, se = wald_interaction(counts, scale)
    return math.erfc(abs(est / se) / math.sqrt(2.0))


def simulate_dataset(truth: RiskTable, design: StudyDesign, seed: int) -> CellCounts:
    """One canonical dataset: four scalar binomial draws in (v, a) cell order."""
    rng = mc.chunk_rng(mc.check_seed(seed), 0)
    probs = (truth.p00, truth.p01, truth.p10, truth.p11)
    events = [int(rng.binomial(n, p)) for n, p in zip(design.as_tuple(), probs)]
    return CellCounts(*events, *design.as_tuple())


def _chunk_tallies(
    truth_cells: tuple[float, float, float, float],
    design_cells: tuple[int, int, int, int],
    z_crit: float,
    seed: int,
    index: int,
    size: int,
) -> np.ndarray:
    """Per-chunk [rejected, degenerate] pairs for each scale, as a flat array.

    Each cell is drawn whole, in cell order 00, 01, 10, 11, since drawing it
    in blocks would change the stream; only `_wald` runs block by block.
    """
    rng = mc.chunk_rng(seed, index)
    cells = [rng.binomial(n, p, size=size) for n, p in zip(design_cells, truth_cells)]
    totals = np.array(design_cells, dtype=float)[:, None]
    out = np.zeros(6, dtype=np.int64)  # (rej, degen) x (identity, log, logit)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, size, mc.BLOCK_SIZE):
            events = np.stack([c[start : start + mc.BLOCK_SIZE] for c in cells])
            for i, (est, var) in enumerate(_wald(events, totals)):
                valid = var > 0.0
                z = np.abs(est / np.sqrt(var))
                out[2 * i] += int((valid & (z > z_crit)).sum())
                out[2 * i + 1] += int((~valid).sum())
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
    truth_cells = (truth.p00, truth.p01, truth.p10, truth.p11)
    totals = mc.run_chunked(
        _chunk_tallies, (truth_cells, design.as_tuple(), z_crit, seed), reps, workers
    )
    by_scale: dict[str, ScalePower] = {}
    for i, scale in enumerate(SCALES):
        rejected = int(totals[2 * i])
        degenerate = int(totals[2 * i + 1])
        valid = reps - degenerate
        rate = rejected / valid if valid > 0 else 0.0
        se = math.sqrt(rate * (1.0 - rate) / valid) if valid > 0 else 0.0
        by_scale[scale] = ScalePower(rate, se, rejected, degenerate)
    return PowerResult(alpha=alpha, reps=reps, by_scale=by_scale)
