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
from .table import RiskTable

#: Test scales, in reporting order.
SCALES = ("identity", "log", "logit")

_CELLS = ("00", "01", "10", "11")  # (v, a) order used for all 4-vectors


@dataclass(frozen=True)
class StudyDesign:
    """Per-cell sample sizes n[v][a], all >= 1 and below 2**63."""

    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self) -> None:
        for name in ("n00", "n01", "n10", "n11"):
            value = getattr(self, name)
            if int(value) != value or not (1 <= int(value) < 2**63):
                raise DomainError(f"{name} must be an integer in [1, 2**63), got {value!r}")
            object.__setattr__(self, name, int(value))

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
            e, n = getattr(self, f"e{cell}"), getattr(self, f"n{cell}")
            if int(n) != n or int(n) < 1:
                raise DomainError(f"n{cell} must be a positive integer, got {n!r}")
            if int(e) != e or not (0 <= int(e) <= int(n)):
                raise DomainError(f"e{cell} must be an integer in [0, n{cell}], got {e!r}")
            object.__setattr__(self, f"e{cell}", int(e))
            object.__setattr__(self, f"n{cell}", int(n))

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


def _adjusted(counts: CellCounts) -> tuple[list[float], list[int]]:
    """Continuity-corrected proportions and totals for the log/logit tests."""
    props, totals = [], []
    for e, n in zip(counts.events(), counts.totals()):
        if e == 0 or e == n:
            props.append((e + 0.5) / (n + 1))
            totals.append(n + 1)
        else:
            props.append(e / n)
            totals.append(n)
    return props, totals


def wald_interaction(counts: CellCounts, scale: str) -> tuple[float, float]:
    """Plug-in interaction estimate and its delta-method standard error.

    Raises:
        DegenerateCountsError: identity scale only, when every cell sits at
            0 or n so the plug-in variance vanishes.
    """
    if scale == "identity":
        p = [e / n for e, n in zip(counts.events(), counts.totals())]
        est = (p[3] - p[2]) - (p[1] - p[0])
        var = sum(pi * (1.0 - pi) / n for pi, n in zip(p, counts.totals()))
        if var <= 0.0:
            raise DegenerateCountsError(
                f"all cells at 0 or n, identity-scale variance is 0: {counts.events()}"
            )
        return est, math.sqrt(var)
    p, totals = _adjusted(counts)
    if scale == "log":
        est = math.log(p[3]) - math.log(p[2]) - math.log(p[1]) + math.log(p[0])
        var = sum((1.0 - pi) / (n * pi) for pi, n in zip(p, totals))
    elif scale == "logit":
        lo = [math.log(pi / (1.0 - pi)) for pi in p]
        est = lo[3] - lo[2] - lo[1] + lo[0]
        var = sum(1.0 / (n * pi * (1.0 - pi)) for pi, n in zip(p, totals))
    else:
        raise DomainError(f"scale must be one of {SCALES}, got {scale!r}")
    return est, math.sqrt(var)


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
    """Per-chunk [rejected, degenerate] pairs for each scale, as a flat array."""
    rng = mc.chunk_rng(seed, index)
    events = np.stack(
        [rng.binomial(n, p, size=size) for n, p in zip(design_cells, truth_cells)]
    )  # shape (4, size), cell order 00, 01, 10, 11
    totals = np.array(design_cells, dtype=float)[:, None]
    raw = events / totals
    boundary = (events == 0) | (events == totals)
    adj = np.where(boundary, (events + 0.5) / (totals + 1.0), raw)
    adj_tot = np.where(boundary, totals + 1.0, totals)

    out = np.zeros(6, dtype=np.int64)  # (rej, degen) x (identity, log, logit)

    est = (raw[3] - raw[2]) - (raw[1] - raw[0])
    var = (raw * (1.0 - raw) / totals).sum(axis=0)
    valid = var > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(est / np.sqrt(var))
    out[0] = int((valid & (z > z_crit)).sum())
    out[1] = int((~valid).sum())

    est = np.log(adj[3]) - np.log(adj[2]) - np.log(adj[1]) + np.log(adj[0])
    var = ((1.0 - adj) / (adj_tot * adj)).sum(axis=0)
    out[2] = int((np.abs(est / np.sqrt(var)) > z_crit).sum())

    logit = np.log(adj) - np.log1p(-adj)
    est = logit[3] - logit[2] - logit[1] + logit[0]
    var = (1.0 / (adj_tot * adj * (1.0 - adj))).sum(axis=0)
    out[4] = int((np.abs(est / np.sqrt(var)) > z_crit).sum())
    return out


def simulate_power(
    truth: RiskTable,
    design: StudyDesign,
    alpha: float,
    reps: int,
    seed: int,
    workers: int | None = None,
) -> PowerResult:
    """Rejection rate of each scale's test over ``reps`` simulated studies.

    Rejection means p-value < alpha, equivalently |z| above the two-sided
    normal critical value.  Rates are over non-degenerate replicates; the
    degenerate count is reported per scale.  Reproducible given the seed,
    for any worker count.
    """
    alpha = float(alpha)
    # below about 1.1e-16, 1 - alpha/2 rounds to 1, which has no normal quantile
    if not (0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0):
        raise DomainError(f"alpha must be in (0, 1) with 1 - alpha/2 < 1 in floats, got {alpha}")
    if int(reps) < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    reps = int(reps)
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
