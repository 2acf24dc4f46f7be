"""Independent reference values for the benchmark's correctness checks.

Nothing here compares a Monte Carlo estimate with another Monte Carlo
estimate: every reference is an exact rational, an exact enumeration or a
deterministic quadrature.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from effectgeom import mc, power
from effectgeom.errors import DegenerateCountsError
from effectgeom.table import DEFAULT_EPS

#: Exact compatibility probabilities under the unit-cube probability prior.
CUBE_PROBABILITY = {"rd": 2.0 / 3.0, "rr": 3.0 / 4.0, "or": 1.0}

#: P(rr_eta/rr compatible) on the default box (-1.5, 1.5) x (-1, 1) x (-1, 1),
#: from a Gauss-Legendre quadrature over alpha0 of the closed-form attainable
#: area in (e0, e1).  Its own error (< 1e-6) is far below the 5 SE tolerance.
RR_ETA_DEFAULT_RR = 0.582763

#: Tolerance, in standard errors, for a Monte Carlo estimate against its
#: exact value.
Z_TOL = 5.0


def within_se(estimate: float, exact: float, n: int) -> bool:
    """Whether a proportion over n draws lies within Z_TOL SE of the exact p."""
    se = math.sqrt(exact * (1.0 - exact) / n)
    return abs(estimate - exact) <= Z_TOL * se


def cube_or_guard_misses(seed: int, n: int) -> int:
    """Draws of a unit-cube volume query that the eps guard makes odds-ratio incompatible.

    The odds completion of three risks in (0, 1) always lies in (0, 1), so a
    draw fails only where a risk or the completion is within DEFAULT_EPS of 0
    or 1 (about 4e-10 of draws).  The draws are made again from the
    documented per-chunk streams, ``default_rng([seed, chunk index])``, so
    the count is exact.
    """
    misses = 0
    for index, size in mc.chunk_layout(n):
        u = np.random.default_rng([seed, index]).random((size, 3))
        for start in range(0, size, 4096):  # small slices keep peak memory below a query's
            p = u[start:start + 4096]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                logit = np.log(p) - np.log1p(-p)
                x = logit[:, 1] + logit[:, 2] - logit[:, 0]
                cand = 1.0 / (1.0 + np.exp(-x))
            every = np.column_stack([p, cand])
            misses += int((~((every > DEFAULT_EPS) & (every < 1.0 - DEFAULT_EPS)).all(axis=1)).sum())
    return misses


def exact_power(truth: tuple[float, float, float, float], n: int, alpha: float) -> dict:
    """Exact rejection rate per scale for a balanced design of n per cell.

    Enumerates all (n + 1)^4 outcomes through the public
    `power.wald_interaction_pvalue`, weighted by the binomial pmfs.  The
    identity scale excludes outcomes whose variance degenerates to 0, as the
    simulator does.  Returns {scale: rate over non-degenerate outcomes}.
    """
    pmf = [[math.comb(n, e) * p**e * (1.0 - p) ** (n - e) for e in range(n + 1)] for p in truth]
    rejected = dict.fromkeys(power.SCALES, 0.0)
    valid = dict.fromkeys(power.SCALES, 0.0)
    for events in itertools.product(range(n + 1), repeat=4):
        w = pmf[0][events[0]] * pmf[1][events[1]] * pmf[2][events[2]] * pmf[3][events[3]]
        counts = power.CellCounts(*events, n, n, n, n)
        for scale in power.SCALES:
            try:
                p = power.wald_interaction_pvalue(counts, scale)
            except DegenerateCountsError:
                continue
            valid[scale] += w
            if p < alpha:
                rejected[scale] += w
    return {scale: rejected[scale] / valid[scale] for scale in power.SCALES}


def wald_pvalue(events, totals, scale: str) -> float:
    """Straight-line two-sided Wald p-value for the zero-interaction null.

    Written out cell by cell from the textbook formulas, with the +0.5 / +1
    continuity correction at 0 or n on the log and logit scales.
    """
    if scale == "identity":
        p = [e / n for e, n in zip(events, totals)]
        est = p[3] - p[2] - p[1] + p[0]
        var = sum(q * (1.0 - q) / n for q, n in zip(p, totals))
    else:
        p, m = [], []
        for e, n in zip(events, totals):
            corrected = e == 0 or e == n
            p.append((e + 0.5) / (n + 1) if corrected else e / n)
            m.append(n + 1 if corrected else n)
        if scale == "log":
            est = math.log(p[3] * p[0] / (p[2] * p[1]))
            var = sum((1.0 - q) / (n * q) for q, n in zip(p, m))
        else:
            odds = [q / (1.0 - q) for q in p]
            est = math.log(odds[3] * odds[0] / (odds[2] * odds[1]))
            var = sum(1.0 / (n * q * (1.0 - q)) for q, n in zip(p, m))
    z = abs(est) / math.sqrt(var)
    return math.erfc(z / math.sqrt(2.0))
