"""Independent oracles used only by the tests.

These deliberately re-derive results by a different route than the package:
dense-grid bracketing instead of closed-form critical points, brute-force
scans instead of completion formulas, straight-line scalar arithmetic
instead of vectorized kernels, a closed-form contrast floor with an exact
recount and a quadrature instead of Monte Carlo, 50-digit bisection of the
contrast instead of the package's quadratic roots, an enumeration of every
outcome instead of simulated power, 50-digit log, logit and expit, and a
50-digit binomial pmf instead of the alias tables' log-space one.  Nothing
here imports `effectgeom.coords`.
Production code must agree with them within the stated tolerances.
"""

from __future__ import annotations

import functools
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np

from effectgeom import mc
from effectgeom.table import DEFAULT_EPS


def contrast(p0: float, r: float) -> float:
    """Signed shifted-odds contrast g(p0; r) with p1 = r p0."""
    p1 = r * p0
    return math.log1p(-p0) + math.log(p1 + 0.5) - math.log1p(-p1) - math.log(p0)


def grid_eta_solutions(theta: float, c: float, n_grid: int = 2048) -> list[float]:
    """Baseline risks with eta = c at log RR theta, by dense-grid bracketing.

    Grid of ``n_grid`` points log-spaced toward both endpoints of
    (0, min(1, 1/r)), sign-change detection on both branches g = +-c,
    bisection to 1e-12.
    """
    r = math.exp(theta)
    B = min(1.0, 1.0 / r)
    half = n_grid // 2
    t = np.geomspace(1e-12, 0.5, half)
    u = np.concatenate([t, 1.0 - t[::-1]])
    p = B * u
    g = np.array([contrast(x, r) for x in p])
    roots = []
    for target in (c, -c):
        h = g - target
        sign_change = np.nonzero(h[:-1] * h[1:] < 0)[0]
        for i in sign_change:
            lo, hi = p[i], p[i + 1]
            flo = contrast(lo, r) - target
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                fmid = contrast(mid, r) - target
                if (fmid < 0) == (flo < 0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    out = []
    for root in sorted(roots):
        if not out or root - out[-1] > 1e-9:
            out.append(root)
    return out


#: Working precision, in significant digits, of the decimal contrast oracle.
DIGITS = 50


@functools.lru_cache(maxsize=1)
def _logistic_grid() -> tuple[Decimal, ...]:
    """1 / (1 + e^-t) at t = -80, -79.5, ..., 80, to `DIGITS` digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return tuple(1 / (1 + Decimal(-t / 2).exp()) for t in range(-160, 161))


def _bisect(above, lo: Decimal, hi: Decimal, steps: int = 200) -> Decimal:
    """Point where the predicate ``above`` flips between ``lo`` and ``hi``."""
    at_lo = above(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if above(mid) == at_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def decimal_eta_pairs(theta: float, c: float, eps: float = DEFAULT_EPS):
    """Stratum pairs (p0, p1) with log RR theta and contrast c, to 50 digits.

    Every root in (0, B), B = min(1, 1/r), of g(p0; r) = +c and of
    g(p0; r) = -c, found by bisection in `DIGITS`-digit decimal arithmetic,
    with no quadratic and no closed-form critical point.  A grid fine in
    logit(p0 / B) locates the sign changes of g'; bisection of g' splits
    (0, B) into pieces on which g is monotone; and on each piece whose ends
    straddle a level, bisection of g (compared through exp, which is
    monotone) finds the root.  Pairs are kept when p0 and p1 = r p0 both lie
    in [eps, 1 - eps].  Returns Decimal pairs sorted by p0.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        half = Decimal("0.5")
        r = Decimal(theta).exp()
        B = min(Decimal(1), 1 / r)

        def exp_g(p):
            return (1 - p) * (r * p + half) / ((1 - r * p) * p)

        def rising(p):
            return -1 / (1 - p) + r / (r * p + half) + r / (1 - r * p) - 1 / p > 0

        grid = [B * u for u in _logistic_grid()]
        ends = [grid[0]]
        slopes = [rising(p) for p in grid]
        for i in range(len(grid) - 1):
            if slopes[i] != slopes[i + 1]:
                ends.append(_bisect(rising, grid[i], grid[i + 1]))
        ends.append(grid[-1])
        roots = []
        for level in (Decimal(c), -Decimal(c)):
            k = level.exp()
            above = lambda p: exp_g(p) > k
            for a, b in zip(ends, ends[1:]):
                if above(a) != above(b):
                    roots.append(_bisect(above, a, b))
        lo, hi = Decimal(eps), 1 - Decimal(eps)
        return sorted((p, r * p) for p in roots if lo <= p <= hi and lo <= r * p <= hi)


def decimal_log_odds_ratio(p0: Decimal, p1: Decimal) -> float:
    """log[p1 (1 - p0) / (p0 (1 - p1))], evaluated in `DIGITS`-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float((p1 * (1 - p0) / (p0 * (1 - p1))).ln())


def grid_eta_min(theta: float, n_grid: int = 400_001) -> float:
    """Smallest contrast value over a fine uniform grid (lower-bound witness)."""
    r = math.exp(theta)
    B = min(1.0, 1.0 / r)
    u = np.linspace(1e-9, 1.0 - 1e-9, n_grid)
    p = B * u
    p1 = r * p
    g = np.log1p(-p) + np.log(p1 + 0.5) - np.log1p(-p1) - np.log(p)
    return float(np.min(np.abs(g)))


def eta_floor(theta):
    """Greatest lower bound of the contrast eta at log relative risk theta.

    Closed form, by a route independent of `effectgeom.coords`: with
    p1 = r p0 and k = e^c, g(p0; r) = +-c is the quadratic

        r (k - 1) p0^2 + (r - 0.5 - k) p0 + 0.5 = 0 ,

    and the level at which its two roots merge is the floor

        m(r) = log(2 r - 0.5 + sqrt(3 r (r - 1)))      for r >= 1,

    which is log 1.5 at r = 1.  For theta < 0 every level is attained and
    the bound is 0.  Accepts scalars or arrays.
    """
    theta = np.asarray(theta, dtype=float)
    up = np.maximum(theta, 0.0)
    r = np.exp(up)
    m = np.log(2.0 * r - 0.5 + np.sqrt(3.0 * r * np.expm1(up)))
    return np.where(theta < 0.0, 0.0, m)


def _theta_at_floor(m: float) -> float:
    """Log relative risk theta >= 0 whose floor is m >= log 1.5 (inverse of eta_floor).

    The floor equation is symmetric in r and k = e^m; its smaller root in r
    is r = 2 k - 0.5 - sqrt(3 k (k - 1)).
    """
    k = math.exp(m)
    return math.log(2.0 * k - 0.5 - math.sqrt(3.0 * k * (k - 1.0)))


def rr_eta_rr_recount(seed: int, n: int, bounds) -> tuple[int, float]:
    """Exact count of log-RR-compatible draws of an rr_eta volume run.

    The draws are made again from the documented per-chunk streams,
    ``default_rng([seed, chunk index])`` over `mc.chunk_layout`, scaled to
    the box ``bounds`` over (alpha0, e0, e1).  Both strata share theta =
    alpha0, so a draw is compatible iff both contrast levels e0 and e0 + e1
    clear log `eta_floor` (always, for theta < 0).

    Returns the count and the smallest distance, in log level, between a
    draw with theta >= 0 and the floor.  Landing exactly on the floor has
    probability 0; the distance shows how far rounding is from deciding
    any verdict.
    """
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    count, margin = 0, math.inf
    for index, size in mc.chunk_layout(n):
        u = np.random.default_rng([seed, index]).random((size, 3))
        theta, e0, e1 = (lows + u * (highs - lows)).T
        level = np.minimum(e0, e0 + e1)
        up = theta >= 0.0
        gap = level[up] - np.log(eta_floor(theta[up]))
        count += int((~up).sum() + (gap > 0.0).sum())
        if gap.size:
            margin = min(margin, float(np.abs(gap).min()))
    return count, margin


#: The default rr_eta box over (alpha0, e0, e1) integrated by
#: `rr_eta_default_box_probability`.
RR_ETA_DEFAULT_BOX = ((-1.5, 1.5), (-1.0, 1.0), (-1.0, 1.0))


def rr_eta_default_box_probability(nodes: int = 20) -> float:
    """P(log-RR compatible) under the uniform default rr_eta box, by quadrature.

    At fixed alpha0 = theta >= 0 a draw is compatible iff e0 >= L and
    e0 + e1 >= L, with L = log eta_floor(theta).  On the square [-1, 1]^2
    that region has area

        1.5 - 2 L               for -1 <= L <= 0,
        (1 - L)(3 - L) / 2      for  0 <= L <= 1,
        0                       for  L >= 1,

    and for theta < 0 the full area 4.  Over theta in (0, 1.5] the floor
    runs from log 1.5 to past e, so L crosses 0 where m = 1 and 1 where
    m = e; the integral over theta is split there.  The substitution
    theta = s^2 removes the sqrt(theta) singularity of the floor at 0, so
    each panel's integrand is smooth and Gauss-Legendre converges fast:
    the value is identical to 1e-15 at 10, 20, 40 and 80 nodes.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    knots = [0.0, _theta_at_floor(1.0), _theta_at_floor(math.e)]
    areas = (lambda L: 1.5 - 2.0 * L, lambda L: 0.5 * (1.0 - L) * (3.0 - L))
    positive = 0.0
    for (a, b), area in zip(zip(knots, knots[1:]), areas):
        sa, sb = math.sqrt(a), math.sqrt(b)
        s = 0.5 * (sb - sa) * x + 0.5 * (sb + sa)
        L = np.log(eta_floor(s * s))
        positive += 0.5 * (sb - sa) * float(np.sum(w * area(L) * 2.0 * s))
    return (1.5 * 4.0 + positive) / (3.0 * 4.0)


def scan_stratum1_for_or_match(
    c1: float, target_log_or: float, n_grid: int = 200_001
) -> float:
    """Closest |log OR - target| on the eta = c1 level curve, by brute scan.

    The curve is swept by the stratum-1 baseline risk p10; for each grid
    value and each sign branch the treated risk is recovered from
    s(p11) = logit(p10) +- c1 where s(y) = log((y + 0.5)/(1 - y)).
    """
    best = math.inf
    for p10 in np.linspace(1e-6, 1.0 - 1e-6, n_grid):
        lo = math.log(p10 / (1.0 - p10))
        for sign in (1.0, -1.0):
            y = lo + sign * c1
            ey = math.exp(y)
            p11 = (ey - 0.5) / (1.0 + ey)
            if not (0.0 < p11 < 1.0):
                continue
            log_or = math.log(p11 / (1.0 - p11)) - lo
            best = min(best, abs(log_or - target_log_or))
    return best


def brute_completion_bracket(measure: str, p00: float, p10: float, p01: float,
                             n_grid: int = 1000) -> bool:
    """Brute-force feasibility: does the measure gap change sign on a p11 grid?

    Scans p11 over midpoints {0.0005, 0.0015, ...}; feasible when the
    stratum-1 minus stratum-0 measure difference changes sign (or hits 0)
    between adjacent grid points.
    """
    grid = (np.arange(n_grid) + 0.5) / n_grid

    def gap(p11: float) -> float:
        if measure == "rd":
            return (p11 - p10) - (p01 - p00)
        if measure == "rr":
            return math.log(p11 / p10) - math.log(p01 / p00)
        odds = lambda p: p / (1.0 - p)
        return math.log(odds(p11) / odds(p10)) - math.log(odds(p01) / odds(p00))

    values = np.array([gap(p) for p in grid])
    return bool(np.any(values[:-1] * values[1:] <= 0.0))


def straight_line_wald(events, totals, scale: str) -> float:
    """Two-sided Wald interaction p-value, written out cell by cell."""
    raw = [e / n for e, n in zip(events, totals)]
    adj, tot = [], []
    for e, n in zip(events, totals):
        if e == 0 or e == n:
            adj.append((e + 0.5) / (n + 1))
            tot.append(n + 1)
        else:
            adj.append(e / n)
            tot.append(n)
    if scale == "identity":
        est = (raw[3] - raw[2]) - (raw[1] - raw[0])
        var = sum(p * (1 - p) / n for p, n in zip(raw, totals))
    elif scale == "log":
        est = math.log(adj[3]) - math.log(adj[2]) - math.log(adj[1]) + math.log(adj[0])
        var = sum((1 - p) / (n * p) for p, n in zip(adj, tot))
    else:
        lo = [math.log(p / (1 - p)) for p in adj]
        est = lo[3] - lo[2] - lo[1] + lo[0]
        var = sum(1.0 / (n * p * (1 - p)) for p, n in zip(adj, tot))
    return math.erfc(abs(est / math.sqrt(var)) / math.sqrt(2.0))


def exact_power_rates(truth, design, alpha: float) -> dict[str, float]:
    """Exact rejection rate of each scale's Wald test, by enumerating every outcome.

    Each of the prod(n + 1) event vectors of ``design`` is weighted by the
    product of the four binomial pmfs and tested through
    `straight_line_wald`; a p-value below ``alpha`` rejects.  Like the
    simulator, the identity scale leaves out the outcomes whose variance is
    0 (every cell at 0 or n) and its rate is over the rest.  Cells are in
    (v, a) order 00, 01, 10, 11.
    """
    pmf = [
        [math.comb(n, e) * p**e * (1.0 - p) ** (n - e) for e in range(n + 1)]
        for p, n in zip(truth, design)
    ]
    scales = ("identity", "log", "logit")
    rejected = dict.fromkeys(scales, 0.0)
    valid = dict.fromkeys(scales, 0.0)
    for events in itertools.product(*(range(n + 1) for n in design)):
        w = math.prod(cell[e] for cell, e in zip(pmf, events))
        degenerate = all(e in (0, n) for e, n in zip(events, design))
        for scale in scales:
            if scale == "identity" and degenerate:
                continue
            valid[scale] += w
            if straight_line_wald(events, design, scale) < alpha:
                rejected[scale] += w
    return {scale: rejected[scale] / valid[scale] for scale in scales}


def decimal_binomial_pmf(n: int, p: float) -> list[Decimal]:
    """Binomial(n, p) pmf of the float p over [0, n], in `DIGITS`-digit decimal.

    Starts from (1 - p)^n and steps by the ratio (n - k) p / ((k + 1)(1 - p)).
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        d = Decimal(p)
        odds = d / (1 - d)
        pmf = [(1 - d) ** n]
        for k in range(n):
            pmf.append(pmf[-1] * (n - k) * odds / (k + 1))
        return pmf


def decimal_log(p: float) -> Decimal:
    """log p of the float p, in `DIGITS`-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Decimal(p).ln()


def decimal_logit(p: float) -> Decimal:
    """log p - log(1 - p) of the float p, in `DIGITS`-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        d = Decimal(p)
        return d.ln() - (1 - d).ln()


def decimal_expit(x: float) -> Decimal:
    """1 / (1 + e^-x) of the float x, in `DIGITS`-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return 1 / (1 + (-Decimal(x)).exp())
