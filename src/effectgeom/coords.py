"""Saturated coordinate systems for the 2x2 risk table.

Four alternative 4-parameter coordinate systems, each a different split into
an effect coordinate pair and a nuisance coordinate pair.  `SYSTEMS` is the
one table of ``convert`` systems: ``prob`` and these four.

``poisson``    log baseline risk / log relative risk::

                   beta0  = log p00            alpha0 = log p01 - log p00
                   beta1  = log p10 - beta0    alpha1 = log p11 - log p10 - alpha0

``rr_op``      log odds product / log relative risk.  ``alpha0``/``alpha1``
               as above; ``gamma0`` is the log odds product of stratum 0 and
               ``gamma1`` the log odds-product ratio across strata.  Every
               real 4-tuple corresponds to exactly one table: the odds
               product is variation independent of the relative risk.

``logistic``   log odds / log odds ratio.  ``b0`` is the baseline log odds of
               stratum 0, ``b1`` the cross-stratum baseline log-odds shift,
               ``a0`` the log odds ratio of stratum 0 and ``a1`` the log
               odds-ratio interaction.  A bijection with all real 4-tuples.
               The same contrasts as ``poisson``, of logit in place of log.

``rr_eta``     log shifted-odds contrast / log relative risk.  ``e0`` is
               ``log eta`` of stratum 0 and ``e1`` the cross-stratum log-eta
               shift.  Inversion is set valued (eta is an absolute value) and
               can be empty: at fixed relative risk r >= 1 the contrast is
               bounded below by a positive floor, computed in closed form
               here (`eta_infimum`).

The ``poisson`` system is variation dependent: exponentiating can push a
risk past 1, in which case `from_poisson` raises ``OutOfDomainError`` naming
the offending cell.  That failure mode is the point of the whole exercise,
not an edge case.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError, OutOfDomainError
from .table import (
    DEFAULT_EPS,
    RiskTable,
    StratumPair,
    check_finite,
    eta,
    expit,
    in_guard,
    logit,
    odds_product,
    relative_risk,
)

LOG_1P5 = math.log(1.5)


class _FiniteCoords:
    """Base of the coordinate dataclasses: every field is a finite float."""

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, check_finite(f.name, getattr(self, f.name)))


@dataclass(frozen=True)
class PoissonCoords(_FiniteCoords):
    """Log-linear coordinates (log baseline risk, log relative risk)."""

    beta0: float
    beta1: float
    alpha0: float
    alpha1: float


@dataclass(frozen=True)
class RrOpCoords(_FiniteCoords):
    """Variation-independent coordinates (log relative risk, log odds product)."""

    alpha0: float
    alpha1: float
    gamma0: float
    gamma1: float


@dataclass(frozen=True)
class LogisticCoords(_FiniteCoords):
    """Saturated log-odds coordinates (log odds, log odds ratio)."""

    b0: float
    b1: float
    a0: float
    a1: float


@dataclass(frozen=True)
class RrEtaCoords(_FiniteCoords):
    """Coordinates (log relative risk, log shifted-odds contrast)."""

    alpha0: float
    alpha1: float
    e0: float
    e1: float


# ---------------------------------------------------------------------------
# small numeric helpers
# ---------------------------------------------------------------------------


def _contrasts(l00: float, l01: float, l10: float, l11: float) -> tuple[float, ...]:
    """(base, shift, effect, interaction) of the link values of cells p00, p01, p10, p11."""
    return l00, l10 - l00, l01 - l00, l11 - l10 - (l01 - l00)


def _log_contrast(measure, t: RiskTable) -> tuple[float, float]:
    """(log m(s0), log m(s1) - log m(s0)) of a per-stratum ``measure`` m."""
    base = math.log(measure(t.stratum(0)))
    return base, math.log(measure(t.stratum(1))) - base


def _table_from(c, inverse_link) -> RiskTable:
    """The table at ``c`` = (base, shift, effect, interaction), through ``inverse_link``.

    Raises:
        OutOfDomainError: naming the first cell whose risk fails `in_guard`.
    """
    base, shift, effect, interaction = dataclasses.astuple(c)
    links = [base, base + effect, base + shift, base + shift + effect + interaction]
    with np.errstate(over="ignore"):
        risks = inverse_link(np.array(links)).tolist()
    for name, p in zip(("p00", "p01", "p10", "p11"), risks):
        if not in_guard(p):
            raise OutOfDomainError(name, p, ">= 1" if p > 0.5 else "<= 0")
    return RiskTable(*risks)


# ---------------------------------------------------------------------------
# poisson system
# ---------------------------------------------------------------------------


def to_poisson(t: RiskTable) -> PoissonCoords:
    """Forward map to log baseline-risk and log relative-risk coordinates."""
    return PoissonCoords(*_contrasts(*map(math.log, dataclasses.astuple(t))))


def from_poisson(c: PoissonCoords) -> RiskTable:
    """Invert the log-linear map; fails when an implied risk leaves (0, 1).

    Raises:
        OutOfDomainError: naming the first cell whose exponentiated risk is
            outside the open unit interval.  This variation dependence is a
            structural property of the system, not a numerical artifact.
    """
    return _table_from(c, np.exp)


# ---------------------------------------------------------------------------
# rr_op system
# ---------------------------------------------------------------------------


def rr_op_risks_vec(theta, *phis) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stratum risks (p0, p1) with log relative risk theta, one pair per log odds product phi.

    With r = e^theta, w = e^phi and p1 = r p0, the odds-product equation is
    the quadratic

        r (1 - w) p0^2 + w (1 + r) p0 - w = 0 ,

    which has exactly one root in (0, min(1, 1/r)).  That root is always the
    smaller-magnitude one, computed cancellation-free as

        p0 = 2 w / ( w (1 + r) + sqrt(w [w (1 - r)^2 + 4 r]) ) ,

    where the discriminant form ``w [w (1-r)^2 + 4 r]`` is positive by
    construction (no subtraction).  The w = 1 degenerate (linear) case lands
    on the same formula: p0 = 1 / (1 + r).  In floats the root can fall
    outside the inclusive guard (`DEFAULT_EPS`) once |theta| or |phi| is
    large.

    ``theta`` and each of ``phis`` are float arrays of one shape.  e^theta and
    1 - e^theta are computed once for every phi, and each pair is built in
    place in arrays that the next pair overwrites, so read a pair before
    asking for the next.
    """
    r = np.exp(theta)
    one_minus_r = np.expm1(theta)
    np.negative(one_minus_r, out=one_minus_r)  # 1 - r without cancellation
    w = disc = den = None
    for phi in phis:
        w = np.exp(phi, out=w)
        disc = np.multiply(w, one_minus_r, out=disc)
        disc *= one_minus_r
        den = np.multiply(4.0, r, out=den)
        disc += den
        disc *= w
        den = np.add(1.0, r, out=den)
        den *= w
        den += np.sqrt(disc, out=disc)
        w *= 2.0
        w /= den
        yield w, np.multiply(r, w, out=den)


def solve_stratum_from_rr_op(theta: float, phi: float) -> StratumPair:
    """Unique stratum pair with log relative risk theta and log odds product phi.

    `rr_op_risks_vec` at a single point.

    Raises:
        DomainError: if a risk falls outside the inclusive guard.
    """
    theta = check_finite("theta", theta)
    phi = check_finite("phi", phi)
    with np.errstate(over="ignore", invalid="ignore"):
        (p0, p1), = rr_op_risks_vec(np.array([theta]), np.array([phi]))
    return StratumPair(p0[0], p1[0])


def to_rr_op(t: RiskTable) -> RrOpCoords:
    """Forward map to log relative-risk and log odds-product coordinates."""
    return RrOpCoords(*_log_contrast(relative_risk, t), *_log_contrast(odds_product, t))


def from_rr_op(c: RrOpCoords) -> RiskTable:
    """Invert stratum-wise; defined for every real 4-tuple."""
    s0 = solve_stratum_from_rr_op(c.alpha0, c.gamma0)
    s1 = solve_stratum_from_rr_op(c.alpha0 + c.alpha1, c.gamma0 + c.gamma1)
    return RiskTable.from_strata(s0, s1)


# ---------------------------------------------------------------------------
# logistic system
# ---------------------------------------------------------------------------


def to_logistic(t: RiskTable) -> LogisticCoords:
    """Forward map to saturated log-odds coordinates."""
    return LogisticCoords(*_contrasts(*logit(np.array(dataclasses.astuple(t))).tolist()))


def from_logistic(c: LogisticCoords) -> RiskTable:
    """Invert via the logistic function; a bijection with real 4-tuples.

    In float arithmetic, coefficient sums beyond about +-27.6 produce risks
    outside the inclusive guard and raise ``OutOfDomainError``.
    """
    return _table_from(c, expit)


# ---------------------------------------------------------------------------
# rr_eta system: the signed contrast g and its exact inversion
# ---------------------------------------------------------------------------
#
# With p1 = r p0 the signed contrast is
#
#     g(p0; r) = log[(1 - p0)(r p0 + 0.5)] - log[(1 - r p0) p0]
#
# on the open interval (0, B), B = min(1, 1/r), and eta = |g|.
#
# Level curves.  With k = e^s, g(p0; r) = s is exactly the quadratic
#
#     r (k - 1) p0^2 + (r - 0.5 - k) p0 + 0.5 = 0 .
#
# Put b = r - 0.5 - k, 1 - k = -expm1(s) and D = b^2 + 2 r (1 - k).  The root
# 1 / (sqrt(D) - b) is the smaller positive root whenever the quadratic has a
# positive root.  It is evaluated as written when b <= 0 and as
# (sqrt(D) + b) / (2 r (1 - k)) when b > 0, so neither form subtracts nearly
# equal numbers (Higham, Accuracy and Stability of Numerical Algorithms,
# sec. 1.8).  Vieta gives the other root, 0.5 / (r (k - 1) p0).
#
# Shape, for the two sign branches s = +c and s = -c (c > 0):
#
#   r < 1 : g falls strictly from +inf to -inf.  On each branch the smaller
#           positive root is the only root in (0, B); its partner is > 1
#           (s > 0) or negative (s < 0).  eta attains every level in (0, inf).
#   r = 1 : g falls strictly from +inf to log 1.5.  p0 = 1 solves both
#           branches' quadratics but lies outside (0, 1); the other root,
#           0.5 / (k - 1), lies in (0, 1) iff c > log 1.5.  The infimum
#           log 1.5 is not attained.
#   r > 1 : g > 0 and tends to +inf at both ends, with one interior minimum:
#           the floor
#
#               m(r) = log(2 r - 0.5 + sqrt(3 r (r - 1))) ,
#
#           the level at which the two roots of the s = +c quadratic merge
#           (D = 0).  For c > m(r) both roots lie in (0, B); the smaller is
#           the left one.  D < 0 only here, for levels below the floor; the
#           real roots that lower levels have lie outside (0, B), like every
#           root of the s = -c branch.
#
# Consequently eta is NOT attainable below m(r) once r >= 1: the contrast is
# variation dependent on the relative risk in that regime (m(1) = log 1.5).
# `eta_infimum` and `eta_attainable` expose this boundary; r - 1 enters the
# floor only as expm1(theta), so it stays accurate as theta -> 0.
#
# A root is kept when p0 and r p0 both lie in [eps, 1 - eps] (`DEFAULT_EPS`),
# the rule `StratumPair` applies.  The guard also drops every root outside
# (0, B), including p0 = 1 at r = 1.
#
# Near the floor D is a difference of nearly equal numbers, and rounding
# (about 1e-15 b^2) can give it either sign.  Where |D| <= 1e-8 b^2,
# `eta_attainable_vec(theta, s)` decides instead: D is raised to at least 0 where
# it holds, giving the double root 1 / (-b) there, once (its partner is NaN), and
# dropped elsewhere, so roots exist exactly when `eta_attainable` says so.
# A computed D > 0 is at least one ulp of b^2: its roots differ by >= 1e-8 relative.
#
# Log odds ratio.  On a level curve (1 - p0) / (1 - r p0) = k p0 / (r p0 + 0.5),
# so the log odds ratio of a root is
#
#     theta + s + log p0 - log(r p0 + 0.5) ,
#
# with no 1 - p formed.  It increases with p0 along a branch, so each
# branch's smallest kept root carries that branch's smallest log odds ratio.
#
# One branch per point.  As a function of p0 on (0, 1) the log odds ratio is
# theta + log(1 - p0) - log(1 - r p0), with derivative
# (r - 1) / ((1 - p0)(1 - r p0)), negative for r < 1.  There g falls, so the
# g = -c root has the larger p0 and carries the smaller log odds ratio.  For
# theta >= 0 the g = -c branch has no root in (0, B) (above).  So the
# smallest log odds ratio comes from the g = -c branch where theta < 0 and
# from the g = +c branch elsewhere; where theta < 0 the g = +c root matters
# only if the g = -c root fails the guard.


#: Half-width, relative to b^2, of the band around D = 0 decided by the floor.
_D_BAND = 1e-8


def _eta_floor(theta: np.ndarray) -> np.ndarray:
    """Closed-form floor m(e^theta) of the contrast; 0 where theta < 0."""
    up = np.maximum(theta, 0.0)
    r = np.exp(up)
    root = np.multiply(3.0, r)
    root *= np.expm1(up, out=up)
    m = np.multiply(2.0, r, out=r)
    m -= 0.5
    m += np.sqrt(root, out=root)
    np.log(m, out=m)
    m[theta < 0.0] = 0.0
    return m


def _in_guard(p0: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whether p0 and r p0 both lie in [eps, 1 - eps], as `StratumPair` requires."""
    return in_guard(p0) & in_guard(r * p0)


def _branch_roots(theta, r, c, minus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smaller positive root of g(p0; r) = s and its Vieta partner (NaN if none or if D = 0).

    Returns (s, root, partner), with s = -c where ``minus`` and +c elsewhere.
    Works in place on its own temporaries; the inputs are not written.
    """
    k = np.exp(c)
    em1 = np.expm1(c)
    s = np.where(minus, -c, c)
    k, one_minus_k = np.where(minus, 1.0 / k, k), np.where(minus, em1 / k, -em1)
    del em1  # with e^c (rebound above), freed before the discriminant is built
    b = r - 0.5
    b -= k
    band = b * b
    D = 2.0 * r
    D *= one_minus_k
    D += band
    # rounding can decide the sign of D only in this band (shape notes)
    band *= _D_BAND
    near = np.flatnonzero(np.abs(D) <= band)
    if near.size:
        attainable = eta_attainable_vec(theta[near], s[near])
        D[near] = np.where(attainable, np.maximum(D[near], 0.0), np.nan)
        near = near[D[near] == 0.0]  # double roots: each is its own partner
    p0 = np.sqrt(D, out=D)
    left = p0 - b
    np.divide(1.0, left, out=left)
    p0 += b
    den = np.multiply(2.0, r, out=band)
    den *= one_minus_k
    p0 /= den
    np.copyto(p0, left, where=b <= 0.0)
    partner = np.multiply(r, one_minus_k, out=den)
    partner *= p0
    np.divide(-0.5, partner, out=partner)
    partner[near] = np.nan
    return s, p0, partner


def _stratum_pairs(theta: np.ndarray, c: np.ndarray) -> list[tuple[StratumPair, ...]]:
    """Each point's guarded stratum pairs on both sign branches, sorted by p0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = np.exp(theta)
        roots = np.stack([*_branch_roots(theta, r, c, False)[1:],
                          *_branch_roots(theta, r, c, True)[1:]], axis=1)
        roots[~_in_guard(roots, r[:, None])] = np.nan
    roots.sort(axis=1)  # NaN last
    # at levels near 0 the g = +c and g = -c roots can round to one float
    roots[:, 1:][roots[:, 1:] == roots[:, :-1]] = np.nan
    return [tuple(StratumPair(p0, ri * p0) for p0 in row if not math.isnan(p0))
            for ri, row in zip(r.tolist(), roots.tolist())]


def eta_infimum(theta: float) -> float:
    """Greatest lower bound of the shifted-odds contrast at fixed log RR.

    Zero for theta < 0 (attained), log 1.5 for theta = 0 (not attained), and
    the floor m(r) = log(2 r - 0.5 + sqrt(3 r (r - 1))) for theta > 0
    (attained).
    """
    theta = check_finite("theta", theta)
    with np.errstate(over="ignore"):
        return float(_eta_floor(np.array([theta]))[0])


def _check_level(c: float) -> float:
    """The contrast level as a float; it must be a real number > 0 (inf allowed)."""
    if not (isinstance(c, numbers.Real) and c > 0.0):
        raise DomainError(f"contrast level must be > 0, got {c!r}")
    try:
        return float(c)
    except OverflowError:  # a real past the float range exceeds every float
        return math.inf


def eta_attainable(theta: float, c: float) -> bool:
    """Whether some stratum pair has log RR ``theta`` and contrast ``c > 0``."""
    theta = check_finite("theta", theta)
    return bool(eta_attainable_vec(np.array([theta]), np.array([_check_level(c)]))[0])


def solve_stratum_from_rr_eta(theta: float, c: float) -> tuple[StratumPair, ...]:
    """All stratum pairs with log relative risk ``theta`` and contrast ``c``.

    The roots of g = +c and g = -c are the roots of one quadratic per sign
    branch (see the shape notes above), with at most two inside the
    inclusive guard.  Pairs whose risks fall outside the guard are
    dropped.  The pairs are sorted by ``p0``, and a double root at the floor,
    or two roots that round to one float, is reported once; the tuple is
    empty, not an error, where the level is unattainable at that relative risk.

    Raises:
        DomainError: unless ``c`` is a real number > 0 (log coordinates never hit 0).
    """
    return _stratum_pairs(np.array([check_finite("theta", theta)]), np.array([_check_level(c)]))[0]


def to_rr_eta(t: RiskTable) -> RrEtaCoords:
    """Forward map; undefined (raises) when a stratum contrast is exactly 0."""
    for v, value in enumerate((eta(t.stratum(0)), eta(t.stratum(1)))):
        if value <= 0.0:
            raise OutOfDomainError(f"eta{v}", value, "= 0 has no log coordinate")
    return RrEtaCoords(*_log_contrast(relative_risk, t), *_log_contrast(eta, t))


def from_rr_eta(c: RrEtaCoords) -> list[RiskTable]:
    """Every risk table matching the coordinates (possibly none).

    The Cartesian product of the two per-stratum solution sets, ordered by
    (p00, p10).  An empty list means at least one stratum's contrast level is
    unattainable at its implied relative risk.  An overflowing ``alpha0 +
    alpha1`` raises ``DomainError``.
    """
    theta = np.array([c.alpha0, check_finite("theta", c.alpha0 + c.alpha1)])
    with np.errstate(over="ignore"):
        levels = np.exp([c.e0, c.e0 + c.e1])
    if not levels.all():  # a log target underflowed past float range
        return []
    set0, set1 = _stratum_pairs(theta, levels)
    return [RiskTable.from_strata(s0, s1) for s0 in set0 for s1 in set1]


# ---------------------------------------------------------------------------
# the convert table
# ---------------------------------------------------------------------------


class ConvertSystem(NamedTuple):
    """A ``convert`` system: its value class, forward map and inverse to every matching table."""

    cls: type
    forward: Callable[[RiskTable], object]
    inverse: Callable[[object], list[RiskTable]]


#: The systems of the ``convert`` command; those of compatibility are `homogeneity.COMPAT_SYSTEMS`.
SYSTEMS = {
    "prob": ConvertSystem(RiskTable, lambda t: t, lambda t: [t]),
    "poisson": ConvertSystem(PoissonCoords, to_poisson, lambda c: [from_poisson(c)]),
    "rr_op": ConvertSystem(RrOpCoords, to_rr_op, lambda c: [from_rr_op(c)]),
    "logistic": ConvertSystem(LogisticCoords, to_logistic, lambda c: [from_logistic(c)]),
    "rr_eta": ConvertSystem(RrEtaCoords, to_rr_eta, from_rr_eta),
}


# ---------------------------------------------------------------------------
# vectorized kernels (consumed by the volume estimator)
# ---------------------------------------------------------------------------


def eta_attainable_vec(theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Element-wise `eta_attainable`: ``c`` at or above the floor (above, at theta = 0)."""
    theta = np.asarray(theta, dtype=float)
    c = np.asarray(c, dtype=float)
    with np.errstate(over="ignore"):
        floor = _eta_floor(theta)
    ok = c >= floor
    zero = np.flatnonzero(theta == 0.0)  # the floor log 1.5 is not attained there
    ok[zero] = c[zero] > floor[zero]
    return ok


def _branch_min_log_odds_ratio(theta, r, c, minus) -> np.ndarray:
    """Log odds ratio minus theta of the branch g = s's smallest guarded root; +inf if none.

    Where the smaller root lies below eps, its Vieta partner stands in (the
    right root of the g = +c branch, for r > 1).  No other partner is ever
    guarded: it is >= 1 on the g = +c branch for r <= 1, and negative on the
    g = -c branch.
    """
    s, p0, partner = _branch_roots(theta, r, c, minus)
    p0 = np.where(p0 >= DEFAULT_EPS, p0, partner)
    guarded = _in_guard(p0, r)
    log_or = np.multiply(r, p0, out=partner)
    log_or += 0.5
    np.divide(p0, log_or, out=log_or)
    np.log(log_or, out=log_or)
    log_or += s
    log_or[~guarded] = np.inf
    return log_or


def eta_min_log_odds_ratio_vec(theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smallest log odds ratio over the stratum pairs solving (theta, c).

    Element-wise over equal-length 1-D float arrays, the columns that the
    compatibility batch check passes; +inf where the solution set is empty.
    That check compares it with ``c1 - log 1.5``: the supremum of the log
    odds ratios on the stratum-1 level curve at c1 when the guard is ignored.
    Inside the guard the curve reaches less, so the comparison can call a
    draw compatible with no guarded stratum-1 match (the "Limit" paragraph of
    `homogeneity`).

    One sign branch decides each point (shape notes above): g = -c where
    theta < 0, whose root carries the smaller log odds ratio, and g = +c
    elsewhere, where the g = -c branch has no root in (0, B).  Where theta < 0
    and the g = -c root fails the guard, the g = +c branch is tried instead.
    Agrees with `solve_stratum_from_rr_eta` point by point.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        neg = theta < 0.0
        r = np.exp(theta)
        best = _branch_min_log_odds_ratio(theta, r, c, neg)
        lost = np.flatnonzero(neg & (best == np.inf))
        if lost.size:  # usually empty; recomputes e^c there rather than keep it per block
            best[lost] = _branch_min_log_odds_ratio(theta[lost], r[lost], c[lost], False)
        best += theta
        return best
