"""Saturated coordinate systems for the 2x2 risk table.

Four alternative 4-parameter coordinate systems, each a different split into
an effect coordinate pair and a nuisance coordinate pair:

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

#: Systems of the ``convert`` command; those of compatibility are `homogeneity.COMPAT_SYSTEMS`.
SYSTEMS = ("prob", "poisson", "rr_op", "logistic", "rr_eta")

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


def _risk_from(component: str, value: float) -> float:
    if not in_guard(value):
        raise OutOfDomainError(component, value, ">= 1" if value > 0.5 else "<= 0")
    return value


def _table_from(cells, inverse_link) -> RiskTable:
    """The table whose risks are ``inverse_link`` of the (name, value) cells.

    Raises:
        OutOfDomainError: naming the first cell whose risk fails `in_guard`.
    """
    with np.errstate(over="ignore"):
        risks = inverse_link(np.array([x for _, x in cells])).tolist()
    return RiskTable(**{name: _risk_from(name, p) for (name, _), p in zip(cells, risks)})


# ---------------------------------------------------------------------------
# poisson system
# ---------------------------------------------------------------------------


def to_poisson(t: RiskTable) -> PoissonCoords:
    """Forward map to log baseline-risk and log relative-risk coordinates."""
    beta0 = math.log(t.p00)
    beta1 = math.log(t.p10) - math.log(t.p00)
    alpha0 = math.log(t.p01) - math.log(t.p00)
    alpha1 = math.log(t.p11) - math.log(t.p10) - alpha0
    return PoissonCoords(beta0, beta1, alpha0, alpha1)


def from_poisson(c: PoissonCoords) -> RiskTable:
    """Invert the log-linear map; fails when an implied risk leaves (0, 1).

    Raises:
        OutOfDomainError: naming the first cell whose exponentiated risk is
            outside the open unit interval.  This variation dependence is a
            structural property of the system, not a numerical artifact.
    """
    cells = (
        ("p00", c.beta0),
        ("p01", c.beta0 + c.alpha0),
        ("p10", c.beta0 + c.beta1),
        ("p11", c.beta0 + c.beta1 + c.alpha0 + c.alpha1),
    )
    return _table_from(cells, np.exp)


# ---------------------------------------------------------------------------
# rr_op system
# ---------------------------------------------------------------------------


def rr_op_risks_vec(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Stratum risks (p0, p1) with log relative risk theta and log odds product phi.

    With r = e^theta, w = e^phi and p1 = r p0, the odds-product equation is
    the quadratic

        r (1 - w) p0^2 + w (1 + r) p0 - w = 0 ,

    which has exactly one root in (0, min(1, 1/r)).  That root is always the
    smaller-magnitude one, computed cancellation-free as

        p0 = 2 w / ( w (1 + r) + sqrt(w [w (1 - r)^2 + 4 r]) ) ,

    where the discriminant form ``w [w (1-r)^2 + 4 r]`` is positive by
    construction (no subtraction).  The w = 1 degenerate (linear) case lands
    on the same formula: p0 = 1 / (1 + r).  Element-wise over arrays.  In
    floats the root can fall outside the inclusive guard
    (`DEFAULT_EPS`) once |theta| or |phi| is large.
    """
    r = np.exp(theta)
    w = np.exp(phi)
    one_minus_r = -np.expm1(theta)  # 1 - r without cancellation
    disc = w * (w * one_minus_r * one_minus_r + 4.0 * r)
    p0 = 2.0 * w / (w * (1.0 + r) + np.sqrt(disc))
    return p0, r * p0


def solve_stratum_from_rr_op(theta: float, phi: float) -> StratumPair:
    """Unique stratum pair with log relative risk theta and log odds product phi.

    `rr_op_risks_vec` at a single point.

    Raises:
        DomainError: if a risk falls outside the inclusive guard.
    """
    theta = check_finite("theta", theta)
    phi = check_finite("phi", phi)
    with np.errstate(over="ignore", invalid="ignore"):
        p0, p1 = rr_op_risks_vec(theta, phi)
    return StratumPair(p0, p1)


def to_rr_op(t: RiskTable) -> RrOpCoords:
    """Forward map to log relative-risk and log odds-product coordinates."""
    s0, s1 = t.stratum(0), t.stratum(1)
    alpha0 = math.log(relative_risk(s0))
    alpha1 = math.log(relative_risk(s1)) - alpha0
    gamma0 = math.log(odds_product(s0))
    gamma1 = math.log(odds_product(s1)) - gamma0
    return RrOpCoords(alpha0, alpha1, gamma0, gamma1)


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
    l00, l01, l10, l11 = logit(np.array([t.p00, t.p01, t.p10, t.p11])).tolist()
    return LogisticCoords(
        b0=l00,
        b1=l10 - l00,
        a0=l01 - l00,
        a1=l11 - l10 - (l01 - l00),
    )


def from_logistic(c: LogisticCoords) -> RiskTable:
    """Invert via the logistic function; a bijection with real 4-tuples.

    In float arithmetic, coefficient sums beyond about +-27.6 produce risks
    outside the inclusive guard and raise ``OutOfDomainError``.
    """
    cells = (
        ("p00", c.b0),
        ("p01", c.b0 + c.a0),
        ("p10", c.b0 + c.b1),
        ("p11", c.b0 + c.b1 + c.a0 + c.a1),
    )
    return _table_from(cells, expit)


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
# (about 1e-15 b^2) can give it either sign.  Where |D| <= 1e-8 b^2 the
# closed-form floor decides instead: D is raised to at least 0 for c >= m(r),
# giving the double root 1 / (-b) there, and dropped for c < m(r).  Roots
# therefore exist exactly when `eta_attainable` calls the level attained.
#
# Log odds ratio.  On a level curve (1 - p0) / (1 - r p0) = k p0 / (r p0 + 0.5),
# so the log odds ratio of a root is
#
#     theta + s + log p0 - log(r p0 + 0.5) ,
#
# with no 1 - p formed.  It increases with p0 along a branch, so each
# branch's smallest kept root carries that branch's smallest log odds ratio.


#: Half-width, relative to b^2, of the band around D = 0 decided by the floor.
_D_BAND = 1e-8


def _eta_floor(theta: np.ndarray) -> np.ndarray:
    """Closed-form floor m(e^theta) of the contrast; 0 where theta < 0."""
    up = np.maximum(theta, 0.0)
    r = np.exp(up)
    m = np.log(2.0 * r - 0.5 + np.sqrt(3.0 * r * np.expm1(up)))
    return np.where(theta < 0.0, 0.0, m)


def _in_guard(p0: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whether p0 and r p0 both lie in [eps, 1 - eps], as `StratumPair` requires."""
    return in_guard(p0) & in_guard(r * p0)


def _branch_roots(theta, r, s, k, one_minus_k) -> tuple[np.ndarray, np.ndarray]:
    """Smaller positive root of g(p0; r) = s and its Vieta partner (NaN if none)."""
    b = r - 0.5 - k
    b2 = b * b
    D = b2 + 2.0 * r * one_minus_k
    # rounding can decide the sign of D only in this band (shape notes)
    near = np.flatnonzero(np.abs(D) <= _D_BAND * b2)
    if near.size:
        at_or_above = s[near] >= _eta_floor(theta[near])
        D[near] = np.where(at_or_above, np.maximum(D[near], 0.0), np.nan)
    sq = np.sqrt(D)
    p0 = np.where(b <= 0.0, 1.0 / (sq - b), (sq + b) / (2.0 * r * one_minus_k))
    return p0, -0.5 / (r * one_minus_k * p0)


def _level_roots(theta: np.ndarray, c: np.ndarray):
    """``r`` and the (smaller, partner) roots of the branches g = +c and g = -c."""
    r = np.exp(theta)
    k = np.exp(c)
    em1 = np.expm1(c)
    plus = _branch_roots(theta, r, c, k, -em1)
    minus = _branch_roots(theta, r, -c, 1.0 / k, em1 / k)
    return r, plus, minus


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
    dropped.  The pairs are sorted by ``p0`` and distinct to within 1e-9
    in it; the tuple is empty, not an error, where the level is
    unattainable at that relative risk.

    Raises:
        DomainError: unless ``c`` is a real number > 0 (log coordinates never hit 0).
    """
    theta = check_finite("theta", theta)
    c = _check_level(c)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r, plus, minus = _level_roots(np.array([theta]), np.array([c]))
        roots = sorted(float(p[0]) for p in (*plus, *minus) if _in_guard(p, r)[0])
    deduped: list[float] = []
    for p in roots:
        if not deduped or p - deduped[-1] > 1e-9:
            deduped.append(p)
    r = float(r[0])
    return tuple(StratumPair(p0, r * p0) for p0 in deduped)


def to_rr_eta(t: RiskTable) -> RrEtaCoords:
    """Forward map; undefined (raises) when a stratum contrast is exactly 0."""
    s0, s1 = t.stratum(0), t.stratum(1)
    eta0, eta1 = eta(s0), eta(s1)
    if eta0 <= 0.0:
        raise OutOfDomainError("eta0", eta0, "= 0 has no log coordinate")
    if eta1 <= 0.0:
        raise OutOfDomainError("eta1", eta1, "= 0 has no log coordinate")
    alpha0 = math.log(relative_risk(s0))
    alpha1 = math.log(relative_risk(s1)) - alpha0
    e0 = math.log(eta0)
    return RrEtaCoords(alpha0, alpha1, e0, math.log(eta1) - e0)


def from_rr_eta(c: RrEtaCoords) -> list[RiskTable]:
    """Every risk table matching the coordinates (possibly none).

    The Cartesian product of the two per-stratum solution sets, ordered by
    (p00, p10).  An empty list means at least one stratum's contrast level is
    unattainable at its implied relative risk.
    """
    with np.errstate(over="ignore"):
        c0, c1 = np.exp([c.e0, c.e0 + c.e1]).tolist()
    if c0 == 0.0 or c1 == 0.0:  # log target underflowed past float range
        return []
    set0 = solve_stratum_from_rr_eta(c.alpha0, c0)
    if not set0:
        return []
    set1 = solve_stratum_from_rr_eta(c.alpha0 + c.alpha1, c1)
    return [RiskTable.from_strata(s0, s1) for s0 in set0 for s1 in set1]


# ---------------------------------------------------------------------------
# vectorized kernels (consumed by the volume estimator)
# ---------------------------------------------------------------------------


def eta_attainable_vec(theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Element-wise `eta_attainable`: ``c`` at or above the floor (above, at theta = 0)."""
    theta = np.asarray(theta, dtype=float)
    c = np.asarray(c, dtype=float)
    with np.errstate(over="ignore"):
        floor = _eta_floor(theta)
    return np.where(theta == 0.0, c > floor, c >= floor)


def eta_min_log_odds_ratio_vec(theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smallest log odds ratio over the stratum pairs solving (theta, c).

    +inf where the solution set is empty.  Used by the compatibility batch
    check: the level curve of the contrast at level c1 attains exactly the
    log odds ratios below ``c1 - log 1.5``, so a match for a second stratum
    exists iff this minimum is under that bound.

    Each sign branch contributes its smallest root inside the guard, which
    carries the branch's smallest log odds ratio (shape notes above).  That
    is the smaller root, except on the g = +c branch where the smaller root
    lies below eps: there the Vieta partner (the right root, for r > 1) may
    still be inside.  No other partner ever is: it is >= 1 on the g = +c
    branch for r <= 1, and negative on the g = -c branch.  Agrees with
    `solve_stratum_from_rr_eta` point by point.
    """
    theta = np.asarray(theta, dtype=float)
    c = np.asarray(c, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r, (p_plus, partner), (p_minus, _) = _level_roots(theta, c)
        p_plus = np.where(p_plus >= DEFAULT_EPS, p_plus, partner)
        best = np.full(theta.shape, np.inf)
        for s, p0 in ((c, p_plus), (-c, p_minus)):
            log_or = s + np.log(p0 / (r * p0 + 0.5))
            best = np.minimum(best, np.where(_in_guard(p0, r), log_or, np.inf))
        return theta + best
