"""Feasibility of measure homogeneity across the two strata.

Two related questions are answered here:

* Given three of the four risks ``(p00, p10, p01)``, is there a fourth risk
  ``p11`` inside (0, 1) making a chosen measure equal across strata?  The
  candidate completion is unique and in closed form for each measure; the
  informative outcome is whether it lands inside the guard.

* Given a 3-tuple of coordinates in some system (the effect-interaction
  coordinate dropped), does ANY risk table match those coordinates while a
  chosen interaction is exactly zero?  This is the per-point predicate the
  Monte Carlo volume estimator integrates.

Compatibility semantics per system:

``prob``     the 3-tuple is ``(p00, p10, p01)``; delegate to the completion.
``rr_op``    the 3-tuple is ``(alpha0, gamma0, gamma1)``.  The check
             constructs the witness table (log-RR target via the quadratic
             stratum solver with the interaction pinned to zero; log-OR
             target by splitting the stratum-1 log odds product s and the
             stratum-0 log odds ratio o into logit p11 = (s + o)/2,
             logit p10 = (s - o)/2).  In exact arithmetic both targets are
             always compatible.  Here a point is compatible iff its witness
             risks lie in the guard (``DEFAULT_EPS``, 1e-12):
             the verdict is True on the guard-bounded part of the space,
             roughly |alpha0| < log 1e12 = 27.6 with moderate odds
             products, and False beyond it.  At alpha0 = 700, for example,
             p0 < 1e-12.
``rr_eta``   the 3-tuple is ``(alpha0, e0, e1)``.  The log-RR target needs
             the contrast level of each stratum to be attainable at the
             shared relative risk; the log-OR target needs some stratum-0
             solution whose log odds ratio is under ``c1 - log 1.5``, the
             supremum attainable on the stratum-1 contrast level curve.
             Limit: only stratum 0's roots pass the guard.  ``c1 - log 1.5``
             is the supremum without it; inside the guard the stratum-1
             curve reaches far less (log odds ratios in [29.547, 29.595]
             at c1 = 30, by a 50-digit scan), so a draw with large
             ``e0 + e1`` can be called compatible although no table inside
             the guard matches it.  The log-RR target checks attainability
             only and ignores the guard on both strata in the same way
             (for example beyond |alpha0| = 27.6).  Under ``rr_eta`` a True
             verdict therefore does not promise a witness table.

All checks are pure.  Each formula is written once, for numpy arrays; the
scalar forms are the batch forms at one point, so both make the exact same
decisions.  Every risk, given or computed, passes one inclusive guard,
``in_guard`` (``[DEFAULT_EPS, 1 - DEFAULT_EPS]``, the rule `RiskTable`
applies), so under ``prob`` and ``rr_op`` a verdict is True exactly when its
witness table can be built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .coords import (
    LOG_1P5,
    eta_attainable_vec,
    eta_min_log_odds_ratio_vec,
    rr_op_risks_vec,
)
from .errors import DomainError, UnsupportedSystemError, UnsupportedTargetError
from .table import MEASURES, _check_prob, check_finite, expit, in_guard, logit


@dataclass(frozen=True)
class HomogeneityQuery:
    """Three known risks plus the measure whose homogeneity is in question."""

    measure: str
    p00: float
    p10: float
    p01: float

    def __post_init__(self) -> None:
        if self.measure not in MEASURES:
            raise DomainError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        for name in ("p00", "p10", "p01"):
            object.__setattr__(self, name, _check_prob(name, getattr(self, name)))


@dataclass(frozen=True)
class CompatibilityQuery:
    """A 3-point in a coordinate system plus the interaction pinned to zero."""

    system: str
    point: tuple[float, float, float]
    target: str

    def __post_init__(self) -> None:
        check_supported(self.system, self.target)
        object.__setattr__(self, "point", tuple(check_points([self.point])[0].tolist()))


def _completion(measure: str, p00, p10, p01):
    """The p11 that equalizes ``measure`` across strata; floats or arrays."""
    if measure == "rd":
        return p10 + p01 - p00
    if measure == "rr":
        return p10 * p01 / p00
    return expit(logit(p10) + logit(p01) - logit(p00))


def completion_candidate(q: HomogeneityQuery) -> float:
    """The unique p11 that equalizes the measure across strata (closed form).

    ``p10 + p01 - p00`` for the risk difference, ``p10 p01 / p00`` for the
    relative risk, and ``expit(logit p10 + logit p01 - logit p00)`` for the
    odds ratio (in logit space, which keeps the implied odds ratio accurate
    even when the completion sits within a few ulps of 1).  May fall outside
    (0, 1); feasibility is judged by `complete_table`.  This is the batch
    completion of `check_compatibility_batch` at one point.
    """
    return float(_completion(q.measure, q.p00, q.p10, q.p01))


def complete_table(q: HomogeneityQuery) -> float | None:
    """The completion from `completion_candidate` if it passes `in_guard`, else None.

    A completion is returned exactly when the completed `RiskTable` builds.
    """
    candidate = completion_candidate(q)
    return candidate if in_guard(candidate) else None


def is_feasible(q: HomogeneityQuery) -> bool:
    """True iff `complete_table` finds a completion."""
    return complete_table(q) is not None


# ---------------------------------------------------------------------------
# batch predicates, one per (system, target)
# ---------------------------------------------------------------------------


def _prob_batch(points: np.ndarray, target: str) -> np.ndarray:
    p00, p10, p01 = points[:, 0], points[:, 1], points[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cand = _completion(target, p00, p10, p01)
        out = in_guard(cand)
    out &= in_guard(p00) & in_guard(p10) & in_guard(p01)
    return out


def _rr_op_batch(points: np.ndarray, target: str) -> np.ndarray:
    alpha0, gamma0, gamma1 = points[:, 0], points[:, 1], points[:, 2]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p0, p1 = rr_op_risks_vec(alpha0, gamma0)
        ok = in_guard(p0) & in_guard(p1)
        if target == "rr":
            # both strata share theta = alpha0
            p0, p1 = rr_op_risks_vec(alpha0, gamma0 + gamma1)
            return ok & in_guard(p0) & in_guard(p1)
        # target "or": stratum 1 on its odds-product level with the matching
        # log odds ratio
        log_or0 = logit(p1) - logit(p0)
        s = gamma0 + gamma1
        p11 = expit((s + log_or0) / 2.0)
        p10 = expit((s - log_or0) / 2.0)
        return ok & in_guard(p10) & in_guard(p11)


def _rr_eta_batch(points: np.ndarray, target: str) -> np.ndarray:
    alpha0, e0, e1 = points[:, 0], points[:, 1], points[:, 2]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c0 = np.exp(e0)
        c1 = np.exp(e0 + e1)
        if target == "rr":
            # attainability rises with the level, so the lower level decides
            return eta_attainable_vec(alpha0, np.minimum(c0, c1))
        best = eta_min_log_odds_ratio_vec(alpha0, c0)
        return best < c1 - LOG_1P5


class CompatSystem(NamedTuple):
    """A compatibility system: its point's coordinates, default box, targets and predicate."""

    coords: tuple[str, str, str]
    bounds: tuple[tuple[float, float], ...]
    targets: tuple[str, ...]
    batch: Callable[[np.ndarray, str], np.ndarray]


#: The systems a compatibility query or prior may use; "rd" needs the probability scale.
COMPAT_SYSTEMS = {
    "prob": CompatSystem(("p00", "p10", "p01"), ((0.0, 1.0),) * 3, ("rd", "rr", "or"), _prob_batch),
    "rr_op": CompatSystem(("alpha0", "gamma0", "gamma1"), ((-2.0, 2.0),) * 3, ("rr", "or"),
                          _rr_op_batch),
    "rr_eta": CompatSystem(("alpha0", "e0", "e1"), ((-1.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)),
                           ("rr", "or"), _rr_eta_batch),
}


def check_system(system: str) -> CompatSystem:
    """The record of ``system``; raises `UnsupportedSystemError` unless it is a key."""
    if not (isinstance(system, str) and system in COMPAT_SYSTEMS):  # a list is not hashable
        raise UnsupportedSystemError(
            f"system must be one of {tuple(COMPAT_SYSTEMS)}, got {system!r}"
        )
    return COMPAT_SYSTEMS[system]


def check_supported(system: str, target: str) -> CompatSystem:
    """`check_system`'s record; raises `UnsupportedTargetError` unless it lists ``target``."""
    record = check_system(system)
    if target not in record.targets:
        raise UnsupportedTargetError(
            f"target {target!r} not supported for system {system!r}; supported: {record.targets}"
        )
    return record


def check_points(points) -> np.ndarray:
    """``points`` as a column-major (n, 3) float array whose every entry passes `check_finite`.

    A numeric array is tested at once; an object array entry by entry, so
    that Fractions pass and an int past the float range does not.
    """
    try:  # numpy refuses a ragged list with a ValueError, as check_finite does a bad entry
        points = np.asarray(points)
        if points.dtype.kind == "O":
            points = np.array([check_finite("point", x) for x in points.flat]).reshape(points.shape)
        if points.dtype.kind in "biuf":  # tested as floats, so a longdouble past their range fails
            points = points.astype(float, order="F", copy=False)
        finite = points.dtype == np.float64 and np.isfinite(points).all()
    except ValueError:
        finite = False
    if not finite:
        raise DomainError("points must be real numbers, all finite")
    if points.ndim != 2 or points.shape[1] != 3:
        raise DomainError(f"points must have shape (n, 3), got {points.shape}")
    return points


def check_compatibility_batch(system: str, points, target: str) -> np.ndarray:
    """Vectorized compatibility verdicts for points that pass `check_points`.

    That is `CompatibilityQuery`'s point rule too: 3 finite reals per point, else
    `DomainError`.  Kernels read the column-major copy; any layout gives the same verdicts.
    """
    return check_supported(system, target).batch(check_points(points), target)


def check_compatibility(q: CompatibilityQuery) -> bool:
    """Whether a valid risk table matches the point with the interaction zero."""
    verdict = check_compatibility_batch(q.system, np.array([q.point]), q.target)
    return bool(verdict[0])
