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
             The odds ratio is variation independent of the baseline risk,
             so the ``or`` completion misses the guard only near a face of
             the cube.  Interior: every coordinate in [delta, 1 - delta],
             with delta = ``INTERIOR_DELTA`` = 1e-3.  There |logit p| <=
             log((1 - delta)/delta) = 6.907, so the completion's logit,
             logit p10 + logit p01 - logit p00, is at most 20.72 in
             magnitude and the completion lies in [1.0e-9, 1 - 1.0e-9].
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
             Interior: |alpha0|, |gamma0| and |gamma0 + gamma1| (summed as
             the kernel sums it) each at most L = ``INTERIOR_L`` = 8.  For a
             stratum with log RR theta, log OP phi and risk logits a, b:
             b - a = theta - lam with lam = log((1 - p1)/(1 - p0)), and theta
             and lam have opposite signs.  log p + log(1 - p) =
             -2 log(2 cosh(l/2)) at logit l, and 2 log cosh(l/2) is even and
             1-Lipschitz in l, so |lam| - |theta| <= |a + b| = |phi|.  Hence
             the log OR obeys |b - a| <= 2|theta| + |phi|, and
             a, b = (phi -+ (b - a))/2 obey |a|, |b| <= |theta| + |phi|.  In
             the interior every ``rr`` witness logit is at most 2L = 16; for
             ``or``, stratum 0's are, its log OR o is at most 3L, and
             stratum 1's (s +- o)/2 at most 2L.  So every witness risk of
             both targets lies in [expit(-16), 1 - expit(-16)], about
             [1.1e-7, 1 - 1.1e-7], attained at the corner alpha0 = -8,
             gamma0 = 8, where 1 - p0 is about e^-16.
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
             Interior, for both targets: alpha0 in [-L, -tau] and e0 <= E,
             with tau = ``INTERIOR_TAU`` = 1e-3 and E = ``INTERIOR_E`` = 2;
             e1 is free.  For ``rr`` the floor is 0 where alpha0 < 0, so
             every level is attainable.  For ``or`` the kernel solves the
             g = -c branch at r = e^alpha0 < 1 and c0 = e^e0 <= e^2 (the
             coords shape notes).  g falls through 0 at p0 = 0.5/(1.5 - r),
             which is at least 1/3, so the root p0 is past it and
             r p0 >= e^-L/3 = 1.1e-4.  On the curve g = -c0,
             1 - p0 = e^-c0 (1 - r p0) p0/(r p0 + 0.5), at least
             e^-(e^2) (1 - e^-tau)(1/3)/1.5 = 1.37e-7.  So p0 and r p0 lie
             in [1.3e-7, 1 - 1.3e-7], and the kernel keeps that root.  Its
             log OR is alpha0 + s + log p0 - log(r p0 + 0.5) =
             s + log(p1/(p1 + 0.5)), with s = -c0 and p1 = r p0 < e^-tau,
             for any computed p0 in (0, 1].  That is at most
             -c0 - log 1.5 - log(1 + (e^tau - 1)/3), at least 3.3e-4 below
             -c0 - log 1.5 < c1 - log 1.5, so the verdict is True.  This
             uses the unguarded bound ``c1 - log 1.5`` of the Limit above.

All checks are pure.  Each formula is written once, for numpy arrays; the
scalar forms are the batch forms at one point, so both make the exact same
decisions.  Every risk, given or computed, passes one inclusive guard,
``in_guard`` (``[DEFAULT_EPS, 1 - DEFAULT_EPS]``, the rule `RiskTable`
applies), so under ``prob`` and ``rr_op`` a verdict is True exactly when its
witness table can be built.

Each `COMPAT_SYSTEMS` record lists, per target, the tests that decide points
before the kernel, each with its verdict.  The ``prob``/``or``, ``rr_op`` and
``rr_eta`` entries first mark the points of a block inside their interior,
which are compatible.  Each interior's margin is at least 1000 times the
guard, so a few ulps of log, exp or sqrt error at any SIMD level cannot move
a verdict there.  The ``rr_eta``/``or`` entry then marks the points whose
stratum-0 level is below the floor (`eta_attainable_vec`), which are not
compatible: the root solve finds no root there.  `_decide` runs the tests in
order under one rule, `DECIDED_SHARE`: a block with at least 45% of its
points decided by a test runs the remaining tests and the kernel on the
gathered undecided points only, and any other block runs them on every
point.  Either way every verdict is the full kernel's.  Per 16384-row block,
gathering breaks even near 45% decided for the cheapest kernels
(``prob``/``or`` and ``rr_op``/``rr``), and at 30% or less for the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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

#: The ``prob``/``or`` interior: every coordinate in [INTERIOR_DELTA, 1 - INTERIOR_DELTA].
INTERIOR_DELTA = 1e-3

#: The ``rr_op`` interior: |alpha0|, |gamma0| and |gamma0 + gamma1| each at most INTERIOR_L.
#: The ``rr_eta`` interior's alpha0 is at least -INTERIOR_L.
INTERIOR_L = 8.0

#: The ``rr_eta`` interior: alpha0 in [-INTERIOR_L, -INTERIOR_TAU] and e0 at most INTERIOR_E.
INTERIOR_TAU = 1e-3
INTERIOR_E = 2.0

#: A block runs its kernel on the gathered undecided points only when at least
#: this share of them is decided (the module docstring's rule).
DECIDED_SHARE = 0.45


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
# kernels, one per system, and the tests that decide points before them; a
# test takes a block's three columns, as a kernel does, and returns the mask
# of the points it leaves undecided
# ---------------------------------------------------------------------------


def _prob_kernel(p00, p10, p01, target: str) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cand = _completion(target, p00, p10, p01)
        out = in_guard(cand)
    out &= in_guard(p00) & in_guard(p10) & in_guard(p01)
    return out


def _rr_op_kernel(alpha0, gamma0, gamma1, target: str) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if target == "rr":
            # both strata share theta = alpha0
            ok = np.ones(len(alpha0), dtype=bool)
            for p0, p1 in rr_op_risks_vec(alpha0, gamma0, gamma0 + gamma1):
                ok &= in_guard(p0)
                ok &= in_guard(p1)
            return ok
        (p0, p1), = rr_op_risks_vec(alpha0, gamma0)
        ok = in_guard(p0) & in_guard(p1)
        # target "or": stratum 1 on its odds-product level with the matching
        # log odds ratio, built in the two risk arrays and one more
        log_or0 = logit(p1, out=p1)
        log_or0 -= logit(p0, out=p0)
        s = np.add(gamma0, gamma1, out=p0)
        p10 = np.subtract(s, log_or0)
        p10 /= 2.0
        ok &= in_guard(expit(p10, out=p10))
        p11 = np.add(s, log_or0, out=p10)
        p11 /= 2.0
        ok &= in_guard(expit(p11, out=p11))
        return ok


def _rr_eta_kernel(alpha0, e0, e1, target: str) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c0 = np.exp(e0)
        if target == "or":
            best = eta_min_log_odds_ratio_vec(alpha0, c0)
            c1 = np.add(e0, e1, out=c0)  # c0 is spent
            np.exp(c1, out=c1)
            c1 -= LOG_1P5
            return best < c1
        c1 = np.add(e0, e1)
        np.exp(c1, out=c1)
        # attainability rises with the level, so the lower level decides
        return eta_attainable_vec(alpha0, np.minimum(c0, c1, out=c1))


def _outside_prob_interior(p00, p10, p01) -> np.ndarray:
    outside = p00 < INTERIOR_DELTA
    outside |= p00 > 1.0 - INTERIOR_DELTA
    for x in (p10, p01):
        outside |= x < INTERIOR_DELTA
        outside |= x > 1.0 - INTERIOR_DELTA
    return outside


def _outside_rr_op_interior(alpha0, gamma0, gamma1) -> np.ndarray:
    with np.errstate(over="ignore"):  # a sum past the float range is inf, so outside
        scratch = np.add(gamma0, gamma1)  # stratum 1's log odds product, as the kernel sums it
    outside = np.abs(scratch, out=scratch) > INTERIOR_L
    for x in (alpha0, gamma0):
        outside |= np.abs(x, out=scratch) > INTERIOR_L
    return outside


def _outside_rr_eta_interior(alpha0, e0, e1) -> np.ndarray:
    outside = alpha0 < -INTERIOR_L
    outside |= alpha0 > -INTERIOR_TAU
    outside |= e0 > INTERIOR_E
    return outside


def _rr_eta_level0_attainable(alpha0, e0, e1) -> np.ndarray:
    # below the floor the root solve finds no root, so its log OR is +inf and
    # the or verdict False (coords shape notes)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return eta_attainable_vec(alpha0, np.exp(e0))


def _decide(tests, kernel: Callable[..., np.ndarray], columns) -> np.ndarray:
    """``kernel(*columns)``, with the points ``tests`` decide left out of it.

    Each (test, verdict) in turn marks the points it leaves undecided; the
    kernel is ``verdict`` on the others.  The remaining tests and the kernel
    run on the gathered undecided points when at least `DECIDED_SHARE` of the
    block is decided, and on every point otherwise.
    """
    if not tests:
        return kernel(*columns)
    (test, decided_verdict), tests = tests[0], tests[1:]
    undecided = test(*columns)
    if np.count_nonzero(undecided) > (1.0 - DECIDED_SHARE) * len(undecided):
        del undecided  # freed before the kernel's temporaries
        return _decide(tests, kernel, columns)
    rest = np.flatnonzero(undecided)
    verdicts = ~undecided if decided_verdict else undecided
    if rest.size:
        verdicts[rest] = _decide(tests, kernel, [column[rest] for column in columns])
    return verdicts


class CompatSystem(NamedTuple):
    """A compatibility system: its point's coordinates, default box and kernel, and for each
    target the (test, verdict) pairs `_decide` runs before ``kernel(*columns, target=target)``."""

    coords: tuple[str, str, str]
    bounds: tuple[tuple[float, float], ...]
    kernel: Callable[..., np.ndarray]
    decide_first: dict[str, tuple[tuple[Callable[..., np.ndarray], bool], ...]]

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(self.decide_first)


#: The systems a compatibility query or prior may use; "rd" needs the probability scale.
COMPAT_SYSTEMS = {
    "prob": CompatSystem(("p00", "p10", "p01"), ((0.0, 1.0),) * 3, _prob_kernel,
                         {"rd": (), "rr": (), "or": ((_outside_prob_interior, True),)}),
    "rr_op": CompatSystem(("alpha0", "gamma0", "gamma1"), ((-2.0, 2.0),) * 3, _rr_op_kernel,
                          {"rr": ((_outside_rr_op_interior, True),),
                           "or": ((_outside_rr_op_interior, True),)}),
    "rr_eta": CompatSystem(("alpha0", "e0", "e1"), ((-1.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)),
                           _rr_eta_kernel,
                           {"rr": ((_outside_rr_eta_interior, True),),
                            "or": ((_outside_rr_eta_interior, True),
                                   (_rr_eta_level0_attainable, False))}),
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
        if points.dtype.kind in "biuf" and points.dtype != np.float64:
            with np.errstate(over="ignore"):  # a longdouble past the float range casts to inf
                points = points.astype(float, order="F")
        finite = points.dtype == np.float64 and np.isfinite(points).all()
    except ValueError:
        finite = False
    if not finite:
        raise DomainError("points must be real numbers, all finite")
    if points.ndim != 2 or points.shape[1] != 3:
        raise DomainError(f"points must have shape (n, 3), got {points.shape}")
    return np.asfortranarray(points)


def check_compatibility_batch(system: str, points, target: str) -> np.ndarray:
    """Vectorized compatibility verdicts for points that pass `check_points`.

    That is `CompatibilityQuery`'s point rule too: 3 finite reals per point, else
    `DomainError`.  Kernels read the column-major copy; any layout gives the same verdicts.
    """
    record = check_supported(system, target)
    return _decide(record.decide_first[target], partial(record.kernel, target=target),
                   check_points(points).T)


def check_compatibility(q: CompatibilityQuery) -> bool:
    """Whether a valid risk table matches the point with the interaction zero."""
    verdict = check_compatibility_batch(q.system, np.array([q.point]), q.target)
    return bool(verdict[0])
