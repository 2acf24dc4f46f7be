"""Risk tables and per-stratum association measures.

The fundamental object is the 2x2 risk table ``p[v][a]``: the probability of
the outcome given stratum ``v`` (0/1) and treatment arm ``a`` (0 = baseline,
1 = treated).  Entries lie in the inclusive guard ``[DEFAULT_EPS, 1 - DEFAULT_EPS]``,
which keeps downstream log and odds transforms away from 0 and 1.

Within one stratum the pair ``(p0, p1)`` of baseline and treated risks
supports the classical contrasts

    risk difference   p1 - p0
    relative risk     p1 / p0
    odds ratio        p1 (1 - p0) / (p0 (1 - p1))
    odds product      p1 p0 / ((1 - p1)(1 - p0))

plus the deliberately asymmetric nuisance

    eta = | log[ (1 - p0)(p1 + 0.5) / ((1 - p1) p0) ] |

whose inversion is handled in :mod:`effectgeom.coords`.

All functions here are pure and operate on immutable values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Inclusive guard: probabilities are accepted in [DEFAULT_EPS, 1 - DEFAULT_EPS].
DEFAULT_EPS = 1e-12

#: Association measures with a homogeneity notion used across the package.
MEASURES = ("rd", "rr", "or")


def in_guard(p):
    """Whether ``p`` lies in the guard [DEFAULT_EPS, 1 - DEFAULT_EPS]; floats or arrays."""
    return (p >= DEFAULT_EPS) & (p <= 1.0 - DEFAULT_EPS)


def logit(p, out=None):
    """Log odds ``log p - log1p(-p)``; floats or arrays.

    An array result is written to ``out`` if given, which may be ``p`` itself.
    """
    minus = np.log1p(-p)
    y = np.log(p, out=out)
    y -= minus
    return y


def expit(x, out=None):
    """Logistic function ``1 / (1 + exp(-x))``, one formula for both signs; floats or arrays.

    Within two ulps of the true value for x >= -700; 0 where exp(-x) overflows.
    An array result is written to ``out`` if given, which may be ``x`` itself.
    """
    with np.errstate(over="ignore"):
        y = np.exp(np.negative(x, out=out), out=out)
    y += 1.0
    return np.divide(1.0, y, out=out)


def check_finite(name: str, value) -> float:
    """``value`` as a float; it must be a finite real number."""
    try:  # an int past the float range overflows
        if isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise DomainError(f"{name} must be a finite real number, got {value!r}")


def _check_prob(name: str, value: float) -> float:
    value = check_finite(name, value)
    if not in_guard(value):
        raise DomainError(f"{name} must lie in [{DEFAULT_EPS:g}, 1 - {DEFAULT_EPS:g}], got {value}")
    return value


@dataclass(frozen=True)
class StratumPair:
    """Baseline and treated risk for one stratum, both passing `in_guard`."""

    p0: float
    p1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p0", _check_prob("p0", self.p0))
        object.__setattr__(self, "p1", _check_prob("p1", self.p1))


@dataclass(frozen=True)
class RiskTable:
    """2x2 table of outcome risks, indexed (stratum v, treatment a).

    Field ``pva`` is the risk in stratum ``v`` under treatment ``a``:
    ``p00``/``p01`` are the baseline/treated risks of stratum 0 and
    ``p10``/``p11`` those of stratum 1.
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self) -> None:
        for name in ("p00", "p01", "p10", "p11"):
            object.__setattr__(self, name, _check_prob(name, getattr(self, name)))

    @classmethod
    def from_strata(cls, s0: StratumPair, s1: StratumPair) -> "RiskTable":
        return cls(p00=s0.p0, p01=s0.p1, p10=s1.p0, p11=s1.p1)

    def stratum(self, v: int) -> StratumPair:
        """Return the (baseline, treated) risk pair of stratum ``v``."""
        if v == 0:
            return StratumPair(self.p00, self.p01)
        if v == 1:
            return StratumPair(self.p10, self.p11)
        raise DomainError(f"stratum index must be 0 or 1, got {v!r}")


def risk_difference(s: StratumPair) -> float:
    """Treated minus baseline risk; lies in (-1, 1)."""
    return s.p1 - s.p0


def relative_risk(s: StratumPair) -> float:
    """Treated over baseline risk; lies in (0, inf)."""
    return s.p1 / s.p0


def odds_ratio(s: StratumPair) -> float:
    """Ratio of treated to baseline odds; lies in (0, inf)."""
    return s.p1 * (1.0 - s.p0) / (s.p0 * (1.0 - s.p1))


def odds_product(s: StratumPair) -> float:
    """Product of treated and baseline odds; lies in (0, inf).

    Unlike the risk difference and relative risk, the attainable range of
    either classical contrast does not depend on the odds product, which is
    what makes it a convenient nuisance coordinate.
    """
    return s.p1 * s.p0 / ((1.0 - s.p1) * (1.0 - s.p0))


def eta(s: StratumPair) -> float:
    """Absolute shifted-odds contrast ``|log[(1-p0)(p1+0.5)/((1-p1)p0)]|``.

    The ``+0.5`` shift on the treated risk is intentional (the numerator
    factor may exceed 1).  The value is 0 exactly when
    ``(1-p0)(p1+0.5) == (1-p1)p0``.
    """
    return abs(math.log((1.0 - s.p0) * (s.p1 + 0.5) / ((1.0 - s.p1) * s.p0)))


def measure_range(measure: str, p0: float) -> tuple[float, float]:
    """Open interval of values a measure can attain at fixed baseline risk.

    At baseline risk ``p0`` the risk difference is confined to
    ``(-p0, 1 - p0)`` and the relative risk to ``(0, 1/p0)``, while the odds
    ratio ranges over all of ``(0, inf)`` regardless of ``p0``.
    """
    p0 = _check_prob("p0", p0)
    if measure == "rd":
        return (-p0, 1.0 - p0)
    if measure == "rr":
        return (0.0, 1.0 / p0)
    if measure == "or":
        return (0.0, math.inf)
    raise DomainError(f"measure must be one of {MEASURES}, got {measure!r}")
