"""Risk tables and per-stratum association measures.

The fundamental object is the 2x2 risk table ``p[v][a]``: the probability of
the outcome given stratum ``v`` (0/1) and treatment arm ``a`` (0 = baseline,
1 = treated).  Entries live strictly inside (0, 1); a guard ``eps`` keeps
downstream log and odds transforms away from 0 and 1.

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
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DomainError

#: Default open-interval guard: probabilities are accepted in [eps, 1 - eps].
DEFAULT_EPS = 1e-12

#: Association measures with a homogeneity notion used across the package.
MEASURES = ("rd", "rr", "or")


def in_guard(p, eps: float = DEFAULT_EPS):
    """Whether ``p`` lies in [eps, 1 - eps], the guard on every risk; floats or arrays."""
    return (p >= eps) & (p <= 1.0 - eps)


def logit(p):
    """Log odds ``log p - log1p(-p)``; floats or arrays."""
    return np.log(p) - np.log1p(-p)


def expit(x):
    """Logistic function ``1 / (1 + exp(-x))``, one formula for both signs; floats or arrays.

    Within two ulps of the true value for x >= -700; 0 where exp(-x) overflows.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _check_prob(name: str, value: float, eps: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if not in_guard(value, eps):
        raise DomainError(f"{name} must lie in ({0}, {1}) (guard {eps:g}), got {value}")
    return value


@dataclass(frozen=True)
class StratumPair:
    """Baseline and treated risk for one stratum, both strictly in (0, 1)."""

    p0: float
    p1: float
    eps: InitVar[float] = DEFAULT_EPS

    def __post_init__(self, eps: float) -> None:
        object.__setattr__(self, "p0", _check_prob("p0", self.p0, eps))
        object.__setattr__(self, "p1", _check_prob("p1", self.p1, eps))


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
    eps: InitVar[float] = DEFAULT_EPS

    def __post_init__(self, eps: float) -> None:
        for name in ("p00", "p01", "p10", "p11"):
            object.__setattr__(self, name, _check_prob(name, getattr(self, name), eps))

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


def measure_range(measure: str, p0: float, eps: float = DEFAULT_EPS) -> tuple[float, float]:
    """Open interval of values a measure can attain at fixed baseline risk.

    At baseline risk ``p0`` the risk difference is confined to
    ``(-p0, 1 - p0)`` and the relative risk to ``(0, 1/p0)``, while the odds
    ratio ranges over all of ``(0, inf)`` regardless of ``p0``.
    """
    p0 = _check_prob("p0", p0, eps)
    if measure == "rd":
        return (-p0, 1.0 - p0)
    if measure == "rr":
        return (0.0, 1.0 / p0)
    if measure == "or":
        return (0.0, math.inf)
    raise DomainError(f"measure must be one of {MEASURES}, got {measure!r}")
