"""Semantic exception hierarchy.

Public functions never raise a bare ``ValueError``: callers can rely on
``EffectGeomError`` (or one of its subclasses) for everything the library
rejects on purpose.  The command line exits 2 on ``ConfigError`` and 3 on
every other ``EffectGeomError``.
"""

from __future__ import annotations

# `ConfigError` is the command line's and is not re-exported by the package
__all__ = [
    "DegenerateCountsError",
    "DomainError",
    "EffectGeomError",
    "OutOfDomainError",
    "UnsupportedSystemError",
    "UnsupportedTargetError",
]


class EffectGeomError(Exception):
    """Base error for this package."""


class DomainError(EffectGeomError, ValueError):
    """An input violates its contract (range, sign, shape, or finiteness)."""


class ConfigError(EffectGeomError):
    """A configuration document, file or setting cannot be read or parsed.

    The message cites the offending line or setting.
    """


class OutOfDomainError(EffectGeomError):
    """A coordinate point has no risk table inside the open unit interval.

    Carries the first violating component so front ends can report it,
    e.g. ``p11 = 1.3800 >= 1``.
    """

    def __init__(self, component: str, value: float, reason: str):
        self.component = component
        self.value = value
        self.reason = reason
        super().__init__(f"{component} = {value:.4f} {reason}")


class UnsupportedSystemError(EffectGeomError, ValueError):
    """Coordinate-system identifier outside the supported set."""


class UnsupportedTargetError(EffectGeomError, ValueError):
    """Interaction target not supported for the requested system."""


class DegenerateCountsError(EffectGeomError):
    """Cell counts too degenerate for the requested test statistic."""
