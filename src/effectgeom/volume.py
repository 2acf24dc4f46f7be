"""Monte Carlo compatibility probabilities under box priors on coordinates.

A `PriorSpec` puts an independent uniform distribution on a 3-tuple of
retained coordinates (the effect-interaction coordinate is dropped) in one of
the systems ``prob``, ``rr_op`` or ``rr_eta``.  `estimate` draws from the
box, applies the compatibility predicate for a chosen zero-interaction
target, and reports the fraction of compatible draws with its binomial
standard error.

Under the probability-scale unit cube the three probabilities also have
closed forms, returned by `exact_probability` (None on every other box):

    rd  ->  2/3        P(0 < p10 + p01 - p00 < 1) = 1 - 1/6 - 1/6
    rr  ->  3/4        P(p10 p01 < p00)           = 1 - E[p10 p01]
    or  ->  1          the odds completion always lands inside (0, 1)

Under ``rr_op`` both targets have probability exactly 1 on every box whose
witness risks stay inside the inclusive guard (1e-12; see
:mod:`effectgeom.homogeneity`), and 0 on a box wholly outside it, such as
alpha0 in [700, 800], where every baseline risk is below 1e-12.

Estimates are bit-reproducible given (seed, n_samples) for any worker count;
see :mod:`effectgeom.mc`.  An estimate of exactly 1 reports a standard error
of 0 and carries ``n_compatible`` so that "no counterexample in n draws" is
distinguishable from a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import mc
from .errors import DomainError
from .homogeneity import COMPAT_SYSTEMS, check_compatibility_batch, check_supported, check_system
from .table import check_finite

__all__ = ["DEFAULT_BOUNDS", "PriorSpec", "VolumeEstimate", "estimate", "exact_probability"]

#: Default coordinate boxes, from `homogeneity.COMPAT_SYSTEMS`.
DEFAULT_BOUNDS = {name: system.bounds for name, system in COMPAT_SYSTEMS.items()}

#: Exact compatibility probabilities under the unit-cube probability prior.
_CUBE_PROBABILITY = {"rd": Fraction(2, 3), "rr": Fraction(3, 4), "or": Fraction(1)}

Bounds = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

#: Rows of a chunk drawn and checked at a time; counts do not depend on it.
#: At 4096 rows two threads ran volume queries slower than one (wall time at
#: one worker over two: 0.79 on rr_eta, 0.85 on prob and rr_op); at 16384
#: rows they read 1.02 and 1.32, for 1.9 MB more peak RSS on rr_eta
#: (`BENCH_13.json`).  The predicates' per-block temporaries are pinned in
#: `tests/test_volume.py`.
BLOCK_ROWS = 16384


@dataclass(frozen=True)
class PriorSpec:
    """Uniform box prior on the retained coordinate 3-tuple of a system."""

    system: str
    n_samples: int
    seed: int
    bounds: Bounds | None = None

    def __post_init__(self) -> None:
        record = check_system(self.system)
        n_samples = mc.check_int("n_samples", self.n_samples, 1, mc.MAX_COUNT)
        object.__setattr__(self, "n_samples", n_samples)
        object.__setattr__(self, "seed", mc.check_seed(self.seed))
        bounds = self.bounds if self.bounds is not None else record.bounds
        try:  # each entry must unpack into exactly (low, high)
            bounds = [(lo, hi) for lo, hi in bounds]
        except (TypeError, ValueError):
            bounds = []
        if len(bounds) != 3:
            raise DomainError(f"bounds must be 3 (low, high) pairs, got {self.bounds!r}")
        bounds = tuple((check_finite(f"bounds for {n}", lo), check_finite(f"bounds for {n}", hi))
                       for n, (lo, hi) in zip(record.coords, bounds))
        for name, (lo, hi) in zip(record.coords, bounds):
            if not (math.isfinite(hi - lo) and lo < hi):
                raise DomainError(f"bounds for {name} need low < high, high - low finite, "
                                  f"got ({lo}, {hi})")
            if self.system == "prob" and not (0.0 <= lo and hi <= 1.0):
                raise DomainError(f"probability bounds for {name} must lie in [0, 1], got ({lo}, {hi})")
        object.__setattr__(self, "bounds", bounds)


@dataclass(frozen=True)
class VolumeEstimate:
    """Fraction of compatible draws with its Monte Carlo standard error."""

    probability: float
    std_error: float
    n_samples: int
    n_compatible: int


def _chunk_counts(prior: PriorSpec, target: str, index: int, size: int) -> np.ndarray:
    # consecutive random((b, 3)) calls continue one random((size, 3)) stream
    rng = mc.chunk_rng(prior.seed, index)
    lows = np.array([b[0] for b in prior.bounds])
    widths = np.array([b[1] for b in prior.bounds]) - lows
    count = 0
    for start in range(0, size, BLOCK_ROWS):
        # one column-major copy, scaled in place: the kernels read unit-stride columns
        points = np.asfortranarray(rng.random((min(BLOCK_ROWS, size - start), 3)))
        points *= widths
        points += lows
        count += int(np.count_nonzero(check_compatibility_batch(prior.system, points, target)))
    return np.array([count], dtype=np.int64)


def estimate(prior: PriorSpec, target: str, workers: int = 1) -> VolumeEstimate:
    """Estimate the probability that the target interaction can be zeroed.

    Draws ``prior.n_samples`` points uniformly from the box, counts
    compatible ones, and returns the proportion with standard error
    ``sqrt(p(1-p)/n)``.  Identical specs give identical results for every
    worker count.
    """
    check_supported(prior.system, target)
    total = mc.run_chunked(_chunk_counts, (prior, target), prior.n_samples, workers)
    n_compatible = int(total[0])
    p, se = mc.proportion(n_compatible, prior.n_samples)
    return VolumeEstimate(probability=p, std_error=se, n_samples=prior.n_samples,
                          n_compatible=n_compatible)


def exact_probability(prior: PriorSpec, target: str) -> Fraction | None:
    """Exact compatibility probability of ``target`` under ``prior``; None where unknown.

    Known on the unit-cube probability prior only.  Raises `UnsupportedTargetError`,
    through `check_supported`, for a target the system does not support.
    """
    check_supported(prior.system, target)
    if prior.system == "prob" and prior.bounds == DEFAULT_BOUNDS["prob"]:
        return _CUBE_PROBABILITY[target]
    return None
