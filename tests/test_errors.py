"""The promise of `effectgeom.errors`: public functions reject bad input with an
`EffectGeomError`, never a bare ``TypeError``, ``ValueError`` or ``OverflowError``."""

import math

import numpy as np
import pytest

from effectgeom import (
    CompatibilityQuery,
    DomainError,
    EffectGeomError,
    PriorSpec,
    RiskTable,
    StudyDesign,
    estimate,
    simulate_power,
)
from effectgeom.homogeneity import COMPAT_SYSTEMS, check_compatibility_batch


def _power(**kwargs):
    args = dict(alpha=0.05, reps=10, seed=0, workers=1) | kwargs
    return simulate_power(RiskTable(0.2, 0.3, 0.4, 0.5), StudyDesign(10, 10, 10, 10), **args)


CASES = {
    "batch-ragged": lambda: check_compatibility_batch("prob", [[0.1, 0.2, 0.3], [0.1, 0.2]], "rr"),
    "batch-huge-int": lambda: check_compatibility_batch("prob", [[1, 10**400, 3]], "rr"),
    "batch-minus-inf": lambda: check_compatibility_batch("rr_eta", [[-math.inf, 0.2, 0.3]], "rr"),
    "batch-plus-inf": lambda: check_compatibility_batch("rr_eta", [[0.2, 0.3, math.inf]], "or"),
    "query-point-none": lambda: CompatibilityQuery("prob", None, "rr"),
    "query-point-int": lambda: CompatibilityQuery("prob", 5, "rr"),
    "query-system-list": lambda: CompatibilityQuery(["prob"], (0.1, 0.2, 0.3), "rr"),
    "batch-system-list": lambda: check_compatibility_batch(["prob"], [[0.1, 0.2, 0.3]], "rr"),
    "prior-system-list": lambda: PriorSpec(["prob"], 10, 0),
    "alpha-str": lambda: _power(alpha="0.05"),
    "alpha-none": lambda: _power(alpha=None),
    "alpha-huge-int": lambda: _power(alpha=10**400),
    "workers-fraction": lambda: estimate(PriorSpec("prob", 10, 0), "rr", workers=2.5),
    "workers-none": lambda: _power(workers=None),
    "workers-str": lambda: estimate(PriorSpec("prob", 10, 0), "rr", workers="2"),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES)
def test_bad_input_raises_a_package_error(call):
    with pytest.raises(EffectGeomError):
        call()


# a longdouble past the float range, where longdouble is wider than float64
_WIDE_LONGDOUBLE = int(np.finfo(np.longdouble).max) > 10**400

BAD_POINTS = {
    "huge-int": (1, 10**400, 3),
    "longdouble-past-float": pytest.param(
        (np.longdouble("1e400") if _WIDE_LONGDOUBLE else None, 0.2, 0.3),
        marks=pytest.mark.skipif(not _WIDE_LONGDOUBLE, reason="longdouble is float64 here"),
    ),
    "minus-inf": (-math.inf, 0.2, 0.3),
    "plus-inf": (0.2, 0.3, math.inf),
    "nan": (0.2, math.nan, 0.3),
    "none": None,
    "int": 5,
    "two-coordinates": (0.2, 0.3),
}


@pytest.mark.parametrize("point", BAD_POINTS.values(), ids=BAD_POINTS)
def test_query_and_batch_share_the_point_rule(point):
    for system, record in COMPAT_SYSTEMS.items():
        for target in record.targets:
            with pytest.raises(DomainError):
                CompatibilityQuery(system, point, target)
            with pytest.raises(DomainError):
                check_compatibility_batch(system, [point], target)
