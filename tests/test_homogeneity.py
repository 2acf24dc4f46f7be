import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from effectgeom import (
    DEFAULT_EPS,
    CompatibilityQuery,
    DomainError,
    HomogeneityQuery,
    RiskTable,
    UnsupportedSystemError,
    UnsupportedTargetError,
    check_compatibility,
    complete_table,
    from_rr_op,
    is_feasible,
    odds_ratio,
    relative_risk,
    risk_difference,
    RrOpCoords,
)
from effectgeom.homogeneity import check_compatibility_batch, completion_candidate

from . import oracles
from .conftest import probs

MEASURE_FN = {"rd": risk_difference, "rr": relative_risk, "or": odds_ratio}


class TestCompletion:
    def test_rd_infeasible_boundary_example(self):
        q = HomogeneityQuery("rd", 0.27, 0.46, 0.82)
        assert completion_candidate(q) == pytest.approx(1.01, rel=1e-12)
        assert complete_table(q) is None
        assert not is_feasible(q)

    def test_rd_feasible_boundary_example(self):
        q = HomogeneityQuery("rd", 0.27, 0.46, 0.80)
        assert complete_table(q) == pytest.approx(0.99, rel=1e-12)

    def test_or_completion_value(self):
        q = HomogeneityQuery("or", 0.27, 0.46, 0.81)
        # frozen from odds arithmetic: odds11 = odds10 odds01 / odds00
        assert complete_table(q) == pytest.approx(0.9075675675675676, rel=1e-13)

    def test_rr_infeasible_example(self):
        q = HomogeneityQuery("rr", 0.27, 0.46, 0.81)
        assert completion_candidate(q) == pytest.approx(1.38, rel=1e-12)
        assert not is_feasible(q)

    def test_rr_feasible_constant(self):
        assert complete_table(HomogeneityQuery("rr", 0.5, 0.5, 0.5)) == pytest.approx(0.5)

    @given(st.sampled_from(("rd", "rr", "or")), probs, probs, probs)
    def test_completion_equalizes_the_measure(self, measure, p00, p10, p01):
        q = HomogeneityQuery(measure, p00, p10, p01)
        p11 = complete_table(q)
        if p11 is None:
            return
        t = RiskTable(p00, p01, p10, p11)
        m0 = MEASURE_FN[measure](t.stratum(0))
        m1 = MEASURE_FN[measure](t.stratum(1))
        # representation floor: rounding p11 to float64 moves the ratio
        # measures by ~ulp/(p11 (1 - p11)); 1e-10 governs away from corners
        ulp = 2.220446049250313e-16
        floor = 4.0 * ulp * (1.0 / p11 + 1.0 / (1.0 - p11))
        assert m1 == pytest.approx(m0, rel=1e-10 + floor, abs=1e-10)

    def test_or_completion_total_bulk(self, rng):
        # the odds completion always lands inside (0, 1)
        n = 1_000_000
        p00, p10, p01 = rng.uniform(1e-4, 1 - 1e-4, size=(3, n))
        odds = (p10 / (1 - p10)) * (p01 / (1 - p01)) * ((1 - p00) / p00)
        cand = odds / (1 + odds)
        assert np.all((cand > 0) & (cand < 1))
        for i in range(0, n, 50_000):  # spot-check the scalar API on a subsample
            assert is_feasible(HomogeneityQuery("or", p00[i], p10[i], p01[i]))


class TestGuardEdges:
    """Scalar and batch verdicts and the completed table agree at the eps guard."""

    @pytest.mark.parametrize("measure", ["rd", "rr", "or"])
    def test_feasible_iff_compatible_iff_table_builds(self, measure):
        # eps and 1 - eps are accepted by HomogeneityQuery, like any risk in the guard
        values = (DEFAULT_EPS, 0.3, 1.0 - DEFAULT_EPS)
        for point in itertools.product(values, repeat=3):
            q = HomogeneityQuery(measure, *point)
            feasible = is_feasible(q)
            compatible = check_compatibility(CompatibilityQuery("prob", point, measure))
            assert feasible == compatible, point
            p00, p10, p01 = point
            try:
                RiskTable(p00, p01, p10, completion_candidate(q))
                builds = True
            except DomainError:
                builds = False
            assert feasible == builds, point


class TestCompatibilityValidation:
    def test_unknown_system(self):
        with pytest.raises(UnsupportedSystemError):
            CompatibilityQuery("poisson", (0.1, 0.2, 0.3), "rr")

    def test_rd_target_needs_probability_scale(self):
        with pytest.raises(UnsupportedTargetError):
            CompatibilityQuery("rr_op", (0.0, 0.0, 0.0), "rd")
        with pytest.raises(UnsupportedTargetError):
            CompatibilityQuery("rr_eta", (0.0, 0.0, 0.0), "rd")


class TestProbCompatibility:
    def test_rd_example(self):
        assert not check_compatibility(CompatibilityQuery("prob", (0.27, 0.46, 0.82), "rd"))
        assert check_compatibility(CompatibilityQuery("prob", (0.27, 0.46, 0.80), "rd"))

    @given(probs, probs, probs)
    def test_or_always_compatible(self, p00, p10, p01):
        assert check_compatibility(CompatibilityQuery("prob", (p00, p10, p01), "or"))

    @given(st.sampled_from(("rd", "rr", "or")), probs, probs, probs)
    def test_matches_is_feasible(self, target, p00, p10, p01):
        expected = is_feasible(HomogeneityQuery(target, p00, p10, p01))
        assert check_compatibility(CompatibilityQuery("prob", (p00, p10, p01), target)) == expected

    def test_brute_force_grid_agreement(self):
        # 20^3 grid of triples vs a sign-change scan over p11 midpoints
        grid = (np.arange(20) + 0.5) / 20
        for measure in ("rd", "rr", "or"):
            for p00 in grid[::3]:
                for p10 in grid[::3]:
                    for p01 in grid[::3]:
                        ours = check_compatibility(
                            CompatibilityQuery("prob", (p00, p10, p01), measure)
                        )
                        brute = oracles.brute_completion_bracket(measure, p00, p10, p01)
                        cand = completion_candidate(HomogeneityQuery(measure, p00, p10, p01))
                        if 0.001 < cand < 0.999:
                            # interior-feasible: the scan must bracket it
                            assert ours and brute
                        elif not (0.0 < cand < 1.0):
                            assert not ours


class TestRrOpCompatibility:
    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    )
    def test_both_targets_always_compatible(self, alpha0, gamma0, gamma1):
        point = (alpha0, gamma0, gamma1)
        assert check_compatibility(CompatibilityQuery("rr_op", point, "rr"))
        assert check_compatibility(CompatibilityQuery("rr_op", point, "or"))

    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    )
    def test_rr_verdict_agrees_with_explicit_construction(self, alpha0, gamma0, gamma1):
        t = from_rr_op(RrOpCoords(alpha0, 0.0, gamma0, gamma1))
        rr0, rr1 = relative_risk(t.stratum(0)), relative_risk(t.stratum(1))
        assert math.log(rr1) == pytest.approx(math.log(rr0), abs=1e-9)
        assert check_compatibility(CompatibilityQuery("rr_op", (alpha0, gamma0, gamma1), "rr"))

    def test_or_witness_construction(self, rng):
        from effectgeom import StratumPair, odds_product, solve_stratum_from_rr_op

        # reconstruct the stratum-1 witness implied by the check and verify it
        for _ in range(200):
            alpha0, gamma0, gamma1 = rng.uniform(-2, 2, 3)
            s0 = solve_stratum_from_rr_op(alpha0, gamma0)
            target_or = odds_ratio(s0)
            s_target = gamma0 + gamma1
            lo = (s_target + math.log(target_or)) / 2.0
            hi = (s_target - math.log(target_or)) / 2.0
            p11 = 1 / (1 + math.exp(-lo))
            p10 = 1 / (1 + math.exp(-hi))
            s1 = StratumPair(p10, p11)
            assert math.log(odds_ratio(s1)) == pytest.approx(math.log(target_or), abs=1e-9)
            assert math.log(odds_product(s1)) == pytest.approx(s_target, abs=1e-9)


class TestRrEtaCompatibility:
    def test_solvable_negative_theta_always_rr_compatible(self, rng):
        for _ in range(300):
            point = (rng.uniform(-2, -0.01), rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert check_compatibility(CompatibilityQuery("rr_eta", point, "rr"))
            assert check_compatibility(CompatibilityQuery("rr_eta", point, "or"))

    def test_unsolvable_stratum_blocks_both_targets(self):
        # contrast floor at log RR = 1 is about 2.16; e0 = -1 sits far below
        point = (1.0, -1.0, 0.0)
        assert not check_compatibility(CompatibilityQuery("rr_eta", point, "rr"))
        assert not check_compatibility(CompatibilityQuery("rr_eta", point, "or"))

    def test_or_incompatible_point_with_solvable_stratum0(self):
        # stratum 0 solvable (c0 = e^0.75 = 2.117 above the floor 1.783 at
        # log RR = log 2) but every candidate's log OR exceeds the stratum-1
        # curve's supremum c1 - log 1.5; certified against the grid oracle
        # in test_acceptance.
        point = (math.log(2.0), 0.75, -1.0)
        from effectgeom import solve_stratum_from_rr_eta

        assert len(solve_stratum_from_rr_eta(point[0], math.exp(point[1]))) == 2
        assert not check_compatibility(CompatibilityQuery("rr_eta", point, "or"))

    def test_scalar_matches_batch(self, rng):
        points = np.column_stack(
            [rng.uniform(-1.5, 1.5, 500), rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 500)]
        )
        for target in ("rr", "or"):
            batch = check_compatibility_batch("rr_eta", points, target)
            for i in range(0, 500, 13):
                q = CompatibilityQuery("rr_eta", tuple(points[i]), target)
                assert check_compatibility(q) == batch[i]
