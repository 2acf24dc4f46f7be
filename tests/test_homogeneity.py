import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from effectgeom import (
    DEFAULT_BOUNDS,
    DEFAULT_EPS,
    CompatibilityQuery,
    DomainError,
    HomogeneityQuery,
    PriorSpec,
    RiskTable,
    UnsupportedSystemError,
    UnsupportedTargetError,
    check_compatibility,
    complete_table,
    estimate,
    from_rr_op,
    is_feasible,
    odds_ratio,
    relative_risk,
    risk_difference,
    RrOpCoords,
)
from effectgeom import coords
from effectgeom.homogeneity import (
    COMPAT_SYSTEMS,
    check_compatibility_batch,
    completion_candidate,
)

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
    @pytest.mark.parametrize("check", [
        lambda: CompatibilityQuery("rr_op", (0.0, 0.0, 0.0), "rd"),
        lambda: check_compatibility_batch("rr_op", np.zeros((1, 3)), "rd"),
        lambda: estimate(PriorSpec("rr_op", n_samples=1, seed=0), "rd"),
    ], ids=["query", "batch", "estimate"])
    def test_one_message_for_an_unsupported_target(self, check):
        with pytest.raises(UnsupportedTargetError) as exc:
            check()
        assert str(exc.value) == (
            "target 'rd' not supported for system 'rr_op'; supported: ('rr', 'or')"
        )

    @pytest.mark.parametrize("points", [
        [["0.5", 0.5, 0.5]], [[None, 0.5, 0.5]], [[0.5j, 0.5, 0.5]],
    ], ids=["string", "none", "complex"])
    def test_batch_rejects_non_real_points(self, points):
        with pytest.raises(DomainError, match="points must be real numbers"):
            check_compatibility_batch("prob", points, "rd")

    def test_batch_takes_any_real_number_type(self):
        exact = [[Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), 0.5, True]]
        assert check_compatibility_batch("prob", exact, "rr").tolist() == [True, False]

    def test_unknown_system(self):
        with pytest.raises(UnsupportedSystemError):
            CompatibilityQuery("poisson", (0.1, 0.2, 0.3), "rr")

    def test_rd_target_needs_probability_scale(self):
        with pytest.raises(UnsupportedTargetError):
            CompatibilityQuery("rr_op", (0.0, 0.0, 0.0), "rd")
        with pytest.raises(UnsupportedTargetError):
            CompatibilityQuery("rr_eta", (0.0, 0.0, 0.0), "rd")


class TestMemoryLayout:
    """The batch verdicts do not depend on how the points are laid out in memory."""

    @pytest.mark.parametrize(
        "system, target", [(s, t) for s, record in COMPAT_SYSTEMS.items() for t in record.targets]
    )
    def test_same_verdicts_in_every_layout(self, system, target, rng):
        # the guard edges as coordinates, and as baseline risks on the log scales
        edges = (0.0, DEFAULT_EPS, 0.3, 1.0 - DEFAULT_EPS, 1.0)
        if system != "prob":
            edges += (math.log(DEFAULT_EPS), -1.0, -math.log(DEFAULT_EPS))
        lows, highs = np.array(DEFAULT_BOUNDS[system]).T
        points = np.vstack([
            list(itertools.product(edges, repeat=3)),
            lows + rng.random((300, 3)) * (highs - lows),
        ])
        wide = np.zeros((2 * len(points), 3))
        wide[::2] = points
        layouts = {"C": points, "F": np.asfortranarray(points), "every-other-row": wide[::2]}
        assert points.flags.c_contiguous and not layouts["F"].flags.c_contiguous
        assert not (wide[::2].flags.c_contiguous or wide[::2].flags.f_contiguous)
        scalar = [check_compatibility(CompatibilityQuery(system, tuple(p), target)) for p in points]
        assert any(scalar) and not all(scalar)
        for name, layout in layouts.items():
            assert check_compatibility_batch(system, layout, target).tolist() == scalar, name


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

    def test_rr_verdict_is_both_levels_attainable(self):
        # the rr kernel tests only the lower of the two levels, since
        # attainability rises with the level; the verdict must equal testing
        # each stratum's level, also at theta = 0 and with a level at the floor
        boxes = [
            ((-1.5, 1.5), (-1, 1), (-1, 1)),
            ((-1.5, 0), (-1, 1), (-1, 1)),
            ((0, 1.5), (-1, 1), (-1, 1)),
            ((-3, 3), (-2, 2), (-1, 1)),
            ((-40, 40), (-5, 5), (-5, 5)),
        ]
        parts = []
        for seed, box in enumerate(boxes):
            lows, highs = np.array(box, dtype=float).T
            parts.append(lows + np.random.default_rng(seed).random((65536, 3)) * (highs - lows))
        points = np.concatenate(parts)
        at_zero = points * [0, 1, 1]
        variants = [points, at_zero]
        for base in (np.abs(points), at_zero):
            log_floor = np.log(coords._eta_floor(base[:, 0]))
            c0_at_floor = np.column_stack([base[:, 0], log_floor, base[:, 2]])
            c1_at_floor = np.column_stack([base[:, 0], base[:, 1], log_floor - base[:, 1]])
            variants += [c0_at_floor, c1_at_floor]
        pts = np.concatenate(variants)
        alpha0, e0, e1 = pts.T
        attainable = coords.eta_attainable_vec
        both = attainable(alpha0, np.exp(e0)) & attainable(alpha0, np.exp(e0 + e1))
        assert both.any() and not both.all()
        assert np.array_equal(check_compatibility_batch("rr_eta", pts, "rr"), both)

    def test_scalar_matches_batch(self, rng):
        points = np.column_stack(
            [rng.uniform(-1.5, 1.5, 500), rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 500)]
        )
        for target in ("rr", "or"):
            batch = check_compatibility_batch("rr_eta", points, target)
            for i in range(0, 500, 13):
                q = CompatibilityQuery("rr_eta", tuple(points[i]), target)
                assert check_compatibility(q) == batch[i]
