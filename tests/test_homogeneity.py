import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
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
from effectgeom import coords, homogeneity, volume
from effectgeom.homogeneity import (
    COMPAT_SYSTEMS,
    DECIDED_SHARE,
    INTERIOR_DELTA,
    INTERIOR_E,
    INTERIOR_L,
    INTERIOR_TAU,
    check_compatibility_batch,
    completion_candidate,
)
from effectgeom.table import expit, logit

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

    @pytest.mark.parametrize("target", [["rr"], {"rr": "or"}, None], ids=["list", "dict", "none"])
    @pytest.mark.parametrize("check", [
        lambda target: CompatibilityQuery("rr_op", (0.0, 0.0, 0.0), target),
        lambda target: check_compatibility_batch("rr_op", np.zeros((1, 3)), target),
        lambda target: estimate(PriorSpec("rr_op", n_samples=1, seed=0), target),
        lambda target: volume.exact_probability(PriorSpec("rr_op", n_samples=1, seed=0), target),
    ], ids=["query", "batch", "estimate", "exact_probability"])
    def test_a_target_that_is_not_a_string_is_unsupported(self, check, target):
        # not a TypeError from hashing an unhashable target
        with pytest.raises(UnsupportedTargetError) as exc:
            check(target)
        assert str(exc.value) == (
            f"target {target!r} not supported for system 'rr_op'; supported: ('rr', 'or')"
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

    def test_an_overflowing_odds_product_is_decided_without_a_warning(self):
        # gamma0 + gamma1 overflows to inf outside the interior, and the kernel
        # decides these points; any warning fails the test
        points = np.array([[0.0, 1e308, 1e308], [0.0, -1e308, -1e308], [1.0, 1.0, 1.7e308]])
        for target in ("rr", "or"):
            assert check_compatibility_batch("rr_op", points, target).tolist() == [False] * 3

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


# The margins the homogeneity docstring states: every witness risk of an
# interior point is at least this far from 0 and from 1.  Under rr_eta the
# witness is stratum 0's g = -c root, and the rr_eta/or verdict also clears
# its limit by _RR_ETA_LOG_OR_MARGIN.
_INTERIOR_MARGIN = {"prob": 1.0e-9, "rr_op": 1.1e-7, "rr_eta": 1.3e-7}
_RR_ETA_LOG_OR_MARGIN = 3.3e-4
# every (system, target) whose table entry decides points before the kernel
_GATED = [(s, t) for s, record in COMPAT_SYSTEMS.items() for t, tests in record.decide_first.items()
          if tests]
# boxes that reach the guard, an rr_op and an rr_eta box wholly past it, and
# the four volume_rr_eta workload boxes
_GUARD_BOXES = {
    "prob": [((0.0, 1.0),) * 3],
    "rr_op": [((-40.0, 40.0), (-40.0, 40.0), (-80.0, 80.0)), ((700.0, 800.0), (-2.0, 2.0), (-2.0, 2.0))],
    "rr_eta": [((-40.0, 40.0), (-5.0, 5.0), (-5.0, 5.0)), ((-9.0, 1.0), (-3.0, 4.0), (-40.0, 40.0)),
               ((-800.0, -700.0), (-2.0, 2.0), (-2.0, 2.0)),
               ((-1.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)), ((-1.5, 0.0), (-1.0, 1.0), (-1.0, 1.0)),
               ((0.0, 1.5), (-1.0, 1.0), (-1.0, 1.0)), ((-3.0, 3.0), (-2.0, 2.0), (-1.0, 1.0))],
}


def _kernel(system, target, points):
    """The system's full kernel, run on every point."""
    return COMPAT_SYSTEMS[system].kernel(*np.asfortranarray(points).T, target)


def _decided_by(system, target, verdict):
    """The tests of the (system, target) table entry that decide ``verdict``."""
    return [test for test, v in COMPAT_SYSTEMS[system].decide_first[target] if v is verdict]


def _interior_test(system):
    """The system's one interior test: the True test of each of its gated targets."""
    (test,) = {test for target in COMPAT_SYSTEMS[system].targets
               for test in _decided_by(system, target, True)}
    return test


def _witness_risks(system, target, points):
    """Every risk of the witness table the full kernel builds, one row per point."""
    a, b, c = np.asfortranarray(points).T
    if system == "prob":
        return np.column_stack([a, b, c, homogeneity._completion("or", a, b, c)])
    if system == "rr_eta":
        r = np.exp(a)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # as its callers run it
            _, p0, _ = coords._branch_roots(a, r, np.exp(b), np.ones(len(a), dtype=bool))
        return np.column_stack([p0, r * p0])
    strata = [np.column_stack(pair) for pair in coords.rr_op_risks_vec(a, b, b + c)]
    if target == "rr":
        return np.hstack(strata)
    p0, p1 = strata[0].T
    s, log_or0 = b + c, logit(p1) - logit(p0)
    return np.column_stack([p0, p1, expit((s + log_or0) / 2.0), expit((s - log_or0) / 2.0)])


def _in_interior(system, points):
    return ~_interior_test(system)(*np.asfortranarray(points).T)


def _interior_grid(system):
    """9 values per axis across the interior region, its corners and faces included."""
    if system == "prob":
        return np.array(list(itertools.product(np.linspace(INTERIOR_DELTA, 1.0 - INTERIOR_DELTA, 9),
                                                repeat=3)))
    if system == "rr_eta":
        # e0 has no lower face and e1 no face at all: levels that underflow to
        # 0 and overflow to inf stand in for them
        return np.array(list(itertools.product(
            np.linspace(-INTERIOR_L, -INTERIOR_TAU, 9),
            [-800.0, -40.0, -8.0, -2.0, -1.0, 0.0, 1.0, 1.5, INTERIOR_E],
            [-1000.0, -40.0, -8.0, -1.0, 0.0, 1.0, 8.0, 40.0, 1000.0])))
    # alpha0, gamma0 and gamma0 + gamma1 on the grid, whose step of L/4 keeps every sum exact
    a, g0, s = np.array(list(itertools.product(np.linspace(-INTERIOR_L, INTERIOR_L, 9), repeat=3))).T
    return np.column_stack([a, g0, s - g0])


def _kernel_is_true_with_margin(system, target, points):
    points = np.asfortranarray(points)
    assert _in_interior(system, points).all()
    assert _kernel(system, target, points).all()
    risks = _witness_risks(system, target, points)
    margin = _INTERIOR_MARGIN[system]
    assert risks.min() >= margin and risks.max() <= 1.0 - margin
    if (system, target) == ("rr_eta", "or"):
        alpha0, e0, e1 = points.T
        with np.errstate(over="ignore"):
            limit = np.exp(e0 + e1) - coords.LOG_1P5
        gap = limit - coords.eta_min_log_odds_ratio_vec(alpha0, np.exp(e0))
        assert gap.min() >= _RR_ETA_LOG_OR_MARGIN


def _outside_points(system, n, rng):
    """n points outside the interior, the first compatible, some of the rest not."""
    if system == "prob":
        edges = [(5e-4, 0.5, 0.5), (0.0, 0.5, 0.5), (1e-13, 0.5, 0.5), (1.0 - 1e-9, 1e-6, 1e-6)]
        drawn = rng.random((n, 3))
        drawn[:, 0] *= INTERIOR_DELTA
        return np.vstack([edges, drawn])[:n]
    if system == "rr_op":
        edges = [(INTERIOR_L * 1.001, 0.0, 0.0), (30.0, 0.0, 0.0), (700.0, 0.0, 0.0)]
    else:
        edges = [(-INTERIOR_L * 1.001, 0.0, 0.0), (1.0, -1.0, 0.0), (-INTERIOR_TAU / 2, 30.0, 0.0)]
    lows, highs = np.array(_GUARD_BOXES[system][0]).T
    drawn = np.asfortranarray(lows + rng.random((2 * n, 3)) * (highs - lows))
    drawn = drawn[~_in_interior(system, drawn)]
    return np.vstack([edges, drawn])[:n]


class TestInteriorRule:
    """The interior tests decide only points the full kernel calls compatible."""

    @pytest.mark.parametrize("system, target", _GATED)
    def test_kernel_is_true_with_margin_on_the_interior_grid(self, system, target):
        _kernel_is_true_with_margin(system, target, _interior_grid(system))

    @given(st.floats(INTERIOR_DELTA, 1.0 - INTERIOR_DELTA), st.floats(INTERIOR_DELTA, 1.0 - INTERIOR_DELTA),
           st.floats(INTERIOR_DELTA, 1.0 - INTERIOR_DELTA))
    def test_prob_or_kernel_is_true_with_margin_inside(self, p00, p10, p01):
        _kernel_is_true_with_margin("prob", "or", np.array([[p00, p10, p01]]))

    @given(st.floats(-INTERIOR_L, INTERIOR_L), st.floats(-INTERIOR_L, INTERIOR_L),
           st.floats(-INTERIOR_L, INTERIOR_L), st.sampled_from(["rr", "or"]))
    def test_rr_op_kernel_is_true_with_margin_inside(self, alpha0, gamma0, s, target):
        gamma1 = s - gamma0
        assume(abs(gamma0 + gamma1) <= INTERIOR_L)
        _kernel_is_true_with_margin("rr_op", target, np.array([[alpha0, gamma0, gamma1]]))

    @given(st.floats(-INTERIOR_L, -INTERIOR_TAU), st.floats(-1e3, INTERIOR_E), st.floats(-1e3, 1e3),
           st.sampled_from(["rr", "or"]))
    def test_rr_eta_kernel_is_true_with_margin_inside(self, alpha0, e0, e1, target):
        _kernel_is_true_with_margin("rr_eta", target, np.array([[alpha0, e0, e1]]))

    @pytest.mark.parametrize("n", [1, volume.BLOCK_ROWS - 1, volume.BLOCK_ROWS, volume.BLOCK_ROWS + 1])
    @pytest.mark.parametrize("system, target", _GATED)
    def test_batch_equals_kernel_on_guard_reaching_boxes(self, system, target, n):
        for i, box in enumerate(_GUARD_BOXES[system]):
            lows, highs = np.array(box).T
            points = lows + np.random.default_rng(i).random((n, 3)) * (highs - lows)
            expected = _kernel(system, target, points)
            for layout in (np.ascontiguousarray(points), np.asfortranarray(points)):
                assert np.array_equal(check_compatibility_batch(system, layout, target), expected), box

    @pytest.mark.parametrize("system, target", _GATED)
    def test_batch_equals_kernel_at_every_share_outside(self, system, target):
        rng = np.random.default_rng(24)
        n = 256
        outside = _outside_points(system, n, rng)
        verdicts = _kernel(system, target, outside)
        assert verdicts[0] and not verdicts.all()
        inside = _interior_grid(system)[rng.permutation(9 ** 3)[:n]]
        edge = int((1.0 - DECIDED_SHARE) * n)  # the most points outside that are gathered
        for k in (0, 1, edge - 1, edge, edge + 1, n):
            points = np.asfortranarray(np.vstack([outside[:k], inside[:n - k]])[rng.permutation(n)])
            assert np.count_nonzero(_in_interior(system, points)) == n - k
            expected = _kernel(system, target, points)
            for layout in (np.ascontiguousarray(points), np.asfortranarray(points)):
                assert np.array_equal(check_compatibility_batch(system, layout, target), expected), k

    def test_every_table_test_is_checked_here(self):
        # a True test must be its system's interior, whose margins the tests
        # above check; the one False test, the rr_eta/or floor test, is checked
        # by the equality test below
        for system, record in COMPAT_SYSTEMS.items():
            for target, tests in record.decide_first.items():
                for test, verdict in tests:
                    if verdict:
                        assert system in _INTERIOR_MARGIN, (system, target)
                        assert test is _interior_test(system), (system, target)
                    else:
                        assert (system, target) == ("rr_eta", "or"), (system, target)
        assert len(_decided_by("rr_eta", "or", False)) == 1

    def test_rr_eta_or_floor_test_equals_the_solve_at_every_share_below_the_floor(self):
        # alpha0 >= 0 throughout, so only the floor test decides; log levels
        # a few ulps either side of the floor's, and far from it
        rng = np.random.default_rng(25)
        n = 1024
        alpha0 = rng.uniform(0.0, 3.0, n)
        alpha0[:8] = 0.0
        e0 = np.log(coords._eta_floor(alpha0)) + rng.integers(-4, 5, n) * np.spacing(np.log(1.5))
        e0[::3] += rng.uniform(-2.0, 2.0, len(e0[::3]))
        pool = np.column_stack([alpha0, e0, rng.uniform(-1.0, 1.0, n)])
        (floor_test,) = _decided_by("rr_eta", "or", False)
        below = ~floor_test(*pool.T)
        below, above = pool[below], pool[~below]
        n = 256
        assert len(below) >= n and len(above) >= n
        edge = int((1.0 - DECIDED_SHARE) * n)  # the most undecided points that are gathered
        for k in (0, 1, n - edge - 1, n - edge, n - edge + 1, n):
            points = np.asfortranarray(np.vstack([below[:k], above[:n - k]])[rng.permutation(n)])
            expected = _kernel("rr_eta", "or", points)
            for layout in (np.ascontiguousarray(points), np.asfortranarray(points)):
                assert np.array_equal(check_compatibility_batch("rr_eta", layout, "or"), expected), k


class TestRrEtaCompatibility:
    def test_the_or_predicate_calls_the_traced_coords_routines(self, monkeypatch):
        # perfbench/tracing.py times these two by replacing the homogeneity
        # attributes, so the predicate must look both up when it runs
        calls = {"eta_attainable_vec": 0, "eta_min_log_odds_ratio_vec": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(homogeneity, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(homogeneity, name, counted)
        lows, highs = np.array(DEFAULT_BOUNDS["rr_eta"]).T
        points = lows + np.random.default_rng(26).random((volume.BLOCK_ROWS, 3)) * (highs - lows)
        verdicts = check_compatibility_batch("rr_eta", points, "or")
        assert calls["eta_attainable_vec"] >= 1 and calls["eta_min_log_odds_ratio_vec"] >= 1
        monkeypatch.undo()
        assert np.array_equal(verdicts, check_compatibility_batch("rr_eta", points, "or"))

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
