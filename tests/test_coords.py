import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectgeom import (
    DomainError,
    LogisticCoords,
    OutOfDomainError,
    PoissonCoords,
    RiskTable,
    RrEtaCoords,
    RrOpCoords,
    eta,
    eta_attainable,
    eta_infimum,
    from_logistic,
    from_poisson,
    from_rr_eta,
    from_rr_op,
    odds_product,
    odds_ratio,
    relative_risk,
    solve_stratum_from_rr_eta,
    solve_stratum_from_rr_op,
    to_logistic,
    to_poisson,
    to_rr_eta,
    to_rr_op,
)
from effectgeom.coords import eta_attainable_vec, eta_min_log_odds_ratio_vec

from . import oracles
from .conftest import random_tables, risk_tables

coefs = st.floats(min_value=-8, max_value=8, allow_nan=False)

# Range for round-trip assertions in coordinate space: the inverse map's
# conditioning grows like e^(|theta|+|phi|), so beyond ~+-6 a half-ulp of the
# (optimally computed) risk already moves the log odds product by > 1e-10.
coefs_rt = st.floats(min_value=-6, max_value=6, allow_nan=False)


class TestPoisson:
    def test_forward_example(self):
        t = RiskTable(0.27, 0.81, 0.46, 0.99)
        c = to_poisson(t)
        assert c.alpha0 == pytest.approx(math.log(3.0), rel=1e-12)
        # frozen from log(0.99/0.46) - log 3
        assert c.alpha1 == pytest.approx(-0.33213383502261495, rel=1e-12)
        assert c.beta0 == pytest.approx(math.log(0.27), rel=1e-12)
        assert c.beta1 == pytest.approx(math.log(0.46 / 0.27), rel=1e-12)

    def test_constant_table(self):
        c = to_poisson(RiskTable(0.5, 0.5, 0.5, 0.5))
        assert (c.beta1, c.alpha0, c.alpha1) == (0.0, 0.0, 0.0)
        assert c.beta0 == pytest.approx(math.log(0.5), rel=1e-15)

    def test_equal_rr_gives_zero_interaction(self):
        t = RiskTable(0.2, 0.5, 0.3, 0.75)
        assert to_poisson(t).alpha1 == pytest.approx(0.0, abs=1e-14)

    def test_out_of_domain_witness(self):
        c = PoissonCoords(math.log(0.27), math.log(0.46 / 0.27), math.log(3.0), 0.0)
        with pytest.raises(OutOfDomainError) as exc:
            from_poisson(c)
        assert exc.value.component == "p11"
        assert exc.value.value == pytest.approx(1.38, rel=1e-12)

    def test_overflowing_risk_is_out_of_domain(self):
        # exp(800) overflows to inf, with no RuntimeWarning, and names the cell
        with pytest.raises(OutOfDomainError) as exc:
            from_poisson(PoissonCoords(-1.0, 801.0, 0.0, 0.0))
        assert exc.value.component == "p10"
        assert exc.value.value == math.inf

    def test_inverse_constant(self):
        t = from_poisson(PoissonCoords(math.log(0.5), 0.0, 0.0, 0.0))
        assert t == RiskTable(0.5, 0.5, 0.5, 0.5)

    @given(risk_tables())
    def test_round_trip_property(self, t):
        back = from_poisson(to_poisson(t))
        for f in ("p00", "p01", "p10", "p11"):
            assert getattr(back, f) == pytest.approx(getattr(t, f), abs=1e-12)

    @given(risk_tables())
    def test_coordinate_round_trip_on_in_domain_points(self, t):
        c = to_poisson(t)  # in-domain by construction
        c2 = to_poisson(from_poisson(c))
        for f in ("beta0", "beta1", "alpha0", "alpha1"):
            assert getattr(c2, f) == pytest.approx(getattr(c, f), abs=1e-10)


class TestRrOp:
    def test_degenerate_unit_odds_product(self):
        s = solve_stratum_from_rr_op(0.0, 0.0)
        assert (s.p0, s.p1) == (0.5, 0.5)
        s = solve_stratum_from_rr_op(math.log(2.0), 0.0)
        assert (s.p0, s.p1) == pytest.approx((1 / 3, 2 / 3), rel=1e-14)

    @given(coefs_rt, coefs_rt)
    def test_solver_round_trip(self, theta, phi):
        s = solve_stratum_from_rr_op(theta, phi)
        assert math.log(relative_risk(s)) == pytest.approx(theta, abs=1e-10)
        assert math.log(odds_product(s)) == pytest.approx(phi, abs=1e-10)

    def test_variation_independence_grid(self):
        # solve everywhere on [-5, 5]^2; zero failures, unique interior root
        grid = np.linspace(-5.0, 5.0, 100)
        for theta in grid:
            r = math.exp(theta)
            sup = min(1.0, 1.0 / r)
            for phi in grid:
                s = solve_stratum_from_rr_op(theta, phi)
                assert 0.0 < s.p0 < sup
                # the quadratic's other root falls outside the open interval
                w = math.exp(phi)
                a = r * (1.0 - w)
                if a != 0.0:
                    other = -w / (a * s.p0)  # product of roots = -w/a
                    assert not (0.0 < other < sup)

    def test_from_rr_op_zero_coords(self):
        assert from_rr_op(RrOpCoords(0, 0, 0, 0)) == RiskTable(0.5, 0.5, 0.5, 0.5)

    @given(coefs, coefs, coefs)
    def test_zero_interaction_gives_equal_rr(self, alpha0, gamma0, gamma1):
        t = from_rr_op(RrOpCoords(alpha0, 0.0, gamma0, gamma1))
        rr0 = relative_risk(t.stratum(0))
        rr1 = relative_risk(t.stratum(1))
        assert math.log(rr1) == pytest.approx(math.log(rr0), abs=1e-9)

    @given(risk_tables())
    def test_round_trip_property(self, t):
        back = from_rr_op(to_rr_op(t))
        for f in ("p00", "p01", "p10", "p11"):
            assert getattr(back, f) == pytest.approx(getattr(t, f), abs=1e-10)

    @given(risk_tables())
    def test_coordinate_round_trip(self, t):
        c = to_rr_op(t)
        c2 = to_rr_op(from_rr_op(c))
        for f in ("alpha0", "alpha1", "gamma0", "gamma1"):
            assert getattr(c2, f) == pytest.approx(getattr(c, f), abs=1e-10)


class TestLogistic:
    def test_constant_table_is_origin(self):
        c = to_logistic(RiskTable(0.5, 0.5, 0.5, 0.5))
        assert (c.b0, c.b1, c.a0, c.a1) == (0.0, 0.0, 0.0, 0.0)

    @given(coefs)
    def test_pure_interaction(self, a1):
        t = from_logistic(LogisticCoords(0.0, 0.0, 0.0, a1))
        assert odds_ratio(t.stratum(0)) == pytest.approx(1.0, rel=1e-12)
        assert math.log(odds_ratio(t.stratum(1))) == pytest.approx(a1, abs=1e-9)

    @given(risk_tables())
    def test_round_trip_property(self, t):
        back = from_logistic(to_logistic(t))
        for f in ("p00", "p01", "p10", "p11"):
            assert getattr(back, f) == pytest.approx(getattr(t, f), abs=1e-12)

    @given(risk_tables())
    def test_coordinate_round_trip_on_in_domain_points(self, t):
        # coordinates of representable tables: cell logits stay moderate, so
        # the probability representation does not erode the 1e-10 target
        c = to_logistic(t)
        c2 = to_logistic(from_logistic(c))
        for f in ("b0", "b1", "a0", "a1"):
            assert getattr(c2, f) == pytest.approx(getattr(c, f), abs=1e-10)


class TestEtaInfimum:
    def test_negative_theta_attains_everything(self):
        assert eta_infimum(-0.5) == 0.0
        assert eta_attainable(-0.5, 1e-6)
        assert eta_attainable(-0.5, 50.0)

    def test_zero_theta_floor(self):
        assert eta_infimum(0.0) == pytest.approx(math.log(1.5), rel=1e-15)
        assert not eta_attainable(0.0, math.log(1.5))  # infimum, open
        assert eta_attainable(0.0, math.log(1.5) + 1e-9)

    @pytest.mark.parametrize("theta", [0.01, 0.3, math.log(2.0), 1.0, 2.0])
    def test_positive_theta_matches_grid_oracle(self, theta):
        m = eta_infimum(theta)
        oracle = oracles.grid_eta_min(theta)
        assert m == pytest.approx(oracle, abs=2e-6)
        assert m > math.log(1.5)
        assert eta_attainable(theta, m)  # attained at the interior minimum
        assert not eta_attainable(theta, m - 1e-9)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 1.5])
    def test_closed_form_floor_oracle(self, theta):
        # the grid minimum bounds the floor from above; g is quadratic at its
        # minimum and the grid step is under 2.5e-6, so the excess is O(1e-11)
        floor = float(oracles.eta_floor(theta))
        assert -1e-12 <= oracles.grid_eta_min(theta) - floor <= 1e-10
        assert floor == pytest.approx(eta_infimum(theta), abs=1e-12)

    @pytest.mark.parametrize("theta", [1e-8, 1e-12, 1e-15])
    def test_floor_near_theta_zero(self, theta):
        # r - 1 enters the floor as expm1(theta), so it keeps full precision
        # as theta -> 0, and both attainability checks flip exactly at it
        floor = eta_infimum(theta)
        assert floor == pytest.approx(float(oracles.eta_floor(theta)), rel=1e-15, abs=0.0)
        below = math.nextafter(floor, 0.0)
        assert eta_attainable(theta, floor)
        assert not eta_attainable(theta, below)
        vec = eta_attainable_vec(np.array([theta, theta]), np.array([floor, below]))
        assert vec.tolist() == [True, False]

    @pytest.mark.parametrize("theta", [1e-15, 1e-8, 0.3, 1.0, 2.5])
    def test_solvers_find_roots_exactly_from_the_floor(self, theta):
        floor = eta_infimum(theta)
        below = math.nextafter(floor, 0.0)
        # at the floor the two roots merge; to within rounding they may stay two
        assert 1 <= len(solve_stratum_from_rr_eta(theta, floor)) <= 2
        assert len(solve_stratum_from_rr_eta(theta, below)) == 0
        mins = eta_min_log_odds_ratio_vec(np.full(2, theta), np.array([floor, below]))
        assert math.isfinite(mins[0]) and mins[1] == math.inf

    def test_contrast_range_structure_on_theta_grid(self):
        # sweep [-3, 3]: the attainable contrast is unbounded above for all
        # theta, reaches below 1e-3 only while theta < 0, and for theta >= 0
        # is floored at a positive minimum (the failed symmetry this package
        # exists to expose).
        for theta in np.linspace(-3.0, 3.0, 25):
            r = math.exp(theta)
            B = min(1.0, 1.0 / r)
            u = np.geomspace(1e-10, 0.5, 20_001)
            p0 = B * np.concatenate([u, 1.0 - u[::-1]])
            vals = np.abs([oracles.contrast(x, r) for x in p0])
            assert vals.max() > 10.0
            if theta < 0.0:
                assert vals.min() < 1e-3
            else:
                assert vals.min() >= math.log(1.5) - 1e-9


class TestEtaSolver:
    def test_rejects_nonpositive_level(self):
        with pytest.raises(DomainError):
            solve_stratum_from_rr_eta(math.log(3 / 4), 0.0)
        with pytest.raises(DomainError):
            solve_stratum_from_rr_eta(0.0, -1.0)
        for check in (solve_stratum_from_rr_eta, eta_attainable):
            with pytest.raises(DomainError):
                check(0.5, "2")

    # an int past the float range exceeds every float, so it answers as inf:
    # attainable, with no pair inside the guard
    @pytest.mark.parametrize("level, as_float", [
        (np.float32(2.0), 2.0), (np.int64(2), 2.0), (10**400, math.inf),
    ], ids=["level0", "level1", "level2"])
    def test_numpy_levels_answer_as_floats(self, level, as_float):
        for theta in (-0.5, 0.5, math.log(2.0)):
            assert solve_stratum_from_rr_eta(theta, level) == solve_stratum_from_rr_eta(theta, as_float)
            assert eta_attainable(theta, level) == eta_attainable(theta, as_float)
        if as_float == math.inf:
            assert eta_attainable(0.5, level) and solve_stratum_from_rr_eta(0.5, level) == ()

    def test_symmetric_point(self):
        sols = solve_stratum_from_rr_eta(0.0, math.log(2.0))
        assert any(
            s.p0 == pytest.approx(0.5, abs=1e-10) and s.p1 == pytest.approx(0.5, abs=1e-10)
            for s in sols
        )

    def test_unattainable_level_gives_empty_set(self):
        theta = math.log(2.0)
        sols = solve_stratum_from_rr_eta(theta, eta_infimum(theta) - 0.05)
        assert len(sols) == 0

    def test_solutions_sorted_and_distinct(self, rng):
        for _ in range(200):
            theta = rng.uniform(-2, 2)
            c = rng.uniform(0.05, 5.0)
            sols = list(solve_stratum_from_rr_eta(theta, c))
            p0s = [s.p0 for s in sols]
            assert p0s == sorted(p0s)
            assert all(b - a > 1e-9 for a, b in zip(p0s, p0s[1:]))

    def test_matches_grid_oracle_roots(self, rng):
        for _ in range(150):
            theta = rng.uniform(-2.5, 2.5)
            c = rng.uniform(0.05, 4.0)
            ours = [s.p0 for s in solve_stratum_from_rr_eta(theta, c)]
            theirs = oracles.grid_eta_solutions(theta, c)
            assert len(ours) == len(theirs)
            for a, b in zip(ours, theirs):
                assert a == pytest.approx(b, abs=1e-8)

    def test_inversion_consistency_bulk(self, rng):
        # solving (log RR, eta) recovers the generating pair
        for t in random_tables(rng, 2000, low=1e-3, high=1 - 1e-3):
            s = t.stratum(0)
            level = eta(s)
            theta = math.log(relative_risk(s))
            sols = solve_stratum_from_rr_eta(theta, level)
            assert any(abs(x.p0 - s.p0) < 1e-8 for x in sols), (s, level, list(sols))


class TestRrEtaSystem:
    def test_round_trip_contains_original(self, rng):
        for t in random_tables(rng, 300, low=1e-3, high=1 - 1e-3):
            tables = from_rr_eta(to_rr_eta(t))
            assert any(
                all(
                    abs(getattr(u, f) - getattr(t, f)) < 1e-8
                    for f in ("p00", "p01", "p10", "p11")
                )
                for u in tables
            )

    def test_zero_interaction_tables_have_equal_rr(self):
        c = RrEtaCoords(alpha0=-0.4, alpha1=0.0, e0=0.3, e1=-0.2)
        tables = from_rr_eta(c)
        assert tables
        for t in tables:
            rr0 = relative_risk(t.stratum(0))
            rr1 = relative_risk(t.stratum(1))
            assert math.log(rr1) == pytest.approx(math.log(rr0), abs=1e-9)

    def test_unattainable_stratum_gives_empty_list(self):
        # stratum 1 needs contrast exp(e0 + e1) below the floor at theta = log 2
        theta = math.log(2.0)
        floor = eta_infimum(theta)
        e0 = math.log(floor + 0.5)
        e1 = math.log(floor - 0.05) - e0
        assert from_rr_eta(RrEtaCoords(theta, 0.0, e0, e1)) == []

    @pytest.mark.parametrize("e0, e1", [(800.0, 0.0), (0.1, 800.0), (-800.0, 0.0)])
    def test_contrast_level_past_float_range_gives_empty_list(self, e0, e1):
        # exp overflows to inf or underflows to 0 with no RuntimeWarning
        assert from_rr_eta(RrEtaCoords(-0.5, 0.0, e0, e1)) == []

    def test_forward_rejects_zero_contrast(self):
        from effectgeom import StratumPair

        # (0.5, 0.25) lies on the contrast's zero set
        t = RiskTable.from_strata(StratumPair(0.5, 0.25), StratumPair(0.3, 0.4))
        with pytest.raises(OutOfDomainError):
            to_rr_eta(t)


class TestVectorKernels:
    def test_attainable_vec_matches_scalar(self, rng):
        theta = rng.uniform(-2, 2, 3000)
        c = rng.uniform(0.02, 5.0, 3000)
        vec = eta_attainable_vec(theta, c)
        for i in range(0, 3000, 37):
            assert vec[i] == eta_attainable(theta[i], c[i])

    def test_min_log_or_matches_full_enumeration(self, rng):
        # the kernel computes min log OR over the exact solution set
        theta = rng.uniform(-2, 2, 400)
        c = rng.uniform(0.05, 4.0, 400)
        vec = eta_min_log_odds_ratio_vec(theta, c)
        for i in range(400):
            sols = list(solve_stratum_from_rr_eta(theta[i], c[i]))
            if not sols:
                assert vec[i] == math.inf
                continue
            best = min(
                math.log(s.p1 / (1 - s.p1)) - math.log(s.p0 / (1 - s.p0)) for s in sols
            )
            assert vec[i] == pytest.approx(best, abs=1e-9)


@pytest.fixture(scope="module")
def decimal_cases():
    """(theta, c, 50-digit guarded stratum pairs) over theta in [-3, 3], c in [0.05, 30]."""
    rng = np.random.default_rng(20261017)
    theta = rng.uniform(-3.0, 3.0, 100)
    c = np.concatenate([
        rng.uniform(0.05, 30.0, 50),
        np.exp(rng.uniform(math.log(0.05), math.log(30.0), 50)),
    ])
    # theta -> 0- with large c, where the -c root nears 1
    theta = np.concatenate([theta, -np.logspace(-1.0, -9.0, 20)])
    c = np.concatenate([c, rng.uniform(10.0, 30.0, 20)])
    return [(t, level, oracles.decimal_eta_pairs(t, level)) for t, level in zip(theta, c)]


class TestDecimalOracle:
    def test_solver_matches_decimal_roots(self, decimal_cases):
        for theta, c, pairs in decimal_cases:
            ours = [s.p0 for s in solve_stratum_from_rr_eta(theta, c)]
            theirs = [float(p0) for p0, _ in pairs]
            assert len(ours) == len(theirs), (theta, c)
            assert ours == pytest.approx(theirs, rel=1e-13, abs=0.0), (theta, c)

    def test_min_log_or_matches_decimal_log_or(self, decimal_cases):
        theta = np.array([t for t, _, _ in decimal_cases])
        c = np.array([level for _, level, _ in decimal_cases])
        vec = eta_min_log_odds_ratio_vec(theta, c)
        for got, (t, level, pairs) in zip(vec, decimal_cases):
            if not pairs:
                assert got == math.inf, (t, level)
                continue
            best = min(oracles.decimal_log_odds_ratio(p0, p1) for p0, p1 in pairs)
            assert got == pytest.approx(best, abs=1e-13), (t, level)
