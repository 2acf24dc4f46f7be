import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decimal import Decimal

from effectgeom import (
    DEFAULT_EPS,
    DomainError,
    RiskTable,
    StratumPair,
    eta,
    measure_range,
    odds_product,
    odds_ratio,
    relative_risk,
    risk_difference,
)
from effectgeom.table import expit, logit

from . import oracles
from .conftest import probs, stratum_pairs


class TestConstruction:
    def test_rejects_zero_and_one(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                StratumPair(bad, 0.5)
            with pytest.raises(DomainError):
                RiskTable(0.5, bad, 0.5, 0.5)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                StratumPair(0.5, bad)

    def test_guard_is_configurable(self):
        p = 1e-9
        with pytest.raises(DomainError):
            StratumPair(p, 0.5, eps=1e-6)
        assert StratumPair(p, 0.5).p0 == p  # default guard 1e-12 admits it

    def test_relative_risk_boundary_pair_fails_before_evaluation(self):
        # target RR 3 at baseline 0.46 would need treated risk 1.38
        with pytest.raises(DomainError):
            StratumPair(0.46, 0.46 * 3)


class TestStratumAccess:
    def test_example_table(self):
        t = RiskTable(0.27, 0.81, 0.46, 0.5)
        assert t.stratum(0) == StratumPair(0.27, 0.81)

    def test_constant_table(self):
        t = RiskTable(0.5, 0.5, 0.5, 0.5)
        assert t.stratum(1) == StratumPair(0.5, 0.5)

    def test_bad_index(self):
        with pytest.raises(DomainError):
            RiskTable(0.5, 0.5, 0.5, 0.5).stratum(2)

    @given(st.tuples(probs, probs, probs, probs))
    def test_round_trip_from_strata(self, entries):
        t = RiskTable(*entries)
        assert RiskTable.from_strata(t.stratum(0), t.stratum(1)) == t


class TestMeasures:
    def test_risk_difference(self):
        assert risk_difference(StratumPair(0.5, 0.5)) == 0.0
        assert risk_difference(StratumPair(0.27, 0.81)) == pytest.approx(0.54, abs=1e-15)
        assert risk_difference(StratumPair(0.46, 0.99)) == pytest.approx(0.53, abs=1e-15)

    def test_relative_risk(self):
        assert relative_risk(StratumPair(0.27, 0.81)) == pytest.approx(3.0, rel=1e-15)
        assert relative_risk(StratumPair(0.5, 0.5)) == 1.0

    def test_odds_ratio(self):
        assert odds_ratio(StratumPair(0.5, 0.5)) == 1.0
        assert odds_ratio(StratumPair(1 / 3, 2 / 3)) == pytest.approx(4.0, rel=1e-14)
        # frozen from direct evaluation of p1(1-p0)/(p0(1-p1))
        assert odds_ratio(StratumPair(0.27, 0.81)) == pytest.approx(
            11.526315789473687, rel=1e-14
        )

    def test_odds_product(self):
        assert odds_product(StratumPair(0.5, 0.5)) == 1.0
        assert odds_product(StratumPair(1 / 3, 2 / 3)) == pytest.approx(1.0, rel=1e-14)
        # frozen from direct evaluation of p1 p0/((1-p1)(1-p0))
        assert odds_product(StratumPair(0.27, 0.81)) == pytest.approx(
            1.5767844268204765, rel=1e-14
        )

    def test_eta(self):
        assert eta(StratumPair(0.5, 0.5)) == pytest.approx(math.log(2), rel=1e-15)
        assert eta(StratumPair(2 / 3, 0.5)) == pytest.approx(0.0, abs=1e-14)
        # frozen from direct evaluation of |log[(1-p0)(p1+0.5)/((1-p1)p0)]|
        assert eta(StratumPair(0.27, 0.81)) == pytest.approx(2.925380919178773, rel=1e-14)

    def test_eta_zero_points_exact(self):
        # solved zeros of (1-p0)(p1+0.5) = (1-p1)p0 at dyadic-exact risks:
        # p0 = 0.5/(1.5-r) with r = 0.5 and r = 0.7
        assert eta(StratumPair(0.5, 0.25)) == 0.0
        assert eta(StratumPair(0.625, 0.4375)) == 0.0

    @given(stratum_pairs())
    def test_eta_zero_iff_balance(self, s):
        lhs = (1.0 - s.p0) * (s.p1 + 0.5)
        rhs = (1.0 - s.p1) * s.p0
        if eta(s) == 0.0:
            assert lhs == pytest.approx(rhs, rel=1e-12)
        if lhs == rhs:
            assert eta(s) == 0.0


class TestMeasureRange:
    def test_ranges_at_half(self):
        assert measure_range("rd", 0.5) == (-0.5, 0.5)
        assert measure_range("rr", 0.5) == (0.0, 2.0)
        assert measure_range("or", 0.5) == (0.0, math.inf)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            measure_range("rd", 1.5)
        with pytest.raises(DomainError):
            measure_range("hazard", 0.5)

    @given(probs, probs)
    def test_boundary_witness_pairs_are_valid(self, p0, u):
        # any relative risk inside measure_range(rr, p0) is realizable at p0
        lo, hi = measure_range("rr", p0)
        r = lo + (hi - lo) * (1e-9 + (1 - 2e-9) * u)
        s = StratumPair(p0, r * p0)
        assert lo < relative_risk(s) < hi


class TestInvariants:
    def test_or_op_identity_on_random_pairs(self, rng):
        draws = rng.uniform(1e-4, 1 - 1e-4, size=(5000, 2))
        for p0, p1 in draws:
            s = StratumPair(p0, p1)
            baseline_odds_sq = (p0 / (1.0 - p0)) ** 2
            assert odds_ratio(s) == pytest.approx(
                odds_product(s) / baseline_odds_sq, rel=1e-12
            )
            assert odds_ratio(s) * baseline_odds_sq == pytest.approx(
                odds_product(s), rel=1e-12
            )

    def test_measures_inside_their_ranges_bulk(self, rng):
        # 1e5 random pairs, vectorized against the same formulas
        n = 100_000
        p0 = rng.uniform(1e-4, 1 - 1e-4, n)
        p1 = rng.uniform(1e-4, 1 - 1e-4, n)
        rd = p1 - p0
        rr = p1 / p0
        orr = p1 * (1 - p0) / (p0 * (1 - p1))
        assert np.all((-p0 < rd) & (rd < 1 - p0))
        assert np.all((0 < rr) & (rr < 1 / p0))
        assert np.all(0 < orr)
        # spot-check API agreement on a subsample
        for i in range(0, n, 5000):
            s = StratumPair(p0[i], p1[i])
            assert risk_difference(s) == rd[i]
            assert relative_risk(s) == rr[i]
            assert odds_ratio(s) == orr[i]


class TestLogistic:
    """The package's one logit and expit against 50-digit decimal references."""

    def test_logit_down_to_the_guard_from_both_ends(self):
        tail = np.geomspace(DEFAULT_EPS, 0.5, 300)
        p = np.concatenate([tail, 1.0 - tail])
        got = logit(p)
        for pi, gi in zip(p.tolist(), got.tolist()):
            bound = 2.0**-51 * (abs(math.log(pi)) + abs(math.log1p(-pi)))
            assert abs(Decimal(gi) - oracles.decimal_logit(pi)) <= bound, pi
            assert logit(pi) == gi

    def test_expit_relative_error(self):
        x = np.concatenate([np.linspace(-700.0, 40.0, 1481), [-1e-8, 0.0, 1e-8]])
        got = expit(x)
        for xi, gi in zip(x.tolist(), got.tolist()):
            ref = oracles.decimal_expit(xi)
            assert abs(Decimal(gi) - ref) <= Decimal(2.0**-51) * ref, xi
            assert expit(xi) == gi

    def test_expit_saturates_without_warning(self):
        assert expit(-800.0) == 0.0
        assert expit(800.0) == 1.0
        assert expit(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]
