import math

import pytest

from effectgeom import (
    CellCounts,
    DegenerateCountsError,
    DomainError,
    RiskTable,
    SCALES,
    StudyDesign,
    simulate_dataset,
    simulate_power,
    wald_interaction,
    wald_interaction_pvalue,
)

from . import oracles


def balanced_counts(e, n):
    return CellCounts(e, e, e, e, n, n, n, n)


class TestTypes:
    def test_design_validation(self):
        with pytest.raises(DomainError):
            StudyDesign(0, 10, 10, 10)
        with pytest.raises(DomainError):
            StudyDesign(10, 10, 10, 10.5)
        assert StudyDesign(100, 200, 300, 400).pattern() == "100/200/300/400"

    def test_counts_validation(self):
        with pytest.raises(DomainError):
            CellCounts(11, 5, 5, 5, 10, 10, 10, 10)
        with pytest.raises(DomainError):
            CellCounts(-1, 5, 5, 5, 10, 10, 10, 10)
        c = CellCounts(3, 4, 5, 6, 10, 10, 10, 10)
        assert c.events() == (3, 4, 5, 6)
        assert c.totals() == (10, 10, 10, 10)


class TestWaldStatistic:
    def test_perfectly_balanced_is_null_on_every_scale(self):
        counts = balanced_counts(50, 100)
        for scale in SCALES:
            est, se = wald_interaction(counts, scale)
            assert est == 0.0
            assert se > 0.0
            assert wald_interaction_pvalue(counts, scale) == 1.0

    def test_identity_contrast_cancels(self):
        # proportions (.2, .4; .3, .5): (p11-p10)-(p01-p00) = .2 - .2 = 0
        counts = CellCounts(20, 40, 30, 50, 100, 100, 100, 100)
        est, _ = wald_interaction(counts, "identity")
        assert est == pytest.approx(0.0, abs=1e-15)

    def test_unknown_scale(self):
        with pytest.raises(DomainError):
            wald_interaction(balanced_counts(5, 10), "probit")

    def test_identity_degenerate_when_all_cells_at_boundary(self):
        counts = CellCounts(0, 10, 0, 10, 10, 10, 10, 10)
        with pytest.raises(DegenerateCountsError):
            wald_interaction(counts, "identity")
        # continuity correction keeps the log/logit tests defined
        for scale in ("log", "logit"):
            assert 0.0 <= wald_interaction_pvalue(counts, scale) <= 1.0

    def test_matches_straight_line_oracle_on_random_counts(self, rng):
        for _ in range(300):
            n = int(rng.integers(5, 400))
            events = rng.integers(0, n + 1, size=4)
            counts = CellCounts(*map(int, events), n, n, n, n)
            for scale in SCALES:
                expected = oracles.straight_line_wald(tuple(events), (n,) * 4, scale)
                if scale == "identity" and all(e in (0, n) for e in events):
                    with pytest.raises(DegenerateCountsError):
                        wald_interaction(counts, scale)
                    continue
                assert wald_interaction_pvalue(counts, scale) == pytest.approx(
                    expected, rel=1e-12
                )


class TestFrozenFixture:
    """Seed-0 dataset from the constant-0.3 table, n = 200 per cell.

    Event counts and all three p-values were computed by a straight-line
    script before the simulator was written and are frozen here.
    """

    def test_dataset(self):
        ds = simulate_dataset(
            RiskTable(0.3, 0.3, 0.3, 0.3), StudyDesign(200, 200, 200, 200), seed=0
        )
        assert ds.events() == (58, 61, 68, 71)

    def test_pvalues(self):
        ds = simulate_dataset(
            RiskTable(0.3, 0.3, 0.3, 0.3), StudyDesign(200, 200, 200, 200), seed=0
        )
        assert wald_interaction_pvalue(ds, "identity") == pytest.approx(
            0.9999999999999993, abs=1e-15
        )
        assert wald_interaction_pvalue(ds, "log") == pytest.approx(
            0.9718877293492724, rel=1e-13
        )
        assert wald_interaction_pvalue(ds, "logit") == pytest.approx(
            0.9852102996985878, rel=1e-13
        )


class TestSimulatePower:
    def test_validation(self):
        truth = RiskTable(0.5, 0.5, 0.5, 0.5)
        design = StudyDesign(10, 10, 10, 10)
        with pytest.raises(DomainError):
            simulate_power(truth, design, alpha=0.0, reps=10, seed=0)
        with pytest.raises(DomainError):
            simulate_power(truth, design, alpha=0.05, reps=0, seed=0)

    def test_single_rep_rates_are_zero_or_one(self):
        truth = RiskTable(0.5, 0.5, 0.5, 0.5)
        res = simulate_power(truth, StudyDesign(50, 50, 50, 50), 0.05, reps=1, seed=9)
        for sp in res.by_scale.values():
            assert sp.rate in (0.0, 1.0)

    def test_null_calibration(self):
        truth = RiskTable(0.5, 0.5, 0.5, 0.5)
        res = simulate_power(truth, StudyDesign(500, 500, 500, 500), 0.05, reps=10_000, seed=3)
        for scale in SCALES:
            sp = res.by_scale[scale]
            se = math.sqrt(0.05 * 0.95 / res.reps)
            assert abs(sp.rate - 0.05) < 4 * se, (scale, sp.rate)
            assert sp.n_degenerate == 0

    def test_rd_homogeneous_or_heterogeneous_truth(self):
        # RD(0) = RD(1) = 0.3 but OR(0) = 4 vs OR(1) = 3.5
        truth = RiskTable(0.2, 0.5, 0.4, 0.7)
        res = simulate_power(
            truth, StudyDesign(1000, 1000, 1000, 1000), 0.05, reps=10_000, seed=3
        )
        identity = res.by_scale["identity"]
        logit = res.by_scale["logit"]
        se_null = math.sqrt(0.05 * 0.95 / res.reps)
        assert abs(identity.rate - 0.05) < 4 * se_null
        assert logit.rate > 0.05 + 5 * logit.std_error

    def test_monotone_in_sample_size(self):
        truth = RiskTable(0.2, 0.5, 0.4, 0.7)
        rates = []
        for n in (100, 400, 1600):
            res = simulate_power(truth, StudyDesign(n, n, n, n), 0.05, reps=4000, seed=17)
            rates.append(res.by_scale["logit"])
        for lo, hi in zip(rates, rates[1:]):
            slack = 3 * math.sqrt(lo.std_error**2 + hi.std_error**2)
            assert hi.rate >= lo.rate - slack

    def test_seed_determinism_and_worker_independence(self):
        truth = RiskTable(0.3, 0.4, 0.35, 0.55)
        design = StudyDesign(200, 200, 200, 200)
        a = simulate_power(truth, design, 0.05, reps=150_000, seed=21, workers=1)
        b = simulate_power(truth, design, 0.05, reps=150_000, seed=21, workers=3)
        assert a == b
        c = simulate_power(truth, design, 0.05, reps=150_000, seed=22)
        assert c != a

    def test_degenerate_reps_reported_not_tallied(self):
        # tiny cells at extreme risks degenerate often on the identity scale
        truth = RiskTable(1e-4, 1e-4, 1e-4, 1e-4)
        res = simulate_power(truth, StudyDesign(1, 1, 1, 1), 0.05, reps=2000, seed=1)
        identity = res.by_scale["identity"]
        assert identity.n_degenerate > 0
        valid = res.reps - identity.n_degenerate
        assert 0 <= identity.n_rejected <= valid


class TestExactRates:
    """Simulated rejection rates against an exact enumeration of every outcome."""

    @pytest.mark.parametrize(
        "truth, design",
        [
            ((0.2, 0.35, 0.2, 0.35), (10, 10, 10, 10)),  # strata equal: null on every scale
            ((0.2, 0.35, 0.3, 0.6), (10, 10, 10, 10)),
            ((0.3, 0.5, 0.4, 0.6), (3, 5, 4, 6)),
        ],
    )
    def test_rates_within_4_se_of_exact(self, truth, design):
        exact = oracles.exact_power_rates(truth, design, 0.05)
        res = simulate_power(RiskTable(*truth), StudyDesign(*design), 0.05, reps=100_000, seed=1)
        for scale in SCALES:
            sp = res.by_scale[scale]
            valid = res.reps - sp.n_degenerate
            se = math.sqrt(exact[scale] * (1.0 - exact[scale]) / valid)
            assert abs(sp.rate - exact[scale]) <= 4.0 * se, (scale, sp.rate, exact[scale])
