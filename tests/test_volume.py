import math
from fractions import Fraction

import numpy as np
import pytest

from effectgeom import (
    DomainError,
    PriorSpec,
    UnsupportedSystemError,
    UnsupportedTargetError,
    estimate,
    exact_probability,
    mc,
    volume,
)
from effectgeom.homogeneity import COMPAT_SYSTEMS, check_compatibility_batch


class TestPriorSpec:
    def test_defaults_per_system(self):
        assert PriorSpec("prob", 10, 0).bounds == ((0.0, 1.0),) * 3
        assert PriorSpec("rr_op", 10, 0).bounds == ((-2.0, 2.0),) * 3
        assert PriorSpec("rr_eta", 10, 0).bounds == ((-1.5, 1.5), (-1.0, 1.0), (-1.0, 1.0))

    def test_validation(self):
        with pytest.raises(UnsupportedSystemError):
            PriorSpec("logistic", 10, 0)
        with pytest.raises(DomainError):
            PriorSpec("prob", 0, 0)
        with pytest.raises(DomainError):
            PriorSpec("prob", 10, -1)
        with pytest.raises(DomainError):
            PriorSpec("prob", 10, 0, bounds=((0.5, 0.5), (0, 1), (0, 1)))
        with pytest.raises(DomainError):
            PriorSpec("prob", 10, 0, bounds=((-0.5, 1.0), (0, 1), (0, 1)))
        with pytest.raises(DomainError):  # finite ends, but high - low overflows
            PriorSpec("rr_op", 10, 0, bounds=((-1e308, 1e308), (0, 1), (0, 1)))
        # counts and seeds are integer-valued reals in range, never truncated
        for bad in (math.nan, math.inf, 2.5, "7", mc.MAX_COUNT + 1):
            with pytest.raises(DomainError):
                PriorSpec("prob", bad, 0)
        for bad in (math.nan, math.inf, 2.7, "7", 10**399, 2**64):
            with pytest.raises(DomainError):
                PriorSpec("prob", 10, bad)
        assert PriorSpec("prob", mc.MAX_COUNT, 2**64 - 1).n_samples == 2**32
        # log-scale boxes may be anywhere
        PriorSpec("rr_op", 10, 0, bounds=((-7, -3), (0, 1), (2, 9)))

    @pytest.mark.parametrize("bounds", [
        (("x", 1), (0, 1), (0, 1)),
        (1, 2, 3),
        ((0, 1, 2), (0, 1), (0, 1)),
    ], ids=["string-low", "not-pairs", "triple"])
    def test_malformed_bounds(self, bounds):
        with pytest.raises(DomainError, match="bounds"):
            PriorSpec("prob", 10, 0, bounds=bounds)

    def test_unsupported_target(self):
        with pytest.raises(UnsupportedTargetError):
            estimate(PriorSpec("rr_op", 10, 0), "rd")


class TestAnalytic:
    def test_exact_rationals(self):
        cube = PriorSpec("prob", 10, 0)
        assert exact_probability(cube, "rr") == Fraction(3, 4)
        assert exact_probability(cube, "rd") == Fraction(2, 3)
        assert exact_probability(cube, "or") == Fraction(1, 1)
        with pytest.raises(UnsupportedTargetError):
            exact_probability(cube, "op")
        with pytest.raises(UnsupportedTargetError):
            exact_probability(PriorSpec("rr_op", 10, 0), "rd")

    def test_exact_only_on_the_unit_cube(self):
        assert exact_probability(PriorSpec("prob", 10, 0, bounds=((0, 1),) * 3), "rr") is not None
        sub_box = PriorSpec("prob", 10, 0, bounds=((0, 0.5), (0, 1), (0, 1)))
        for target in ("rd", "rr", "or"):
            assert exact_probability(sub_box, target) is None
        for target in ("rr", "or"):
            assert exact_probability(PriorSpec("rr_op", 10, 0), target) is None


class TestCubeEstimates:
    @pytest.mark.parametrize("target", ["rd", "rr", "or"])
    def test_matches_analytic_within_4_se(self, target):
        prior = PriorSpec("prob", n_samples=200_000, seed=2024)
        est = estimate(prior, target)
        exact = float(exact_probability(prior, target))
        tol = max(4.0 * est.std_error, 1e-12)
        assert abs(est.probability - exact) <= tol
        assert est.n_compatible == round(est.probability * est.n_samples)
        assert est.std_error == pytest.approx(
            math.sqrt(est.probability * (1 - est.probability) / est.n_samples)
        )

    def test_or_is_exactly_one(self):
        est = estimate(PriorSpec("prob", n_samples=100_000, seed=5), "or")
        assert est.probability == 1.0
        assert est.n_compatible == est.n_samples
        assert est.std_error == 0.0


class TestVariationIndependence:
    def test_rr_op_both_targets_exactly_one(self):
        prior = PriorSpec("rr_op", n_samples=50_000, seed=31)
        for target in ("rr", "or"):
            est = estimate(prior, target)
            assert est.probability == 1.0
            assert est.n_compatible == est.n_samples

    def test_rr_op_other_boxes_still_one(self):
        prior = PriorSpec("rr_op", n_samples=20_000, seed=8, bounds=((-4, 1), (-3, 3), (0, 5)))
        for target in ("rr", "or"):
            assert estimate(prior, target).probability == 1.0

    def test_rr_eta_negative_effect_box_exactly_one(self):
        # with log RR < 0 the contrast attains every positive level, so both
        # homogeneity targets can always be matched
        prior = PriorSpec(
            "rr_eta", n_samples=50_000, seed=77, bounds=((-2.0, -0.01), (-1, 1), (-1, 1))
        )
        for target in ("rr", "or"):
            est = estimate(prior, target)
            assert est.probability == 1.0
            assert est.n_compatible == est.n_samples


class TestDefaultRrEtaBox:
    """Behavior under the pinned default box; values are regression pins.

    The default box includes positive log relative risks, where the contrast
    has a positive attainable floor.  Draws below the floor are incompatible
    with both targets, so neither probability is 1, and a relative-risk-
    compatible draw is always odds-ratio-compatible (the converse fails).
    """

    def test_both_targets_below_one_and_ordered(self):
        prior = PriorSpec("rr_eta", n_samples=50_000, seed=13)
        est_rr = estimate(prior, "rr")
        est_or = estimate(prior, "or")
        assert est_rr.probability < 1.0 - 5 * est_rr.std_error
        assert est_or.probability < 1.0 - 5 * est_or.std_error
        assert est_rr.probability <= est_or.probability

    def test_containment_draw_by_draw(self, rng):
        import numpy as np

        from effectgeom.homogeneity import check_compatibility_batch

        points = np.column_stack(
            [
                rng.uniform(-1.5, 1.5, 20_000),
                rng.uniform(-1, 1, 20_000),
                rng.uniform(-1, 1, 20_000),
            ]
        )
        rr_ok = check_compatibility_batch("rr_eta", points, "rr")
        or_ok = check_compatibility_batch("rr_eta", points, "or")
        assert not (rr_ok & ~or_ok).any()
        assert (or_ok & ~rr_ok).any()


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        prior = PriorSpec("prob", n_samples=150_000, seed=99)  # spans 3 chunks
        one = estimate(prior, "rr", workers=1)
        three = estimate(prior, "rr", workers=3)
        assert one == three

    def test_same_spec_same_result(self):
        prior = PriorSpec("rr_eta", n_samples=30_000, seed=4)
        assert estimate(prior, "or") == estimate(prior, "or")

    def test_seed_matters(self):
        a = estimate(PriorSpec("prob", 50_000, seed=1), "rr")
        b = estimate(PriorSpec("prob", 50_000, seed=2), "rr")
        assert a.n_compatible != b.n_compatible

# a box per system on which each target's verdicts are mixed (prob/or is 1
# on every box); the rr_op box reaches past the guard
_BLOCKING_BOXES = {
    "prob": None,
    "rr_op": ((-40.0, 40.0), (-2.0, 2.0), (-2.0, 2.0)),
    "rr_eta": None,
}


class TestChunkBlocking:
    """`_chunk_counts` evaluates in blocks; the count equals one whole-chunk pass."""

    @pytest.mark.parametrize(
        "size", [1, mc.BLOCK_SIZE - 1, mc.BLOCK_SIZE, mc.BLOCK_SIZE + 1, mc.CHUNK_SIZE]
    )
    @pytest.mark.parametrize(
        "system, target", [(s, t) for s, record in COMPAT_SYSTEMS.items() for t in record.targets]
    )
    def test_blocked_count_equals_unblocked(self, system, target, size):
        prior = PriorSpec(system, n_samples=mc.CHUNK_SIZE, seed=31, bounds=_BLOCKING_BOXES[system])
        u = mc.chunk_rng(prior.seed, 3).random((size, 3))
        lows, highs = np.array(prior.bounds).T
        ok = check_compatibility_batch(system, lows + u * (highs - lows), target)
        assert volume._chunk_counts(prior, target, 3, size).tolist() == [int(ok.sum())]
