"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 5 is split by variation independence.  5a covers the
odds-product system, which is variation independent of the relative risk,
so both targets are compatible with probability exactly 1.  5b covers the
shifted-odds system, which is not: the default box spans positive log
relative risks, where the contrast has a positive attainable floor m(r)
(see the shape notes in effectgeom.coords), so draws below the floor are
incompatible.  5b pins the resulting probability to its exact value
P* = 0.5827630033, a shortfall 1 - P* = 0.417237 from 1, against oracles
in tests/oracles.py that share no code with effectgeom.coords.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from effectgeom import (
    CompatibilityQuery,
    HomogeneityQuery,
    PriorSpec,
    RiskTable,
    StudyDesign,
    check_compatibility,
    estimate,
    exact_probability,
    from_logistic,
    from_poisson,
    from_rr_eta,
    from_rr_op,
    is_feasible,
    measure_range,
    simulate_power,
    solve_stratum_from_rr_eta,
    solve_stratum_from_rr_op,
    to_logistic,
    to_poisson,
    to_rr_eta,
    to_rr_op,
)

from . import oracles

CLI = [sys.executable, "-m", "effectgeom"]

CUBE_SEED = 42
HEADLINE_SEED = 20240817


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cube_runs():
    prior = PriorSpec("prob", n_samples=1_000_000, seed=CUBE_SEED)
    t0 = time.perf_counter()
    runs = {target: estimate(prior, target) for target in ("rd", "rr", "or")}
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_01_cube_rr_probability(cube_runs):
    runs, elapsed = cube_runs
    est = runs["rr"]
    ok = abs(est.probability - 0.75) < 0.002 and elapsed < 10.0
    report(
        "01",
        ok,
        f"unit-cube log-RR interaction: {est.probability:.5f} vs 0.75 "
        f"(n=10^6, all three targets in {elapsed:.2f}s)",
    )


def test_criterion_02_cube_or_probability(cube_runs):
    runs, _ = cube_runs
    est = runs["or"]
    ok = est.probability == 1.0 and est.n_compatible == est.n_samples
    report(
        "02",
        ok,
        f"unit-cube log-OR interaction: exactly {est.probability} "
        f"({est.n_compatible}/{est.n_samples} compatible)",
    )


def test_criterion_03_cube_rd_probability(cube_runs):
    runs, _ = cube_runs
    est = runs["rd"]
    ok = abs(est.probability - 2.0 / 3.0) < 0.002
    report("03", ok, f"unit-cube RD interaction: {est.probability:.5f} vs 2/3")


def test_criterion_04_analytic_values(cube_runs):
    runs, _ = cube_runs
    from fractions import Fraction

    exact = {"rr": Fraction(3, 4), "rd": Fraction(2, 3), "or": Fraction(1, 1)}
    cube = PriorSpec("prob", n_samples=1, seed=CUBE_SEED)
    ok = all(exact_probability(cube, t) == exact[t] for t in exact)
    for target, frac in exact.items():
        est = runs[target]
        ok = ok and abs(est.probability - float(frac)) <= 4.0 * est.std_error
    report("04", ok, "analytic 3/4, 2/3, 1 all within 4 SE of their estimates")


def test_criterion_05a_rr_op_priors_exactly_one():
    prior = PriorSpec("rr_op", n_samples=100_000, seed=7)
    ests = {t: estimate(prior, t) for t in ("rr", "or")}
    ok = all(e.probability == 1.0 and e.n_compatible == e.n_samples for e in ests.values())
    report(
        "05a",
        ok,
        "odds-product box [-2,2]^3: both interaction targets exactly 1.0 "
        f"({ests['rr'].n_compatible}/{ests['rr'].n_samples} and "
        f"{ests['or'].n_compatible}/{ests['or'].n_samples})",
    )


def test_criterion_05b_rr_eta_default_box_rr_target():
    # The default box spans positive log relative risks, where contrast
    # levels below the floor m(r) are unattainable, so the probability is
    # P* = 0.582763, not 1.  The count must equal the oracle's exact recount
    # of the same draws, the estimate must sit within 4 SE of the quadrature
    # value, and the shortfall from 1 must stay beyond 5 SE.
    prior = PriorSpec("rr_eta", n_samples=100_000, seed=HEADLINE_SEED)
    est = estimate(prior, "rr")
    exact = oracles.rr_eta_default_box_probability()
    recount, margin = oracles.rr_eta_rr_recount(prior.seed, prior.n_samples, prior.bounds)
    z = (est.probability - exact) / math.sqrt(exact * (1.0 - exact) / est.n_samples)
    ok = prior.bounds == oracles.RR_ETA_DEFAULT_BOX
    # no draw lies within rounding of the floor, so the recount is exact
    ok = ok and est.n_compatible == recount and margin > 1e-9
    ok = ok and abs(z) <= 4.0
    ok = ok and est.probability < 1.0 - 5.0 * est.std_error
    report(
        "05b",
        ok,
        f"shifted-odds default box, log-RR target: {est.probability:.5f} "
        f"({est.n_compatible}/{est.n_samples}, recount {recount}) vs exact "
        f"{exact:.10f} ({z:+.2f} SE); shortfall 1 - P* = {1.0 - exact:.6f}",
    )


def test_criterion_06_headline_shortfall_and_witnesses():
    prior = PriorSpec("rr_eta", n_samples=100_000, seed=HEADLINE_SEED)
    est = estimate(prior, "or")
    # frozen fixture: the probability is a measured number, pinned for
    # reproducibility, not asserted from any external source
    ok = est.probability == 0.6028 and est.n_compatible == 60280
    ok = ok and est.probability < 1.0 - 5.0 * est.std_error

    # witness 1: stratum-0 contrast level below the floor at log RR = 1;
    # certified by a fine-grid lower bound on the contrast
    w1 = (1.0, -1.0, 0.0)
    ok = ok and not check_compatibility(CompatibilityQuery("rr_eta", w1, "or"))
    grid_floor = oracles.grid_eta_min(w1[0], n_grid=200_001)
    ok = ok and grid_floor - math.exp(w1[1]) > 1.5

    # witness 2: stratum 0 solvable but no odds-ratio match anywhere on the
    # stratum-1 level curve; certified by a dense scan of that curve
    w2 = (math.log(2.0), 0.75, -1.0)
    ok = ok and not check_compatibility(CompatibilityQuery("rr_eta", w2, "or"))
    c0, c1 = math.exp(w2[1]), math.exp(w2[1] + w2[2])
    candidates = list(solve_stratum_from_rr_eta(w2[0], c0))
    ok = ok and len(candidates) == 2
    for s in candidates:
        target_log_or = math.log(s.p1 / (1 - s.p1)) - math.log(s.p0 / (1 - s.p0))
        gap = oracles.scan_stratum1_for_or_match(c1, target_log_or)
        ok = ok and gap > 0.05
    report(
        "06",
        ok,
        f"shifted-odds default box, log-OR target: {est.probability:.4f} "
        f"(= 1 - {round((1 - est.probability) / est.std_error)} SE); two "
        "incompatible points certified by dense-grid oracles",
    )


def test_criterion_07_boundary_example_and_sweep():
    infeasible = is_feasible(HomogeneityQuery("rd", 0.27, 0.46, 0.82))
    feasible = is_feasible(HomogeneityQuery("rd", 0.27, 0.46, 0.80))
    ok = (not infeasible) and feasible

    step = 0.005
    grid = np.arange(step, 1.0, step)
    verdicts = [is_feasible(HomogeneityQuery("rd", 0.27, 0.46, float(p))) for p in grid]
    last_feasible = max(p for p, v in zip(grid, verdicts) if v)
    boundary = last_feasible + step / 2.0  # midpoint of the bracketing cells
    ok = ok and abs(boundary - 0.81) <= step
    report(
        "07",
        ok,
        f"RD completion: infeasible at p01=0.82, feasible at 0.80; sweep "
        f"locates the boundary at {boundary:.4f} (true 0.81, step {step})",
    )


def test_criterion_08_measure_ranges():
    ok = measure_range("rd", 0.5) == (-0.5, 0.5)
    ok = ok and measure_range("rr", 0.5) == (0.0, 2.0)
    ok = ok and measure_range("or", 0.5) == (0.0, math.inf)
    report("08", ok, "ranges at baseline 0.5: (-0.5, 0.5), (0, 2), (0, inf)")


def test_criterion_09_round_trip_suites(rng):
    n_linear = 100_000
    draws = rng.uniform(1e-4, 1 - 1e-4, size=(n_linear, 4))
    worst = 0.0
    for row in draws:
        t = RiskTable(*row)
        for fwd, inv in ((to_poisson, from_poisson), (to_rr_op, from_rr_op), (to_logistic, from_logistic)):
            back = inv(fwd(t))
            worst = max(
                worst,
                abs(back.p00 - t.p00),
                abs(back.p01 - t.p01),
                abs(back.p10 - t.p10),
                abs(back.p11 - t.p11),
            )
    ok = worst < 1e-10

    n_eta = 10_000
    draws = rng.uniform(1e-3, 1 - 1e-3, size=(n_eta, 4))
    recovered = 0
    for row in draws:
        t = RiskTable(*row)
        tables = from_rr_eta(to_rr_eta(t))
        if any(
            max(
                abs(u.p00 - t.p00),
                abs(u.p01 - t.p01),
                abs(u.p10 - t.p10),
                abs(u.p11 - t.p11),
            )
            < 1e-8
            for u in tables
        ):
            recovered += 1
    ok = ok and recovered == n_eta
    report(
        "09",
        ok,
        f"10^5 tables round-trip 3 systems (worst error {worst:.2e}); "
        f"{recovered}/{n_eta} recovered among shifted-odds solution sets",
    )


def test_criterion_10_quadratic_solver_grid():
    grid = np.linspace(-5.0, 5.0, 100)
    failures = 0
    non_unique = 0
    for theta in grid:
        r = math.exp(theta)
        sup = min(1.0, 1.0 / r)
        for phi in grid:
            s = solve_stratum_from_rr_op(float(theta), float(phi))
            if not (0.0 < s.p0 < sup and 0.0 < s.p1 < 1.0):
                failures += 1
                continue
            w = math.exp(phi)
            a = r * (1.0 - w)
            if a != 0.0:
                other = -w / (a * s.p0)
                if 0.0 < other < sup:
                    non_unique += 1
    ok = failures == 0 and non_unique == 0
    report(
        "10",
        ok,
        f"quadratic solver on the [-5,5]^2 grid: {failures} failures, "
        f"{non_unique} non-unique interior roots out of 10000 points",
    )


def test_criterion_11_power_calibration_and_separation():
    null = simulate_power(
        RiskTable(0.5, 0.5, 0.5, 0.5), StudyDesign(500, 500, 500, 500),
        alpha=0.05, reps=10_000, seed=3,
    )
    se_null = math.sqrt(0.05 * 0.95 / null.reps)
    ok = all(abs(null.by_scale[s].rate - 0.05) < 4 * se_null for s in null.by_scale)

    mixed = simulate_power(
        RiskTable(0.2, 0.5, 0.4, 0.7), StudyDesign(1000, 1000, 1000, 1000),
        alpha=0.05, reps=10_000, seed=3,
    )
    identity = mixed.by_scale["identity"]
    logit = mixed.by_scale["logit"]
    ok = ok and abs(identity.rate - 0.05) < 4 * se_null
    ok = ok and logit.rate > 0.05 + 5 * logit.std_error
    report(
        "11",
        ok,
        f"null rates {[round(null.by_scale[s].rate, 4) for s in null.by_scale]}; "
        f"RD-homogeneous truth: identity {identity.rate:.4f}, logit {logit.rate:.4f}",
    )


def test_criterion_12_byte_identical_across_workers():
    volume_args = CLI + [
        "volume", "--system", "rr_eta", "--target", "rr", "--target", "or",
        "--n-samples", "150000", "--seed", "5", "--format", "csv",
    ]
    power_args = CLI + [
        "power", "--p00", ".2", "--p01", ".5", "--p10", ".4", "--p11", ".7",
        "--n", "400", "--reps", "150000", "--seed", "5", "--format", "json",
    ]
    ok = True
    for args in (volume_args, power_args):
        outputs = []
        for workers in ("1", "3"):
            proc = subprocess.run(
                args + ["--workers", workers], capture_output=True, text=True
            )
            ok = ok and proc.returncode == 0
            outputs.append(proc.stdout)
        ok = ok and outputs[0] == outputs[1] and len(outputs[0]) > 0
    report("12", ok, "volume and power outputs byte-identical for 1 vs 3 workers")
