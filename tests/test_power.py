import hashlib
import math
import sys
import time
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from effectgeom import (
    CellCounts,
    DegenerateCountsError,
    DomainError,
    RiskTable,
    SCALES,
    StudyDesign,
    mc,
    power,
    simulate_dataset,
    simulate_power,
    wald_interaction,
    wald_interaction_pvalue,
)
from effectgeom.table import logit

from . import oracles


def balanced_counts(e, n):
    return CellCounts(e, e, e, e, n, n, n, n)


class TestTypes:
    def test_design_validation(self):
        with pytest.raises(DomainError):
            StudyDesign(0, 10, 10, 10)
        with pytest.raises(DomainError):
            StudyDesign(10, 10, 10, 10.5)
        for bad in (math.nan, math.inf, 2.5, "7", 2**63):
            with pytest.raises(DomainError):
                StudyDesign(10, 10, 10, bad)
        assert StudyDesign(100, 200, 300, 400).pattern() == "100/200/300/400"

    def test_counts_validation(self):
        with pytest.raises(DomainError):
            CellCounts(11, 5, 5, 5, 10, 10, 10, 10)
        with pytest.raises(DomainError):
            CellCounts(-1, 5, 5, 5, 10, 10, 10, 10)
        for bad in (math.nan, math.inf, 2.5, "7", 2**70):
            with pytest.raises(DomainError):
                CellCounts(5, 5, 5, 5, bad, 10, 10, 10)
            with pytest.raises(DomainError):
                CellCounts(5, 5, 5, bad, 10, 10, 10, 10)
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

    The p-values were computed by a straight-line script before the simulator
    was written, on that script's counts (58, 61, 68, 71), and are frozen here.
    """

    def test_dataset(self):
        truth, design = (0.3,) * 4, (200,) * 4
        ds = simulate_dataset(RiskTable(*truth), StudyDesign(*design), seed=0)
        assert ds.events() == (61, 54, 51, 49)
        rng = mc.chunk_rng(0, 0)
        assert ds.events() == tuple(_frozen_draw(rng, n, p, 1)[0] for n, p in zip(design, truth))

    def test_pvalues(self):
        ds = CellCounts(58, 61, 68, 71, 200, 200, 200, 200)
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
        for bad in (math.nan, math.inf, 2.5, "7", mc.MAX_COUNT + 1):
            with pytest.raises(DomainError):
                simulate_power(truth, design, alpha=0.05, reps=bad, seed=0)
        for bad in (math.nan, math.inf, 2.7, "7", 10**399):
            with pytest.raises(DomainError):
                simulate_power(truth, design, alpha=0.05, reps=10, seed=bad)

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
            # n = 1 cells beside guard-edge risks, where boundary counts are common
            ((1e-12, 0.4, 0.5, 1 - 1e-12), (1, 4, 3, 1)),
            ((0.3, 1e-12, 0.6, 0.45), (2, 5, 1, 3)),
            ((1 - 1e-12, 0.2, 1e-12, 0.7), (1, 2, 6, 1)),
        ],
    )
    def test_rates_within_4_se_of_exact(self, truth, design):
        exact = oracles.exact_power_rates(truth, design, 0.05)
        for seed in (1, 2, 3):
            res = simulate_power(
                RiskTable(*truth), StudyDesign(*design), 0.05, reps=100_000, seed=seed
            )
            for scale in SCALES:
                sp = res.by_scale[scale]
                valid = res.reps - sp.n_degenerate
                se = math.sqrt(exact[scale] * (1.0 - exact[scale]) / valid)
                assert abs(sp.rate - exact[scale]) <= 4.0 * se, (seed, scale, sp.rate, exact[scale])


B = power.BLOCK_ROWS


def _frozen_wald(events, totals):
    """The per-replicate Wald kernel `_chunk_tallies` replaced, float op for float op."""
    raw = events / totals
    boundary = (events == 0) | (events == totals)
    adj = np.where(boundary, (events + 0.5) / (totals + 1.0), raw)
    adj_tot = np.where(boundary, totals + 1.0, totals)
    identity = (raw[3] - raw[2]) - (raw[1] - raw[0]), (raw * (1.0 - raw) / totals).sum(axis=0)
    log = (
        np.log(adj[3]) - np.log(adj[2]) - np.log(adj[1]) + np.log(adj[0]),
        ((1.0 - adj) / (adj_tot * adj)).sum(axis=0),
    )
    lo = logit(adj)
    var = (1.0 / (adj_tot * adj * (1.0 - adj))).sum(axis=0)
    return [identity, log, (lo[3] - lo[2] - lo[1] + lo[0], var)]


def _cells(truth, design):
    """`power._cells` of a truth and a design given as 4-tuples."""
    return power._cells(RiskTable(*truth), StudyDesign(*design))


def _frozen_draw(rng, n, p, size):
    """One cell's chunk of counts as `_chunk_tallies` draws them, one replicate at a time.

    A cell with n + 1 <= `ALIAS_COUNTS` maps each uniform u through its
    alias table, with the count k = floor(u (n + 1)) kept where the rest
    u (n + 1) - k is below accept[k]; a wider cell draws `rng.binomial`.
    """
    if n + 1 > power.ALIAS_COUNTS:
        return rng.binomial(n, p, size=size)
    accept, alias = (t.tolist() for t in power._alias_table(n, p))
    counts = []
    for u in rng.random(size).tolist():
        x = u * (n + 1)
        k = int(x)
        counts.append(k if x - k < accept[k] else alias[k])
    return np.array(counts)


_E = 1e-12
_TRUTHS = ((0.2, 0.35, 0.2, 0.35), (0.2, 0.35, 0.3, 0.6), (_E, 1 - _E, 1 - _E, _E))

# The benchmark's four designs and (3, 5, 4, 6), in an order that keeps the
# first two test ids; then n = 1 cells; 2**62 cells, whose drawn range
# outgrows a block except in a chunk of one; and cells either side of
# `ALIAS_COUNTS`, drawn by `rng.binomial` past it over a range narrower than a block
_DESIGNS = [
    (10, 10, 10, 10), (3, 5, 4, 6),
    (100, 100, 100, 100), (1000, 1000, 1000, 1000), (40, 160, 25, 400),
    (1, 1, 1, 1), (1, 7, 1, 2), (2**62, 10, 1, 2**62),
    (power.ALIAS_COUNTS - 1, power.ALIAS_COUNTS, 4095, 1),
]


class TestAliasDraw:
    """Each cell's alias table, and the map from a uniform to a count's terms."""

    @pytest.mark.parametrize("p", [_E, 0.35, 1 - _E])
    @pytest.mark.parametrize("n", [1, 2, 10, 1000, power.ALIAS_COUNTS - 1, mc.CHUNK_SIZE - 1])
    def test_table_matches_the_decimal_pmf(self, n, p):
        # count k is drawn with probability accept[k] / m, plus (1 - accept[j]) / m
        # for every j aliased to k.  The ratio products round once per step
        # from the mode, and the sweep's cumulative sums round at the scale of
        # m on the large entries; at the guard-edge risks the tails underflow
        # to 0, within the absolute term.
        accept, alias = power._alias_table(n, p)
        m = n + 1
        assert accept.shape == alias.shape == (m,)
        assert ((0.0 <= accept) & (accept <= 1.0)).all()
        assert ((0 <= alias) & (alias < m)).all()
        implied = accept / m + np.bincount(alias, weights=(1.0 - accept) / m, minlength=m)
        exact = np.array([float(q) for q in oracles.decimal_binomial_pmf(n, p)])
        assert (np.abs(implied - exact) <= 1e-9 * exact + 1e-15).all()

    # SHA-256 of accept's float64 bytes then alias's little-endian int64 bytes.
    # The tables use no SIMD-dependent function, so the digests hold at every
    # SIMD level; a change of the pairing or the pmf's rounding moves them.
    @pytest.mark.parametrize("n, p, digest", [
        (1, 0.5, "fab67cfab82643b9e5a96d8984ec3fa7442c4af864c74abf710a524a52b3b2f8"),
        (10, 0.35, "acc179db0da4ff424d66c2b8bdcd410ca512cbf208663727261bf51422c5eca6"),
        (1000, 0.2, "4a845356224c0a90b0d94aa91c0246656fe74fa891682350d80143677a27f4ff"),
        (4095, 0.6, "cb767f23be07e37145be0557459333dc5d8c061de03beb8080828eebb083e8e5"),
        (16383, 1 - _E, "e541254d25e66ca7526aee095a252c0e277678b746058317fa076a6a514b8e9d"),
    ])
    def test_tables_are_pinned(self, n, p, digest):
        accept, alias = power._alias_table(n, p)
        assert accept.dtype == np.float64
        got = hashlib.sha256(accept.tobytes() + alias.astype("<i8").tobytes()).hexdigest()
        assert got == digest

    def test_uniform_edges_map_into_the_support(self):
        # u m < m for the largest u below 1 at every table size, so k needs no clip
        m = np.arange(2, mc.CHUNK_SIZE + 1)
        for u in (0.0, np.nextafter(1.0, 0.0)):
            k = (u * m).astype(np.intp)
            assert ((0 <= k) & (k < m)).all(), u
        for size in (2, 3, 1000, mc.CHUNK_SIZE - 1, mc.CHUNK_SIZE):
            for coin in (0, 1):  # every coin is alias, then every coin is k
                u = np.array([0.0, np.nextafter(1.0, 0.0)])
                got = power._alias_columns(np.full(size, float(coin)), u)
                assert got.tolist() == [coin, 2 * (size - 1) + coin], (size, coin)

    def test_tables_stop_at_the_cap(self):
        assert power._draw_tables(power.ALIAS_COUNTS - 1, 0.35) is not None
        assert power._draw_tables(power.ALIAS_COUNTS, 0.35) is None
        accept, counts, terms = power._draw_tables(10, 0.35)
        _, alias = power._alias_table(10, 0.35)
        assert counts.tolist()[1::2] == list(range(11))
        assert counts.tolist()[0::2] == alias.tolist()
        direct = power._cell_terms(np.arange(11), 10.0)
        assert terms.shape == (6, 22)
        assert terms[:, 1::2].tobytes() == direct.tobytes()
        assert terms[:, 0::2].tobytes() == direct[:, alias].tobytes()


class TestOneReplicate:
    """`simulate_power` at one replicate tests exactly `simulate_dataset`'s dataset."""

    @pytest.mark.parametrize("truth", _TRUTHS[1:])
    @pytest.mark.parametrize(
        "design",
        [(10, 10, 10, 10), (1, 7, 1, 2), (40, 160, 25, 400),
         (power.ALIAS_COUNTS - 1, power.ALIAS_COUNTS, 4095, 1), (2**62, 10, 1, 2**62)],
    )
    def test_tallies_are_wald_interaction_on_the_dataset(self, design, truth):
        z_crit = NormalDist().inv_cdf(1.0 - 0.05 / 2.0)
        truth, design = RiskTable(*truth), StudyDesign(*design)
        for seed in range(200):
            res = simulate_power(truth, design, 0.05, reps=1, seed=seed)
            ds = simulate_dataset(truth, design, seed)
            for scale in SCALES:
                try:
                    est, se = wald_interaction(ds, scale)
                    want = (int(abs(est / se) > z_crit), 0)
                except DegenerateCountsError:
                    want = (0, 1)
                got = res.by_scale[scale]
                assert (got.n_rejected, got.n_degenerate) == want, (seed, scale, ds.events())


class TestChunkBlocking:
    """`_chunk_tallies` gathers tabulated terms per block, with the frozen kernel's tallies."""

    def test_block_rows_divide_the_chunk(self):
        assert mc.CHUNK_SIZE % B == 0
        assert B % power.EVAL_ROWS == 0

    # either side of both block sizes: `EVAL_ROWS` where a cell's terms are
    # evaluated per replicate, `BLOCK_ROWS` where every cell gathers from a table
    @pytest.mark.parametrize("size", [1, 4095, 4096, 4097, B - 1, B, B + 1, mc.CHUNK_SIZE])
    @pytest.mark.parametrize("design", _DESIGNS)
    def test_blocked_tallies_equal_unblocked(self, design, size):
        z_crit = 1.959964
        for k, truth in enumerate(_TRUTHS):
            seed, index = 17 + k, 2 + 3 * k
            rng = mc.chunk_rng(seed, index)
            events = np.stack([_frozen_draw(rng, n, p, size) for n, p in zip(design, truth)])
            want = []
            with np.errstate(divide="ignore", invalid="ignore"):
                for est, var in _frozen_wald(events, np.array(design, dtype=float)[:, None]):
                    valid = var > 0.0
                    want += [int((valid & (np.abs(est / np.sqrt(var)) > z_crit)).sum()),
                             int((~valid).sum())]
            got = power._chunk_tallies(_cells(truth, design), z_crit, seed, index, size)
            assert got.tolist() == want, truth

    @pytest.mark.parametrize("design", _DESIGNS)
    def test_statistics_are_bit_identical_to_the_frozen_kernel(self, design):
        # tallies rarely show a last-bit change; the statistics show every one
        for k, truth in enumerate(_TRUTHS):
            rng = mc.chunk_rng(23 + k, k)
            events = np.stack([rng.binomial(n, p, size=B) for n, p in zip(design, truth)])
            direct = [power._cell_terms(e, float(n)) for e, n in zip(events, design)]
            tables = [  # of the drawn range where `_chunk_tallies` tabulates it
                power._cell_terms(np.arange(e.min(), e.max() + 1), float(n))
                if e.max() - e.min() < power.EVAL_ROWS else None
                for e, n in zip(events, design)
            ]

            def gathered(cell, k):  # 1-D row gathers, as `_chunk_tallies` reads a block
                if tables[cell] is None:
                    return direct[cell][k].copy()
                return tables[cell][k].take(events[cell] - events[cell].min())

            with np.errstate(divide="ignore", invalid="ignore"):
                want = _frozen_wald(events, np.array(design, dtype=float)[:, None])
            for row in (gathered, lambda cell, k: direct[cell][k].copy()):
                got = list(power._combine(row))
                assert len(got) == len(SCALES)
                for (est, var), (want_est, want_var) in zip(got, want):
                    assert est.tobytes() == want_est.tobytes(), truth
                    assert var.tobytes() == want_var.tobytes(), truth


def test_threads_share_no_chunk_state(monkeypatch):
    # three threads on two CPUs, switching as often as the interpreter lets
    # them: a buffer or row accessor shared across chunks would move a tally
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    reps = 5 * mc.CHUNK_SIZE + 1  # six chunks, one short
    designs = [(10, 10, 10, 10), (100, 100, 100, 100), (1000, 1000, 1000, 1000),
               (40, 160, 25, 400), (2**62, 10, 1, 2**62)]
    start, interval = time.perf_counter(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for design in designs:
            for truth in _TRUTHS[1:]:
                args = (RiskTable(*truth), StudyDesign(*design), 0.05, reps, 41)
                assert simulate_power(*args, workers=3) == simulate_power(*args, workers=1)
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - start < 120.0


# Peak memory of one whole-chunk `_chunk_tallies` call (numpy 2.4); the
# per-query tables are built outside the call.  Each pin is in bytes, as a
# multiple of 32 KiB (one 4096-row float64 array, the unit the pins were set
# in), so that it does not move with `power.BLOCK_ROWS`; beside each is the
# peak measured at 32768-row blocks.  The benchmark designs peak while their
# cells are drawn: three cells' int32 columns (768 KiB) beside the last cell's
# uniforms, columns and gather.  A block then holds the four columns (1 MiB)
# and about four 256 KiB arrays.  Four binomial cells' counts hold 2 MiB.  A 2**62 cell's
# drawn range is tabulated only while it is narrower than `EVAL_ROWS`, so at
# the guard-edge risks, where it spans about 2 * 10**4 counts, its chunk runs
# in `EVAL_ROWS`-row blocks that evaluate the terms of their counts.
_CHUNK_PEAKS = [
    ((10, 10, 10, 10), _TRUTHS[1], 97.5),  # measured 2623264 bytes
    ((100, 100, 100, 100), _TRUTHS[1], 97.75),  # 2623264
    ((1000, 1000, 1000, 1000), _TRUTHS[1], 98.25),  # 2623264
    ((40, 160, 25, 400), _TRUTHS[1], 97.75),  # 2623264
    ((2**62,) * 4, _TRUTHS[1], 98.5),  # 3160208
    ((2**62,) * 4, _TRUTHS[2], 98.5),  # 3160200
]


@pytest.mark.parametrize("design, truth, kib32", _CHUNK_PEAKS)
def test_chunk_temporaries_stay_pinned(design, truth, kib32):
    args = (_cells(truth, design), 1.959964, 31, 0, mc.CHUNK_SIZE)
    power._chunk_tallies(*args)  # warm numpy's caches
    tracemalloc.start()
    try:
        power._chunk_tallies(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kib32 * 32 * 1024
