"""Random-walk first passage: exact combinatorics, sampling, diffusion limit."""

import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

import toalab.firstpassage as fp
from toalab import validation
from toalab.cli import EXIT_OK, main
from toalab.firstpassage import (MC_CHUNK,
                                 FirstArrivalHistogram, conservation_defects,
                                 diffusion_density, diffusion_detection_rate,
                                 first_arrival_counts,
                                 first_arrival_probability,
                                 first_arrival_probability_float,
                                 images_detection_rate, lattice_arrival_curve,
                                 monte_carlo_first_arrival,
                                 surviving_probability, walk_probability)


def survivor_mass(n: int, d: int) -> Fraction:
    """Probability that the walk from -d has not reached 0 by step n.

    The library's survivor count over 2^n.  Summing the reflection formula
    G_{n,m,d} = P_{n,m+d} - P_{n,m-d} over every survivor site m < 0
    telescopes to P(-d <= X_n <= d-1) for the free displacement X_n, i.e.
    sum_{k=-d}^{d-1} C(n, (n+k)/2) / 2^n over the k of n's parity with
    |k| <= n.  That is at most d binomials, exact.  A walk starting on the
    detector (d = 0) has no survivor mass.
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be >= 0")
    return Fraction(fp._survivor_counts([n], d)[n], 2**n)


def reference_survivor_count(n: int, d: int) -> int:
    """Oracle: 2^n S_{n,d} as fresh binomials, C(n, (n+k)/2) over the
    k in [-d, d-1] of n's parity with |k| <= n."""
    lo = max(-d, -n)
    lo += (n + lo) % 2
    return sum(math.comb(n, (n + k) // 2) for k in range(lo, min(d, n + 1), 2))


def reference_survivor_mass(n: int, d: int) -> Fraction:
    """Oracle: the reflection formula summed site by site over m < 0."""
    return sum((surviving_probability(n, m, d) for m in range(-n - d, 0)),
               Fraction(0))


def reference_first_arrival(n: int, d: int) -> Fraction:
    """Oracle: the survivor form F_{n,d} = G_{n-1,-1,d} / 2 (n, d >= 1).

    A first arrival at step n is a walk that survives to site -1 at step
    n - 1 and then steps onto the detector.
    """
    return surviving_probability(n - 1, -1, d) / 2


def reference_recursion(initial: dict, n: int, absorb_at_zero: bool = False):
    """Oracle: evolve site probabilities step by step.

    P_{n+1,m} = (P_{n,m-1} + P_{n,m+1}) / 2.  `initial` maps site ->
    probability (Fraction or float).  Returns the final distribution, or
    with ``absorb_at_zero`` a pair (distribution, absorbed-per-step list):
    mass stepping onto site 0 is moved to the absorbed tally in the same
    step, so site 0 never holds mass.
    """
    dist = dict(initial)
    absorbed = []
    for _ in range(n):
        nxt: dict = {}
        for site, p in dist.items():
            if not p:
                continue
            half = p / 2
            nxt[site - 1] = nxt.get(site - 1, 0) + half
            nxt[site + 1] = nxt.get(site + 1, 0) + half
        if absorb_at_zero:
            absorbed.append(nxt.pop(0, 0))
        dist = nxt
    if absorb_at_zero:
        return dist, absorbed
    return dist


def reference_mc_chunk(d: int, n_max: int, trials: int, seed: int,
                       chunk_index: int) -> tuple:
    """Oracle: one int8 step per walker and step, then a cumulative sum."""
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
    counts = np.zeros(n_max + 1, dtype=np.int64)
    if d == 0:
        counts[0] = trials
        return counts, 0
    if n_max == 0:               # argmax over an empty step axis would raise
        return counts, trials
    steps = rng.integers(0, 2, size=(trials, n_max), dtype=np.int8) * 2 - 1
    pos = np.cumsum(steps, axis=1, dtype=np.int32) - d
    hit = pos == 0
    arrived = hit.any(axis=1)
    first = np.argmax(hit, axis=1) + 1
    np.add.at(counts, first[arrived], 1)
    return counts, int(trials - arrived.sum())


def reference_byte_chunk(d: int, n_max: int, trials: int, seed: int,
                         chunk_index: int) -> tuple:
    """Oracle: the byte sampler with each byte's steps read from its bits.

    Same Philox draws as `fp._mc_batch` on a batch of one chunk, which must
    match it bit for bit, but none of its tables: bit i of a byte is step
    i + 1 (1 = toward the detector), a walker's path through the column is
    the cumulative sum of its steps, hits are masked out for the histogram
    and the survivors are selected by fancy indexing.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
    counts = np.zeros(n_max + 1, dtype=np.int64)
    if d == 0:
        counts[0] = trials
        return counts, 0
    r = np.full(trials, d, dtype=np.int64)
    for start in range(0, n_max, 8):
        if not r.size:
            break
        left = min(8, n_max - start)
        b = rng.integers(0, 256, size=r.size, dtype=np.uint8)
        bits = (b[:, None].astype(np.int64) >> np.arange(left)) & 1
        reach = np.cumsum(2 * bits - 1, axis=1)
        hit = reach == r[:, None]
        arrived = hit.any(axis=1)
        first = hit.argmax(axis=1) + 1
        counts[start + 1:start + left + 1] += np.bincount(
            first[arrived], minlength=left + 1)[1:]
        r = (r - reach[:, -1])[~arrived]
    return counts, int(r.size)


def reference_monte_carlo(d: int, n_max: int, trials: int, seed: int,
                          chunk=reference_mc_chunk) -> FirstArrivalHistogram:
    counts = np.zeros(n_max + 1, dtype=np.int64)
    never = 0
    for i, start in enumerate(range(0, trials, MC_CHUNK)):
        c, nv = chunk(d, n_max, min(MC_CHUNK, trials - start), seed, i)
        counts += c
        never += nv
    return FirstArrivalHistogram(d=d, n_max=n_max, trials=trials,
                                 counts=counts, never_arrived=never)


def reference_path_counts(n_top: int) -> tuple:
    """Oracle for `validation._path_counts`: per-(n, d) np.unique tables.

    Builds every path's positions, marks for each d the paths that have
    reached d sites to the right, and tallies the positions of the rest
    step by step.
    """
    width = 2 * n_top + 1
    free = np.zeros((n_top + 1, width), dtype=np.int64)
    alive = np.zeros((n_top + 1, 9, width), dtype=np.int64)
    steps = ((np.arange(1 << n_top)[:, None]
              >> np.arange(n_top)[None, :]) & 1) * 2 - 1
    cum = np.cumsum(steps, axis=1)
    zero = np.zeros(1 << n_top, dtype=cum.dtype)
    for n in range(n_top + 1):
        vals, counts = np.unique(cum[:, n - 1] if n else zero,
                                 return_counts=True)
        free[n, vals + n_top] = counts
    for d in range(1, 9):
        ever = np.cumsum(cum >= d, axis=1) > 0
        for n in range(n_top + 1):
            pos = cum[:, n - 1] if n else zero
            keep = ~ever[:, n - 1] if n else np.ones(1 << n_top, dtype=bool)
            vals, counts = np.unique(pos[keep], return_counts=True)
            alive[n, d, vals + n_top] = counts
    return free, alive


class TestWalkProbability:
    @pytest.mark.parametrize("n,m,expect", [
        (0, 0, Fraction(1)), (1, 1, Fraction(1, 2)), (1, -1, Fraction(1, 2)),
        (2, 0, Fraction(1, 2)), (4, 2, Fraction(1, 4)), (4, 0, Fraction(3, 8)),
        (3, 0, Fraction(0)), (2, 1, Fraction(0)),       # parity zeros
        (4, 6, Fraction(0)),                            # out of range
    ])
    def test_fixed_values(self, n, m, expect):
        assert walk_probability(n, m) == expect

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(0, 60))
    def test_distribution_sums_to_one(self, n):
        total = sum(walk_probability(n, m) for m in range(-n, n + 1))
        assert total == Fraction(1)

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(0, 60), m=st.integers(-60, 60))
    def test_symmetry(self, n, m):
        assert walk_probability(n, m) == walk_probability(n, -m)


class TestSurvivingAndFirstArrival:
    @pytest.mark.parametrize("n,m,d,expect", [
        (2, -1, 1, Fraction(1, 4)),
        (0, -3, 3, Fraction(1)),
        (3, -1, 2, Fraction(1, 4)),
    ])
    def test_surviving_fixed_values(self, n, m, d, expect):
        assert surviving_probability(n, m, d) == expect

    @pytest.mark.parametrize("n,d,expect", [
        (0, 0, Fraction(1)),          # start at the boundary
        (0, 3, Fraction(0)),
        (1, 1, Fraction(1, 2)),
        (3, 1, Fraction(1, 8)),
        (3, 3, Fraction(1, 8)),
        (4, 2, Fraction(1, 8)),
        (2, 1, Fraction(0)),          # parity
    ])
    def test_first_arrival_fixed_values(self, n, d, expect):
        assert first_arrival_probability(n, d) == expect

    @settings(deadline=None, max_examples=30)
    @given(d=st.integers(1, 8), n=st.integers(1, 80))
    def test_surviving_plus_arrived_is_one(self, d, n):
        arrived = sum(first_arrival_probability(k, d) for k in range(n + 1))
        surviving = reference_survivor_mass(n, d)
        assert arrived + surviving == Fraction(1)
        assert survivor_mass(n, d) == surviving

    def test_float_path_matches_exact(self):
        n = np.arange(0, 120)
        exact = np.array([float(first_arrival_probability(int(k), 4)) for k in n])
        np.testing.assert_allclose(first_arrival_probability_float(n, 4), exact,
                                   rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("d", [1, 2, 32])
    def test_float_path_matches_gammaln(self, d):
        # Oracle: the vectorised scipy gammaln formula that math.lgamma
        # replaced.  log(n!) is about 8.2e4 at n = 1e4, where one ulp is
        # 1.5e-11, so each path carries a few 1e-11 of relative error;
        # they agree to 2e-10 and keep the same exact zeros.
        n = np.arange(10001)
        ok = (n >= d) & ((n + d) % 2 == 0)
        nn, k = n[ok].astype(float), (n[ok] + d) // 2
        ref = np.zeros(n.shape)
        ref[ok] = (d / nn) * np.exp(gammaln(nn + 1.0) - gammaln(k + 1.0)
                                    - gammaln(nn - k + 1.0)
                                    - nn * math.log(2.0))
        got = first_arrival_probability_float(n, d)
        np.testing.assert_array_equal(got == 0.0, ref == 0.0)
        np.testing.assert_allclose(got, ref, rtol=2e-10, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 32])
    def test_float_path_is_correctly_rounded(self, d):
        # Every n <= 400, then every 31st step up to 1e4 (math.comb near
        # n = 1e4 costs about 1 ms, so the full range would take seconds).
        # Both sides round the same rational once, so they agree bit for bit.
        n = np.array(sorted({*range(401), *range(401, 10001, 31), 9999,
                             10000}))
        exact = [float(first_arrival_probability(int(k), d)) for k in n]
        np.testing.assert_array_equal(first_arrival_probability_float(n, d),
                                      exact)

    def test_float_path_keeps_one_count_alive(self):
        # The continuum's largest level, n <= 4097 at d = 32: all the counts
        # as ints take about 0.9 MiB, the float table 32 KiB.
        tracemalloc.start()
        try:
            first_arrival_probability_float(np.arange(4098), 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 2**20

    @pytest.mark.parametrize("d", range(1, 17))
    def test_survivor_mass_matches_site_sum(self, d):
        for n in sorted({0, 1, 2, max(d - 1, 0), d, d + 1, 2 * d, 2 * d + 1,
                         50, 51, 199, 200, 399, 400}):
            assert survivor_mass(n, d) == reference_survivor_mass(n, d), n

    def test_survivor_mass_edges(self):
        assert survivor_mass(0, 5) == 1                    # n = 0
        assert survivor_mass(3, 5) == 1                    # n < d
        assert survivor_mass(5, 5) == 1 - Fraction(1, 32)  # one path arrives
        assert survivor_mass(0, 0) == survivor_mass(7, 0) == 0
        with pytest.raises(ValueError):
            survivor_mass(-1, 2)
        with pytest.raises(ValueError):
            survivor_mass(2, -1)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_survivor_form_identity(self, d):
        for n in range(1, 401):
            assert first_arrival_probability(n, d) == \
                reference_first_arrival(n, d), n

    def test_eventual_arrival_is_certain(self):
        # One-dimensional walk hits any level with probability 1; the partial
        # sums approach 1 from below like 1/sqrt(n).
        total = float(sum(first_arrival_probability(k, 2) for k in range(200)))
        assert 0.85 < total < 1.0


class TestCountsAndConservation:
    @pytest.mark.parametrize("d", range(0, 17))
    def test_counts_match_closed_form(self, d):
        counts = first_arrival_counts(400, d)
        assert len(counts) == 401 and counts[0] == (d == 0)
        for n, c in enumerate(counts[1:], start=1):
            assert isinstance(c, int)
            assert Fraction(c, 2**n) == Fraction(d, n) * walk_probability(n, d)

    def test_counts_edges(self):
        assert first_arrival_counts(0, 0) == [1]
        assert first_arrival_counts(0, 3) == [0]
        assert first_arrival_counts(5, 3) == [0, 0, 0, 1, 0, 3]
        with pytest.raises(ValueError):
            first_arrival_counts(-1, 2)
        with pytest.raises(ValueError):
            first_arrival_counts(4, -1)

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5, 8, 13, 40])
    def test_survivor_counts_match_fresh_binomials(self, d):
        # Every step, then sparse step lists that start the carry far out.
        got = fp._survivor_counts(range(301), d)
        assert got == {n: reference_survivor_count(n, d) for n in range(301)}
        for steps in ([1200], range(0, 201, 50), [400, 0, 77, 77], [3]):
            assert fp._survivor_counts(steps, d) == \
                {n: reference_survivor_count(n, d) for n in steps}, steps

    @pytest.mark.parametrize("d", range(0, 17))
    def test_conservation_holds_exactly(self, d):
        assert conservation_defects(range(401), d) == [0] * 401
        assert conservation_defects([400, 0, 77], d) == [0, 0, 0]
        assert conservation_defects([], d) == []

    def test_conservation_detects_a_wrong_count(self, monkeypatch):
        # One extra path at step 9 (d = 3) is counted again, doubled, at
        # every later step: the defect is 2^(n - 9) from n = 9 on.
        counts = first_arrival_counts(20, 3)
        counts[9] += 1
        monkeypatch.setattr(fp, "first_arrival_counts",
                            lambda n_max, d: counts[:n_max + 1])
        assert conservation_defects(range(21), 3) == \
            [0] * 9 + [2**(n - 9) for n in range(9, 21)]

    def test_conservation_rejects_negative_input(self):
        with pytest.raises(ValueError):
            conservation_defects([3, -1], 2)
        with pytest.raises(ValueError):
            conservation_defects([3], -1)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_walk_validate_report_matches_fraction_oracle(self, tmp_path, d):
        n_max = 120
        assert main(["walk-validate", "--d", str(d), "--n-max", str(n_max),
                     "--output-dir", str(tmp_path)]) == EXIT_OK
        expect = ["n,first_arrival,survivor_plus_cumulative,exact"]
        cum = Fraction(0)
        for n in range(n_max + 1):
            first = Fraction(d, n) * walk_probability(n, d) if n else \
                Fraction(0)
            cum += first
            total = reference_survivor_mass(n, d) + cum
            expect.append(f"{n},{first},{total},{total == 1}")
        report = (tmp_path / "walk-validate_report.csv").read_text()
        assert report.splitlines() == expect


class TestRecursion:
    def test_free_recursion_matches_closed_form(self):
        state = reference_recursion({0: Fraction(1)}, 12)
        for m, p in state.items():
            assert p == walk_probability(12, m)

    def test_absorbing_recursion_matches_reflection_counts(self):
        d = 3
        state, _ = reference_recursion({-d: Fraction(1)}, 15,
                                       absorb_at_zero=True)
        for m in range(-20, 0):
            assert state.get(m, Fraction(0)) == surviving_probability(15, m, d)

    def test_absorbing_mass_balance(self):
        d, n = 3, 20
        state, absorbed = reference_recursion({-d: Fraction(1)}, n,
                                              absorb_at_zero=True)
        left = sum(state.values())
        assert left + sum(absorbed) == Fraction(1)
        # per-step absorption reproduces the closed-form first-arrival law
        for k in range(1, n + 1):
            assert absorbed[k - 1] == first_arrival_probability(k, d)


class TestMonteCarlo:
    def test_immediate_arrival_for_zero_distance(self):
        hist = monte_carlo_first_arrival(0, 4, 1000, seed=1)
        assert hist.counts[0] == 1000
        assert hist.never_arrived == 0

    def test_frequencies_within_sampling_error(self):
        hist = monte_carlo_first_arrival(1, 9, 1 << 16, seed=20260826)
        z = hist.z_scores()
        odd = np.arange(1, 10, 2)
        assert np.abs(z[odd]).max() < 4.0

    def test_invalid_walk_rejected(self):
        with pytest.raises(ValueError, match="start offset d"):
            monte_carlo_first_arrival(-1, 4, 10, seed=1)
        with pytest.raises(ValueError, match="n_max"):
            monte_carlo_first_arrival(1, -1, 10, seed=1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            monte_carlo_first_arrival(1, 4, 10, seed=1, workers=workers)

    @pytest.mark.parametrize("sampler", ["byte_table", "reference"])
    @pytest.mark.parametrize("n_max", [0, 1, 7, 8, 9, 100])
    @pytest.mark.parametrize("d", [1, 2, 8, 9, 12])
    def test_sampler_within_five_sigma(self, sampler, d, n_max):
        # Two chunks, the second partial; 5 standard errors over at most
        # ~100 bins plus the survivors.  Where the exact probability is 0 or
        # 1 (parity bins, n_max < d) the tolerance is zero.
        trials, seed = 20000, 1000 * d + n_max
        hist = (monte_carlo_first_arrival(d, n_max, trials, seed)
                if sampler == "byte_table"
                else reference_monte_carlo(d, n_max, trials, seed))
        p = hist.exact_reference()
        se = np.sqrt(p * (1.0 - p) / trials)
        assert np.all(np.abs(hist.frequencies() - p) <= 5.0 * se)
        s = float(survivor_mass(n_max, d))
        assert abs(hist.never_arrived / trials - s) <= \
            5.0 * math.sqrt(s * (1.0 - s) / trials)

    @pytest.mark.parametrize("n_max", [0, 1, 3, 7, 8, 9, 13, 100])
    @pytest.mark.parametrize("d", [1, 2, 8, 9, 12])
    def test_every_trial_counted_once_and_parity_bins_empty(self, d, n_max):
        trials = MC_CHUNK + 123
        hist = monte_carlo_first_arrival(d, n_max, trials, seed=d + n_max)
        assert int(hist.counts.sum()) + hist.never_arrived == trials
        # F_n = 0 for n of the wrong parity and for n < d.
        assert not hist.counts[hist.exact_reference() == 0].any()

    @pytest.mark.parametrize("n_max", [0, 1, 7, 8, 9, 13, 100])
    @pytest.mark.parametrize("d", [0, 1, 2, 8, 9, 10, 12])
    def test_kernel_matches_masked_byte_sampler(self, d, n_max):
        for trials in (1, 1000, MC_CHUNK):
            for chunk_index in (0, 5):
                seed = 31 * d + n_max
                counts, never = fp._mc_batch(d, n_max, [(chunk_index, trials)],
                                             seed)
                ref_counts, ref_never = reference_byte_chunk(
                    d, n_max, trials, seed, chunk_index)
                np.testing.assert_array_equal(counts, ref_counts)
                assert never == ref_never

    @pytest.mark.parametrize("d", [32735, 32736, 32760, 10**6])
    def test_far_walkers_never_arrive_either_side_of_int16(self, d):
        # Distances are int16 while d + n_max + 16 <= 32767 (d = 32735 here)
        # and int64 past it; a distance that wrapped could count a false
        # arrival.
        counts, never = fp._mc_batch(d, 16, [(0, MC_CHUNK)], d)
        ref_counts, ref_never = reference_byte_chunk(d, 16, MC_CHUNK, d, 0)
        assert never == ref_never == MC_CHUNK
        assert not counts.any() and not ref_counts.any()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_histogram_matches_masked_byte_sampler(self, workers):
        trials = MC_CHUNK + 123
        hist = monte_carlo_first_arrival(2, 100, trials, seed=11,
                                         workers=workers)
        ref = reference_monte_carlo(2, 100, trials, 11,
                                    chunk=reference_byte_chunk)
        np.testing.assert_array_equal(hist.counts, ref.counts)
        assert hist.never_arrived == ref.never_arrived

    def test_seed_determinism_and_worker_invariance(self):
        a = monte_carlo_first_arrival(2, 20, 50000, seed=7, workers=1)
        b = monte_carlo_first_arrival(2, 20, 50000, seed=7, workers=4)
        c = monte_carlo_first_arrival(2, 20, 50000, seed=8, workers=1)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.never_arrived == b.never_arrived
        assert not np.array_equal(a.counts, c.counts)

    @pytest.mark.parametrize("key", [(0, 0), (11, 5), (2**32 - 1, 123)])
    def test_byte_stream_matches_generator_integers(self, key):
        # The raw-word stream must reproduce numpy's buffered uint8 draws,
        # including the 4 bytes a call leaves when it ends on a low half.
        rng = np.random.Generator(np.random.Philox(key=list(key)))
        stream = fp._ByteStream(*key)
        for n in (0, 1, 2, 3, 4, 5, 7, 8, 9, MC_CHUNK, 1, 6):
            np.testing.assert_array_equal(
                stream.draw(n), rng.integers(0, 256, n, dtype=np.uint8))

    @pytest.mark.parametrize("n_max", [0, 7, 8, 9, 100])
    @pytest.mark.parametrize("d", [0, 1, 2, 9])
    def test_batches_match_masked_byte_sampler(self, d, n_max):
        # Six chunks, the last of 7 walkers, span two batches.
        trials, seed = 5 * MC_CHUNK + 7, 17 * d + n_max
        ref = reference_monte_carlo(d, n_max, trials, seed,
                                    chunk=reference_byte_chunk)
        for workers in (1, 2, 3, 4, 7):
            hist = monte_carlo_first_arrival(d, n_max, trials, seed,
                                             workers=workers)
            np.testing.assert_array_equal(hist.counts, ref.counts)
            assert hist.never_arrived == ref.never_arrived
            assert type(hist.never_arrived) is int   # JSON-serialisable

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_peak_memory_does_not_grow_with_workers(self, workers):
        # One batch of MC_BATCH chunks in memory at a time (~1 MiB); a batch
        # per thread on 4 threads peaks at 2.5 MiB.
        tracemalloc.start()
        try:
            monte_carlo_first_arrival(3, 100, 400_000, seed=5,
                                      workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("workers", [1, 4])
    def test_batches_run_in_order_in_the_calling_thread(self, monkeypatch,
                                                        workers):
        seen = []
        batch = fp._mc_batch

        def recording(d, n_max, chunks, seed):
            seen.append((threading.get_ident(), [i for i, _ in chunks]))
            return batch(d, n_max, chunks, seed)

        monkeypatch.setattr(fp, "_mc_batch", recording)
        monte_carlo_first_arrival(2, 20, 9 * MC_CHUNK + 1, seed=3,
                                  workers=workers)
        me = threading.get_ident()
        assert seen == [(me, [0, 1, 2, 3]), (me, [4, 5, 6, 7]), (me, [8, 9])]


class TestEnumeration:
    @pytest.mark.parametrize("n_top", [0, 1, 9, 12, 13, 16])
    def test_joint_histogram_matches_per_step_tables(self, n_top):
        free, alive = validation._path_counts(n_top)
        ref_free, ref_alive = reference_path_counts(n_top)
        np.testing.assert_array_equal(free, ref_free)
        np.testing.assert_array_equal(alive, ref_alive)

    def test_criterion_3_catches_a_wrong_survivor(self, monkeypatch):
        exact = fp.surviving_probability
        monkeypatch.setattr(
            fp, "surviving_probability",
            lambda n, m, d: exact(n, m, d)
            + (Fraction(1, 2**16) if (n, m, d) == (9, -2, 3) else 0))
        result = validation.criterion_3()
        assert not result.passed
        assert result.observed["enumeration_mismatches"] == 1

    def test_criterion_3_catches_a_wrong_first_arrival(self, monkeypatch):
        exact = fp.first_arrival_probability
        monkeypatch.setattr(
            fp, "first_arrival_probability",
            lambda n, d: exact(n, d)
            + (Fraction(1, 2**16) if (n, d) == (12, 4) else 0))
        result = validation.criterion_3()
        assert not result.passed
        assert result.observed["enumeration_mismatches"] == 1

    def test_criterion_3_catches_a_wrong_first_arrival_count(self,
                                                             monkeypatch):
        exact = fp.first_arrival_counts
        monkeypatch.setattr(
            fp, "first_arrival_counts",
            lambda n_max, d: [c + (n == 12 and d == 4)
                              for n, c in enumerate(exact(n_max, d))])
        result = validation.criterion_3()
        assert not result.passed
        assert result.observed["enumeration_mismatches"] == 1

    def test_criterion_3_peak_memory(self):
        # 0.16 MiB traced: the 17 x 10 x 33 recursion table and its
        # cumulative sum.
        tracemalloc.start()
        try:
            assert validation.criterion_3().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20


class TestDiffusion:
    def test_density_peak_and_norm(self):
        assert diffusion_density(1.0, 0.0, 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi))
        norm = quad(lambda x: diffusion_density(1.0, x, 0.0, 2.5), -50, 50)[0]
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_rescaled_walk_matches_density_pointwise(self):
        # De Moivre-Laplace: P(n, m)/(2 dx) at x = m dx approaches the
        # diffusion density with tau = n dtau.
        dx = 0.1
        n = 400
        tau = n * dx * dx
        for m in range(0, 42, 2):
            approx = float(walk_probability(n, m)) / (2.0 * dx)
            exact = diffusion_density(1.0, m * dx, 0.0, tau)
            assert approx == pytest.approx(exact, rel=0.02)

    def test_detection_rate_fixed_value(self):
        # (m=1, d=1, tau=1): (d / tau) * density = 0.2420 to 4 digits.
        rate = diffusion_detection_rate(1.0, 1.0, 1.0)
        assert rate == pytest.approx(0.24197, abs=5e-6)

    def test_detection_is_certain(self):
        m, d = 1.0, 1.0
        body = quad(lambda t: diffusion_detection_rate(m, d, t), 0, 1e4,
                    limit=500)[0]
        # Analytic tail of the inverse-Gaussian law beyond tau = 1e4.
        tail = math.erf(math.sqrt(m * d * d / (2.0 * 1e4)))
        assert body + tail == pytest.approx(1.0, abs=1e-8)

    def test_images_rate_equals_direct_rate(self):
        m = 1.3
        for tau in (0.5, 2.0, 10.0):
            direct = diffusion_detection_rate(m, 2.0, tau)
            assert images_detection_rate(m, 2.0, tau) == (
                pytest.approx(direct, rel=1e-6))

    @pytest.mark.parametrize("rate", [
        lambda m: diffusion_density(m, 0.0, 1.0, 1.0),
        lambda m: diffusion_detection_rate(m, 1.0, 1.0),
        lambda m: images_detection_rate(m, 1.0, 1.0),
    ], ids=["density", "detection_rate", "images"])
    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_nonpositive_mass_rejected(self, rate, m):
        with pytest.raises(ValueError, match="mass must be positive"):
            rate(m)

    def test_lattice_curve_converges_to_continuum(self):
        taus, rates = lattice_arrival_curve(50, 10_000)
        tau_pk = 1.0 / 3.0
        sel = (taus > 0.5 * tau_pk) & (taus < 12.0 * tau_pk)
        exact = diffusion_detection_rate(1.0, 1.0, taus[sel])
        rel = np.abs(rates[sel] - exact) / exact.max()
        assert rel.max() < 0.02

    def test_lattice_curve_mass_conservation(self):
        taus, rates = lattice_arrival_curve(4, 2000)
        dtau = taus[1] - taus[0]
        total = rates.sum() * dtau
        exact = float(sum(first_arrival_probability(k, 4) for k in range(2001)))
        assert total == pytest.approx(exact, rel=1e-12)
