"""Random-walk first passage: exact combinatorics, sampling, diffusion limit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from toalab.firstpassage import (DiffusionSpec, EXACT_STEP_LIMIT,
                                 diffusion_density, diffusion_detection_rate,
                                 first_arrival_probability,
                                 first_arrival_probability_float,
                                 images_detection_rate, lattice_arrival_curve,
                                 monte_carlo_first_arrival, recursion_evolve,
                                 surviving_probability, survivor_mass,
                                 walk_probability)


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
        surviving = sum(surviving_probability(n, m, d) for m in range(-(n + d + 1), 0))
        assert arrived + surviving == Fraction(1)
        assert survivor_mass(n, d) == surviving

    def test_float_path_matches_exact(self):
        n = np.arange(0, 120)
        exact = np.array([float(first_arrival_probability(int(k), 4)) for k in n])
        np.testing.assert_allclose(first_arrival_probability_float(n, 4), exact,
                                   rtol=1e-12, atol=1e-300)

    def test_float_path_beyond_exact_limit(self):
        n = EXACT_STEP_LIMIT + 100
        approx = first_arrival_probability_float(np.array([n]), 2)[0]
        exact = float(first_arrival_probability(n, 2))
        assert approx == pytest.approx(exact, rel=1e-10)

    def test_eventual_arrival_is_certain(self):
        # One-dimensional walk hits any level with probability 1; the partial
        # sums approach 1 from below like 1/sqrt(n).
        total = float(sum(first_arrival_probability(k, 2) for k in range(200)))
        assert 0.85 < total < 1.0


class TestRecursion:
    def test_free_recursion_matches_closed_form(self):
        state = recursion_evolve({0: Fraction(1)}, 12)
        for m, p in state.items():
            assert p == walk_probability(12, m)

    def test_absorbing_recursion_matches_reflection_counts(self):
        d = 3
        state, _ = recursion_evolve({-d: Fraction(1)}, 15, absorb_at_zero=True)
        for m in range(-20, 0):
            assert state.get(m, Fraction(0)) == surviving_probability(15, m, d)

    def test_absorbing_mass_balance(self):
        d, n = 3, 20
        state, absorbed = recursion_evolve({-d: Fraction(1)}, n,
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

    def test_seed_determinism_and_worker_invariance(self):
        a = monte_carlo_first_arrival(2, 20, 50000, seed=7, workers=1)
        b = monte_carlo_first_arrival(2, 20, 50000, seed=7, workers=4)
        c = monte_carlo_first_arrival(2, 20, 50000, seed=8, workers=1)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.never_arrived == b.never_arrived
        assert not np.array_equal(a.counts, c.counts)


class TestDiffusion:
    def test_density_peak_and_norm(self):
        spec = DiffusionSpec(mass=1.0)
        assert diffusion_density(spec, 0.0, 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi))
        norm = quad(lambda x: diffusion_density(spec, x, 0.0, 2.5), -50, 50)[0]
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_rescaled_walk_matches_density_pointwise(self):
        # De Moivre-Laplace: P(n, m)/(2 dx) at x = m dx approaches the
        # diffusion density with tau = n dtau.
        spec = DiffusionSpec(mass=1.0)
        dx = 0.1
        n = 400
        tau = spec.mass * n * dx * dx * (0.5 / spec.D0)
        for m in range(0, 42, 2):
            approx = float(walk_probability(n, m)) / (2.0 * dx)
            exact = diffusion_density(spec, m * dx, 0.0, tau)
            assert approx == pytest.approx(exact, rel=0.02)

    def test_detection_rate_fixed_value(self):
        # (m=1, d=1, tau=1): (d / tau) * density = 0.2420 to 4 digits.
        rate = diffusion_detection_rate(DiffusionSpec(mass=1.0), 1.0, 1.0)
        assert rate == pytest.approx(0.24197, abs=5e-6)

    def test_detection_is_certain(self):
        spec = DiffusionSpec(mass=1.0)
        d = 1.0
        body = quad(lambda t: diffusion_detection_rate(spec, d, t), 0, 1e4,
                    limit=500)[0]
        # Analytic tail of the inverse-Gaussian law beyond tau = 1e4.
        tail = math.erf(math.sqrt(spec.mass * d * d / (2.0 * 1e4)))
        assert body + tail == pytest.approx(1.0, abs=1e-8)

    def test_images_rate_equals_direct_rate(self):
        spec = DiffusionSpec(mass=1.3)
        for tau in (0.5, 2.0, 10.0):
            direct = diffusion_detection_rate(spec, 2.0, tau)
            assert images_detection_rate(spec, 2.0, tau) == pytest.approx(
                direct, rel=1e-10)
            assert images_detection_rate(spec, 2.0, tau, method="fd") == (
                pytest.approx(direct, rel=1e-6))

    def test_lattice_curve_converges_to_continuum(self):
        spec = DiffusionSpec(mass=1.0)
        taus, rates = lattice_arrival_curve(spec, 50, 10_000, x_phys=1.0)
        tau_pk = spec.mass / 3.0
        sel = (taus > 0.5 * tau_pk) & (taus < 12.0 * tau_pk)
        exact = diffusion_detection_rate(spec, 1.0, taus[sel])
        rel = np.abs(rates[sel] - exact) / exact.max()
        assert rel.max() < 0.02

    def test_lattice_curve_mass_conservation(self):
        taus, rates = lattice_arrival_curve(DiffusionSpec(mass=1.0), 4, 2000,
                                            x_phys=1.0)
        dtau = taus[1] - taus[0]
        total = rates.sum() * dtau
        exact = float(sum(first_arrival_probability(k, 4) for k in range(2001)))
        assert total == pytest.approx(exact, rel=1e-12)
