"""Detector-metric tests: Kijowski density, probability current, absorbing
boundary evolution."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from toalab.detectors import (ArrivalDistribution, MsConfig, _ms_absorb,
                              default_tau_grid, kijowski_bullet_stats,
                              kijowski_curve, kijowski_density,
                              kijowski_wave_density_origin,
                              marchewka_schuss_evolve, ms_step_algebra,
                              probability_current, sqm_detection_curve)
from toalab.kernels import NumericalError
from toalab.wavepacket import SpacePacket, space_amplitude, space_amplitude_dx, \
    space_momentum_amplitude

BULLET = SpacePacket(x0=-2.0e4, p0=10.0, sigma_x=10.0, mass=1.0)
BULLET_D = 2.0e4  # tau_bar = 2000, sigma_p/p0 = 0.01


def reference_ms_evolve(x, psi0, cfg, m=1.0):
    """Per-step FFT/IFFT Marchewka-Schuss stepper, kept as the oracle for the
    spectral recurrence: propagate the odd image one step, difference at 0,
    absorb.  Returns (detected, absorb_prob, psi_final)."""
    h = x[1] - x[0]
    n_half = x.size
    n_full = 2 * (n_half - 1)
    full = np.zeros(n_full, dtype=complex)
    i0 = n_half - 1
    full[:n_half] = psi0
    full[n_half:] = -psi0[-2:0:-1]
    k = 2.0 * math.pi * np.fft.fftfreq(n_full, d=h)
    step_phase = np.exp(-1j * k * k * cfg.epsilon / (2.0 * m))
    absorb_coeff = cfg.epsilon * cfg.lam / (2.0 * math.pi * m)
    detected = np.zeros(cfg.steps)
    p_abs = np.zeros(cfg.steps)
    norm = float(np.trapezoid(np.abs(psi0) ** 2, x))
    survival_scale = 1.0
    for n in range(cfg.steps):
        full = np.fft.ifft(step_phase * np.fft.fft(full))
        dpsi0 = (full[i0 + 1] - full[i0 - 1]) / (2.0 * h) * survival_scale
        P = absorb_coeff * abs(dpsi0) ** 2
        p_abs[n] = P
        detected[n], norm = ms_step_algebra(norm, P)
        survival_scale *= math.sqrt(1.0 - P)
    return detected, p_abs, full[:n_half] * survival_scale


class TestArrivalDistribution:
    def test_moments_of_sampled_gaussian(self):
        t = np.linspace(0.0, 20.0, 4001)
        mu, s = 10.0, 1.5
        rho = np.exp(-((t - mu) / s) ** 2 / 2) / (s * math.sqrt(2 * math.pi))
        dist = ArrivalDistribution(t, 0.5 * rho)   # deliberately norm 1/2
        assert dist.norm == pytest.approx(0.5, abs=1e-8)
        assert dist.mean == pytest.approx(mu, abs=1e-8)
        assert dist.uncertainty == pytest.approx(s, abs=1e-6)
        assert not dist.has_backflow

    def test_backflow_flagged_with_warning(self):
        t = np.linspace(0.0, 1.0, 11)
        r = np.ones_like(t)
        r[5] = -0.2
        with pytest.warns(UserWarning, match="backflow"):
            dist = ArrivalDistribution(t, r)
        assert dist.has_backflow

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ArrivalDistribution(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            ArrivalDistribution(np.linspace(0, 1, 5), np.zeros(4))

    def test_csv_export(self, tmp_path):
        dist = ArrivalDistribution(np.linspace(1.0, 2.0, 5), np.ones(5))
        path = tmp_path / "curve.csv"
        dist.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,rate"
        assert len(lines) == 6


class TestKijowskiWaveCase:
    def test_initial_value(self):
        # rho0(0) = sigma_p^2 Gamma(3/4)^2 / (2 pi)^(3/2) / sqrt(m)
        val = kijowski_wave_density_origin(1.0, 1.0, 0.0)
        expect = math.gamma(0.75) ** 2 / (2 * math.pi) ** 1.5
        assert val == pytest.approx(expect, rel=1e-12)

    def test_norm_is_quarter(self):
        norm = quad(lambda t: kijowski_wave_density_origin(1.0, 1.0, t),
                    0, np.inf, limit=400)[0]
        assert norm == pytest.approx(0.25, abs=1e-9)

    def test_monotone_decay(self):
        t = np.linspace(0.0, 50.0, 201)
        rho = kijowski_wave_density_origin(1.0, 1.0, t)
        assert np.all(np.diff(rho) < 0)

    def test_matches_half_line_quadrature(self):
        # The broad-packet closed form is the left-half-line density of a
        # zero-momentum packet at the origin.
        m, sigma_p = 1.0, 0.7
        pkt = SpacePacket(x0=0.0, p0=0.0, sigma_x=1.0 / sigma_p, mass=m)
        phi = lambda p: space_momentum_amplitude(pkt, p)
        for tau in (0.0, 1.0, 5.0):
            direct = kijowski_density(phi, None, m, max(tau, 1e-12))
            closed = kijowski_wave_density_origin(m, sigma_p, tau)
            assert direct == pytest.approx(float(closed), rel=1e-8)


class TestKijowskiBullet:
    def test_closed_form_statistics(self):
        stats = kijowski_bullet_stats(BULLET, BULLET_D)
        assert stats.tau_bar == pytest.approx(2000.0)
        assert stats.sigma_bar_tau == pytest.approx(20.0)
        assert stats.uncertainty == pytest.approx(20.0 / math.sqrt(2))

    def test_uncertainty_ratio_identity(self):
        # Delta tau / tau_bar = (1/sqrt 2) sigma_p / p0
        stats = kijowski_bullet_stats(BULLET, BULLET_D)
        assert stats.uncertainty / stats.tau_bar == pytest.approx(
            BULLET.sigma_p / BULLET.p0 / math.sqrt(2.0), rel=1e-12)

    def test_distance_scaling(self):
        a = kijowski_bullet_stats(BULLET, BULLET_D)
        b = kijowski_bullet_stats(BULLET, 2 * BULLET_D)
        assert b.tau_bar == pytest.approx(2 * a.tau_bar)
        assert b.uncertainty == pytest.approx(2 * a.uncertainty)

    def test_out_of_regime_warns(self):
        wide = SpacePacket(x0=-100.0, p0=1.0, sigma_x=2.0, mass=1.0)
        with pytest.warns(UserWarning, match="bullet regime"):
            kijowski_bullet_stats(wide, 100.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kijowski_bullet_stats(SpacePacket(x0=0, p0=-1.0, sigma_x=1, mass=1),
                                  1.0)
        with pytest.raises(ValueError):
            kijowski_bullet_stats(BULLET, -1.0)

    def test_curve_matches_adaptive_density(self):
        # Fixed-node curve vs adaptive half-line quadrature at three times.
        pkt = replace_x0 = SpacePacket(x0=-BULLET_D, p0=10.0, sigma_x=10.0,
                                       mass=1.0)
        phi = lambda p: space_momentum_amplitude(pkt, p) \
            * np.exp(-1j * p * p * 0.0)
        taus = np.array([1980.0, 2000.0, 2020.0])
        curve = kijowski_curve(pkt, taus, nodes=4000)
        for i, tau in enumerate(taus):
            direct = kijowski_density(phi, None, pkt.mass, tau)
            assert curve.rates[i] == pytest.approx(direct, rel=1e-7)

    def test_curve_moments_match_closed_form(self):
        stats = kijowski_bullet_stats(BULLET, BULLET_D)
        taus = default_tau_grid(stats.tau_bar, stats.uncertainty, n=1200)
        pkt = SpacePacket(x0=-BULLET_D, p0=BULLET.p0, sigma_x=BULLET.sigma_x,
                          mass=BULLET.mass)
        curve = kijowski_curve(pkt, taus, nodes=4000)
        assert curve.norm == pytest.approx(1.0, abs=1e-3)
        assert curve.mean == pytest.approx(stats.tau_bar, rel=1e-3)
        assert curve.uncertainty == pytest.approx(stats.uncertainty, rel=5e-3)


class TestProbabilityCurrent:
    def test_plane_wave_flux(self):
        x = np.linspace(0.0, 1.0, 5)
        p, m = 2.0, 1.5
        psi = np.exp(1j * p * x)
        np.testing.assert_allclose(probability_current(psi, 1j * p * psi, m),
                                   p / m, rtol=1e-12)

    def test_real_amplitude_carries_no_flux(self):
        x = np.linspace(-3.0, 3.0, 41)
        psi = np.exp(-x**2)
        np.testing.assert_allclose(
            probability_current(psi.astype(complex), -2 * x * psi, 1.0), 0.0,
            atol=1e-15)

    def test_bullet_current_is_velocity_times_density(self):
        tau = 1990.0
        shifted = SpacePacket(x0=-BULLET_D, p0=BULLET.p0,
                              sigma_x=BULLET.sigma_x, mass=BULLET.mass)
        psi = space_amplitude(shifted, 0.0, tau)
        j = probability_current(psi, space_amplitude_dx(shifted, 0.0, tau),
                                BULLET.mass)
        assert j == pytest.approx(BULLET.v0 * abs(psi) ** 2, rel=1e-2)


class TestSqmDetectionCurve:
    def test_moments_in_bullet_regime(self):
        curve = sqm_detection_curve(BULLET, BULLET_D)
        assert curve.norm == pytest.approx(1.0, abs=1e-3)
        assert curve.mean == pytest.approx(2000.0, rel=1e-3)
        assert curve.uncertainty == pytest.approx(
            curve.meta["closed_form_uncertainty"], rel=1e-2)

    def test_grid_must_bracket_arrival_window(self):
        with pytest.raises(ValueError, match="bracket"):
            sqm_detection_curve(BULLET, BULLET_D,
                                tau_grid=np.linspace(1995.0, 2005.0, 64))

    def test_left_mover_rejected(self):
        with pytest.raises(ValueError):
            sqm_detection_curve(SpacePacket(x0=0, p0=-1.0, sigma_x=1, mass=1),
                                10.0)


class TestMarchewkaSchuss:
    def test_step_algebra_is_exactly_conservative(self):
        detected, norm = ms_step_algebra(0.8, 0.25)
        assert detected == pytest.approx(0.2, abs=1e-15)
        assert norm == pytest.approx(0.6, abs=1e-15)
        assert detected + norm == pytest.approx(0.8, abs=1e-15)

    def test_step_algebra_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ms_step_algebra(1.0, 1.5)
        with pytest.raises(NumericalError):
            ms_step_algebra(1.0, -0.1)

    @staticmethod
    def _setup(L=64.0, n=1025, d=16.0, sigma=2.0, p0=1.0):
        # d/sigma = 8 keeps the initial tail at the absorbing boundary near
        # 1e-28 in density, so the odd-image construction is clean.
        x = np.linspace(-L, 0.0, n)
        pkt = SpacePacket(x0=-d, p0=p0, sigma_x=sigma, mass=1.0)
        return x, space_amplitude(pkt, x, 0.0)

    def test_zero_coupling_is_inert_and_unitary(self):
        x, psi0 = self._setup()
        res = marchewka_schuss_evolve(x, psi0, MsConfig(lam=0.0, epsilon=0.02,
                                                        steps=200))
        assert res.cumulative_detected == 0.0
        assert res.final_norm() == pytest.approx(
            np.trapezoid(np.abs(psi0) ** 2, x), rel=1e-10)

    def test_spectral_recurrence_matches_per_step_stepper(self):
        x, psi0 = self._setup()
        cfg = MsConfig(lam=1.0, epsilon=0.02, steps=1200)
        detected, p_abs, psi_final = reference_ms_evolve(x, psi0, cfg)
        res = marchewka_schuss_evolve(x, psi0, cfg)
        assert np.max(np.abs(res.absorb_prob - p_abs)) <= 1e-13
        assert np.max(np.abs(res.psi_final - psi_final)) <= 1e-11
        assert res.cumulative_detected == pytest.approx(detected.sum(),
                                                        abs=1e-12)

    def test_analytic_odd_image_matches_grid(self):
        # For Gaussian data the hard-wall derivative is 2 dphi/dx(0, tau);
        # the grid differs by its central-difference error (k h)^2 / 6.
        x, psi0 = self._setup()
        cfg = MsConfig(lam=1.0, epsilon=0.02, steps=1200)
        res = marchewka_schuss_evolve(x, psi0, cfg)
        pkt = SpacePacket(x0=-16.0, p0=1.0, sigma_x=2.0, mass=1.0)
        taus = (np.arange(cfg.steps) + 1.0) * cfg.epsilon
        _, p_abs, _ = _ms_absorb(2.0 * space_amplitude_dx(pkt, 0.0, taus),
                                 cfg.epsilon / (2.0 * math.pi), 1.0)
        assert np.max(np.abs(res.absorb_prob - p_abs)) \
            <= 5e-3 * np.max(p_abs)

    def test_probability_budget_closes(self):
        x, psi0 = self._setup()
        res = marchewka_schuss_evolve(x, psi0, MsConfig(lam=1.0, epsilon=0.02,
                                                        steps=1200))
        initial = float(np.trapezoid(np.abs(psi0) ** 2, x))
        budget = res.cumulative_detected + res.final_norm()
        assert budget == pytest.approx(initial, abs=1e-10)
        assert res.cumulative_detected > 0.05

    def test_excessive_coupling_aborts(self):
        x, psi0 = self._setup()
        with pytest.raises(RuntimeError, match="> 1"):
            marchewka_schuss_evolve(x, psi0, MsConfig(lam=1e6, epsilon=0.5,
                                                      steps=50))

    def test_grid_validation(self):
        x = np.linspace(-10.0, 1.0, 111)      # does not end at 0
        with pytest.raises(ValueError):
            marchewka_schuss_evolve(x, np.exp(-(x + 5) ** 2).astype(complex),
                                    MsConfig(lam=1.0, epsilon=0.01, steps=1))

    def test_arrival_mean_tracks_flight_time(self):
        # Full-scale run: mean of the detected-arrival curve sits within a
        # few percent of the ballistic flight time d/v0.
        L, n = 256.0, 4097
        x = np.linspace(-L, 0.0, n)
        pkt = SpacePacket(x0=-25.0, p0=1.0, sigma_x=5.0, mass=1.0)
        res = marchewka_schuss_evolve(
            x, space_amplitude(pkt, x, 0.0),
            MsConfig(lam=1.0, epsilon=0.01, steps=10_000))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dist = res.arrival_distribution()
            assert abs(dist.mean - 25.0) / 25.0 < 0.06
        assert res.cumulative_detected > 0.3
