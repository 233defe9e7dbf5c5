"""Detector-metric tests: Kijowski density, probability current, absorbing
boundary evolution."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from toalab.detectors import (ArrivalDistribution, MsConfig, _SPREAD,
                              _arrival_moments,
                              _detector_current, _phase_power_sums,
                              _require_phase,
                              default_tau_grid, kijowski_bullet_stats,
                              kijowski_curve, kijowski_wave_density_origin,
                              kijowski_wave_norm,
                              marchewka_schuss_evolve,
                              probability_current, sqm_detection_curve)
from toalab.kernels import NumericalError
from toalab.wavepacket import SpacePacket, space_amplitude, space_amplitude_dx, \
    space_momentum_amplitude

# tau_bar = 2000, sigma_p/p0 = 0.01
BULLET = SpacePacket(x0=-2.0e4, p0=10.0, sigma_x=10.0, mass=1.0)
# Criterion 2's packet: tau_bar = 100, sigma_p/p0 = 0.1, m sigma_x^2/tau_bar = 1
SLOW = SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0)


def _half_line_integral(phi, m, tau, sign):
    """int over sign*p > 0 of sqrt(|p|/2 pi m) e^(-i p^2 tau/2m) phi(p) dp.

    The sqrt singularity at p = 0 is removed by the map p = sign * w^2,
    after which adaptive quadrature handles the endpoint exactly.
    """
    # Locate the support of |phi| to bound the integral: the probe steps by
    # 0.6% of p, so a packet with sigma_p/p0 >= 1e-3 spans several probes,
    # and the bound is the first probe past the last one above threshold.
    probe = np.geomspace(1e-8, 400.0, 4001)
    vals = np.abs(phi(sign * probe))
    peak = vals.max()
    if peak == 0.0:
        return 0.0j
    last = np.flatnonzero(vals > 1e-12 * peak)[-1]
    w_hi = math.sqrt(probe[min(last + 1, probe.size - 1)])

    def integrand(w, part):
        p = sign * w * w
        z = 2.0 * w * w * math.sqrt(1.0 / (2.0 * math.pi * m)) \
            * np.exp(-1j * p * p * tau / (2.0 * m)) * phi(p)
        return z.real if part == "re" else z.imag

    re, re_err = quad(integrand, 0.0, w_hi, args=("re",), limit=400)
    im, im_err = quad(integrand, 0.0, w_hi, args=("im",), limit=400)
    if max(re_err, im_err) > 1e-6 * max(1.0, abs(re) + abs(im)):
        warnings.warn(f"kijowski quadrature residual {max(re_err, im_err):.2g}"
                      " exceeds target", stacklevel=3)
    return re + 1j * im


def reference_exact_moments(pkt):
    """`_arrival_moments(pkt, 0.5)`, the Kijowski moments, by adaptive
    quadrature: the path its trapezoid rule replaced."""
    p0, sp, m, d = pkt.p0, pkt.sigma_p, pkt.mass, pkt.d

    def average(f):
        val, _ = quad(lambda p: math.exp(-((p - p0) / sp) ** 2) * f(p),
                      p0 - 6.0 * sp, p0 + 6.0 * sp, points=[p0],
                      epsabs=0.0, epsrel=1e-12, limit=200)
        return val

    weight = average(lambda p: 1.0)
    mean = m * d * average(lambda p: 1.0 / p) / weight
    second = m * m * average(
        lambda p: (d * d + (0.5 / p + (p - p0) / sp**2) ** 2) / p**2) / weight
    return mean, math.sqrt(second - mean * mean)


def reference_mpmath_moments(pkt):
    """`_arrival_moments(pkt, 0.5)` by 40-digit mpmath quadrature over the
    same window p0 +/- 6 sigma_p, the variance as <tau^2> - <tau>^2."""
    with mpmath.workdps(40):
        p0, sp, m, d = (mpmath.mpf(v) for v in (pkt.p0, pkt.sigma_p,
                                                pkt.mass, pkt.d))

        def average(f):
            return mpmath.quad(lambda p: mpmath.exp(-((p - p0) / sp) ** 2)
                               * f(p), [p0 - 6 * sp, p0, p0 + 6 * sp])

        weight = average(lambda p: 1)
        mean = m * d * average(lambda p: 1 / p) / weight
        second = m * m * average(
            lambda p: (d * d + (1 / (2 * p) + (p - p0) / sp**2) ** 2) / p**2
        ) / weight
        return float(mean), float(mpmath.sqrt(second - mean**2))


def kijowski_density(phi_left, phi_right, m, tau):
    """Kijowski arrival density at clock time tau, by adaptive quadrature.

    |int_0^inf dp sqrt(p/2 pi m) e^(-i p^2 tau/2m) phi_left(p)|^2
    + |int_-inf^0 dp sqrt(-p/2 pi m) e^(-i p^2 tau/2m) phi_right(p)|^2

    phi_left / phi_right are momentum amplitude callables for packets
    arriving from the left / right; pass None for an absent side.  The
    oracle for `kijowski_curve` at a few times.
    """
    rho = 0.0
    if phi_left is not None:
        rho += abs(_half_line_integral(phi_left, m, tau, +1)) ** 2
    if phi_right is not None:
        rho += abs(_half_line_integral(phi_right, m, tau, -1)) ** 2
    return rho


def _composite_gauss(lo: float, hi: float, n: int):
    """~n Gauss-Legendre nodes as 32-point panels tiling [lo, hi]."""
    base_u, base_w = np.polynomial.legendre.leggauss(32)
    panels = max(1, -(-n // 32))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * base_u[None, :]).ravel()
    w = (half[:, None] * base_w[None, :]).ravel()
    return u, w


def reference_kijowski_curve(pkt, taus, nodes=4000):
    """Kijowski rates from the tau x nodes matrix of phases over ~nodes
    Gauss-Legendre nodes in p = p0 + sigma_p u, |u| <= 12 and p > 0,
    blocked to bound memory: an oracle for `kijowski_curve` on any grid,
    for packets with negligible momentum content at p <= 0."""
    taus = np.asarray(taus, dtype=float)
    u_lo = max(-12.0, -pkt.p0 / pkt.sigma_p + 1e-9)
    u, w = _composite_gauss(u_lo, 12.0, nodes)
    p = pkt.p0 + pkt.sigma_p * u
    phi = space_momentum_amplitude(pkt, p)
    base = np.sqrt(p / (2.0 * math.pi * pkt.mass)) * phi * pkt.sigma_p * w
    p2 = p * p / (2.0 * pkt.mass)
    amp = np.empty(taus.size, dtype=complex)
    block = max(1, int(4e6) // nodes)  # bound the phase-matrix memory
    for i in range(0, taus.size, block):
        phase = np.exp(-1j * np.outer(taus[i:i + block], p2))
        amp[i:i + block] = phase @ base
    return np.abs(amp) ** 2


def reference_phase_power_sums(w, z, steps):
    """A_n = sum_j w_j z_j^n for n = 1..steps by blocked powers: blocks of 32
    cumulative powers z^1..z^b each give b sums as one mat-vec, and the
    weights then advance by z^b.  The oracle for `_phase_power_sums`."""
    w = np.array(w, dtype=complex)
    block = max(1, min(32, steps))
    powers = np.cumprod(np.broadcast_to(z, (block, len(z))), axis=0)
    sums = np.empty(steps, dtype=complex)
    for s in range(0, steps, block):
        b = min(block, steps - s)
        sums[s:s + b] = powers[:b] @ w
        w *= powers[b - 1]
    return sums


def cli_grid(pkt):
    """The Kijowski grid of `kijowski-bullet` and `metric-compare`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # outside the regime
        stats = kijowski_bullet_stats(pkt)
    return default_tau_grid(stats.tau_bar, stats.uncertainty)


def reference_ms_evolve(x, psi0, cfg, m=1.0):
    """Per-step FFT/IFFT Marchewka-Schuss stepper, kept as the oracle for the
    spectral recurrence: propagate the odd image one step, difference at 0,
    absorb.  Returns (detected, psi_final)."""
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
    norm = float(np.trapezoid(np.abs(psi0) ** 2, x))
    survival_scale = 1.0
    for n in range(cfg.steps):
        full = np.fft.ifft(step_phase * np.fft.fft(full))
        dpsi0 = (full[i0 + 1] - full[i0 - 1]) / (2.0 * h) * survival_scale
        P = absorb_coeff * abs(dpsi0) ** 2
        detected[n] = P * norm
        norm *= 1.0 - P
        survival_scale *= math.sqrt(1.0 - P)
    return detected, full[:n_half] * survival_scale


def reference_ms_absorb(pkt, lam, epsilon, steps):
    """The grid-free Marchewka-Schuss recursion per step, kept as the
    oracle for its closed form: with the hard-wall derivative
    2 dphi/dx(0, tau_n) at tau_n = (n + 1) epsilon, absorb
    P_n = (epsilon lam / 2 pi m) |2 dphi/dx|^2 N_n of the norm N_n, from
    N_0 = 1.  Returns the detected probability per step."""
    taus = (np.arange(steps) + 1.0) * epsilon
    r = np.abs(2.0 * space_amplitude_dx(pkt, 0.0, taus)) ** 2
    absorb_coeff = epsilon * lam / (2.0 * math.pi * pkt.mass)
    detected = np.zeros(steps)
    norm = 1.0
    for n, rn in enumerate(r.tolist()):
        detected[n] = absorb_coeff * rn * norm * norm
        norm -= detected[n]
    return detected


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

    def test_zero_area_has_no_moments(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = ArrivalDistribution(np.linspace(0.0, 1.0, 5), np.zeros(5))
            summary = dist.summary()
        assert dist.norm == 0.0
        assert dist.mean is None and dist.uncertainty is None
        assert summary["mean"] is None and summary["uncertainty"] is None

    @pytest.mark.parametrize("k", [540, -540])
    def test_moments_at_extreme_clock_scales(self, k):
        # The unit curve stretched by s = 2^k: tau * rate (k < 0) or
        # (tau - mu)^2 * rate (k > 0) leaves the float range, yet the
        # moments are the unit curve's times s, bit for bit.
        t = np.linspace(1.0, 3.0, 201)
        rho = np.exp(-(t - 2.0) ** 2 / 0.02)
        unit = ArrivalDistribution(t, rho)
        s = math.ldexp(1.0, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = ArrivalDistribution(t * s, rho / s)
            summary = dist.summary()
        assert dist.norm == unit.norm
        assert dist.mean == summary["mean"] == unit.mean * s
        assert dist.uncertainty == summary["uncertainty"] \
            == unit.uncertainty * s
        assert unit.uncertainty == pytest.approx(0.1, rel=1e-6)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ArrivalDistribution(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            ArrivalDistribution(np.linspace(0, 1, 5), np.zeros(4))


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

    @pytest.mark.parametrize("m", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("sigma_p", [0.1, 1.0, 10.0])
    def test_trapezoid_norm_matches_quad(self, m, sigma_p):
        # Oracle: the adaptive quad over tau the trapezoid rule in log tau
        # replaced.  quad lands within 8.5e-12 of 1/4 on this grid, so the
        # two agree to 1e-10; the trapezoid norm itself to 1e-15.
        norm, err = kijowski_wave_norm(m, sigma_p)
        ref, _ = quad(lambda t: float(kijowski_wave_density_origin(m, sigma_p,
                                                                  t)),
                      0.0, np.inf, limit=400)
        assert norm == pytest.approx(ref, abs=1e-10)
        assert norm == pytest.approx(0.25, abs=1e-15)
        assert err <= 1e-10 * norm

    @pytest.mark.parametrize("m,sigma_p", [(0.0, 1.0), (1.0, 0.0),
                                           (-1.0, 1.0)])
    def test_nonpositive_parameters_rejected(self, m, sigma_p):
        for fn in (lambda: kijowski_wave_norm(m, sigma_p),
                   lambda: kijowski_wave_density_origin(m, sigma_p, 0.0)):
            with pytest.raises(ValueError, match="must be positive"):
                fn()

    @pytest.mark.parametrize("sigma_p", [1e-200, 1e200])
    def test_width_whose_square_leaves_the_floats_rejected(self, sigma_p):
        for fn in (lambda: kijowski_wave_norm(1.0, sigma_p),
                   lambda: kijowski_wave_density_origin(1.0, sigma_p, 0.0)):
            with pytest.raises(ValueError, match="normal float range"):
                fn()

    # The window end, then the peak density ~ sigma_p^2 / m = 1e600, then
    # sigma_p^2 tau = m e^80 at the window end.
    @pytest.mark.parametrize("m, sigma_p", [(1.0, 1e-150), (1e300, 1.0),
                                            (1e-300, 1e150), (1e300, 1e150)])
    def test_overflowing_window_names_the_width(self, m, sigma_p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma_p = .* overflows"):
                kijowski_wave_norm(m, sigma_p)

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
        stats = kijowski_bullet_stats(BULLET)
        assert stats.tau_bar == pytest.approx(2000.0)
        assert stats.sigma_bar_tau == pytest.approx(20.0)
        assert stats.uncertainty == pytest.approx(20.0 / math.sqrt(2))

    def test_uncertainty_ratio_identity(self):
        # Delta tau / tau_bar = (1/sqrt 2) sigma_p / p0
        stats = kijowski_bullet_stats(BULLET)
        assert stats.uncertainty / stats.tau_bar == pytest.approx(
            BULLET.sigma_p / BULLET.p0 / math.sqrt(2.0), rel=1e-12)

    def test_distance_scaling(self):
        a = kijowski_bullet_stats(BULLET)
        b = kijowski_bullet_stats(replace(BULLET, x0=-2 * BULLET.d))
        assert b.tau_bar == pytest.approx(2 * a.tau_bar)
        assert b.uncertainty == pytest.approx(2 * a.uncertainty)

    def test_out_of_regime_warns(self):
        wide = SpacePacket(x0=-100.0, p0=1.0, sigma_x=2.0, mass=1.0)
        with pytest.warns(UserWarning, match="bullet regime"):
            kijowski_bullet_stats(wide)

    def test_position_width_out_of_regime_warns(self):
        # sigma_p/p0 = 0.1 passes, but m sigma_x^2/tau_bar = 1 does not.
        with pytest.warns(UserWarning,
                          match=r"m sigma_x\^2/tau_bar = 1 .*bullet regime"):
            kijowski_bullet_stats(SLOW)

    def test_in_regime_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kijowski_bullet_stats(BULLET)

    def test_exact_moments_mean_matches_series(self):
        # <tau> = m d <1/p> = m d/p0 (1 + s^2/2 + 3 s^4/4 + ...), s = sigma_p/p0
        s = SLOW.sigma_p / SLOW.p0
        series = SLOW.mass * SLOW.d / SLOW.p0 * (1 + s**2 / 2 + 3 * s**4 / 4)
        mean, _ = _arrival_moments(SLOW, 0.5)
        assert mean == pytest.approx(series, rel=1e-5)

    def test_exact_moments_match_closed_form_in_regime(self):
        stats = kijowski_bullet_stats(BULLET)
        mean, dt = _arrival_moments(BULLET, 0.5)
        assert mean == pytest.approx(stats.tau_bar, rel=2e-3)
        assert dt == pytest.approx(stats.uncertainty, rel=2e-3)

    @pytest.mark.parametrize("pkt", [
        SLOW,
        SpacePacket(x0=-50.0, p0=2.0, sigma_x=50.0, mass=1.5),   # 1/100
        SpacePacket(x0=-50.0, p0=2.0, sigma_x=4.0, mass=1.5),    # 1/8
    ], ids=["criterion_2", "sigma_p_1_100", "sigma_p_1_8"])
    def test_exact_moments_match_quad(self, pkt):
        # Oracle: the adaptive quad (epsrel 1e-12) the trapezoid rule
        # replaced.  Its spread comes from <tau^2> - <tau>^2, which loses
        # up to two digits, so both moments are held to 1e-12 relative.
        mean, dt = _arrival_moments(pkt, 0.5)
        ref_mean, ref_dt = reference_exact_moments(pkt)
        assert mean == pytest.approx(ref_mean, rel=1e-12)
        assert dt == pytest.approx(ref_dt, rel=1e-12)

    @pytest.mark.parametrize("ratio", [1e-3, 1e-6])
    def test_exact_moments_match_mpmath(self, ratio):
        # At sigma_p/p0 = ratio, <tau^2> - <tau>^2 cancels (p0/sigma_p)^2
        # in floats; 40 digits leave the oracle 28 after it.
        pkt = SpacePacket(x0=-1e4 / ratio, p0=1.0, sigma_x=1.0 / ratio)
        mean, dt = _arrival_moments(pkt, 0.5)
        ref_mean, ref_dt = reference_mpmath_moments(pkt)
        assert mean == pytest.approx(ref_mean, rel=1e-12)
        assert dt == pytest.approx(ref_dt, rel=1e-12)

    def test_exact_moments_refuse_content_near_zero(self):
        wide = SpacePacket(x0=-100.0, p0=1.0, sigma_x=2.0, mass=1.0)
        with pytest.raises(ValueError, match="near p = 0"):
            _arrival_moments(wide, 0.5)

    def test_invalid_inputs(self):
        # d <= 0: test_experiments.py::test_packet_at_or_past_detector_rejected.
        with pytest.raises(ValueError, match="p0 > 0"):
            kijowski_bullet_stats(SpacePacket(x0=-1.0, p0=-1.0, sigma_x=1,
                                              mass=1))

    def test_curve_matches_adaptive_density(self):
        phi = lambda p: space_momentum_amplitude(BULLET, p)
        taus = np.array([1980.0, 2000.0, 2020.0])
        curve = kijowski_curve(BULLET, taus)
        for i, tau in enumerate(taus):
            direct = kijowski_density(phi, None, BULLET.mass, tau)
            assert curve.rates[i] == pytest.approx(direct, rel=1e-7)

    def test_curve_moments_match_closed_form(self):
        stats = kijowski_bullet_stats(BULLET)
        taus = default_tau_grid(stats.tau_bar, stats.uncertainty)
        curve = kijowski_curve(BULLET, taus)
        assert curve.norm == pytest.approx(1.0, abs=1e-3)
        assert curve.mean == pytest.approx(stats.tau_bar, rel=1e-3)
        assert curve.uncertainty == pytest.approx(stats.uncertainty, rel=5e-3)


class TestKijowskiCurve:
    # (packet, grid, Gauss-Legendre nodes) at the packets and grids of
    # `kijowski-bullet`, `metric-compare` and criterion 2, with the node
    # counts each once passed.
    GRIDS = {"kijowski_bullet": (SLOW, cli_grid(SLOW), 8000),
             "criterion_2": (SLOW, np.linspace(10.0, 190.0, 1601), 6000),
             "metric_compare": (BULLET, cli_grid(BULLET), 20000)}

    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_matches_phase_matrix_oracle(self, case):
        pkt, taus, nodes = self.GRIDS[case]
        rates = kijowski_curve(pkt, taus).rates
        expect = reference_kijowski_curve(pkt, taus, nodes=nodes)
        assert np.max(np.abs(rates - expect)) <= 1e-10 * expect.max()

    @pytest.mark.parametrize("pkt", [
        SpacePacket(x0=-10.0, p0=0.1, sigma_x=10.0, mass=1.0),
        SpacePacket(x0=-100.0, p0=1.0, sigma_x=5.0, mass=1.0),
    ], ids=["p0_0.1", "sigma_x_5"])
    def test_broad_packet_matches_adaptive_density(self, pkt):
        # sigma_p/p0 = 1 and 0.2: the window reaches p = 0, where the
        # integrand has its sqrt(p) edge.
        phi = lambda p: space_momentum_amplitude(pkt, p)
        tau_bar = pkt.d / pkt.v0
        taus = np.array([0.5, 1.0, 1.5]) * tau_bar
        curve = kijowski_curve(pkt, taus)
        for i, tau in enumerate(taus):
            direct = kijowski_density(phi, None, pkt.mass, tau)
            assert curve.rates[i] == pytest.approx(direct, rel=1e-7)

    def test_meta_records_resolution(self):
        # nodes: the intervals of the last level, 16 x 2^k; quad_error: the
        # max-norm difference of the last two levels' amplitudes.
        curve = kijowski_curve(SLOW, np.linspace(10.0, 190.0, 1601))
        assert curve.meta["nodes"] in [16 * 2**k for k in range(1, 13)]
        assert 0.0 <= curve.meta["quad_error"] \
            <= 1e-10 * math.sqrt(curve.rates.max())

    def test_unresolved_phase_raises(self):
        # p0 = 0.5, d = 2e4: the phase across the packet is not resolved
        # with _trapezoid's 65537 nodes.
        pkt = SpacePacket(x0=-2.0e4, p0=0.5, sigma_x=10.0, mass=1.0)
        with pytest.raises(NumericalError, match="did not converge"):
            kijowski_curve(pkt, cli_grid(pkt))

    def test_first_tau_is_not_shifted(self):
        # The sums start at z^1: a seed at tau_0 instead of tau_0 - dtau
        # would put every rate one step late.  The grid starts at the peak,
        # where a one-step shift changes the rate by about 1e-3.
        taus = np.linspace(100.0, 110.0, 101)
        first = kijowski_curve(SLOW, taus).rates[0]
        assert first == pytest.approx(
            reference_kijowski_curve(SLOW, taus[:1], nodes=6000)[0],
            rel=1e-12, abs=0.0)

    def test_single_point_grid(self):
        curve = kijowski_curve(BULLET, [2000.0])
        direct = kijowski_density(
            lambda p: space_momentum_amplitude(BULLET, p), None, BULLET.mass,
            2000.0)
        assert curve.rates.shape == (1,)
        assert curve.rates[0] == pytest.approx(direct, rel=1e-7)

    def test_narrow_packet_matches_adaptive_density(self):
        # Criterion 2's packet at its mean arrival time: sigma_p = 0.05, so
        # the support p in [0.4, 1.6] lies between integer momentum probes.
        curve = kijowski_curve(SLOW, [100.0])
        direct = kijowski_density(
            lambda p: space_momentum_amplitude(SLOW, p), None, SLOW.mass, 100.0)
        assert direct == pytest.approx(0.039844, abs=1e-6)
        assert curve.rates[0] == pytest.approx(direct, rel=1e-7)

    def test_empty_grid(self):
        curve = kijowski_curve(SLOW, np.array([]))
        assert curve.taus.size == 0 and curve.rates.size == 0

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(ValueError, match="uniformly spaced"):
            kijowski_curve(SLOW, np.geomspace(10.0, 190.0, 101))
        taus = np.linspace(10.0, 190.0, 101)
        taus[50] += 1e-6
        with pytest.raises(ValueError, match="uniformly spaced"):
            kijowski_curve(SLOW, taus)

    def test_memory_stays_below_phase_matrix(self):
        # The tau x nodes phase matrix of `reference_kijowski_curve` peaks
        # near 184 MiB here; the phase-power sums keep 32 x 512 blocks and
        # a grid of 2560 points.
        pkt, taus, _ = self.GRIDS["metric_compare"]
        tracemalloc.start()
        try:
            kijowski_curve(pkt, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestPhasePowerSums:
    @staticmethod
    def _check(w, theta, steps):
        """Against the blocked powers and the direct powers, to the
        gridding error plus a phase rounding of order n ulp per term, both
        relative to sum |w|."""
        sums = _phase_power_sums(w, theta, steps)
        z = np.exp(-1j * theta)
        n = np.arange(1, steps + 1)
        atol = (1e-13 + 1e-15 * steps) * np.abs(w).sum()
        np.testing.assert_allclose(
            sums, reference_phase_power_sums(w, z, steps), rtol=0, atol=atol)
        np.testing.assert_allclose(sums, (z[None, :] ** n[:, None]) @ w,
                                   rtol=0, atol=atol)
        return sums

    # 0, 1, fewer than the 2 _SPREAD points of the Gaussian, and the steps
    # of criterion 9.
    @pytest.mark.parametrize("steps", [0, 1, 2 * _SPREAD - 3, 10**4])
    def test_random_phases(self, steps):
        rng = np.random.default_rng(11)
        w = rng.normal(size=300) + 1j * rng.normal(size=300)
        theta = rng.uniform(0.0, 40.0, size=300)
        assert self._check(w, theta, steps).shape == (steps,)

    def test_single_node(self):
        theta = np.array([2.5])
        sums = self._check(np.array([0.3 - 0.4j]), theta, 200)
        np.testing.assert_allclose(
            sums, (0.3 - 0.4j) * np.exp(-1j * np.arange(1, 201) * 2.5),
            rtol=0, atol=1e-13)

    def test_phase_of_many_turns(self):
        # theta = 1000.3 is 159 turns: reduced by the float 2 pi alone it
        # is 4e-14 off, which n = 10^4 turns into a 4e-10 error.
        self._check(np.array([1.0 + 0j]), np.array([1000.3]), 10**4)
        # |theta| from 1e6 up to the last float below the refusal bound
        # steps ulp(theta) <= 1e-9 rad, against a 60-digit direct sum over
        # the exact binary phases.
        rng = np.random.default_rng(3)
        for steps in (1, 2, 3):
            # ulp(theta) = 2^(e - 52) on [2^e, 2^(e + 1)).
            top = 2.0 ** (math.floor(math.log2(1e-9 / steps)) + 53)
            mags = np.geomspace(1e6, np.nextafter(top, 0.0), 9)
            theta = np.concatenate([mags, -mags])
            w = rng.normal(size=theta.size) + 1j * rng.normal(size=theta.size)
            with mpmath.workdps(60):
                ref = [complex(mpmath.fsum(
                    mpmath.mpc(complex(a)) * mpmath.expj(-n * mpmath.mpf(t))
                    for a, t in zip(w.tolist(), theta.tolist())))
                    for n in range(1, steps + 1)]
            np.testing.assert_allclose(_phase_power_sums(w, theta, steps),
                                       ref, rtol=0,
                                       atol=1e-14 * np.abs(w).sum())
            _require_phase(mags[-1], steps)
            with pytest.raises(NumericalError, match="> 1e-9 rad"):
                _require_phase(top, steps)

    def test_phases_at_the_grid_ends(self):
        # theta = 0 spreads onto both ends of the periodic grid; theta just
        # below 2 pi and just below 0 (which reduces to 2 pi) wrap past it,
        # and the float 2 pi reduces to a rounding below 0.
        theta = np.array([0.0, 1e-13, 2.0 * math.pi - 1e-9,
                          2.0 * math.pi - 1e-15, -1e-17, 2.0 * math.pi,
                          math.pi])
        w = np.array([1.0, -0.5j, 2.0, 0.25 + 1j, -1.5, 0.5 - 2j, 0.75])
        for steps in (1, 31, 1000):
            self._check(w, theta, steps)

    def test_cancelling_weights(self):
        # Unit weights at the J-th roots of unity: A_n = J when J divides n,
        # else 0, so most sums are far below sum |w| = J.
        J = 64
        theta = 2.0 * math.pi * np.arange(J) / J
        sums = self._check(np.ones(J), theta, 200)
        n = np.arange(1, 201)
        np.testing.assert_allclose(sums, np.where(n % J == 0, J, 0),
                                   rtol=0, atol=1e-13 * J)

    def test_memory_of_one_call(self):
        # J = 32768, the nodes of the last trapezoid level, at the 1201 taus
        # of the CLI grid: the blocked powers hold 32 x J complex values
        # (16 MiB); the gridding holds a few 2 _SPREAD x _CHUNK temporaries
        # and the grid.
        rng = np.random.default_rng(5)
        w = rng.normal(size=32768) + 1j * rng.normal(size=32768)
        theta = rng.uniform(0.0, 1.0, size=32768)
        tracemalloc.start()
        try:
            _phase_power_sums(w, theta, 1201)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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
        psi = space_amplitude(BULLET, 0.0, tau)
        j = probability_current(psi, space_amplitude_dx(BULLET, 0.0, tau),
                                BULLET.mass)
        assert j == pytest.approx(BULLET.v0 * abs(psi) ** 2, rel=1e-2)

    @pytest.mark.parametrize("pkt", [
        BULLET, SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0),
        SpacePacket(x0=-25.0, p0=-0.5, sigma_x=2.0, mass=3.0)],
        ids=["bullet", "criterion_8", "left_moving_heavy"])
    def test_detector_current_is_the_current_at_the_origin(self, pkt):
        tau = np.linspace(0.5, 3000.0, 97)
        psi = space_amplitude(pkt, 0.0, tau)
        dpsi = space_amplitude_dx(pkt, 0.0, tau)
        np.testing.assert_array_equal(_detector_current(pkt, tau),
                                      (np.conj(psi) * dpsi).imag / pkt.mass)


class TestSqmDetectionCurve:
    def test_moments_in_bullet_regime(self):
        curve = sqm_detection_curve(BULLET)
        assert curve.norm == pytest.approx(1.0, abs=1e-3)
        assert curve.mean == pytest.approx(2000.0, rel=1e-3)
        assert curve.uncertainty == pytest.approx(
            curve.meta["closed_form_uncertainty"], rel=1e-2)

    def test_left_mover_rejected(self):
        with pytest.raises(ValueError, match="right-moving"):
            sqm_detection_curve(SpacePacket(x0=-10.0, p0=-1.0, sigma_x=1,
                                            mass=1))

    def test_window_below_float_spacing_is_numerical_error(self):
        # Width 7e-13 at tau_bar = 100: 1201 points on 20 widths cannot
        # step past the float spacing 1.4e-14 there.
        wide = SpacePacket(x0=-100.0, p0=1.0, sigma_x=1e14)
        with pytest.raises(NumericalError, match="window at 100, width"):
            sqm_detection_curve(wide)
        with pytest.raises(NumericalError, match="float spacing"):
            default_tau_grid(100.0, 1e-15)


class TestMarchewkaSchuss:
    def test_step_algebra_rejects_bad_probability(self):
        # psi0 = x e^(-x^2/2) has dpsi/dx(0) = 1, so after one short step
        # P_0 = (epsilon lam / 2 pi) |dpsi/dx(0)|^2 is about 16 > 1.
        x = np.linspace(-10.0, 0.0, 1025)
        psi0 = (x * np.exp(-x * x / 2.0)).astype(complex)
        with pytest.raises(NumericalError, match="> 1 at step 0"):
            marchewka_schuss_evolve(x, psi0, MsConfig(lam=1e4, epsilon=0.01,
                                                      steps=5))

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
        detected, psi_final = reference_ms_evolve(x, psi0, cfg)
        res = marchewka_schuss_evolve(x, psi0, cfg)
        assert np.max(np.abs(res.detected - detected)) <= 1e-13
        assert np.max(np.abs(res.psi_final - psi_final)) <= 1e-11
        assert res.cumulative_detected == pytest.approx(detected.sum(),
                                                        abs=1e-12)

    @pytest.mark.parametrize("steps", [0, 1, 32, 101])
    def test_phase_power_sums_match_direct_powers(self, steps):
        rng = np.random.default_rng(7)
        w = rng.normal(size=50) + 1j * rng.normal(size=50)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=50)
        z = np.exp(-1j * theta)
        w_in = w.copy()
        sums = _phase_power_sums(w, theta, steps)
        n = np.arange(1, steps + 1)
        np.testing.assert_allclose(sums, (z[None, :] ** n[:, None]) @ w,
                                   rtol=0, atol=1e-12)
        assert np.array_equal(w, w_in)           # the weights are not consumed

    def test_analytic_odd_image_matches_grid(self):
        # For Gaussian data the hard-wall derivative is 2 dphi/dx(0, tau);
        # the grid differs by its central-difference error (k h)^2 / 6.
        x, psi0 = self._setup()
        cfg = MsConfig(lam=1.0, epsilon=0.02, steps=1200)
        res = marchewka_schuss_evolve(x, psi0, cfg)
        pkt = SpacePacket(x0=-16.0, p0=1.0, sigma_x=2.0, mass=1.0)
        detected = reference_ms_absorb(pkt, cfg.lam, cfg.epsilon, cfg.steps)
        assert np.max(np.abs(res.detected - detected)) \
            <= 5e-3 * np.max(detected)

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
        with pytest.raises(NumericalError, match="> 1"):
            marchewka_schuss_evolve(x, psi0, MsConfig(lam=1e6, epsilon=0.5,
                                                      steps=50))

    # Refused before any phase is formed, so k^2 eps overflowing warns
    # nothing.  No step is taken at steps = 0, but a phase step of 1.3e17
    # rad carries a rounding of 16 rad.
    @pytest.mark.parametrize("epsilon,steps", [(1e6, 3), (1e306, 3),
                                               (1e14, 0)])
    def test_step_phase_beyond_float_precision_aborts(self, epsilon, steps):
        x, psi0 = self._setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="phase step"):
                marchewka_schuss_evolve(x, psi0, MsConfig(
                    lam=1.0, epsilon=epsilon, steps=steps))

    def test_grid_validation(self):
        x = np.linspace(-10.0, 1.0, 111)      # does not end at 0
        with pytest.raises(ValueError):
            marchewka_schuss_evolve(x, np.exp(-(x + 5) ** 2).astype(complex),
                                    MsConfig(lam=1.0, epsilon=0.01, steps=1))

    @pytest.mark.parametrize("x", [np.zeros(1), np.linspace(10.0, 0.0, 101)],
                             ids=["one-point", "decreasing"])
    def test_short_or_decreasing_grid_rejected(self, x):
        with pytest.raises(ValueError, match="increasing with at least two"):
            marchewka_schuss_evolve(x, np.exp(-(x - 5) ** 2).astype(complex),
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
            warnings.simplefilter("ignore", UserWarning)
            dist = res.arrival_distribution()
            assert abs(dist.mean - 25.0) / 25.0 < 0.06
        assert res.cumulative_detected > 0.3
