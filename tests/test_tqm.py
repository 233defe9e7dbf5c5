"""Time-extended packets: dispersion budget, arrival curves, factorization."""

import math
import warnings

import numpy as np
import pytest

from test_detectors import BULLET
from test_wavepacket import (max_entropy_time_packet, time_amplitude_dt2,
                             time_dispersion_factor)
from toalab.detectors import (ArrivalDistribution, kijowski_bullet_stats,
                              probability_current, sqm_detection_curve)
from toalab.kernels import NumericalError
from toalab.tqm import (TqmPacket, tqm_arrival_distribution,
                        tqm_detection_density, tqm_dispersion_budget)
from toalab.validation import criterion_10
from toalab.wavepacket import (SpacePacket, TimePacket, space_amplitude,
                               space_amplitude_dx, time_amplitude)


def tqm_amplitude(pkt, t, x, tau=0.0):
    """Direct-product amplitude phi~_tau(t) * phi-_tau(x)."""
    return time_amplitude(pkt.time, t, tau) \
        * space_amplitude(pkt.space, x, tau)


def tqm_current(pkt, t, x, tau):
    """Probability current in x of the 4D amplitude at (t, x; tau).

    Factorizes as the spatial current times the coordinate-time density.
    """
    j_space = probability_current(space_amplitude(pkt.space, x, tau),
                                  space_amplitude_dx(pkt.space, x, tau),
                                  pkt.mass)
    return j_space * np.abs(time_amplitude(pkt.time, t, tau)) ** 2


def coordinate_time_cancellation_check(pkt, tau, x=0.0,
                                       half_width_sigmas=12.0):
    """Residual of the second-coordinate-time-derivative cancellation.

    Evaluates (i/2m) int dt [(d2psi*/dt2) psi - psi* (d2psi/dt2)] with
    analytic derivatives.  For a decaying amplitude this is a pure boundary
    term and must vanish; shrinking the window (e.g. half_width_sigmas=2)
    leaves a nonzero residual, demonstrating the test's sensitivity.
    """
    tp = pkt.time
    f = time_dispersion_factor(tp, tau)
    width = tp.sigma_t * abs(np.sqrt(f)) * math.sqrt(0.5)
    center = tp.t0 + (tp.E0 / tp.mass) * tau
    t = np.linspace(center - half_width_sigmas * width,
                    center + half_width_sigmas * width, 8192)
    phi = time_amplitude(tp, t, tau)
    phi2 = time_amplitude_dt2(tp, t, tau)
    # (psi2* psi - psi* psi2) = -2i Im(psi* psi2); the i/2m prefactor makes
    # the integrand real.
    integrand = (np.conj(phi) * phi2).imag / pkt.mass
    rho_x = np.abs(space_amplitude(pkt.space, x, tau)) ** 2
    return float(np.trapezoid(integrand, t) * rho_x)


def make_packet(sigma_t=10.0, sigma_x=10.0, p0=1.0, m=1.0, d=100.0):
    space = SpacePacket(x0=-d, p0=p0, sigma_x=sigma_x, mass=m)
    return TqmPacket(time=TimePacket(t0=0.0, E0=m, sigma_t=sigma_t, mass=m),
                     space=space)


def reference_frozen_convolution(pkt, t_grid):
    """The frozen clock-time convolution done numerically (test oracle).

    Samples the bullet arrival Gaussian Dbar(tau) (parameter sigma_bar) on
    tau_bar +/- 8 max(sigma_bar, sigma_tilde), convolves it by FFT with the
    coordinate-time Gaussian (parameter sigma_tilde) in u = (E0/m) tau, and
    interpolates onto t_grid.  Shares no code with the closed form.  The
    sampling step du is a hundredth of the narrower width; at a tenth the
    linear interpolation alone is off by about du^2/(4 S^2) of the peak,
    1.2e-3 at make_packet().
    """
    from scipy.signal import fftconvolve

    disp = tqm_dispersion_budget(pkt)
    drift = pkt.time.E0 / pkt.mass
    sb, st = disp.sigma_bar_tau, disp.sigma_tilde_tau
    du = min(drift * sb, st) / 100.0
    w = 8.0 * max(sb, st)
    taus = np.arange(disp.tau_bar - w, disp.tau_bar + w, du / drift)
    a = np.exp(-((taus - disp.tau_bar) / sb) ** 2) \
        / (math.sqrt(math.pi) * sb) / drift
    u_t = np.arange(-8.0 * st, 8.0 * st + du, du)
    b = np.exp(-(u_t / st) ** 2) / (math.sqrt(math.pi) * st)
    conv = fftconvolve(a, b) * du
    t_fine = pkt.time.t0 + drift * taus[0] + u_t[0] \
        + du * np.arange(conv.size)
    return np.interp(t_grid, t_fine, conv, left=0.0, right=0.0)


def reference_sqm_limit(pkt, t):
    """The sigma_t -> infinity arrival curve typed out (test oracle): the
    bullet Gaussian exp(-((t - c)/S)^2)/(sqrt(pi) S) in coordinate time,
    c = t0 + (E0/m) d/v0 and S = (E0/m) sigma_bar with sigma_bar =
    (d/v0)/(m v0 sigma_x).  Shares no code with `toalab.tqm`."""
    sp = pkt.space
    drift = pkt.time.E0 / pkt.mass
    tau_bar = sp.d / sp.v0
    center = pkt.time.t0 + drift * tau_bar
    width = drift * (tau_bar / (sp.mass * sp.v0 * sp.sigma_x))
    return np.exp(-((t - center) / width) ** 2) \
        / (math.sqrt(math.pi) * width)


# tqm-detect defaults and criterion 10: p0 = m v0 = 0.1, sigma_x = sigma_t
# = 10, d = 10, so sigma_p/p0 = m sigma_x^2/tau_bar = m sigma_t^2/tau_bar = 1.
TQM_DETECT = make_packet(sigma_t=10.0, sigma_x=10.0, p0=0.1, d=10.0)


class TestPacketAndBudget:
    def test_mass_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TqmPacket(time=TimePacket(0.0, 1.0, 1.0, mass=1.0),
                      space=SpacePacket(0.0, 1.0, 1.0, mass=2.0))

    def test_amplitude_is_direct_product(self):
        pkt = make_packet()
        t, x, tau = 3.0, -50.0, 40.0
        assert tqm_amplitude(pkt, t, x, tau) == pytest.approx(
            complex(time_amplitude(pkt.time, t, tau)
                    * space_amplitude(pkt.space, x, tau)), rel=1e-12)

    def test_budget_components(self):
        # tau_bar = 100, space term 100/(1*1*10) = 10, time term 100/10 = 10
        disp = tqm_dispersion_budget(make_packet())
        assert disp.tau_bar == pytest.approx(100.0)
        assert disp.sigma_bar_tau == pytest.approx(10.0)
        assert disp.sigma_tilde_tau == pytest.approx(10.0)
        assert disp.sigma_tau == pytest.approx(math.sqrt(200.0))
        assert disp.uncertainty == pytest.approx(10.0)

    def test_quadratic_additivity(self):
        disp = tqm_dispersion_budget(make_packet(sigma_t=3.0))
        assert disp.sigma_tau**2 == pytest.approx(
            disp.sigma_bar_tau**2 + disp.sigma_tilde_tau**2, rel=1e-12)
        assert disp.sigma_tau >= disp.sigma_bar_tau

    def test_wide_time_packet_recovers_space_only_budget(self):
        tight = tqm_dispersion_budget(make_packet(sigma_t=1e6))
        assert tight.sigma_tau == pytest.approx(tight.sigma_bar_tau, rel=1e-7)

    # The default window holds 0.81 of criterion 10's flux erf(1) = 0.84,
    # so its current curve is refused and carries no closed forms.
    @pytest.mark.parametrize("pkt", [
        TqmPacket(time=TQM_DETECT.time, space=BULLET), TQM_DETECT],
        ids=["bullet", "criterion_10"])
    def test_builders_share_one_frozen_law(self, pkt):
        # The bullet stats, the current curve's closed forms and the TQM
        # budget are one record: equal bit for bit.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stats = kijowski_bullet_stats(pkt.space)
        if pkt is TQM_DETECT:
            with pytest.raises(NumericalError, match="total flux"):
                sqm_detection_curve(pkt.space)
        else:
            meta = sqm_detection_curve(pkt.space).meta
            assert meta["tau_bar"] == stats.tau_bar
            assert meta["closed_form_uncertainty"] == stats.uncertainty
        disp = tqm_dispersion_budget(pkt)
        assert disp.tau_bar == stats.tau_bar
        assert disp.sigma_bar_tau == stats.sigma_bar_tau
        assert stats.sigma_tilde_tau == 0.0


class TestDetectionDensity:
    def test_time_marginal_returns_sqm_rate(self):
        pkt = make_packet()
        tau = 95.0
        t = np.linspace(-400.0, 600.0, 8001)
        dens = tqm_detection_density(pkt, tau, t)
        marginal = np.trapezoid(dens, t)
        psi = space_amplitude(pkt.space, 0.0, tau)
        dpsi = space_amplitude_dx(pkt.space, 0.0, tau)
        sqm = (np.conj(psi) * dpsi).imag / pkt.mass
        assert marginal == pytest.approx(float(sqm), rel=1e-8)

    def test_current_factorizes(self):
        pkt = make_packet()
        t, x, tau = 90.0, 0.0, 95.0
        j = tqm_current(pkt, t, x, tau)
        psi = space_amplitude(pkt.space, x, tau)
        dpsi = space_amplitude_dx(pkt.space, x, tau)
        expect = ((np.conj(psi) * dpsi).imag / pkt.mass
                  * abs(time_amplitude(pkt.time, t, tau)) ** 2)
        assert j == pytest.approx(float(expect), rel=1e-12)

    def test_time_marginal_of_current_is_spatial_current(self):
        pkt = make_packet()
        tau, x = 100.0, 0.0
        t = np.linspace(-400.0, 600.0, 8001)
        j = tqm_current(pkt, t, x, tau)
        psi = space_amplitude(pkt.space, x, tau)
        dpsi = space_amplitude_dx(pkt.space, x, tau)
        expect = (np.conj(psi) * dpsi).imag / pkt.mass
        assert np.trapezoid(j, t) == pytest.approx(float(expect), rel=1e-8)


class TestArrivalDistribution:
    def test_combined_width_matches_closed_form(self):
        pkt = make_packet()
        curve = tqm_arrival_distribution(pkt)
        disp = tqm_dispersion_budget(pkt)
        assert curve.norm == pytest.approx(1.0, abs=1e-6)
        assert curve.mean == pytest.approx(100.0, rel=1e-6)
        assert curve.uncertainty == pytest.approx(disp.uncertainty, rel=1e-3)

    def test_wide_time_packet_recovers_sqm_curve(self):
        pkt = make_packet(sigma_t=1e4 * 10.0)  # sigma_tilde << sigma_bar
        tqm = tqm_arrival_distribution(pkt)
        sqm = reference_sqm_limit(pkt, tqm.taus)
        assert np.abs(tqm.rates - sqm).max() < 1e-4 * sqm.max()

    def test_criterion_10_measures_recovery_against_the_sqm_limit(self):
        # Criterion 10's wide packet: its SQM reference is the oracle's
        # curve bit for bit, so the sup-norm is the same number.
        sp = SpacePacket(x0=-10.0, p0=0.1, sigma_x=10.0, mass=1.0)
        wide = TqmPacket(time=TimePacket(t0=0.0, E0=1.0,
                                         sigma_t=1e4 * sp.sigma_x * sp.v0),
                         space=sp)
        curve = tqm_arrival_distribution(wide)
        sup = float(np.max(np.abs(curve.rates
                                  - reference_sqm_limit(wide, curve.taus))))
        assert criterion_10().observed["sqm_recovery_sup_norm"] == sup
        assert sup == pytest.approx(2.8208186654554712e-11, rel=1e-6)

    def test_window_below_float_spacing_is_numerical_error(self):
        pkt = make_packet(sigma_t=1e20, sigma_x=1e20)
        with pytest.raises(NumericalError, match="window at 100, width"):
            tqm_arrival_distribution(pkt)

    def test_captured_norm_reported(self):
        curve = tqm_arrival_distribution(make_packet())
        assert curve.norm == pytest.approx(1.0, abs=1e-6)
        assert curve.meta["sigma_tau"] == pytest.approx(math.sqrt(200.0))

    def test_exact_drift_shifts_center(self):
        # Relativistic drift E0/m: with the max-entropy packet E0 = sqrt(
        # m^2 + p0^2), the arrival center moves to (E0/m) tau_bar, for the
        # TQM curve and its SQM limit alike.
        space = SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0)
        pkt = TqmPacket(time=max_entropy_time_packet(space), space=space)
        curve = tqm_arrival_distribution(pkt)
        assert curve.meta["drift"] == pytest.approx(math.sqrt(2.0))
        assert curve.mean == pytest.approx(100.0 * math.sqrt(2.0), rel=1e-4)
        sqm = ArrivalDistribution(curve.taus,
                                  reference_sqm_limit(pkt, curve.taus))
        assert sqm.mean == pytest.approx(100.0 * math.sqrt(2.0), rel=1e-9)
        disp = tqm_dispersion_budget(pkt)
        span = 8.0 * math.hypot(math.sqrt(2.0) * disp.sigma_bar_tau,
                                disp.sigma_tilde_tau)
        assert curve.taus[0] == pytest.approx(curve.mean - span, rel=1e-9)
        assert curve.taus[-1] == pytest.approx(curve.mean + span, rel=1e-9)

    @pytest.mark.parametrize("pkt", [make_packet(), TQM_DETECT],
                             ids=["make_packet", "tqm_detect"])
    def test_closed_form_matches_frozen_convolution(self, pkt):
        curve = tqm_arrival_distribution(pkt)
        ref = reference_frozen_convolution(pkt, curve.taus)
        assert np.abs(curve.rates - ref).max() < 1e-4 * curve.rates.max()
        assert curve.uncertainty == pytest.approx(
            curve.meta["closed_form_uncertainty"], rel=1e-9)

    def test_criterion_10_reports_regime_ratios(self):
        observed = criterion_10().observed
        for key in ("sigma_p_over_p0", "m_sigma_x2_over_tau_bar",
                    "m_sigma_t2_over_tau_bar"):
            assert observed[key] == pytest.approx(1.0, rel=1e-12)


class TestCancellation:
    def test_boundary_term_vanishes_on_full_window(self):
        pkt = make_packet()
        for tau in (0.0, 10.0, 95.0, 200.0):
            assert abs(coordinate_time_cancellation_check(pkt, tau)) < 1e-10

    def test_independent_of_evaluation_point(self):
        pkt = make_packet()
        for x in (-50.0, 0.0, 20.0):
            assert abs(coordinate_time_cancellation_check(pkt, 95.0, x=x)) < 1e-10

    def test_truncated_window_leaves_residual(self):
        pkt = make_packet()
        assert abs(coordinate_time_cancellation_check(
            pkt, 95.0, half_width_sigmas=2.0)) > 1e-7
