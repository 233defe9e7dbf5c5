"""Tests for Gaussian space/time packets: fixed values, invariants, duality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from toalab.kernels import NumericalError
from toalab.wavepacket import (SpacePacket, TimePacket,
                               negative_energy_fraction, space_amplitude,
                               space_amplitude_dx, space_momentum_amplitude,
                               time_amplitude)

PI_QUARTER = math.pi ** -0.25


def time_dispersion_factor(pkt, tau):
    """f = 1 - i tau / (m sigma_t^2) of a time packet."""
    return 1.0 - 1j * np.asarray(tau) / (pkt.mass * pkt.sigma_t**2)


def reference_time_amplitude(pkt, t, tau=0.0):
    """Oracle: the coordinate-time amplitude typed out,
    (pi sigma_t^2)^(-1/4) f^(-1/2) exp(-i E0 t
    - (t - t0 - (E0/m) tau)^2 / (2 sigma_t^2 f) + i E0^2 tau / (2 m))
    with f = 1 - i tau / (m sigma_t^2)."""
    t = np.asarray(t, dtype=float)
    f = time_dispersion_factor(pkt, tau)
    norm = (math.pi * pkt.sigma_t**2) ** -0.25 / np.sqrt(f)
    arg = (
        -1j * pkt.E0 * t
        - (t - pkt.t0 - (pkt.E0 / pkt.mass) * tau) ** 2
        / (2.0 * pkt.sigma_t**2 * f)
        + 1j * pkt.E0**2 * tau / (2.0 * pkt.mass)
    )
    return norm * np.exp(arg)


def _time_logderiv(pkt, t, tau):
    f = time_dispersion_factor(pkt, tau)
    return -1j * pkt.E0 - (np.asarray(t, dtype=float) - pkt.t0
                           - (pkt.E0 / pkt.mass) * tau) / (pkt.sigma_t**2 * f)


def time_amplitude_dt(pkt, t, tau=0.0):
    """Analytic d/dt of :func:`time_amplitude`."""
    return _time_logderiv(pkt, t, tau) * time_amplitude(pkt, t, tau)


def time_amplitude_dt2(pkt, t, tau=0.0):
    """Analytic d^2/dt^2 of :func:`time_amplitude`."""
    g = _time_logderiv(pkt, t, tau)
    f = time_dispersion_factor(pkt, tau)
    # d/dt of the log-derivative is the constant -1/(sigma_t^2 f).
    return (g**2 - 1.0 / (pkt.sigma_t**2 * f)) * time_amplitude(pkt, t, tau)


def max_entropy_time_packet(pkt):
    """Time packet matched to a spatial packet.

    The Gaussian is the maximum-entropy profile for fixed mean energy and
    energy variance.  Matching the momentum widths gives sigma_E = sigma_p,
    i.e. sigma_t = sigma_x, with relativistic mean energy
    E0 = sqrt(mass^2 + p0^2) and t0 = 0 (the overall phase is carried by the
    spatial part).
    """
    return TimePacket(t0=0.0,
                      E0=math.hypot(pkt.mass, pkt.p0),
                      sigma_t=pkt.sigma_x,
                      mass=pkt.mass)


def _space_norm(pkt, tau):
    c = pkt.x0 + pkt.v0 * tau
    w = pkt.sigma_x * abs(pkt.dispersion_factor(tau))
    x = np.linspace(c - 12 * w, c + 12 * w, 20001)
    return np.trapezoid(np.abs(space_amplitude(pkt, x, tau)) ** 2, x)


class TestSpacePacket:
    def test_peak_value_at_release(self):
        pkt = SpacePacket(x0=0.0, p0=3.0, sigma_x=1.0, mass=1.0)
        assert abs(space_amplitude(pkt, 0.0, 0.0)) == pytest.approx(PI_QUARTER)

    @pytest.mark.parametrize("tau", [0.0, 1.0, 10.0, 100.0])
    def test_norm_preserved(self, tau):
        pkt = SpacePacket(x0=-5.0, p0=2.0, sigma_x=1.5, mass=1.2)
        assert _space_norm(pkt, tau) == pytest.approx(1.0, abs=1e-8)

    def test_dispersed_peak_modulus(self):
        # x0=-100, p0=1, sigma_x=10, m=1: at tau=100 the center reaches the
        # origin and |f|^2 = 1 + (tau/(m sigma_x^2))^2 = 2.
        pkt = SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0)
        expect = (math.pi * 100.0) ** -0.25 * 2.0 ** -0.25
        assert abs(space_amplitude(pkt, 0.0, 100.0)) == pytest.approx(expect, rel=1e-12)

    def test_spreading_law(self):
        pkt = SpacePacket(x0=0.0, p0=0.0, sigma_x=2.0, mass=0.5)
        tau = 7.0
        c = pkt.v0 * tau
        w = pkt.sigma_x * abs(pkt.dispersion_factor(tau))
        x = np.linspace(c - 12 * w, c + 12 * w, 40001)
        rho = np.abs(space_amplitude(pkt, x, tau)) ** 2
        var = np.trapezoid((x - c) ** 2 * rho, x)
        assert var == pytest.approx(pkt.sigma_x**2 * abs(pkt.dispersion_factor(tau)) ** 2 / 2,
                                    rel=1e-10)

    def test_analytic_spatial_derivative(self):
        pkt = SpacePacket(x0=-3.0, p0=1.5, sigma_x=1.0, mass=1.0)
        x = np.linspace(-8.0, 4.0, 11)
        h = 1e-6
        fd = (space_amplitude(pkt, x + h, 2.0) - space_amplitude(pkt, x - h, 2.0)) / (2 * h)
        np.testing.assert_allclose(space_amplitude_dx(pkt, x, 2.0), fd, rtol=1e-7, atol=1e-12)

    def test_momentum_amplitude_peak_and_norm(self):
        pkt = SpacePacket(x0=0.0, p0=2.0, sigma_x=0.5, mass=1.0)
        assert abs(space_momentum_amplitude(pkt, pkt.p0)) == pytest.approx(
            (math.pi * pkt.sigma_p**2) ** -0.25)
        p = np.linspace(pkt.p0 - 12 * pkt.sigma_p, pkt.p0 + 12 * pkt.sigma_p, 20001)
        norm = np.trapezoid(np.abs(space_momentum_amplitude(pkt, p)) ** 2, p)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_momentum_amplitude_is_fourier_transform(self):
        pkt = SpacePacket(x0=-5.0, p0=2.0, sigma_x=1.0, mass=1.0)
        for p in (0.5, 2.0, 3.5):
            re = quad(lambda x: (space_amplitude(pkt, x, 0.0) * np.exp(-1j * p * x)).real,
                      -20, 10, limit=200)[0]
            im = quad(lambda x: (space_amplitude(pkt, x, 0.0) * np.exp(-1j * p * x)).imag,
                      -20, 10, limit=200)[0]
            direct = (re + 1j * im) / math.sqrt(2 * math.pi)
            # The implementation drops the p-independent global phase
            # exp(i p0 x0); remove it from the direct integral too.
            direct *= np.exp(-1j * pkt.p0 * pkt.x0)
            assert direct == pytest.approx(complex(space_momentum_amplitude(pkt, p)), abs=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SpacePacket(x0=0.0, p0=1.0, sigma_x=-1.0, mass=1.0)
        with pytest.raises(ValueError):
            SpacePacket(x0=0.0, p0=1.0, sigma_x=1.0, mass=0.0)

    @pytest.mark.parametrize("width", [1e-155, 1e-200, 1e155, 1e200])
    def test_width_whose_square_leaves_the_floats_rejected(self, width):
        # w^2 or 1/w^2 would underflow the normal floats, or overflow them.
        for make in (lambda: SpacePacket(0.0, 1.0, width),
                     lambda: TimePacket(0.0, 1.0, width)):
            with pytest.raises(ValueError, match="normal float range"):
                make()

    @pytest.mark.parametrize("width", [1e-150, 1e150])
    def test_width_within_the_floats_accepted(self, width):
        assert SpacePacket(0.0, 1.0, width).sigma_p == 1.0 / width
        assert TimePacket(0.0, 1.0, width).sigma_E == 1.0 / width

    @pytest.mark.parametrize("x, tau", [(0.0, 7e299), (1e155, 0.0),
                                        (np.array([0.0, 1e308]), 0.0)])
    def test_overflowing_exponent_is_refused(self, x, tau):
        # (x - x0 - v0 tau)^2 past the floats is refused before numpy
        # squares it (a RuntimeWarning is an error here).
        with pytest.raises(NumericalError, match="its square in the "
                           "Gaussian exponent overflows"):
            space_amplitude(SpacePacket(0.0, 1.0, 10.0), x, tau)

    def test_largest_finite_square_is_accepted(self):
        shift = math.sqrt(np.finfo(float).max)
        assert space_amplitude(SpacePacket(0.0, 1.0, 1e100), shift) == 0.0


class TestTimePacket:
    def test_mirrors_space_amplitude_under_conjugation(self):
        # phi~(t; t0, E0, sigma_t) = conj(phi(x=t; x0=t0, p0=E0, sigma_x=sigma_t))
        tp = TimePacket(t0=1.0, E0=2.5, sigma_t=1.3, mass=1.1)
        sp = SpacePacket(x0=1.0, p0=2.5, sigma_x=1.3, mass=1.1)
        t = np.linspace(-5.0, 9.0, 41)
        for tau in (0.0, 0.7, 4.0):
            np.testing.assert_allclose(time_amplitude(tp, t, tau),
                                       np.conj(space_amplitude(sp, t, tau)),
                                       rtol=1e-12, atol=1e-15)

    def test_matches_reference_formula_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            tp = TimePacket(t0=rng.normal(0.0, 10.0), E0=rng.normal(0.0, 5.0),
                            sigma_t=rng.uniform(0.1, 10.0),
                            mass=rng.uniform(0.1, 5.0))
            t = rng.normal(0.0, 20.0, 50)
            tau = rng.uniform(-100.0, 100.0)
            assert np.array_equal(time_amplitude(tp, t, tau),
                                  reference_time_amplitude(tp, t, tau))

    @pytest.mark.parametrize("t,tau,name", [(np.nan, 0.0, "t"),
                                            ([0.0, np.inf], 1.0, "t"),
                                            (0.0, np.nan, "tau")])
    def test_non_finite_input_rejected(self, t, tau, name):
        tp = TimePacket(t0=0.0, E0=1.0, sigma_t=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            time_amplitude(tp, t, tau)

    def test_norm_and_width(self):
        tp = TimePacket(t0=0.0, E0=1.0, sigma_t=2.0, mass=2.0)
        tau = 8.0  # tau/(m sigma_t^2) = 1 so |f|^2 = 2, width^2 = 2 sigma_t^2
        c = tp.t0 + tp.E0 / tp.mass * tau
        t = np.linspace(c - 40, c + 40, 40001)
        rho = np.abs(time_amplitude(tp, t, tau)) ** 2
        assert np.trapezoid(rho, t) == pytest.approx(1.0, abs=1e-8)
        var = np.trapezoid((t - c) ** 2 * rho, t)
        assert var == pytest.approx(2 * tp.sigma_t**2 / 2, rel=1e-8)

    def test_time_derivatives_match_finite_differences(self):
        tp = TimePacket(t0=0.0, E0=3.0, sigma_t=1.0, mass=1.5)
        t = np.linspace(-3.0, 3.0, 7)
        h = 1e-5
        f0, fp, fm = (time_amplitude(tp, t + s, 1.0) for s in (0.0, h, -h))
        np.testing.assert_allclose(time_amplitude_dt(tp, t, 1.0), (fp - fm) / (2 * h),
                                   rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(time_amplitude_dt2(tp, t, 1.0), (fp - 2 * f0 + fm) / h**2,
                                   rtol=1e-4, atol=1e-8)


class TestMaxEntropyTimePacket:
    def test_relativistic_energy_and_width(self):
        pkt = SpacePacket(x0=0.0, p0=4.0, sigma_x=2.0, mass=3.0)
        tp = max_entropy_time_packet(pkt)
        assert tp.E0 == pytest.approx(5.0)  # sqrt(3^2 + 4^2)
        assert tp.sigma_t == pytest.approx(2.0)
        assert tp.t0 == 0.0
        assert tp.mass == pkt.mass

    def test_rest_packet(self):
        pkt = SpacePacket(x0=0.0, p0=0.0, sigma_x=1.0, mass=1.0)
        assert max_entropy_time_packet(pkt).E0 == pytest.approx(1.0)


class TestNegativeEnergyFraction:
    def test_standard_example(self):
        tp = TimePacket(t0=0.0, E0=1.0, sigma_t=1.0, mass=1.0)
        rep = negative_energy_fraction(tp)
        assert rep.sigma_distance == pytest.approx(1.0)
        assert rep.tail_mass == pytest.approx(0.5 * math.erfc(1 / math.sqrt(2)), rel=1e-12)
        assert rep.tail_mass == pytest.approx(0.158655, abs=1e-6)

    def test_limits(self):
        base = dict(t0=0.0, sigma_t=1.0, mass=1.0)
        assert negative_energy_fraction(TimePacket(E0=0.0, **base)).tail_mass == pytest.approx(0.5)
        assert negative_energy_fraction(TimePacket(E0=3.0, **base)).tail_mass == pytest.approx(
            1.3499e-3, rel=1e-3)
        assert negative_energy_fraction(TimePacket(E0=30.0, **base)).tail_mass < 1e-100

    def test_matches_gaussian_tail_quadrature(self):
        # Convention: sigma_E is the standard deviation of the energy density.
        tp = TimePacket(t0=0.0, E0=1.5, sigma_t=0.8, mass=1.0)
        s_E = tp.sigma_E
        frac = quad(lambda E: math.exp(-(E - tp.E0) ** 2 / (2 * s_E**2))
                    / (math.sqrt(2 * math.pi) * s_E), -30, 0, limit=200)[0]
        assert negative_energy_fraction(tp).tail_mass == pytest.approx(frac, rel=1e-8)


@settings(deadline=None, max_examples=30)
@given(sigma_x=st.floats(0.3, 30.0), mass=st.floats(0.2, 5.0),
       tau=st.floats(0.0, 50.0), p0=st.floats(-3.0, 3.0))
def test_dispersion_factor_modulus_identity(sigma_x, mass, tau, p0):
    pkt = SpacePacket(x0=0.0, p0=p0, sigma_x=sigma_x, mass=mass)
    f = pkt.dispersion_factor(tau)
    assert abs(f) ** 2 == pytest.approx(1.0 + (tau / (mass * sigma_x**2)) ** 2, rel=1e-12)


@settings(deadline=None, max_examples=15)
@given(sigma_t=st.floats(0.3, 10.0), E0=st.floats(0.0, 5.0))
def test_negative_energy_fraction_bounds(sigma_t, E0):
    tp = TimePacket(t0=0.0, E0=E0, sigma_t=sigma_t, mass=1.0)
    f = negative_energy_fraction(tp).tail_mass
    assert 0.0 <= f <= 0.5
