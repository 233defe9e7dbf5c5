"""Kernel tests: closed forms, semigroup, propagation, Laplace transforms."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from toalab import kernels, validation
from toalab.kernels import (NumericalError, _ray_transforms, _trapezoid,
                            closed_form_laplace_first_arrival,
                            first_arrival_kernel, free_kernel_space,
                            laplace_first_arrival_check,
                            laplace_transform_origin)
from toalab.detectors import _detector_current
from toalab.firstpassage import diffusion_density
from toalab.wavepacket import (SpacePacket, TimePacket, space_amplitude,
                               time_amplitude)


def time_kernel(m, t2, t1, tau):
    """Coordinate-time kernel: conjugate dispersion relative to space.

    K~_tau(t2; t1) = sqrt(i m / (2 pi tau)) exp(-i m (t2-t1)^2 / (2 tau)),
    tau > 0.  Has the same constant modulus sqrt(m/2 pi tau) as the space
    kernel.
    """
    dt = np.asarray(t2) - np.asarray(t1)
    amp = math.sqrt(m / (2.0 * math.pi * tau)) * np.exp(1j * math.pi / 4)
    return amp * np.exp(-1j * m * dt**2 / (2.0 * tau))


def tqm_kernel(m, t2, x2, t1, x1, tau):
    """4D kernel: time factor x space factor x mass phase exp(-i m tau / 2)."""
    return (time_kernel(m, t2, t1, tau)
            * free_kernel_space(m, x2, x1, tau)
            * np.exp(-0.5j * m * tau))


def reference_power_transform(nu, alpha, s):
    """int_0^inf tau^(-nu) e^(i alpha/tau) e^(-s tau) dtau by two adaptive
    quads in r on the ray tau = r e^(-i pi/4), real and imaginary parts at
    epsrel 1e-10 each."""

    def integrand(r, trig):
        g = (alpha / r + s * r) / math.sqrt(2.0)
        return math.exp(-g - nu * math.log(r)) * trig(g)

    re, _ = quad(integrand, 0.0, math.inf, args=(math.cos,), epsabs=0.0,
                 epsrel=1e-10, limit=200)
    im, _ = quad(integrand, 0.0, math.inf, args=(math.sin,), epsabs=0.0,
                 epsrel=1e-10, limit=200)
    return np.exp(-1j * math.pi / 4) ** (1.0 - nu) * (re + 1j * im)


def reference_transforms(m, x, s):
    """(L[F], L[K]) with the kernels written as prefactor x tau^(-nu)
    e^(i alpha/tau), alpha = m x^2 / 2: F has |x| sqrt(m/2 pi) e^(-i pi/4)
    and nu = 3/2, K has sqrt(m/2 pi) e^(-i pi/4) and nu = 1/2."""
    alpha = 0.5 * m * x * x
    pref = math.sqrt(m / (2.0 * math.pi)) * np.exp(-1j * math.pi / 4)
    return (abs(x) * pref * reference_power_transform(1.5, alpha, s),
            pref * reference_power_transform(0.5, alpha, s))


class TestTrapezoid:
    def test_gaussian_converges_with_error_estimate(self):
        val, err = _trapezoid(lambda x: np.sum(np.exp(-x * x)), -10.0, 10.0,
                              1e-12)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert err <= 1e-12 * val

    def test_vector_sums_converge_in_max_norm(self):
        # int exp(-a x^2) for three a at once; the error is the max-norm
        # difference of the last two levels.
        a = np.array([0.5, 1.0, 4.0])
        val, err = _trapezoid(
            lambda x: np.exp(-np.outer(a, x * x)).sum(axis=1), -12.0, 12.0,
            1e-12)
        np.testing.assert_allclose(val, np.sqrt(math.pi / a), rtol=1e-15)
        assert err <= 1e-12 * val.max()

    def test_unconverged_levels_raise(self):
        # 1/x on [0, 1]: each halving adds about ln 2, so no two levels
        # agree; the endpoint itself is set to 0.
        with pytest.raises(NumericalError, match="did not converge"):
            _trapezoid(lambda x: np.sum(np.reciprocal(
                x, out=np.zeros_like(x), where=x > 0)), 0.0, 1.0, 1e-10)

    def test_non_finite_level_raises(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="did not converge"):
                _trapezoid(lambda x: np.sum(1.0 / np.sqrt(x)), 0.0, 1.0,
                           1e-10)

    def test_bump_between_the_first_nodes_is_refused(self):
        # A bump 1e-3 wide at x = 0.25 on [0, 16]: the nodes of the first
        # two levels (steps 1 and 1/2) all see exactly 0.
        with pytest.raises(NumericalError, match="missed the integrand"):
            _trapezoid(lambda x: np.sum(np.exp(-((x - 0.25) / 1e-3) ** 2)),
                       0.0, 16.0, 1e-10)

    def test_zero_width_and_empty_value_are_not_refused(self):
        assert _trapezoid(lambda x: np.sum(np.exp(-x * x)), 2.0, 2.0,
                          1e-10) == (0.0, 0.0)
        val, err = _trapezoid(lambda x: np.zeros(0), 0.0, 1.0, 1e-10)
        assert val.shape == (0,) and err == 0.0


class TestPeakedTauIntegral:
    # p0 = 1, sigma_x = 1000, d = 1e6: the current J is about
    # w = hypot(sigma_x, tau_bar/(m sigma_x))/v0 = 1414 wide at tau_bar = 1e6.
    FAR = SpacePacket(x0=-1e6, p0=1.0, sigma_x=1000.0, mass=1.0)

    def test_plain_log_window_misses_the_peak(self):
        # tau = tau_bar e^v on [-30, log(1 + 40 w/tau_bar)]: 33 nodes all
        # miss J, so the level is refused rather than returned as 0.
        pkt = self.FAR
        a = math.hypot(pkt.sigma_x, pkt.d / pkt.sigma_x) / pkt.d
        with pytest.raises(NumericalError, match="missed the integrand"):
            kernels._log_tau_integral(lambda tau: _detector_current(pkt, tau),
                                      pkt.d, -30.0, math.log1p(40.0 * a))

    def test_current_of_a_far_packet_integrates_to_one(self):
        pkt = self.FAR
        width = math.hypot(pkt.sigma_x, pkt.d / pkt.sigma_x)
        norm, err = kernels._peaked_tau_integral(
            lambda tau: _detector_current(pkt, tau), pkt.d, width)
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert err <= 1e-10 * norm


class TestClosedForms:
    def test_free_kernel_modulus_is_constant(self):
        x = np.linspace(-50.0, 50.0, 101)
        k = free_kernel_space(1.0, x, 0.0, 2.0)
        np.testing.assert_allclose(np.abs(k), math.sqrt(1.0 / (4.0 * math.pi)),
                                   rtol=1e-12)

    def test_free_kernel_zero_separation_phase(self):
        k = free_kernel_space(2.0, 1.0, 1.0, 3.0)
        assert k == pytest.approx(math.sqrt(2.0 / (6.0 * math.pi))
                                  * np.exp(-1j * math.pi / 4), rel=1e-12)

    def test_first_arrival_vanishes_at_zero_separation(self):
        assert first_arrival_kernel(1.0, 3.0, 3.0, 2.0) == 0.0

    def test_first_arrival_is_velocity_weighted_free(self):
        k = first_arrival_kernel(1.0, 0.0, -100.0, 50.0)
        assert k == pytest.approx(2.0 * free_kernel_space(1.0, 0.0, -100.0, 50.0),
                                  rel=1e-12)

    def test_time_kernel_is_conjugate_free(self):
        t = np.linspace(-5.0, 5.0, 11)
        np.testing.assert_allclose(time_kernel(1.3, t, 0.5, 2.0),
                                   np.conj(free_kernel_space(1.3, t, 0.5, 2.0)),
                                   rtol=1e-12)

    def test_tqm_kernel_factorizes(self):
        m, tau = 1.5, 2.5
        val = tqm_kernel(m, 1.0, 2.0, 0.3, -0.7, tau)
        expect = (time_kernel(m, 1.0, 0.3, tau)
                  * free_kernel_space(m, 2.0, -0.7, tau)
                  * np.exp(-0.5j * m * tau))
        assert val == pytest.approx(expect, rel=1e-12)
        assert abs(val) == pytest.approx(m / (2.0 * math.pi * tau), rel=1e-12)

    def test_nonpositive_tau_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                free_kernel_space(1.0, 0.0, 1.0, bad)

    def test_wick_rotation_matches_diffusion_density(self):
        # Substituting tau -> i tau in the diffusion closed form yields the
        # quantum kernel (with D0 = 1/2m absorbed into the mass).
        m, tau = 1.0, 2.0
        x = np.linspace(-3.0, 3.0, 7)
        rotated = (np.sqrt(m / (2.0 * math.pi * 1j * tau))
                   * np.exp(-m * x**2 / (2.0 * 1j * tau)))
        np.testing.assert_allclose(free_kernel_space(m, x, 0.0, tau), rotated,
                                   rtol=1e-12)
        real = diffusion_density(m, x, 0.0, tau)
        np.testing.assert_allclose(
            real, np.sqrt(m / (2.0 * math.pi * tau)) * np.exp(-m * x**2 / (2 * tau)),
            rtol=1e-12)


class TestComplexTau:
    RAY = np.exp(-1j * math.pi / 4)

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1j, -1.0 + 1j, -1.0 - 1j,
                                     math.nan, math.inf,
                                     complex(1.0, math.nan),
                                     complex(math.inf, -1.0)])
    @pytest.mark.parametrize("kernel", [free_kernel_space,
                                        first_arrival_kernel])
    def test_refused_off_the_right_half_plane(self, kernel, bad):
        with pytest.raises(ValueError, match="Re tau > 0"):
            kernel(1.0, 1.0, 0.0, bad)
        with pytest.raises(ValueError, match="Re tau > 0"):
            kernel(1.0, 1.0, 0.0, np.array([1.0 + 0.5j, bad]))

    @pytest.mark.parametrize("kernel", [free_kernel_space,
                                        first_arrival_kernel])
    def test_scalar_and_array_tau(self, kernel):
        taus = np.array([0.3, 2.0 * self.RAY, 1.0 + 4.0j, 5.0 - 0.1j])
        vals = kernel(1.5, 2.0, -0.5, taus)
        assert vals.shape == taus.shape
        for tau, val in zip(taus, vals):
            assert kernel(1.5, 2.0, -0.5, tau) == val

    @pytest.mark.parametrize("m,r", [(1.0, 0.5), (2.0, 3.0), (0.5, 40.0)])
    def test_principal_branch_on_the_ray(self, m, r):
        # On tau = r e^(-i pi/4): 2 pi i tau = 2 pi r e^(i pi/4), so the
        # principal root is sqrt(m/2 pi r) e^(-i pi/8), and i m x^2/2 tau =
        # (-1 + i) m x^2 / (2 sqrt(2) r): the modulus decays in |x|.
        x = np.linspace(0.0, 6.0, 25)
        k = free_kernel_space(m, x, 0.0, r * self.RAY)
        expect = (math.sqrt(m / (2.0 * math.pi * r))
                  * np.exp(-1j * math.pi / 8)
                  * np.exp((-1.0 + 1j) * m * x**2
                           / (2.0 * math.sqrt(2.0) * r)))
        np.testing.assert_allclose(k, expect, rtol=1e-13)
        assert np.all(np.diff(np.abs(k)) < 0)

    @pytest.mark.parametrize("m,tau", [(1.0, 2.0), (0.3, 1e-3), (7.0, 5e4)])
    def test_real_axis_matches_real_formula(self, m, tau):
        x = np.linspace(-20.0, 20.0, 41)
        real = (math.sqrt(m / (2.0 * math.pi * tau))
                * np.exp(-1j * math.pi / 4)
                * np.exp(1j * m * x**2 / (2.0 * tau)))
        np.testing.assert_allclose(free_kernel_space(m, x, 0.0, tau), real,
                                   rtol=1e-15, atol=0.0)


class TestSemigroup:
    @pytest.mark.parametrize("xf,t1,t2", [(3.0, 1.0, 1.5), (-1.0, 0.5, 0.5),
                                          (0.0, 2.0, 1.0), (5.0, 0.2, 3.0),
                                          (2.0, 1.0, 1.0)])
    def test_composition_via_rotated_contour(self, xf, t1, t2):
        # K_{t1+t2}(xf; x0) = int dx' K_{t2}(xf; x') K_{t1}(x'; x0), with the
        # oscillatory x' integral evaluated on the steepest-descent contour
        # x' = x_s + e^(i pi/4) u through the stationary point.
        m, x0 = 1.0, -2.0
        xs = (t1 * xf + t2 * x0) / (t1 + t2)
        u, w = np.polynomial.legendre.leggauss(400)
        u, w = 10.0 * u, 10.0 * w
        rot = np.exp(1j * math.pi / 4)
        xp = xs + rot * u
        val = rot * np.sum(w * free_kernel_space(m, xf, xp, t2)
                           * free_kernel_space(m, xp, x0, t1))
        assert val == pytest.approx(free_kernel_space(m, xf, x0, t1 + t2),
                                    abs=1e-10)


class TestPropagate:
    """Propagation by direct quadrature of the closed-form kernels."""

    SPACE = SpacePacket(x0=-5.0, p0=1.0, sigma_x=1.0, mass=1.0)
    X = np.linspace(-30.0, 28.0, 901)
    # The TQM direct product: both parts share the mass m = 2.
    TQM_SPACE = SpacePacket(x0=0.0, p0=1.0, sigma_x=1.0, mass=2.0)
    TQM_TIME = TimePacket(t0=0.0, E0=1.0, sigma_t=1.0, mass=2.0)
    TQM_GRID = np.linspace(-12.5, 13.0, 901)

    def space_quadrature(self, xo, tau):
        phi0 = space_amplitude(self.SPACE, self.X, 0.0)
        return np.array([np.trapezoid(free_kernel_space(1.0, x, self.X, tau)
                                      * phi0, self.X) for x in xo])

    def test_free_propagation_matches_dispersion_closed_form(self):
        xo = np.array([-9.0, -5.0, -2.0, 0.0, 3.0])
        out = self.space_quadrature(xo, 3.0)
        exact = space_amplitude(self.SPACE, xo, 3.0)
        assert np.abs(out - exact).max() / np.abs(exact).max() < 1e-8

    def test_free_propagation_preserves_norm(self):
        xo = np.linspace(-30.0, 28.0, 201)
        out = self.space_quadrature(xo, 3.0)
        assert np.trapezoid(np.abs(out) ** 2, xo) == pytest.approx(1.0,
                                                                   abs=1e-8)

    def test_time_propagation_matches_dispersion_closed_form(self):
        m, tau, t = 2.0, 2.0, self.TQM_GRID
        to = np.array([-2.0, 0.0, 1.0, 2.5])
        phi0 = time_amplitude(self.TQM_TIME, t, 0.0)
        out = np.array([np.trapezoid(time_kernel(m, ti, t, tau) * phi0, t)
                        for ti in to])
        exact = time_amplitude(self.TQM_TIME, to, tau)
        assert np.abs(out - exact).max() / np.abs(exact).max() < 1e-8

    def test_tqm_propagation_preserves_direct_product(self):
        m, tau = 2.0, 2.0
        t = x = self.TQM_GRID
        psi0 = (time_amplitude(self.TQM_TIME, t, 0.0)[:, None]
                * space_amplitude(self.TQM_SPACE, x, 0.0)[None, :])
        points = [(-1.0, 0.5), (0.0, 0.0), (1.0, 2.0), (2.5, 1.5)]
        out = np.array([np.trapezoid(np.trapezoid(
            tqm_kernel(m, to, xo, t[:, None], x[None, :], tau) * psi0,
            x, axis=1), t) for to, xo in points])
        exact = np.array([time_amplitude(self.TQM_TIME, to, tau)
                          * space_amplitude(self.TQM_SPACE, xo, tau)
                          for to, xo in points]) * np.exp(-0.5j * m * tau)
        assert np.abs(out - exact).max() / np.abs(exact).max() < 1e-8


class TestBulletArrivalAmplitude:
    @pytest.mark.parametrize("tau", [80.0, 100.0, 120.0])
    def test_velocity_factor_identity(self, tau):
        # For a Gaussian the arrival amplitude at the origin equals the free
        # amplitude times a complex velocity factor; the x'-linear weight of
        # the arrival kernel makes this exact, not just a bullet-regime
        # approximation.
        pkt = SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0)
        xg = np.linspace(-230.0, -0.5, 4001)
        amp = np.trapezoid(first_arrival_kernel(1.0, 0.0, xg, tau)
                           * space_amplitude(pkt, xg, 0.0), xg)
        f = pkt.dispersion_factor(tau)
        velocity = (1j * (pkt.d - pkt.v0 * tau) / (pkt.mass * pkt.sigma_x**2 * f)
                    + pkt.v0)
        approx = velocity * space_amplitude(pkt, 0.0, tau)
        assert abs(amp - approx) / abs(approx) < 1e-9


class TestLaplace:
    def test_zero_distance_transform_is_one(self):
        assert _ray_transforms(1.0, 0.0, 2.0)[0] == pytest.approx(1.0)

    def test_closed_form_modulus(self):
        # |exp((-1+i) sqrt(m s) |x|)| = exp(-sqrt(m s) |x|)
        val = closed_form_laplace_first_arrival(1.0, 1.0, 1.0)
        assert abs(val) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert closed_form_laplace_first_arrival(1.0, -1.0, 1.0) == pytest.approx(val)

    def test_origin_transform_closed_form(self):
        m, s = 1.0, 0.7
        expect = np.exp(-1j * math.pi / 4) * math.sqrt(m / (2.0 * s))
        assert laplace_transform_origin(m, s) == pytest.approx(expect, rel=1e-10)

    def test_numerical_transform_matches_closed_form(self):
        val = _ray_transforms(1.0, 2.0, 0.5)[0]
        assert val == pytest.approx(closed_form_laplace_first_arrival(1.0, 2.0, 0.5),
                                    abs=1e-8)

    @pytest.mark.parametrize("m,x,s", [
        (1.0, 10.0, 100.0), (10.0, 10.0, 1.0), (1.0, 0.05, 1e-3),
        (0.5, 0.02, 100.0), (2.0, 10.0, 1e-3)])
    def test_rotated_contour_transform(self, m, x, s):
        # |L[F]| = exp(-sqrt(m s)|x|) runs from 3.7e-44 to 0.998 over these
        # points; the agreement is relative at every one.
        closed = closed_form_laplace_first_arrival(m, x, s)
        F, K = _ray_transforms(m, x, s)
        assert abs(F - closed) < 1e-10 * abs(closed)
        UF = laplace_transform_origin(m, s) * closed
        assert abs(K - UF) < 1e-10 * abs(UF)
        assert laplace_first_arrival_check(m, x, (s,)).converged is True

    @pytest.mark.parametrize("m,x,s", list(itertools.product(
        (0.5, 2.0, 10.0), (0.02, 1.0, 10.0), (1e-3, 1.0, 100.0))))
    def test_transforms_match_quad(self, m, x, s):
        # Oracle: the kernels' power-law form transformed by two quads, on
        # a grid spanning the stress points (sqrt(2 alpha s) from 4.5e-4 to
        # 316), held to the 1e-10 relative accuracy it was asked for.
        for a, b in zip(_ray_transforms(m, x, s), reference_transforms(m, x, s)):
            assert abs(a - b) < 1e-10 * abs(b)

    def test_zero_separation_free_transform_is_origin(self):
        assert _ray_transforms(2.0, 0.0, 0.7)[1] == \
            laplace_transform_origin(2.0, 0.7)

    def test_underflowing_window_raises(self):
        # m x^2 s = 1e-400 is 0 in floating point: there is no window.
        with pytest.raises(NumericalError, match="underflows"):
            _ray_transforms(1.0, 1e-200, 1.0)[1]

    @pytest.mark.parametrize("x,s", [(1e-150, 1e300), (1e100, 1e-300),
                                     (1e-158, 1.0)])
    def test_window_outside_float_range_raises(self, x, s):
        # |tau| = sqrt(m x^2 / 2 s) is 0 or inf in floating point, with
        # sqrt(m s)|x| = 1; or it is 7e-159 and the window reaches
        # |tau| = 7e-159 e^-370, below the normal floats.
        with pytest.raises(NumericalError, match="float range"):
            _ray_transforms(1.0, x, s)[1]

    @pytest.mark.parametrize("name,perturbed", [
        ("first_arrival_kernel",
         lambda m, x2, x1, tau: (1.01 * abs(x2 - x1) / tau
                                 * kernels.free_kernel_space(m, x2, x1, tau))),
        ("free_kernel_space",
         lambda m, x2, x1, tau: (np.sqrt(m / (2j * math.pi * tau))
                                 * np.conj(np.exp(1j * m * (x2 - x1) ** 2
                                                  / (2.0 * tau)))))],
        ids=["first_arrival_weight", "free_conjugate_phase"])
    def test_criterion_7_fails_for_a_perturbed_kernel(self, monkeypatch,
                                                      name, perturbed):
        monkeypatch.setattr(kernels, name, perturbed)
        assert validation.criterion_7().passed is False

    def test_check_reports_disagreement_as_not_converged(self, monkeypatch):
        # A transform that resolves but misses the closed form by 1% is
        # reported, not raised.
        closed = kernels.closed_form_laplace_first_arrival
        monkeypatch.setattr(kernels, "closed_form_laplace_first_arrival",
                            lambda m, x, s: 1.01 * closed(m, x, s))
        rep = laplace_first_arrival_check(1.0, 2.0, (0.5, 1.0))
        assert rep.converged is False
        assert max(rep.modulus_rel_errors) == pytest.approx(1.0 - 1.0 / 1.01,
                                                            rel=1e-9)

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_check_rejects_nonpositive_mass(self, m):
        with pytest.raises(ValueError, match="m must be positive"):
            laplace_first_arrival_check(m, 1.0, (0.5,))

    def test_check_raises_when_quadrature_does_not_converge(self,
                                                           monkeypatch):
        # One halving cannot resolve the transform at m = 1, x = 2,
        # s = 0.5 (it takes three), so the check refuses instead of
        # reporting a number.
        monkeypatch.setattr(kernels, "_TRAPEZOID_HALVINGS", 1)
        with pytest.raises(NumericalError, match="did not converge"):
            laplace_first_arrival_check(1.0, 2.0, (0.5,))

    def test_check_refuses_underflowing_closed_form(self):
        # exp(-sqrt(m s)|x|) = exp(-31623) is 0: no relative error exists,
        # so the check refuses before dividing by it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="s = 1e\\+09"):
                laplace_first_arrival_check(1.0, 1.0, (0.5, 1e9))

    def test_check_reports_scaled_free_kernel_as_not_converged(
            self, monkeypatch):
        # At m = x = 1, s = 100, |L[K]| = 3.2e-6: a free kernel 1% off is
        # 3.2e-8 off in absolute terms, but 1e-2 relative.  F keeps the
        # unscaled kernel, so its own transform stays exact.
        free = kernels.free_kernel_space
        monkeypatch.setattr(kernels, "first_arrival_kernel",
                            lambda m, x2, x1, tau: (abs(x2 - x1) / tau
                                                    * free(m, x2, x1, tau)))
        monkeypatch.setattr(kernels, "free_kernel_space",
                            lambda *args: 1.01 * free(*args))
        rep = laplace_first_arrival_check(1.0, 1.0, (100.0,))
        assert rep.converged is False
        assert max(rep.modulus_rel_errors) < 1e-10
        assert max(rep.factorization_residuals) == pytest.approx(0.01,
                                                                 rel=1e-9)

    @pytest.mark.parametrize("m,x,s,size", [
        (1e-300, 3.7e151, 100.0, "1.45e-312"), (1e-320, 0.0, 1e300, "0"),
        (1e308, 0.0, 1e-300, "inf")])
    def test_check_refuses_product_outside_normal_floats(self, m, x, s,
                                                         size):
        # |L[U] L[F]| = sqrt(m/2s) exp(-sqrt(m s)|x|) is subnormal, 0 or
        # inf, though the closed form alone is a normal float: no relative
        # residual exists, so the check refuses before any warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match=rf"\|L\[U\] L\[F\]\| = {size} leaves"):
                laplace_first_arrival_check(m, x, (s,))

    def test_factorization_report(self):
        rep = laplace_first_arrival_check(1.0, 2.0, (0.5,))
        assert rep.converged
        assert max(rep.modulus_rel_errors) < 1e-4
        # free transform = origin transform x first-arrival transform
        F, K = _ray_transforms(1.0, 2.0, 0.5)
        assert abs(K - laplace_transform_origin(1.0, 0.5) * F) < 1e-8
