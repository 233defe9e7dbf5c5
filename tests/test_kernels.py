"""Kernel tests: closed forms, semigroup, propagation, Laplace transforms."""

import math

import numpy as np
import pytest

from toalab.kernels import (closed_form_laplace_first_arrival,
                            first_arrival_kernel, free_kernel_space,
                            laplace_first_arrival_check,
                            laplace_transform_first_arrival,
                            laplace_transform_free, laplace_transform_origin,
                            time_kernel, tqm_kernel)
from toalab.firstpassage import DiffusionSpec, diffusion_density
from toalab.wavepacket import (SpacePacket, TimePacket, space_amplitude,
                               time_amplitude)


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
        real = diffusion_density(DiffusionSpec(mass=m), x, 0.0, tau)
        np.testing.assert_allclose(
            real, np.sqrt(m / (2.0 * math.pi * tau)) * np.exp(-m * x**2 / (2 * tau)),
            rtol=1e-12)


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
        assert laplace_transform_first_arrival(1.0, 0.0, 2.0) == pytest.approx(1.0)

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
        val = laplace_transform_first_arrival(1.0, 2.0, 0.5)
        assert val == pytest.approx(closed_form_laplace_first_arrival(1.0, 2.0, 0.5),
                                    abs=1e-8)

    @pytest.mark.parametrize("m,x,s", [
        (1.0, 10.0, 100.0), (10.0, 10.0, 1.0), (1.0, 0.05, 1e-3),
        (0.5, 0.02, 100.0), (2.0, 10.0, 1e-3)])
    def test_rotated_contour_transform(self, m, x, s):
        # |L[F]| = exp(-sqrt(m s)|x|) runs from 3.7e-44 to 0.998 over these
        # points; the agreement is relative at every one.
        closed = closed_form_laplace_first_arrival(m, x, s)
        F = laplace_transform_first_arrival(m, x, s)
        assert abs(F - closed) < 1e-10 * abs(closed)
        UF = laplace_transform_origin(m, s) * closed
        assert abs(laplace_transform_free(m, x, s) - UF) < 1e-10 * abs(UF)
        assert laplace_first_arrival_check(m, x, (s,)).converged is True

    def test_factorization_report(self):
        rep = laplace_first_arrival_check(1.0, 2.0, (0.5,))
        assert rep.converged
        assert rep.max_modulus_error < 1e-4
        # free transform = origin transform x first-arrival transform
        lhs = laplace_transform_free(1.0, 2.0, 0.5)
        rhs = (laplace_transform_origin(1.0, 0.5)
               * laplace_transform_first_arrival(1.0, 2.0, 0.5))
        assert abs(lhs - rhs) < 1e-8
