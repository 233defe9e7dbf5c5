"""Time-extended quantum mechanics: direct-product packets and detection.

A TQM wave function extends in coordinate time t as well as space, evolving
in clock time tau.  For a free direct-product Gaussian the time and space
parts evolve independently, so detection at a wall factorizes as

    D_tau(t) = Dbar_tau * rho~_tau(t),

the SQM detection rate times the coordinate-time density.  Integrating over
clock time gives the arrival distribution in coordinate time, a Gaussian
whose squared width is the sum of the space and time contributions:

    sigma_tau^2 = sigma_bar^2 + sigma_tilde^2,
    sigma_bar = tau_bar / (m v0 sigma_x),   sigma_tilde = tau_bar / (m sigma_t),

with arrival uncertainty sigma_tau / sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import fftconvolve

from .detectors import ArrivalDistribution, probability_current
from .wavepacket import (SpacePacket, TimePacket, space_amplitude,
                         space_amplitude_dx, time_amplitude,
                         time_amplitude_dt2)

__all__ = [
    "TqmPacket",
    "TqmDispersions",
    "tqm_dispersion_budget",
    "tqm_detection_density",
    "tqm_arrival_distribution",
    "sqm_limit_curve",
    "tqm_current",
    "coordinate_time_cancellation_check",
]


@dataclass(frozen=True)
class TqmPacket:
    time: TimePacket
    space: SpacePacket

    def __post_init__(self):
        if self.time.mass != self.space.mass:
            raise ValueError("time and space parts must share the same mass")

    @property
    def mass(self) -> float:
        return self.space.mass

    def amplitude(self, t, x, tau=0.0):
        """Direct-product amplitude phi~_tau(t) * phi-_tau(x)."""
        return time_amplitude(self.time, t, tau) \
            * space_amplitude(self.space, x, tau)


@dataclass(frozen=True)
class TqmDispersions:
    tau_bar: float
    sigma_bar_tau: float     # space contribution
    sigma_tilde_tau: float   # time contribution

    @property
    def sigma_tau(self) -> float:
        return math.hypot(self.sigma_bar_tau, self.sigma_tilde_tau)

    @property
    def uncertainty(self) -> float:
        return self.sigma_tau / math.sqrt(2.0)


def tqm_dispersion_budget(pkt: TqmPacket, d: float) -> TqmDispersions:
    """Closed-form arrival-time dispersion budget at detector distance d."""
    sp = pkt.space
    if sp.v0 <= 0:
        raise ValueError("dispersion budget requires v0 > 0")
    if d <= 0:
        raise ValueError("d must be > 0")
    tau_bar = d / sp.v0
    return TqmDispersions(
        tau_bar=tau_bar,
        sigma_bar_tau=tau_bar / (sp.mass * sp.v0 * sp.sigma_x),
        sigma_tilde_tau=tau_bar / (sp.mass * pkt.time.sigma_t))


def _sqm_rate(pkt: TqmPacket, d: float, tau):
    """SQM detection rate of the space part: current at the detector."""
    shifted = replace(pkt.space, x0=-d)
    return probability_current(space_amplitude(shifted, 0.0, tau),
                               space_amplitude_dx(shifted, 0.0, tau), pkt.mass)


def tqm_detection_density(pkt: TqmPacket, d: float, tau, t):
    """Detection density D_tau(t) = Dbar_tau * rho~_tau(t).

    Dbar is the SQM (probability-current) detection rate of the space part
    at distance d; rho~ is the exact coordinate-time density at clock time
    tau (unit integral over t, so integrating the product over t returns
    Dbar exactly).
    """
    if d <= 0:
        raise ValueError("d must be > 0")
    rho_t = np.abs(time_amplitude(pkt.time, t, tau)) ** 2
    return _sqm_rate(pkt, d, tau) * rho_t


def _gaussian_components(pkt: TqmPacket, d: float, exact_drift: bool):
    """Frozen Gaussian form of Dbar(tau) near tau_bar, and the drift of rho~.

    Dbar is the bullet-regime arrival Gaussian with parameter sigma_bar.
    rho~ (built by the caller) uses the long-clock-time width
    sigma_tilde = tau_bar/(m sigma_t) and a center drifting at E0/m (taken
    as 1 non-relativistically unless exact_drift is set).  These are the
    forms whose convolution over tau has the closed-form combined width.
    """
    disp = tqm_dispersion_budget(pkt, d)
    drift = pkt.time.E0 / pkt.mass if exact_drift else 1.0
    sb = disp.sigma_bar_tau

    def dbar(tau):
        return np.exp(-((tau - disp.tau_bar) / sb) ** 2) \
            / (math.sqrt(math.pi) * sb)

    return disp, drift, dbar


def tqm_arrival_distribution(pkt: TqmPacket, d: float, t_grid=None,
                             exact_drift: bool = False) -> ArrivalDistribution:
    """Arrival distribution in coordinate time t at detector distance d.

    Convolves the detection density over clock time, rho(t) = int dtau
    Dbar(tau) rho~_tau(t), using the Gaussian component forms; the result
    is centered at tau_bar with sigma_tau^2 = sigma_bar^2 + sigma_tilde^2
    and uncertainty sigma_tau/sqrt(2).  The tau integral runs over
    tau_bar +/- 8 max(sigma_bar, sigma_tilde); the captured norm is
    reported in the metadata.
    """
    disp, drift, dbar = _gaussian_components(pkt, d, exact_drift)
    center = pkt.time.t0 + drift * disp.tau_bar
    span = 8.0 * disp.sigma_tau
    if t_grid is None:
        t_grid = np.linspace(center - span, center + span, 2048)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if t_grid[0] > center - span or t_grid[-1] < center + span:
            raise ValueError("t_grid must bracket the arrival center "
                             "+/- 8 sigma_tau")
    # The tau integral is a convolution in t of the (drift-scaled) arrival
    # Gaussian with the time-density Gaussian; evaluate it on a grid fine
    # enough for the narrower of the two components, then interpolate.
    sb_eff = drift * disp.sigma_bar_tau
    st = disp.sigma_tilde_tau
    du = min(sb_eff, st) / 10.0
    w = 8.0 * max(disp.sigma_bar_tau, disp.sigma_tilde_tau)
    taus = np.arange(disp.tau_bar - w, disp.tau_bar + w, du / drift)
    kernel = dbar(taus)
    a = kernel / drift                       # dbar as a density in u = drift*tau
    u_t = np.arange(-8.0 * st, 8.0 * st + du, du)
    b = np.exp(-(u_t / st) ** 2) / (math.sqrt(math.pi) * st)
    conv = fftconvolve(a, b) * du
    t_fine = pkt.time.t0 + drift * taus[0] + u_t[0] \
        + du * np.arange(conv.size)
    rho = np.interp(t_grid, t_fine, conv, left=0.0, right=0.0)
    return ArrivalDistribution(t_grid, rho, meta={
        "metric": "tqm",
        "tau_bar": disp.tau_bar,
        "sigma_bar_tau": disp.sigma_bar_tau,
        "sigma_tilde_tau": disp.sigma_tilde_tau,
        "sigma_tau": disp.sigma_tau,
        "closed_form_uncertainty": disp.uncertainty,
        "captured_tau_norm": float(np.trapezoid(kernel, taus)),
        "drift": drift,
    })


def sqm_limit_curve(pkt: TqmPacket, d: float, t_grid) -> ArrivalDistribution:
    """The sigma_t -> infinity limit of the arrival curve (SQM reference).

    The time contribution drops out and the curve is the bare space-origin
    arrival Gaussian evaluated on the same grid.
    """
    disp, drift, dbar = _gaussian_components(pkt, d, exact_drift=False)
    t_grid = np.asarray(t_grid, dtype=float)
    return ArrivalDistribution(t_grid, dbar(t_grid - pkt.time.t0),
                               meta={"metric": "sqm-limit"})


def tqm_current(pkt: TqmPacket, t, x, tau):
    """Probability current in x of the 4D amplitude at (t, x; tau).

    Factorizes as the spatial current times the coordinate-time density.
    """
    j_space = probability_current(space_amplitude(pkt.space, x, tau),
                                  space_amplitude_dx(pkt.space, x, tau),
                                  pkt.mass)
    return j_space * np.abs(time_amplitude(pkt.time, t, tau)) ** 2


def coordinate_time_cancellation_check(pkt: TqmPacket, tau: float,
                                       x: float = 0.0,
                                       half_width_sigmas: float = 12.0):
    """Residual of the second-coordinate-time-derivative cancellation.

    Evaluates (i/2m) int dt [(d2psi*/dt2) psi - psi* (d2psi/dt2)] with
    analytic derivatives.  For a decaying amplitude this is a pure boundary
    term and must vanish; shrinking the window (e.g. half_width_sigmas=2)
    leaves a nonzero residual, demonstrating the test's sensitivity.
    """
    tp = pkt.time
    f = tp.dispersion_factor(tau)
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
