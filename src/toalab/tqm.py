"""Time-extended quantum mechanics: direct-product packets and detection.

A TQM wave function extends in coordinate time t as well as space, evolving
in clock time tau.  For a free direct-product Gaussian the time and space
parts evolve independently, so detection at a wall factorizes as

    D_tau(t) = Dbar_tau * rho~_tau(t),

the SQM detection rate times the coordinate-time density.  Integrating over
clock time gives the arrival distribution in coordinate time.  Freezing both
factors at the mean arrival time tau_bar (a bullet Gaussian for Dbar, the
long-time width of rho~) makes it a Gaussian, evaluated in closed form, whose
squared width is the sum of the space and time contributions:

    sigma_tau^2 = sigma_bar^2 + sigma_tilde^2,
    sigma_bar = tau_bar / (m v0 sigma_x),   sigma_tilde = tau_bar / (m sigma_t),

with arrival uncertainty sigma_tau / sqrt(2).  The freeze holds only while
sigma_p/p0, m sigma_x^2/tau_bar and m sigma_t^2/tau_bar are all << 1.  The
SQM limit sigma_t -> infinity drops the time term, sigma_tilde = 0; the
curve's metadata carries what it needs (drift, tau_bar, sigma_bar_tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detectors import (ArrivalDistribution, BulletDispersions,
                        _bullet_dispersions, _detector_current,
                        _regime_ratios, _window)
from .kernels import NumericalError
from .wavepacket import SpacePacket, TimePacket, time_amplitude

__all__ = [
    "TqmPacket",
    "tqm_dispersion_budget",
    "tqm_detection_density",
    "tqm_arrival_distribution",
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


def tqm_dispersion_budget(pkt: TqmPacket) -> BulletDispersions:
    """Closed-form arrival-time dispersion budget at distance pkt.space.d:
    the space part's frozen law with sigma_tilde = tau_bar/(m sigma_t)."""
    disp = _bullet_dispersions(pkt.space)
    return replace(disp, sigma_tilde_tau=disp.tau_bar
                   / (pkt.mass * pkt.time.sigma_t))


def tqm_detection_density(pkt: TqmPacket, tau, t):
    """Detection density D_tau(t) = Dbar_tau * rho~_tau(t).

    Dbar is the SQM (probability-current) detection rate of the space part
    at distance d; rho~ is the exact coordinate-time density at clock time
    tau (unit integral over t, so integrating the product over t returns
    Dbar exactly).
    """
    if pkt.space.d <= 0:
        raise ValueError("d must be > 0")
    rho_t = np.abs(time_amplitude(pkt.time, t, tau)) ** 2
    return _detector_current(pkt.space, tau) * rho_t


def tqm_arrival_distribution(pkt: TqmPacket) -> ArrivalDistribution:
    """Frozen arrival distribution in coordinate time t at distance d.

    rho(t) = int dtau Dbar(tau) rho~_tau(t), with Dbar the bullet arrival
    Gaussian and rho~ at its long-time width sigma_tilde drifting at E0/m,
    is the Gaussian exp(-((t - c)/S)^2) / (sqrt(pi) S) with c = t0 +
    (E0/m) tau_bar and S = hypot((E0/m) sigma_bar, sigma_tilde), sampled
    at 2048 points on c +/- 8 S (`_window`); for E0 = m its uncertainty is
    sigma_tau/sqrt(2).  Valid while sigma_p/p0, m sigma_x^2/tau_bar and
    m sigma_t^2/tau_bar are << 1; the metadata carries the three ratios.
    A sampled mean that misses c by over 1e-9 |c| (c +/- 8 S rounded to a
    window that has lost c) raises NumericalError.
    """
    disp = tqm_dispersion_budget(pkt)
    drift = pkt.time.E0 / pkt.mass
    center = pkt.time.t0 + drift * disp.tau_bar
    width = math.hypot(drift * disp.sigma_bar_tau, disp.sigma_tilde_tau)
    t_grid = _window(center - 8.0 * width, center + 8.0 * width, 2048,
                     center, width)
    rho = np.exp(-((t_grid - center) / width) ** 2) \
        / (math.sqrt(math.pi) * width)
    curve = ArrivalDistribution(t_grid, rho, meta={
        "metric": "tqm",
        "tau_bar": disp.tau_bar,
        "sigma_bar_tau": disp.sigma_bar_tau,
        "sigma_tilde_tau": disp.sigma_tilde_tau,
        "sigma_tau": disp.sigma_tau,
        "closed_form_uncertainty": disp.uncertainty,
        "drift": drift,
        **_regime_ratios(pkt.space, disp.tau_bar),
        "m_sigma_t2_over_tau_bar":
            pkt.mass * pkt.time.sigma_t**2 / disp.tau_bar,
    })
    if not abs(curve.mean - center) <= 1e-9 * abs(center):
        raise NumericalError(f"the frozen TQM curve's mean {curve.mean} "
                             f"misses its centre c = {center!r} by over 1e-9 "
                             f"of it: c +/- 8 S (S = {width:.3g}) rounds to a "
                             "window that does not carry c")
    return curve
