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
sigma_p/p0, m sigma_x^2/tau_bar and m sigma_t^2/tau_bar are all << 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detectors import (ArrivalDistribution, BulletDispersions,
                        _bullet_dispersions, _detector_current,
                        _regime_ratios, _window)
from .wavepacket import SpacePacket, TimePacket, time_amplitude

__all__ = [
    "TqmPacket",
    "tqm_dispersion_budget",
    "tqm_detection_density",
    "tqm_arrival_distribution",
    "sqm_limit_curve",
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


def _frozen_gaussian(pkt: TqmPacket, disp: BulletDispersions, t_grid):
    """Frozen arrival Gaussian rho(t) = exp(-((t - c)/S)^2) / (sqrt(pi) S).

    c = t0 + (E0/m) tau_bar and S = hypot((E0/m) sigma_bar, sigma_tilde).
    A t_grid of None becomes 2048 points on c +/- 8 S (`_window`); a given
    grid must bracket that window.  Returns the grid and the density on it.
    """
    drift = pkt.time.E0 / pkt.mass
    center = pkt.time.t0 + drift * disp.tau_bar
    width = math.hypot(drift * disp.sigma_bar_tau, disp.sigma_tilde_tau)
    span = 8.0 * width
    if t_grid is None:
        t_grid = _window(center - span, center + span, 2048, center, width)
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if t_grid[0] > center - span or t_grid[-1] < center + span:
            raise ValueError("t_grid must bracket the arrival center "
                             "+/- 8 S")
    rho = np.exp(-((t_grid - center) / width) ** 2) \
        / (math.sqrt(math.pi) * width)
    return t_grid, rho


def tqm_arrival_distribution(pkt: TqmPacket) -> ArrivalDistribution:
    """Frozen arrival distribution in coordinate time t at distance d.

    rho(t) = int dtau Dbar(tau) rho~_tau(t), with Dbar the bullet arrival
    Gaussian and rho~ at its long-time width sigma_tilde drifting at E0/m,
    is the Gaussian of `_frozen_gaussian` on its default grid; for E0 = m
    its uncertainty is sigma_tau/sqrt(2).  Valid while sigma_p/p0,
    m sigma_x^2/tau_bar and m sigma_t^2/tau_bar are << 1; the metadata
    carries the three ratios.
    """
    disp = tqm_dispersion_budget(pkt)
    t_grid, rho = _frozen_gaussian(pkt, disp, None)
    return ArrivalDistribution(t_grid, rho, meta={
        "metric": "tqm",
        "tau_bar": disp.tau_bar,
        "sigma_bar_tau": disp.sigma_bar_tau,
        "sigma_tilde_tau": disp.sigma_tilde_tau,
        "sigma_tau": disp.sigma_tau,
        "closed_form_uncertainty": disp.uncertainty,
        "drift": pkt.time.E0 / pkt.mass,
        **_regime_ratios(pkt.space, disp.tau_bar),
        "m_sigma_t2_over_tau_bar":
            pkt.mass * pkt.time.sigma_t**2 / disp.tau_bar,
    })


def sqm_limit_curve(pkt: TqmPacket, t_grid) -> ArrivalDistribution:
    """The sigma_t -> infinity limit of the arrival curve (SQM reference).

    The time contribution drops out (sigma_tilde = 0), leaving the bare
    space-origin arrival Gaussian evaluated on the same grid.
    """
    t_grid, rho = _frozen_gaussian(pkt, _bullet_dispersions(pkt.space),
                                   t_grid)
    return ArrivalDistribution(t_grid, rho)
