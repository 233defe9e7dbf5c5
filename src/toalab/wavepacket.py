"""Gaussian packets in position, momentum, coordinate time, and energy.

All amplitudes use natural units (hbar = 1).  A spatial packet is a minimum
uncertainty Gaussian released at tau = 0 with center x0, mean momentum p0 and
width sigma_x; the free evolution in tau is carried analytically through the
complex dispersion factor f = 1 + i tau / (m sigma_x^2).  The coordinate-time
packet is the mirror object: a Gaussian in t with mean energy E0, width
sigma_t, dispersion factor 1 - i tau / (m sigma_t^2), and center drifting as
t0 + (E0/m) tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import _TINY

__all__ = [
    "SpacePacket",
    "TimePacket",
    "space_amplitude",
    "space_amplitude_dx",
    "space_momentum_amplitude",
    "time_amplitude",
    "NegativeEnergyReport",
    "negative_energy_fraction",
]


def _require_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_width(name: str, w: float) -> None:
    """w > 0, with w^2 and 1/w^2 both normal floats."""
    if w <= 0:
        raise ValueError(f"{name} must be positive, got {w}")
    w = float(w)    # a numpy scalar would warn as its square overflows
    if not _TINY <= w * w <= 1.0 / _TINY:
        raise ValueError(f"{name} = {w:.6g}: its square or inverse square "
                         "leaves the normal float range")


def _require_packet(pkt, width_name: str) -> None:
    for name, value in vars(pkt).items():
        _require_finite(name, value)
    _require_width(width_name, getattr(pkt, width_name))
    if pkt.mass <= 0:
        raise ValueError(f"mass must be positive, got {pkt.mass}")


@dataclass(frozen=True)
class SpacePacket:
    """Minimum-uncertainty Gaussian in position.

    Attributes
    ----------
    x0 : packet center at tau = 0 (a detector at the origin sits a distance
         d = -x0 to the right of the center when x0 < 0)
    p0 : mean momentum
    sigma_x : position width (momentum width is 1/sigma_x)
    mass : particle mass
    """

    x0: float
    p0: float
    sigma_x: float
    mass: float = 1.0

    def __post_init__(self):
        _require_packet(self, "sigma_x")

    @property
    def sigma_p(self) -> float:
        return 1.0 / self.sigma_x

    @property
    def v0(self) -> float:
        return self.p0 / self.mass

    @property
    def d(self) -> float:
        """Distance from the packet center to the origin (positive if x0 < 0)."""
        return -self.x0

    def dispersion_factor(self, tau) -> complex:
        return 1.0 + 1j * np.asarray(tau) / (self.mass * self.sigma_x**2)


@dataclass(frozen=True)
class TimePacket:
    """Gaussian packet in coordinate time.

    The mirror of :class:`SpacePacket` under x -> t, p0 -> E0, sigma_x ->
    sigma_t, with the sign of the dispersion term flipped and the center
    drifting at speed E0/mass in lab time tau.
    """

    t0: float
    E0: float
    sigma_t: float
    mass: float = 1.0

    def __post_init__(self):
        _require_packet(self, "sigma_t")

    @property
    def sigma_E(self) -> float:
        return 1.0 / self.sigma_t


def space_amplitude(pkt: SpacePacket, x, tau=0.0):
    """Freely evolved spatial amplitude phi_tau(x).

    phi_tau(x) = (pi sigma_x^2)^(-1/4) f^(-1/2)
                 exp(i p0 x - (x - x0 - v0 tau)^2 / (2 sigma_x^2 f)
                     - i p0^2 tau / (2 m))
    with f = 1 + i tau / (m sigma_x^2).
    """
    x = np.asarray(x, dtype=float)
    _require_finite("x", x)
    _require_finite("tau", tau)
    f = pkt.dispersion_factor(tau)
    norm = (math.pi * pkt.sigma_x**2) ** -0.25 / np.sqrt(f)
    arg = (
        1j * pkt.p0 * x
        - (x - pkt.x0 - pkt.v0 * tau) ** 2 / (2.0 * pkt.sigma_x**2 * f)
        - 1j * pkt.p0**2 * tau / (2.0 * pkt.mass)
    )
    return norm * np.exp(arg)


def space_amplitude_dx(pkt: SpacePacket, x, tau=0.0):
    """Analytic d/dx of :func:`space_amplitude` (for probability currents)."""
    x = np.asarray(x, dtype=float)
    f = pkt.dispersion_factor(tau)
    logderiv = 1j * pkt.p0 - (x - pkt.x0 - pkt.v0 * tau) / (pkt.sigma_x**2 * f)
    return logderiv * space_amplitude(pkt, x, tau)


def space_momentum_amplitude(pkt: SpacePacket, p):
    """Momentum-space amplitude phi(p) at release; exact Fourier transform.

    phi(p) = (pi sigma_p^2)^(-1/4) exp(-i p x0 - (p - p0)^2 / (2 sigma_p^2))
    """
    p = np.asarray(p, dtype=float)
    _require_finite("p", p)
    sp = pkt.sigma_p
    arg = -1j * p * pkt.x0 - (p - pkt.p0) ** 2 / (2.0 * sp**2)
    return (math.pi * sp**2) ** -0.25 * np.exp(arg)


def time_amplitude(pkt: TimePacket, t, tau=0.0):
    """Coordinate-time amplitude phit_tau(t).

    phit_tau(t) = (pi sigma_t^2)^(-1/4) f^(-1/2)
                  exp(-i E0 t - (t - t0 - (E0/m) tau)^2 / (2 sigma_t^2 f)
                      + i E0^2 tau / (2 m))
    with f = 1 - i tau / (m sigma_t^2): the complex conjugate of the spatial
    amplitude under (x0, p0, sigma_x) -> (t0, E0, sigma_t).
    """
    _require_finite("t", t)
    mirror = SpacePacket(pkt.t0, pkt.E0, pkt.sigma_t, pkt.mass)
    return np.conj(space_amplitude(mirror, t, tau))


class NegativeEnergyReport(NamedTuple):
    sigma_distance: float   # z = E0 / sigma_E
    tail_mass: float        # Gaussian mass at E < 0


def negative_energy_fraction(pkt: TimePacket) -> NegativeEnergyReport:
    """Mass of the energy-space Gaussian lying below E = 0.

    The energy amplitude is a Gaussian centered at E0 with width
    sigma_E = 1/sigma_t, so the negative-energy fraction is
    erfc(z / sqrt(2)) / 2 with z = E0 / sigma_E.
    """
    z = pkt.E0 / pkt.sigma_E
    return NegativeEnergyReport(sigma_distance=z,
                                tail_mass=0.5 * math.erfc(z / math.sqrt(2.0)))
