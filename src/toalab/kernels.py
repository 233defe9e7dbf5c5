"""Free-particle kernel, first-arrival kernel, Laplace transforms.

The free kernel in one space dimension is

    K_tau(x2; x1) = sqrt(m / (2 pi i tau)) exp(i m (x2 - x1)^2 / (2 tau)),

defined for Re tau > 0 on the principal branch (the theta(tau) boundary is
the caller's job; tau = 0 is the identity).  The first-arrival kernel
multiplies K by |x2 - x1|/tau.

laplace_first_arrival_check verifies the closed-form Laplace transform
L[F](s) = exp((-1 + i) sqrt(m s) |x|) and the factorization L[K] = L[U] L[F]
by transforming the kernels themselves numerically along the rotated
contour tau = r e^(-i pi/4), where the integrand neither oscillates nor
cancels.

Every integral the package refines to a tolerance uses _trapezoid: the
uniform trapezoid rule, refined until two levels agree, on a variable in
which the integrand decays to zero at both ends of the grid.  There it converges exponentially
(Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).  A level that is exactly 0
at every node missed its integrand and is refused.  The tau integral of a
rate peaked at tau > 0 has one window rule, _peaked_tau_integral, so no
caller sizes that window itself.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "free_kernel_space",
    "first_arrival_kernel",
    "LaplaceCheckReport",
    "laplace_first_arrival_check",
]

_SQRT_MINUS_I = np.exp(-1j * math.pi / 4.0)  # principal sqrt of 1/i


class NumericalError(ValueError):
    """A numerical path cannot resolve its input or left its valid range."""


def _warn(message: str) -> None:
    """warnings.warn(message) on the line of the first caller outside the
    modules toalab and toalab.*, a dataclass-generated __init__ among them."""
    f, level = sys._getframe(1), 2
    while f and f"{f.f_globals.get('__name__')}.".startswith("toalab."):
        f, level = f.f_back, level + 1
    warnings.warn(message, stacklevel=level)


_TRAPEZOID_START = 16     # intervals on the first level
_TRAPEZOID_HALVINGS = 12  # at most 16 * 2^12 + 1 nodes


def _trapezoid(f, lo: float, hi: float, rtol: float) -> tuple:
    """Trapezoid rule for int_lo^hi, halving the step until it converges.

    f(x) returns the sum of the integrand over the nodes x, a scalar or a
    vector (real or complex).  Each level adds the midpoints of the last
    one; the result is returned as (value, max-norm of the difference of
    the last two levels) once that is at most rtol times the max-norm of
    the value.  Raises NumericalError when the levels have not converged
    after _TRAPEZOID_HALVINGS halvings, when a level is not finite, or when
    a non-empty value on lo != hi converges to exactly 0: its nodes missed
    the integrand.
    """
    n = _TRAPEZOID_START
    h = (hi - lo) / n
    total = h * (f(lo + h * np.arange(1, n)) + 0.5 * f(np.array([lo, hi])))
    diff = math.inf
    for _ in range(_TRAPEZOID_HALVINGS):
        if not np.all(np.isfinite(total)):
            break
        h *= 0.5
        finer = 0.5 * total + h * f(lo + h * np.arange(1, 2 * n, 2))
        n *= 2
        diff = np.max(np.abs(finer - total), initial=0.0)
        total = finer
        if diff <= rtol * np.max(np.abs(total), initial=0.0):
            if hi != lo and np.size(total) and not np.any(total):
                raise NumericalError(
                    f"trapezoid rule on [{lo:.6g}, {hi:.6g}] is exactly 0 at "
                    f"all {n + 1} nodes: the nodes missed the integrand")
            return total, diff
    raise NumericalError(
        f"trapezoid rule on [{lo:.6g}, {hi:.6g}] did not converge to rtol "
        f"{rtol:g} with {n + 1} nodes (last two levels differ by {diff:.3g}, "
        f"|value| {np.max(np.abs(total), initial=0.0):.6g})")


def _log_tau_integral(rate, scale, lo: float, hi: float) -> tuple:
    """int rate(tau) dtau along tau = scale e^v, d tau = tau dv, for v in
    [lo, hi], as the (value, error) of `_trapezoid` at rtol 1e-10.  `rate`
    maps an array of tau to the rate there; `scale` may be complex (a ray)."""
    def integrand(v):
        tau = scale * np.exp(v)
        return np.sum(rate(tau) * tau)

    return _trapezoid(integrand, lo, hi, 1e-10)


def _peaked_tau_integral(rate, tau_bar: float, width: float) -> tuple:
    """int_0^inf rate(tau) dtau of a rate peaked at tau_bar about `width`
    wide, as the (value, error) of `_trapezoid` at rtol 1e-10.

    tau = tau_bar e^v and v = a sinh(u), a = width/tau_bar: near the peak
    u spaces the nodes in units of the width, far out in powers of e.  u
    runs over [-asinh(30/a), asinh(30/a)], so v over [-30, 30]; the window
    is symmetric in u, so the peak v = 0 is a node of every level.
    """
    a = width / tau_bar
    edge = math.asinh(30.0 / a)

    def integrand(u):
        tau = tau_bar * np.exp(a * np.sinh(u))
        return np.sum(rate(tau) * tau * (a * np.cosh(u)))

    return _trapezoid(integrand, -edge, edge, 1e-10)


def _check_tau(tau):
    tau = np.asarray(tau)
    if not (np.all(np.isfinite(tau)) and np.all(tau.real > 0)):
        raise ValueError(f"kernel requires finite tau with Re tau > 0, "
                         f"got {tau}")
    return tau


def free_kernel_space(m: float, x2, x1, tau):
    """Free kernel sqrt(m/2 pi i tau) exp(i m (x2-x1)^2 / 2 tau), Re tau > 0.

    tau may be complex: the square root is the principal branch, which is
    continuous from the real axis across the right half plane.
    """
    tau = _check_tau(tau)
    dx = np.asarray(x2) - np.asarray(x1)
    return (np.sqrt(m / (2j * math.pi * tau))
            * np.exp(1j * m * dx**2 / (2.0 * tau)))


def first_arrival_kernel(m: float, x2, x1, tau):
    """First-arrival kernel (|x2-x1|/tau) K_tau(x2; x1), Re tau > 0."""
    tau = _check_tau(tau)
    dx = np.abs(np.asarray(x2) - np.asarray(x1))
    return (dx / tau) * free_kernel_space(m, x2, x1, tau)


# ---------------------------------------------------------------------------
# Numerical Laplace transforms of the singular oscillatory kernels.
#
# With alpha = m x^2 / 2 both kernels carry e^(i alpha/tau).  On the arcs
# tau = r e^(i phi), -pi/2 < phi < 0, both Re(i alpha/tau) =
# alpha sin(phi)/r and Re(-s tau) = -s r cos(phi) are negative, so by
# Cauchy's theorem the path rotates onto tau = r e^(-i pi/4).  There the
# exponent is (-1 + i)(alpha/r + s r)/sqrt(2).  With r = sqrt(alpha/s) e^v
# it is (-1 + i) c cosh v, c = sqrt(2 alpha s): the modulus peaks at
# exp(-c), the size of the result, and falls doubly exponentially in v, so
# the trapezoid rule in v sees no cancellation, no oscillatory tail and no
# essential singularity.
# ---------------------------------------------------------------------------

_LAPLACE_TAIL = 45.0  # the window ends where the integrand is e^-45 of e^-c
_TINY = np.finfo(float).tiny  # the smallest normal float


def _ray_transforms(m: float, x: float, s: float) -> tuple:
    """(L[F](s), L[K](s)) for F_tau(x) = (|x|/tau) K_tau(x; 0) and the free
    kernel K_tau(x; 0), s > 0, both integrated on one window.

    At x = 0, F collapses to an immediate arrival (L[F] = 1) and K is U.
    Otherwise, on the ray tau = sqrt(alpha/s) e^v e^(-i pi/4), d tau =
    tau dv, each integrand kernel e^(-s tau) tau has modulus proportional
    to exp(-c cosh v -/+ v/2), as F and K go as tau^(-3/2) and tau^(-1/2).
    The window |v| <= V solves c (cosh V - 1) = 45 + V/2 (each fixed-point
    step shrinks the residual by 1 / (2 c sinh V) < 1/90), so the integrand
    at its ends is e^-45 of its value at v = 0.  The kernels are looked up
    at call time: a patched or traced kernel is the one transformed.
    """
    if x == 0.0:
        return 1.0 + 0.0j, laplace_transform_origin(m, s)
    alpha = 0.5 * m * x * x
    c = math.sqrt(2.0 * alpha * s)
    if c == 0.0:
        raise NumericalError(f"alpha s = {alpha:.3g} x {s:.3g} underflows: "
                             "the transform window cannot be placed")
    edge = 0.0
    for _ in range(3):
        edge = math.acosh(1.0 + (_LAPLACE_TAIL + 0.5 * edge) / c)
    r = math.sqrt(alpha / s)
    if not (_TINY <= r * math.exp(-edge) and r * math.exp(edge) <= 1 / _TINY):
        raise NumericalError(f"alpha = {alpha:.3g}, s = {s:.3g}: the "
                             f"transform window |tau| = {r:.3g} e^(+/-"
                             f"{edge:.3g}) leaves the float range")
    return tuple(_log_tau_integral(
        lambda tau: kernel(m, x, 0.0, tau) * np.exp(-s * tau),
        r * _SQRT_MINUS_I, -edge, edge)[0]
        for kernel in (first_arrival_kernel, free_kernel_space))


def laplace_transform_origin(m: float, s: float) -> complex:
    """L[U](s) for U_tau = K_tau(0) = sqrt(m / 2 pi i tau).

    int_0^inf tau^(-1/2) e^(-s tau) dtau = sqrt(pi/s), giving the closed
    form e^(-i pi/4) sqrt(m / 2 s).
    """
    return _SQRT_MINUS_I * math.sqrt(0.5 * m / s)


def closed_form_laplace_first_arrival(m: float, x: float, s: float) -> complex:
    """Closed form L[F](s) = exp((-1 + i) sqrt(m s) |x|)."""
    return np.exp((-1.0 + 1j) * math.sqrt(m * s) * abs(x))


@dataclass(frozen=True)
class LaplaceCheckReport:
    s_values: tuple
    modulus_rel_errors: tuple
    phase_errors: tuple          # radians
    factorization_residuals: tuple  # |L[K] - L[U] L[F]| / |L[U] cF|
    converged: bool


def laplace_first_arrival_check(m: float, x: float,
                                s_values) -> LaplaceCheckReport:
    """Compare numerical L[F] with its closed form; verify L[K] = L[U] L[F].

    Returns a report with, per s: the modulus relative error, the phase
    error (radians), and the factorization residual, relative to
    |L[U] cF| with cF the closed-form L[F], since |L[K]| spans hundreds
    of decades over s.  The ``converged`` flag records whether every
    residual beat 1e-3.  A transform whose quadrature does not converge
    raises NumericalError instead of entering the report, and so does an
    s at which cF or |L[U] cF| leaves the normal floats, as no relative
    error can be formed there.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    s_values = tuple(float(s) for s in s_values)
    if any(s <= 0 for s in s_values):
        raise ValueError("s_values must be positive")
    mod_err, ph_err, fact = [], [], []
    for s in s_values:
        cF = closed_form_laplace_first_arrival(m, x, s)
        U = laplace_transform_origin(m, s)
        UF = abs(U) * abs(cF)  # |L[U] L[F]|, formed without a warning
        if not (_TINY <= min(abs(cF), UF) and UF < math.inf):
            raise NumericalError(
                f"s = {s:.3g}: L[F] = exp(-sqrt(m s) |x|) = {abs(cF):.3g} or "
                f"|L[U] L[F]| = {UF:.3g} leaves the normal floats")
        nF, nK = _ray_transforms(m, x, s)
        mod_err.append(abs(abs(nF) - abs(cF)) / abs(cF))
        ph_err.append(abs(np.angle(nF / cF)))
        fact.append(abs(nK - U * nF) / UF)
    ok = max(mod_err) < 1e-3 and max(ph_err) < 1e-3 and max(fact) < 1e-3
    return LaplaceCheckReport(
        s_values=s_values, modulus_rel_errors=tuple(mod_err),
        phase_errors=tuple(ph_err), factorization_residuals=tuple(fact),
        converged=bool(ok))
