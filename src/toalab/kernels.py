"""Free-particle kernels, first-arrival kernel, 4D kernel, and propagation.

The free kernel in one space dimension is

    K_tau(x2; x1) = sqrt(m / (2 pi i tau)) exp(i m (x2 - x1)^2 / (2 tau)),

defined for tau > 0 only (the theta(tau) boundary is the caller's job; tau = 0
is the identity).  The first-arrival kernel multiplies K by |x2 - x1|/tau.
The 4D kernel is the product of a coordinate-time factor, the space factor,
and a mass phase exp(-i m tau / 2).

laplace_first_arrival_check verifies the closed-form Laplace transform
L[F](s) = exp((-1 + i) sqrt(m s) |x|) and the factorization L[K] = L[U] L[F]
by direct numerical transform of the oscillatory kernels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad

__all__ = [
    "KernelKind",
    "KernelSpec",
    "NumericalError",
    "GridResolutionError",
    "free_kernel_space",
    "first_arrival_kernel",
    "tqm_kernel",
    "propagate",
    "LaplaceCheckReport",
    "laplace_first_arrival_check",
]

_SQRT_MINUS_I = np.exp(-1j * math.pi / 4.0)  # principal sqrt of 1/i


class KernelKind(enum.Enum):
    FreeSpace = "FreeSpace"
    FirstArrival = "FirstArrival"
    TqmFourD = "TqmFourD"


@dataclass(frozen=True)
class KernelSpec:
    mass: float
    kind: KernelKind = KernelKind.FreeSpace

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")


class NumericalError(ValueError):
    """A numerical path cannot resolve its input or left its valid range."""


class GridResolutionError(NumericalError):
    """Raised when a propagation grid under-resolves the kernel phase."""


def _check_tau(tau: float) -> None:
    if not tau > 0:
        raise ValueError(f"kernel requires tau > 0, got {tau}")


def free_kernel_space(m: float, x2, x1, tau: float):
    """Free kernel sqrt(m/2 pi i tau) exp(i m (x2-x1)^2 / 2 tau), tau > 0."""
    _check_tau(tau)
    dx = np.asarray(x2) - np.asarray(x1)
    amp = math.sqrt(m / (2.0 * math.pi * tau)) * _SQRT_MINUS_I
    return amp * np.exp(1j * m * dx**2 / (2.0 * tau))


def first_arrival_kernel(m: float, x2, x1, tau: float):
    """First-arrival kernel (|x2-x1|/tau) K_tau(x2; x1), tau > 0."""
    _check_tau(tau)
    dx = np.abs(np.asarray(x2) - np.asarray(x1))
    return (dx / tau) * free_kernel_space(m, x2, x1, tau)


def time_kernel(m: float, t2, t1, tau: float):
    """Coordinate-time kernel: conjugate dispersion relative to space.

    K~_tau(t2; t1) = sqrt(i m / (2 pi tau)) exp(-i m (t2-t1)^2 / (2 tau)).
    Has the same constant modulus sqrt(m/2 pi tau) as the space kernel.
    """
    _check_tau(tau)
    dt = np.asarray(t2) - np.asarray(t1)
    amp = math.sqrt(m / (2.0 * math.pi * tau)) * np.conj(_SQRT_MINUS_I)
    return amp * np.exp(-1j * m * dt**2 / (2.0 * tau))


def tqm_kernel(m: float, t2, x2, t1, x1, tau: float):
    """4D kernel: time factor x space factor x mass phase exp(-i m tau / 2)."""
    _check_tau(tau)
    return (time_kernel(m, t2, t1, tau)
            * free_kernel_space(m, x2, x1, tau)
            * np.exp(-0.5j * m * tau))


def _check_resolution(m: float, grid_in: np.ndarray, grid_out: np.ndarray,
                      tau: float, label: str) -> None:
    # Local phase frequency of exp(i m (x2-x1)^2 / 2 tau) in x1 is
    # m |x2-x1| / tau; require at least 8 samples per 2 pi of phase at the
    # worst separation seen by the quadrature.
    dx = np.diff(grid_in)
    if dx.size == 0 or np.any(dx <= 0):
        raise ValueError(f"{label} grid must be strictly increasing")
    sep = max(abs(grid_out[0] - grid_in[-1]), abs(grid_out[-1] - grid_in[0]))
    phase_step = m * sep * dx.max() / tau
    if phase_step > 2.0 * math.pi / 8.0:
        raise GridResolutionError(
            f"{label} grid under-resolves the kernel phase: {phase_step:.3g} "
            f"rad per sample exceeds pi/4; refine the grid or shrink its span")


def propagate(grid, psi, spec: KernelSpec, tau: float):
    """Quadrature convolution of a kernel with sampled amplitudes.

    For FreeSpace and FirstArrival, `grid` is a 1D strictly increasing array
    and `psi` the amplitude samples; returns the propagated samples on the
    same grid.  For TqmFourD, `grid` is a pair (t, x) of 1D arrays and `psi`
    a 2D array indexed [t, x].  The grid must resolve the kernel phase with
    at least 8 points per oscillation over the support, else
    GridResolutionError is raised.
    """
    _check_tau(tau)
    m = spec.mass
    if spec.kind is KernelKind.TqmFourD:
        t, x = (np.asarray(g, dtype=float) for g in grid)
        psi = np.asarray(psi)
        if psi.shape != (t.size, x.size):
            raise ValueError("psi must be shaped (len(t), len(x))")
        _check_resolution(m, t, t, tau, "t")
        _check_resolution(m, x, x, tau, "x")
        kt = time_kernel(m, t[:, None], t[None, :], tau)
        kx = free_kernel_space(m, x[:, None], x[None, :], tau)
        wt = _trapezoid_weights(t)
        wx = _trapezoid_weights(x)
        out = kt @ (psi * wt[:, None] * wx[None, :]) @ kx.T
        return out * np.exp(-0.5j * m * tau)

    x = np.asarray(grid, dtype=float)
    psi = np.asarray(psi)
    if psi.shape != x.shape:
        raise ValueError("psi must be sampled on the given grid")
    _check_resolution(m, x, x, tau, "x")
    if spec.kind is KernelKind.FreeSpace:
        kern = free_kernel_space(m, x[:, None], x[None, :], tau)
    elif spec.kind is KernelKind.FirstArrival:
        kern = first_arrival_kernel(m, x[:, None], x[None, :], tau)
    else:  # pragma: no cover - exhaustiveness
        raise ValueError(f"unsupported kernel kind {spec.kind}")
    return kern @ (psi * _trapezoid_weights(x))


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    w[1:] += 0.5 * np.diff(x)
    w[:-1] += 0.5 * np.diff(x)
    return w


# ---------------------------------------------------------------------------
# Numerical Laplace transforms of the singular oscillatory kernels.
#
# Every transform needed here has the shape
#
#     I(nu) = int_0^inf  tau^(-nu) exp(i alpha / tau) exp(-s tau) dtau,
#
# with alpha = m x^2 / 2.  Substituting u = 1/tau gives
#
#     I(nu) = int_0^inf  u^(nu - 2) exp(-s/u) exp(i alpha u) du,
#
# which trades the essential singularity at tau = 0 for a benign oscillatory
# tail.  The head (0, U] is handled by weighted Clenshaw-Curtis quadrature
# (scipy's weight='cos'/'sin' with wvar = alpha); the tail (U, inf) by
# expanding exp(-s/u) and integrating each power against exp(i alpha u)
# analytically via the upper incomplete gamma function.
# ---------------------------------------------------------------------------


def _laplace_power_transform(nu: float, alpha: float, s: float) -> complex:
    """int_0^inf u^(nu-2) e^(-s/u) e^(i alpha u) du, alpha > 0, s > 0."""
    cut = 1e4 / alpha

    def g(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return u ** (nu - 2.0) * math.exp(-s / u)

    re, _ = quad(g, 0.0, cut, weight="cos", wvar=alpha, limit=400)
    im, _ = quad(g, 0.0, cut, weight="sin", wvar=alpha, limit=400)
    head = re + 1j * im

    # Tail: sum_k (-s)^k / k! * int_cut^inf u^(nu-2-k) e^(i alpha u) du,
    # each term = (-i alpha)^(-beta) Gamma(beta, -i alpha cut),
    # beta = nu - 1 - k.
    tail = mpmath.mpc(0)
    z0 = mpmath.mpc(0.0, -alpha * cut)
    term_scale = mpmath.mpf(1)
    for k in range(60):
        beta = nu - 1.0 - k
        term = term_scale * mpmath.power(mpmath.mpc(0.0, -alpha), -beta) \
            * mpmath.gammainc(beta, z0)
        tail += term
        if abs(term) < 1e-18 * max(1.0, abs(tail)):
            break
        term_scale *= mpmath.mpf(-s) / (k + 1)
    return head + complex(tail)


def laplace_transform_first_arrival(m: float, x: float, s: float) -> complex:
    """Numerical L[F](s) for F_tau(x) = (|x|/tau) K_tau(x; 0)."""
    if x == 0.0:
        # (|x|/tau) K collapses to an immediate arrival: L[F] = 1.
        return 1.0 + 0.0j
    alpha = 0.5 * m * x * x
    pref = abs(x) * math.sqrt(m / (2.0 * math.pi)) * _SQRT_MINUS_I
    return pref * _laplace_power_transform(1.5, alpha, s)


def laplace_transform_free(m: float, x: float, s: float) -> complex:
    """Numerical L[K](s) for the free kernel at separation x != 0."""
    alpha = 0.5 * m * x * x
    pref = math.sqrt(m / (2.0 * math.pi)) * _SQRT_MINUS_I
    return pref * _laplace_power_transform(0.5, alpha, s)


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
    m: float
    x: float
    s_values: tuple
    numeric_F: tuple
    closed_F: tuple
    modulus_rel_errors: tuple
    phase_errors: tuple          # radians
    factorization_residuals: tuple  # |L[K] - L[U] L[F]|
    converged: bool

    @property
    def max_modulus_error(self) -> float:
        return max(self.modulus_rel_errors)

    @property
    def max_phase_error(self) -> float:
        return max(self.phase_errors)

    @property
    def max_factorization_residual(self) -> float:
        return max(self.factorization_residuals)


def laplace_first_arrival_check(m: float, x: float,
                                s_values) -> LaplaceCheckReport:
    """Compare numerical L[F] with its closed form; verify L[K] = L[U] L[F].

    Returns a report with, per s: the two transforms, the modulus relative
    error, the phase error (radians), and the factorization residual.  The
    ``converged`` flag records whether every residual beat 1e-3; a
    non-convergent transform is reported with its achieved residual rather
    than raised.
    """
    s_values = tuple(float(s) for s in s_values)
    if any(s <= 0 for s in s_values):
        raise ValueError("s_values must be positive")
    num, ref, mod_err, ph_err, fact = [], [], [], [], []
    for s in s_values:
        nF = laplace_transform_first_arrival(m, x, s)
        cF = closed_form_laplace_first_arrival(m, x, s)
        num.append(nF)
        ref.append(cF)
        mod_err.append(abs(abs(nF) - abs(cF)) / abs(cF))
        phase = np.angle(nF / cF)
        ph_err.append(abs(phase))
        if x == 0.0:
            nK = laplace_transform_origin(m, s)
        else:
            nK = laplace_transform_free(m, x, s)
        fact.append(abs(nK - laplace_transform_origin(m, s) * nF))
    ok = max(mod_err) < 1e-3 and max(ph_err) < 1e-3 and max(fact) < 1e-3
    return LaplaceCheckReport(
        m=m, x=x, s_values=s_values,
        numeric_F=tuple(num), closed_F=tuple(ref),
        modulus_rel_errors=tuple(mod_err), phase_errors=tuple(ph_err),
        factorization_residuals=tuple(fact), converged=ok)
