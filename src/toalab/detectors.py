"""SQM time-of-arrival metrics.

Three detector models for the arrival of a packet at the origin:

* the Kijowski metric, built from half-line momentum integrals with the
  classical condition (p > 0 arrives from the left, p < 0 from the right),
  with its bullet closed form and the broad-packet ("wave") limiting case;
* the probability-current / black-box detector, whose detection rate is the
  flux J = (1/m) Im(psi* dpsi/dx) at the origin;
* the Marchewka-Schuss absorbing-boundary recursion, which removes a
  fraction of the norm per step proportional to |dpsi/dx|^2 at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import NumericalError, _log_tau_integral, _trapezoid, _warn
from .wavepacket import (SpacePacket, _require_width, space_amplitude,
                         space_amplitude_dx, space_momentum_amplitude)

__all__ = [
    "ArrivalDistribution",
    "MsConfig",
    "MsResult",
    "kijowski_curve",
    "BulletDispersions",
    "kijowski_bullet_stats",
    "kijowski_wave_density_origin",
    "kijowski_wave_norm",
    "probability_current",
    "sqm_detection_curve",
    "marchewka_schuss_evolve",
]


@dataclass(frozen=True)
class ArrivalDistribution:
    """Sampled detection-rate curve over clock time.

    The norm and moments are integrated once, at construction.  Moments are
    normalized by the realized norm, so under-counting metrics (e.g. the
    Kijowski wave case, norm 1/4) still have a mean and spread; a curve of
    norm exactly 0 has none (None).  They are taken on u = tau / 2^k (2^k
    the scale of max |tau|): exact, and u * rate stays in the float range.
    Negative rates (backflow) are kept as-is and flagged.
    """

    taus: np.ndarray
    rates: np.ndarray
    meta: dict = field(default_factory=dict)
    norm: float = field(init=False)
    mean: float | None = field(init=False)
    uncertainty: float | None = field(init=False)
    has_backflow: bool = field(init=False)

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        if taus.ndim != 1 or taus.shape != rates.shape:
            raise ValueError("taus and rates must be matching 1D arrays")
        if np.any(np.diff(taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        backflow = bool(np.any(rates < -1e-12 * np.max(np.abs(rates),
                                                       initial=0.0)))
        if backflow:
            _warn("negative detection rates present (backflow); reported "
                  "without clamping")
        norm = float(np.trapezoid(rates, taus))
        mean = uncertainty = None
        if norm != 0.0:
            s = math.ldexp(1.0, math.frexp(float(np.max(np.abs(taus))))[1])
            u = taus / s
            unorm = np.trapezoid(rates, u)
            mu = np.trapezoid(u * rates, u) / unorm
            var = np.trapezoid((u - mu) ** 2 * rates, u) / unorm
            mean, uncertainty = float(mu * s), math.sqrt(max(var, 0.0)) * s
        vars(self).update(taus=taus, rates=rates, norm=norm, mean=mean,
                          uncertainty=uncertainty, has_backflow=backflow)

    def summary(self) -> dict:
        return {"norm": self.norm, "mean": self.mean,
                "uncertainty": self.uncertainty,
                "backflow": self.has_backflow, **self.meta}


# ---------------------------------------------------------------------------
# Phase-power sums, shared by the Kijowski curve and the MS stepper
# ---------------------------------------------------------------------------


_SPREAD = 16   # Gaussian half-width of _phase_power_sums, in grid points
_CHUNK = 512   # nodes spread at once: 2 _SPREAD x _CHUNK values per temporary


def _phase_power_sums(w, theta, steps: int) -> np.ndarray:
    """A_n = sum_j w_j e^(-i n theta_j) for n = 1..steps, by one FFT.

    A_n is a nonuniform DFT at integer modes, evaluated by Gaussian gridding
    (Greengard & Lee, SIAM Rev. 46, 443 (2004)).  With x_j = theta_j mod
    2 pi and n = c + k, c = (steps + 1) // 2, the weights v_j =
    w_j e^(-i c x_j) leave the centred modes |k| <= steps/2 <= M/2.  Each
    v_j is spread onto a periodic grid of 2M points, spacing h = pi/M, by
    the periodic Gaussian exp(-(x - x_j)^2 / 4 tau) truncated at
    S = _SPREAD points on each side.  One FFT of the grid gives its Fourier
    coefficients, and dividing by the Gaussian's transform,
    e^(k^2 tau) sqrt(pi/tau) / 2M, leaves sum_j v_j e^(-i k x_j) = A_n.

    2M is the least power of two times 1, 3 or 5 with M >= max(steps, 2S),
    and tau = pi S / (M^2 R (R - 1/2)) at the oversampling ratio R = 2.
    Then the Gaussian is e^(-3 pi S/4) down at the truncation, and the
    aliased transform is e^(-2 pi S/3) down after the division, so the
    error is about e^(-2 pi S/3) sum_j |w_j| (3e-15 of it at S = 16) plus
    a phase rounding of order |k| ulp(x_j) per term.  The cost is
    O(2S len(theta) + M log M), against O(len(theta) steps) for the
    powers, and no temporary holds more than 2S x _CHUNK values besides
    the grid.
    """
    w = np.asarray(w, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    need = 2 * max(steps, 2 * _SPREAD)
    size = min(f << (-(-need // f) - 1).bit_length() for f in (1, 3, 5))
    tau = 4.0 * math.pi * _SPREAD / (3.0 * size * size)
    c = (steps + 1) // 2
    offsets = np.arange(1 - _SPREAD, _SPREAD + 1)
    # The grid with _SPREAD points before it and _SPREAD + 1 after, so no
    # index wraps while spreading; the pads then fold onto its far ends.
    padded = np.zeros(size + 2 * _SPREAD + 1, dtype=complex)
    for s in range(0, w.size, _CHUNK):
        t = theta[s:s + _CHUNK]
        x = np.mod(t, 2.0 * math.pi)
        # fmod by the float 2 pi is exact; take off the quotient times its
        # shortfall from 2 pi, 2.449e-16, or e^(-i k x) drifts with theta.
        x -= (t - x) * (2.4492935982947064e-16 / (2.0 * math.pi))
        v = w[s:s + _CHUNK] * np.exp(-1j * c * x)
        u = x * (size / (2.0 * math.pi))          # in grid spacings
        base = np.floor(u)
        # exp(-(distance)^2 / 4 tau) with the distance in grid spacings:
        # h^2 / 4 tau = 3 pi / 4S.
        g = np.exp((-0.75 * math.pi / _SPREAD)
                   * ((u - base)[:, None] - offsets) ** 2)
        # base is in [-1, size]: x may sit a rounding below 0 or at 2 pi.
        idx = (base.astype(np.intp)[:, None] + (offsets + _SPREAD)).ravel()
        padded.real += np.bincount(idx, (g * v.real[:, None]).ravel(),
                                   padded.size)
        padded.imag += np.bincount(idx, (g * v.imag[:, None]).ravel(),
                                   padded.size)
    grid = padded[_SPREAD:_SPREAD + size]
    grid[size - _SPREAD:] += padded[:_SPREAD]
    grid[:_SPREAD + 1] += padded[_SPREAD + size:]
    k = np.arange(1 - c, steps + 1 - c)
    return np.fft.fft(grid)[k] * (
        np.exp(tau * k * k) * (math.sqrt(math.pi / tau) / size))


def _require_phase(theta_max: float, steps: int) -> None:
    """NumericalError unless max(steps, 1) ulp(theta_max) <= 1e-9 rad: A_n
    of `_phase_power_sums` takes n times a float phase's rounding, ulp/2."""
    if not max(steps, 1) * math.ulp(theta_max) <= 1e-9:
        raise NumericalError(f"phase step {theta_max:.3g} rad: {max(steps, 1)}"
                             f" x ulp {math.ulp(theta_max):.3g} > 1e-9 rad")


# ---------------------------------------------------------------------------
# Kijowski metric
# ---------------------------------------------------------------------------


def kijowski_curve(pkt: SpacePacket, taus,
                   nodes: int = 4000) -> ArrivalDistribution:
    """Kijowski density of a packet arriving from the left, vectorized.

    The amplitude int_0^inf sqrt(p/2 pi m) phi(p) e^(-i p^2 tau/2m) dp has a
    sqrt(p) edge at p = 0; in q = sqrt(p) it is smooth and even with a
    Gaussian tail, so `_trapezoid` in q over sqrt(p0 +/- 12 sigma_p) (the
    lower end clamped at 0) converges exponentially, for all taus at once,
    to 1e-10 of the largest amplitude, or raises NumericalError.  On a
    uniform grid tau_k = tau_0 + k dtau a level's node sum is
    sum_j b_j e^(-i k theta_j), theta_j = dtau p_j^2/2m, which
    `_phase_power_sums` forms by one FFT without a tau x nodes matrix.
    `taus` must be uniformly spaced (ValueError otherwise); one point or
    none is allowed, and `_require_phase` checks dtau p^2/2m.  `nodes` is
    ignored.  The meta holds the intervals used (`nodes`) and the max-norm
    difference of the last two levels (`quad_error`).
    """
    taus = np.asarray(taus, dtype=float)
    dtau = 0.0
    if taus.size > 1:
        step = np.diff(taus)
        if not np.allclose(step, step[0], rtol=1e-10):
            raise ValueError("taus must be uniformly spaced")
        dtau = (taus[-1] - taus[0]) / (taus.size - 1)
    hi = pkt.p0 + 12.0 * pkt.sigma_p
    _require_phase(dtau * (hi * hi / (2.0 * pkt.mass)), taus.size)
    # The sums start at n = 1, so the seed sits one step before tau_0.
    tau_seed = taus[0] - dtau if taus.size else 0.0
    evaluated = []  # nodes per call; their total is the intervals + 1

    def node_sums(q):
        p = q * q
        p2 = p * p / (2.0 * pkt.mass)
        base = (2.0 * p / math.sqrt(2.0 * math.pi * pkt.mass)
                * space_momentum_amplitude(pkt, p))
        evaluated.append(q.size)
        return _phase_power_sums(base * np.exp(-1j * tau_seed * p2),
                                 dtau * p2, taus.size)

    amp, err = _trapezoid(node_sums,
                          math.sqrt(max(0.0, pkt.p0 - 12.0 * pkt.sigma_p)),
                          math.sqrt(hi), 1e-10)
    return ArrivalDistribution(taus, np.abs(amp) ** 2, meta={
        "nodes": sum(evaluated) - 1, "quad_error": float(err)})


@dataclass(frozen=True)
class BulletDispersions:
    """Frozen arrival law: mean tau_bar, arrival uncertainty sigma_tau/sqrt 2.

    sigma_tau = hypot(sigma_bar, sigma_tilde): the space contribution
    sigma_bar = tau_bar/(m v0 sigma_x) and the time contribution
    sigma_tilde = tau_bar/(m sigma_t), which is 0 in SQM.  A law whose
    tau_bar or sigma_tau overflows raises NumericalError.
    """

    tau_bar: float
    sigma_bar_tau: float            # space contribution
    sigma_tilde_tau: float = 0.0    # time contribution (TQM)

    def __post_init__(self):
        tau, sigma = self.tau_bar, self.sigma_tau
        if not (math.isfinite(tau) and math.isfinite(sigma)):
            raise NumericalError(f"frozen arrival law tau_bar = {tau:.3g}, "
                                 f"sigma_tau = {sigma:.3g}")

    @property
    def sigma_tau(self) -> float:
        return math.hypot(self.sigma_bar_tau, self.sigma_tilde_tau)

    @property
    def uncertainty(self) -> float:
        return self.sigma_tau / math.sqrt(2.0)


def _bullet_dispersions(pkt: SpacePacket) -> BulletDispersions:
    """The SQM (sigma_tilde = 0) frozen law of a packet pkt.d from the
    detector: tau_bar = d/v0, sigma_bar = tau_bar/(m v0 sigma_x)."""
    if pkt.d <= 0:
        raise ValueError("detector distance d must be > 0")
    if pkt.p0 <= 0:
        raise ValueError("arrival requires a right-moving packet, p0 > 0")
    tau_bar = pkt.d / pkt.v0
    return BulletDispersions(
        tau_bar=tau_bar,
        sigma_bar_tau=tau_bar / (pkt.mass * pkt.v0 * pkt.sigma_x))


def _regime_ratios(pkt: SpacePacket, tau_bar: float) -> dict:
    """sigma_p/p0 and m sigma_x^2/tau_bar; the frozen law needs both << 1."""
    return {"sigma_p_over_p0": pkt.sigma_p / pkt.p0,
            "m_sigma_x2_over_tau_bar": pkt.mass * pkt.sigma_x**2 / tau_bar}


def kijowski_bullet_stats(pkt: SpacePacket) -> BulletDispersions:
    """Closed-form arrival statistics for a narrow-momentum (bullet) packet.

    The SQM frozen law of `BulletDispersions`: mean tau_bar = d/v0 with
    d = pkt.d, uncertainty sigma_bar/sqrt(2).  The closed form keeps only
    the momentum spread, so it warns outside the bullet regime, that is
    when sigma_p/p0 > 0.1 (the <1/p> shift of the mean grows) or when
    m sigma_x^2/tau_bar > 0.1 (the position width adds to the spread).
    """
    disp = _bullet_dispersions(pkt)
    ratios = _regime_ratios(pkt, disp.tau_bar).values()
    outside = [f"{label} = {value:.3g}" for label, value
               in zip(("sigma_p/p0", "m sigma_x^2/tau_bar"), ratios)
               if value > 0.1]
    if outside:
        _warn(f"{', '.join(outside)} > 0.1: outside the bullet regime, "
              "closed form is approximate")
    return disp


def _arrival_moments(pkt: SpacePacket, alpha: float, gate=None) -> tuple:
    """Exact (mean, uncertainty) of |int_0^inf p^alpha phi(p) e^(-i p^2
    tau/2m) dp|^2 for a left packet: Kijowski's density at alpha = 1/2,
    |psi|^2 at the detector at alpha = 0.  tau acts as -i d/dE, so with
    a = (p - p0)/sigma_p^2 and weight p^(2 alpha - 1) |phi|^2 on p > 0,
    <tau> = m d <1/p> and <tau^2> = m^2 <(d^2 + ((alpha - 1)/p - a)^2)/p^2>
    (Kijowski, Rep. Math. Phys. 6, 361 (1974); Muga & Leavens, Phys. Rep.
    338, 353 (2000)).  A gate of clock-time width W multiplies phi by
    e^(-W^2 (E - E0)^2/2), E = p^2/2m: the weight gains e^(-W^2 (E - E0)^2)
    and a gains W^2 (E - E0) p/m.  Each average is one trapezoid rule on
    p0 +/- 6 s, the gated width s = sigma_p / hypot(1, W p0 sigma_p/m).
    1/p^4 diverges at p = 0, so sigma_p/p0 > 1/8 raises ValueError (below
    it the weight at p = 0 is e^-64 of the peak or less); a weight not
    above 0 raises NumericalError.  The variance is averaged as m^2 <(d
    (1/p - <1/p>))^2 + (((alpha - 1)/p - a)/p)^2>, which cannot cancel.
    """
    p0, sp, m, d = pkt.p0, pkt.sigma_p, pkt.mass, pkt.d
    if p0 <= 0 or sp > p0 / 8.0:
        raise ValueError(f"sigma_p = {sp:.3g} exceeds p0/8 = {p0 / 8.0:.3g}: "
                         "momentum content near p = 0 is not negligible, "
                         "the moments diverge")
    W = gate or 0.0
    s = sp / math.hypot(1.0, W * p0 * sp / m)

    def average(f):
        def total(p):
            e = (p * p - p0 * p0) / (2.0 * m)
            a = (p - p0) / sp**2 + W * W * e * p / m
            return np.sum(np.exp(-((p - p0) / sp) ** 2 - (W * e) ** 2)
                          * p ** (2.0 * alpha - 1.0) * f(p, a))
        return _trapezoid(total, p0 - 6.0 * s, p0 + 6.0 * s, 1e-12)[0]

    weight = average(lambda p, a: 1.0)
    if not weight > 0.0:
        raise NumericalError(f"arrival weight {weight:.3g} at gate W = {W:g}:"
                             f" the window p0 +/- {6 * s:.3g} is unresolved")
    inv = average(lambda p, a: 1.0 / p)
    var = m * m * average(lambda p, a: (d * (1.0 / p - inv / weight)) ** 2
                          + (((alpha - 1.0) / p - a) / p) ** 2) / weight
    return m * d * inv / weight, math.sqrt(var)


def _require_wave(m: float, sigma_p: float) -> None:
    if m <= 0 or sigma_p <= 0:
        raise ValueError("m and sigma_p must be positive")
    _require_width("sigma_p", sigma_p)


def kijowski_wave_density_origin(m: float, sigma_p: float, tau) -> np.ndarray:
    """Broad-packet (d -> 0, p0 -> 0) Kijowski density at the origin.

    rho0(tau) = |m^(1/4) sigma_p Gamma(3/4) / ((2 pi)^(3/4)
                (m + i sigma_p^2 tau)^(3/4))|^2.
    Integrates to exactly 1/4 over tau in (0, inf): half the momentum
    content is discarded by the classical condition and the norm is the
    square of the kept fraction.
    """
    _require_wave(m, sigma_p)
    tau = np.asarray(tau, dtype=float)
    amp = (m ** 0.25 * sigma_p * math.gamma(0.75)
           / ((2.0 * math.pi) ** 0.75
              * (m + 1j * sigma_p**2 * tau) ** 0.75))
    return np.abs(amp) ** 2


def kijowski_wave_norm(m: float, sigma_p: float) -> tuple:
    """Numerical norm of kijowski_wave_density_origin, as (norm, error).

    With tau = (m / sigma_p^2) e^v the integrand rho0(tau) tau falls as e^v
    for v -> -inf and e^(-v/2) for v -> +inf, and its nearest singularities
    sit at v = +/- i pi/2, so the trapezoid rule in v converges
    exponentially.  The window v in [-40, 80] drops tails below 4e-18.  The
    error is the difference of the last two trapezoid levels.  A width
    whose window end (m / sigma_p^2) e^80, m e^80 (m + i sigma_p^2 tau
    there) or peak density rho0(0) overflows raises ValueError.
    """
    _require_wave(m, sigma_p)
    scale = m / sigma_p**2
    if not math.isfinite(scale * math.exp(80.0)):
        raise ValueError(f"sigma_p = {sigma_p:.6g} with m = {m:.6g}: the tau "
                         "window end (m / sigma_p^2) e^80 overflows")
    if not math.isfinite(max(m * math.exp(80.0), sigma_p**2 / m)):
        raise ValueError(f"sigma_p = {sigma_p:.6g} with m = {m:.6g}: m e^80 "
                         "or the peak density ~ sigma_p^2 / m overflows")
    return _log_tau_integral(
        lambda tau: kijowski_wave_density_origin(m, sigma_p, tau), scale,
        -40.0, 80.0)


# ---------------------------------------------------------------------------
# Probability current / black-box detector
# ---------------------------------------------------------------------------


def probability_current(psi, dpsi_dx, m: float):
    """Flux J = (1/m) Im(psi* dpsi/dx)."""
    return (np.conj(psi) * dpsi_dx).imag / m


def _detector_current(pkt: SpacePacket, tau):
    """Probability current of pkt at the detector (the origin) at clock
    time tau, from the analytic spatial derivative of the packet."""
    return probability_current(space_amplitude(pkt, 0.0, tau),
                               space_amplitude_dx(pkt, 0.0, tau), pkt.mass)


def _window(lo: float, hi: float, n: int, centre: float, width: float):
    """n points on [lo, hi]; NumericalError unless hi - lo is finite and
    the points strictly increase."""
    if not math.isfinite(hi - lo):
        raise NumericalError(f"default window at {centre:.17g}, width "
                             f"{width:.3g}: its ends leave the float range")
    grid = np.linspace(lo, hi, n)
    if np.any(np.diff(grid) <= 0):
        raise NumericalError(f"default window at {centre:.17g}, width "
                             f"{width:.3g}: narrower than the float spacing")
    return grid


def _require_captured(captured, exact, message: str) -> None:
    """NumericalError unless what a window captured is within 1e-3 of the
    exact total, relative to it (so never when either is NaN); `message`
    formats the two numbers."""
    if not abs(captured - exact) <= 1e-3 * exact:
        raise NumericalError(message.format(captured, exact) + "; the window "
                             "is sized for a bullet packet, which this is not")


def default_tau_grid(tau_bar: float, width: float) -> np.ndarray:
    """The default tau window: 1201 points on tau_bar +/- 10 widths, the
    lower end clamped at 1e-9 tau_bar."""
    return _window(max(tau_bar - 10.0 * width, 1e-9 * tau_bar),
                   tau_bar + 10.0 * width, 1201, tau_bar, width)


def _kijowski_window_curve(pkt: SpacePacket) -> tuple:
    """(bullet stats, Kijowski curve on `default_tau_grid`) of pkt; the norm
    must be the exact Kijowski norm, the weight at p > 0 (Parseval)."""
    stats = kijowski_bullet_stats(pkt)
    curve = kijowski_curve(pkt, default_tau_grid(stats.tau_bar,
                                                 stats.uncertainty))
    _require_captured(curve.norm, 0.5 * math.erfc(-pkt.p0 * pkt.sigma_x),
                      "the Kijowski curve's tau window captures norm {:.6g} "
                      "of the exact Kijowski norm {:.6g}")
    return stats, curve


def sqm_detection_curve(pkt: SpacePacket) -> ArrivalDistribution:
    """Detection-rate curve of a black-box detector at the origin, pkt.d
    downstream of the packet center.

    The rate is the probability current at the detector,
    `_detector_current`, on `default_tau_grid`.  The summary metadata
    carries the closed forms of `BulletDispersions`: mean tau_bar = d/v0
    and uncertainty sigma_bar/sqrt(2).  The norm must be the exact flux,
    erfc(-p0 sigma_x)/2 - erfc(d/sigma_x)/2.
    """
    disp = _bullet_dispersions(pkt)
    tau_bar, dtau = disp.tau_bar, disp.uncertainty
    taus = default_tau_grid(tau_bar, dtau)
    curve = ArrivalDistribution(taus, _detector_current(pkt, taus),
                                meta={"metric": "current", "tau_bar": tau_bar,
                                      "closed_form_uncertainty": dtau})
    _require_captured(curve.norm, 0.5 * (math.erfc(-pkt.p0 * pkt.sigma_x)
                                         - math.erfc(pkt.d / pkt.sigma_x)),
                      "the current's tau window captures norm {:.6g} of the "
                      "detector's total flux {:.6g}")
    return curve


# ---------------------------------------------------------------------------
# Marchewka-Schuss absorbing boundary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MsConfig:
    lam: float          # characteristic absorption length, >= 0
    epsilon: float      # clock-time step
    steps: int

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


@dataclass
class MsResult:
    x: np.ndarray               # half-line grid, x[-1] = 0
    psi_final: np.ndarray       # corrected amplitude on x <= 0
    detected: np.ndarray        # probability absorbed at each step
    cfg: MsConfig

    @property
    def cumulative_detected(self) -> float:
        return float(self.detected.sum())

    def final_norm(self) -> float:
        return float(np.trapezoid(np.abs(self.psi_final) ** 2, self.x))

    def arrival_distribution(self) -> ArrivalDistribution:
        taus = (np.arange(self.cfg.steps) + 1.0) * self.cfg.epsilon
        return ArrivalDistribution(taus, self.detected / self.cfg.epsilon)


def marchewka_schuss_evolve(x, psi0, cfg: MsConfig,
                            m: float = 1.0) -> MsResult:
    """Evolve an amplitude on x <= 0 against an absorbing boundary at 0.

    Per step: free propagation restricted to the half line (realized as
    unitary propagation with a hard wall at 0, via the odd image of the
    amplitude, so that no probability ever leaks past the boundary and the
    bookkeeping identity is exact); then absorption of
    P_n = (epsilon lam / 2 pi m) |dpsi/dx(0)|^2, with the survivor scaled
    by sqrt(1 - P_n).

    Absorption only multiplies the amplitude by a scalar, so the run is the
    hard-wall evolution plus a scalar recursion on P_n.  The hard-wall
    boundary derivative (central difference at 0) is a fixed functional of
    the spectrum, which each step only multiplies by exp(-i k^2 eps / 2m),
    so the derivatives at all steps are one set of phase-power sums with
    phases k^2 eps / 2m: one FFT in, `_phase_power_sums` (shared with
    `kijowski_curve`: one Gaussian-gridded FFT of 2 to 2.7 x steps points)
    for the per-step derivatives, one IFFT out.

    `x` must be a uniform increasing grid of at least two points ending
    exactly at 0 with the initial amplitude negligible at both ends.
    Aborts if a P_n > 1 (lam or epsilon too large) or `_require_phase` fails.
    """
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi0, dtype=complex)
    if x.ndim != 1 or x.shape != psi.shape:
        raise ValueError("x and psi0 must be matching 1D arrays")
    dx = np.diff(x)
    if x.size < 2 or dx[0] <= 0:
        raise ValueError("x must be increasing with at least two points")
    if not np.allclose(dx, dx[0], rtol=1e-10):
        raise ValueError("x must be uniformly spaced")
    if abs(x[-1]) > 1e-12 * abs(x[0]):
        raise ValueError("grid must end at the boundary x = 0")
    h = float(dx[0])
    n_half = x.size
    n_full = 2 * (n_half - 1)

    # Odd image about 0 on a periodic box twice the half line; a Dirichlet
    # node sits at x = 0 (index n_full/2) and the propagation is exactly
    # unitary.
    full = np.zeros(n_full, dtype=complex)
    full[:n_half] = psi
    full[n_half:] = -psi[-2:0:-1]
    spectrum = np.fft.fft(full)
    k = 2.0 * math.pi * np.fft.fftfreq(n_full, d=h)

    # The central difference (full[i0+1] - full[i0-1]) / 2h at
    # i0 = n_full/2 is sum_j spectrum[j] (-1)^j i sin(2 pi j/n_full)
    # / (h n_full).  Modes j and n_full - j share a step phase, so fold
    # them; j = 0 and n_full/2 carry zero weight.
    j = np.arange(1, n_half - 1)
    w = ((-1.0) ** j * 1j * np.sin(math.pi * j / (n_half - 1))
         / (h * n_full)) * (spectrum[j] - spectrum[n_full - j])
    k_max = float(np.max(k[j], initial=0.0))
    _require_phase(k_max * k_max * cfg.epsilon / (2.0 * m), cfg.steps)
    dpsi_raw = _phase_power_sums(w, k[j] ** 2 * cfg.epsilon / (2.0 * m),
                                 cfg.steps)

    # The absorbed run's boundary derivative at step n is the hard-wall one,
    # dpsi_raw[n], times sqrt(share): share = prod_(j<n) (1 - P_j) survives.
    raw_p = (cfg.epsilon * cfg.lam / (2.0 * math.pi * m)
             * np.abs(dpsi_raw) ** 2).tolist()
    detected, share = np.zeros(cfg.steps), 1.0
    for n, P in enumerate(raw_p):
        P *= share
        if P > 1.0:
            raise NumericalError(
                f"absorption probability {P:.3g} > 1 at step {n}; "
                "reduce lam or epsilon")
        detected[n] = P * share
        share *= 1.0 - P
    detected *= float(np.trapezoid(np.abs(psi) ** 2, x))
    final_phase = np.exp(-1j * k * k * (cfg.epsilon * cfg.steps) / (2.0 * m))
    psi_final = np.fft.ifft(spectrum * final_phase)[:n_half] * math.sqrt(share)
    return MsResult(x=x, psi_final=psi_final, detected=detected, cfg=cfg)
