"""Exact discrete first passage, Monte Carlo sampler, and diffusion limit.

A walker starts at lattice site -d (detector at 0) and steps left or right
with probability 1/2 each.  All step-n probabilities are dyadic rationals
(denominator 2^n) and are kept exact with Fraction arithmetic:

    P_{n,m} = C(n, (n+m)/2) / 2^n                       (free walk)
    G_{n,m,d} = [C(n,(n+m+d)/2) - C(n,(n+m-d)/2)] / 2^n (survivor, reflection)
    F_{n,d} = (d/n) P_{n,d} = (1/2) G_{n-1,-1,d}        (first arrival)

with F_0 = 1 if d = 0 else 0.  The continuum limit (step eps in clock time,
sqrt(2 D0 eps) in space, mass scaling tau' = m tau) is the diffusion
first-passage density D_tau = (d/tau) sqrt(m/2 pi tau) exp(-m d^2/2 tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

__all__ = [
    "DiffusionSpec",
    "walk_probability",
    "surviving_probability",
    "survivor_mass",
    "first_arrival_probability",
    "first_arrival_probability_float",
    "recursion_evolve",
    "FirstArrivalHistogram",
    "monte_carlo_first_arrival",
    "diffusion_density",
    "diffusion_detection_rate",
    "images_detection_rate",
]

# Beyond this step count exact binomials get slow and callers are pointed at
# the floating-point path.
EXACT_STEP_LIMIT = 200


@dataclass(frozen=True)
class DiffusionSpec:
    mass: float = 1.0
    D0: float = 0.5

    def __post_init__(self):
        if self.mass <= 0 or self.D0 <= 0:
            raise ValueError("mass and D0 must be positive")


def walk_probability(n: int, m: int) -> Fraction:
    """Probability that a free walk displaces by m sites in n steps.

    Zero when n and m have different parity or |m| > n.  A nonzero start
    offset is handled by the caller via m -> m - m0.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if (n + m) % 2 != 0 or abs(m) > n:
        return Fraction(0)
    return Fraction(math.comb(n, (n + m) // 2), 2**n)


def surviving_probability(n: int, m: int, d: int) -> Fraction:
    """Probability of reaching m in n steps from -d with no visit to 0.

    Reflection principle: paths from -d to m touching 0 biject with free
    paths from +d to m, so the surviving count is the difference of two
    binomials.  Requires m < 0 (strictly left of the detector) and d >= 1.
    """
    if d < 1:
        raise ValueError(f"detector offset d must be >= 1, got {d}")
    if m >= 0:
        raise ValueError(f"survivor site must satisfy m < 0, got {m}")
    # Displacements from the start at -d: m + d direct, m - d for the image.
    return walk_probability(n, m + d) - walk_probability(n, m - d)


def survivor_mass(n: int, d: int) -> Fraction:
    """Probability that the walk from -d has not reached 0 by step n."""
    return sum((surviving_probability(n, m, d) for m in range(-n - d, 0)),
               Fraction(0))


def first_arrival_probability(n: int, d: int) -> Fraction:
    """Probability the walk from -d first reaches 0 exactly at step n.

    Computed both as (d/n) P_{n,d} and as half the step-(n-1) survivor mass
    at site -1; the two are asserted equal.  A walk starting on the
    detector (d = 0) counts as arrived at step 0.
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be >= 0")
    if n == 0 or d == 0:
        return Fraction(1) if (n == 0 and d == 0) else Fraction(0)
    hitting = Fraction(d, n) * walk_probability(n, d)
    stepping = surviving_probability(n - 1, -1, d) / 2
    assert hitting == stepping, (n, d, hitting, stepping)
    return hitting


def first_arrival_probability_float(n, d: int):
    """Floating-point F_n for large step counts, via log-binomials.

    Vectorized over n; exact parity zeros preserved.  Use the exact routine
    below EXACT_STEP_LIMIT when rational results are needed.
    """
    n = np.asarray(n, dtype=np.int64)
    out = np.zeros(n.shape, dtype=float)
    if d == 0:
        out[n == 0] = 1.0
        return out
    ok = (n >= d) & ((n + d) % 2 == 0) & (n > 0)
    nn = n[ok].astype(float)
    k = (n[ok] + d) // 2
    logp = (gammaln(nn + 1.0) - gammaln(k + 1.0) - gammaln(nn - k + 1.0)
            - nn * math.log(2.0))
    out[ok] = (d / nn) * np.exp(logp)
    return out


def recursion_evolve(initial: dict, n: int, absorb_at_zero: bool = False):
    """Evolve site probabilities by P_{n+1,m} = (P_{n,m-1} + P_{n,m+1}) / 2.

    `initial` maps site -> probability (Fraction or float).  Returns the
    final distribution, or with ``absorb_at_zero`` a pair (distribution,
    absorbed-per-step list): mass stepping onto site 0 is moved to the
    absorbed tally in the same step, so site 0 never holds mass.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    dist = dict(initial)
    absorbed = []
    for _ in range(n):
        nxt: dict = {}
        for site, p in dist.items():
            if not p:
                continue
            half = p / 2
            nxt[site - 1] = nxt.get(site - 1, 0) + half
            nxt[site + 1] = nxt.get(site + 1, 0) + half
        if absorb_at_zero:
            absorbed.append(nxt.pop(0, 0))
        dist = nxt
    if absorb_at_zero:
        return dist, absorbed
    return dist


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# Trials are partitioned into fixed-size chunks; chunk i uses the Philox
# stream keyed by (seed, i), so the histogram is identical for any number of
# worker threads.
MC_CHUNK = 1 << 14


@dataclass
class FirstArrivalHistogram:
    d: int
    n_max: int
    trials: int
    seed: int
    counts: np.ndarray        # counts[n] = first arrivals at step n
    never_arrived: int

    def frequencies(self) -> np.ndarray:
        return self.counts / self.trials

    def exact_reference(self) -> np.ndarray:
        if self.n_max <= EXACT_STEP_LIMIT:
            return np.array([float(first_arrival_probability(n, self.d))
                             for n in range(self.n_max + 1)])
        return first_arrival_probability_float(
            np.arange(self.n_max + 1), self.d)

    def z_scores(self) -> np.ndarray:
        """Per-bin (observed - expected) / binomial standard error."""
        p = self.exact_reference()
        se = np.sqrt(np.maximum(p * (1.0 - p) / self.trials, 1e-300))
        return (self.frequencies() - p) / se


def _mc_chunk(d: int, n_max: int, trials: int, seed: int,
              chunk_index: int) -> tuple:
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
    counts = np.zeros(n_max + 1, dtype=np.int64)
    if d == 0:
        counts[0] = trials
        return counts, 0
    steps = rng.integers(0, 2, size=(trials, n_max), dtype=np.int8) * 2 - 1
    pos = np.cumsum(steps, axis=1, dtype=np.int32) - d
    hit = pos == 0
    arrived = hit.any(axis=1)
    first = np.argmax(hit, axis=1) + 1
    np.add.at(counts, first[arrived], 1)
    return counts, int(trials - arrived.sum())


def monte_carlo_first_arrival(d: int, n_max: int, trials: int, seed: int,
                              workers: int = 1) -> FirstArrivalHistogram:
    """Sample first-arrival steps; deterministic per seed at any parallelism.

    Trials run in fixed chunks of MC_CHUNK with counter-based per-chunk
    streams, so the result depends only on (d, n_max, trials, seed).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if d < 0:
        raise ValueError(f"start offset d must be >= 0, got {d}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    chunks = [(i, min(MC_CHUNK, trials - i * MC_CHUNK))
              for i in range((trials + MC_CHUNK - 1) // MC_CHUNK)]
    counts = np.zeros(n_max + 1, dtype=np.int64)
    never = 0
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                lambda c: _mc_chunk(d, n_max, c[1], seed, c[0]), chunks)
            for c, nv in results:
                counts += c
                never += nv
    else:
        for i, size in chunks:
            c, nv = _mc_chunk(d, n_max, size, seed, i)
            counts += c
            never += nv
    return FirstArrivalHistogram(d=d, n_max=n_max, trials=trials,
                                 seed=seed, counts=counts,
                                 never_arrived=never)


# ---------------------------------------------------------------------------
# Diffusion (continuum) limit
# ---------------------------------------------------------------------------


def diffusion_density(spec: DiffusionSpec, x: float, x1: float, tau: float):
    """Mass-scaled diffusion propagator sqrt(m/2 pi tau) e^(-m(x-x1)^2/2 tau)."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError(f"tau must be > 0, got {tau}")
    m = spec.mass
    dx = np.asarray(x) - np.asarray(x1)
    return np.sqrt(m / (2.0 * math.pi * tau)) * np.exp(-m * dx**2 / (2.0 * tau))


def diffusion_detection_rate(spec: DiffusionSpec, d: float, tau):
    """First-passage density (d/tau) sqrt(m/2 pi tau) e^(-m d^2/2 tau).

    Normalized: the integral over tau in (0, inf) is exactly 1.
    """
    if d <= 0:
        raise ValueError(f"d must be > 0, got {d}")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be > 0")
    return (d / tau) * diffusion_density(spec, 0.0, d, tau)


def images_detection_rate(spec: DiffusionSpec, d: float, tau: float,
                          method: str = "analytic", h: float = 1e-5):
    """Detection rate from the image construction at an absorbing origin.

    Builds G_tau(x) = P_tau(x; -d) - P_tau(x; d) and returns the flux into
    the boundary, -(1/2m) dG/dx at x = 0, either from the analytic
    derivative or a centered finite difference of width h.  Equals
    diffusion_detection_rate identically.
    """
    if d <= 0 or not tau > 0:
        raise ValueError("d and tau must be > 0")
    m = spec.mass
    if method == "analytic":
        # d/dx of the two Gaussians at x = 0; the image pair doubles the term.
        slope = 2.0 * (m * d / tau) * diffusion_density(spec, 0.0, d, tau)
        return slope / (2.0 * m)
    if method == "fd":
        g = lambda x: (diffusion_density(spec, x, -d, tau)
                       - diffusion_density(spec, x, d, tau))
        return -(g(h) - g(-h)) / (2.0 * h) / (2.0 * m)
    raise ValueError(f"unknown method {method!r}")


def lattice_arrival_curve(spec: DiffusionSpec, d_lattice: int, n_max: int,
                          x_phys: float):
    """Rescale the exact lattice F_n to a continuum detection-rate curve.

    The lattice spacing is dx = x_phys / d_lattice and the walk-time step
    eps = dx^2 / (2 D0); the mass scaling between walk time and clock time
    makes the clock-time step dtau = m * eps.  (The target density has
    position variance tau/m, while the walk variance is n dx^2.)
    Returns (tau array, rate array) at the parity steps where F_n != 0.
    """
    dx = x_phys / d_lattice
    dtau = spec.mass * dx * dx * (0.5 / spec.D0)
    n = np.arange(n_max + 1)
    F = first_arrival_probability_float(n, d_lattice)
    # Nonzero bins are spaced 2 steps apart; the density spreads each bin's
    # mass over 2*dtau of clock time.
    keep = F > 0
    return n[keep] * dtau, F[keep] / (2.0 * dtau)
