"""Exact discrete first passage, Monte Carlo sampler, and diffusion limit.

A walker starts at lattice site -d (detector at 0) and steps left or right
with probability 1/2 each.  All step-n probabilities are dyadic rationals
(denominator 2^n) and are kept exact with Fraction arithmetic:

    P_{n,m} = C(n, (n+m)/2) / 2^n                       (free walk)
    G_{n,m,d} = [C(n,(n+m+d)/2) - C(n,(n+m-d)/2)] / 2^n (survivor, reflection)
    F_{n,d} = (d/n) P_{n,d} = c_n / 2^n                 (first arrival)
    S_{n,d} = sum_{k=-d}^{d-1} P_{n,k}                  (survivor mass)

with F_0 = 1 if d = 0 else 0 and integer path counts c_n.  The survivor
mass is the reflection formula summed over all sites m < 0, which
telescopes to the free-walk probability P(-d <= X_n <= d-1): a window of
at most d binomials, carried from step to step.  The Monte Carlo sampler
draws one random byte per 8 steps and advances each walker with one code
table per column length (the first step that reaches the detector, or the
net move), so a walker costs one table lookup per 8 steps; distances are
int16 while d + n_max + 16 <= 32767, int64 beyond.  Each chunk reads its
bytes as raw Philox words, the same bytes Generator.integers would give;
MC_BATCH chunks advance in lockstep, one pass over their concatenated bytes
per 8-step column (column 0 reads the single table row of distance d).
The batches run one after another in the calling thread, so at most
MC_BATCH chunks are in memory; numpy.random loads with the first chunk
stream.  The continuum limit (step dx in space, m dx^2 in clock time) is
the diffusion first-passage density
D_tau = (d/tau) sqrt(m/2 pi tau) exp(-m d^2/2 tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

__all__ = [
    "walk_probability",
    "surviving_probability",
    "first_arrival_probability",
    "first_arrival_probability_float",
    "first_arrival_counts",
    "conservation_defects",
    "FirstArrivalHistogram",
    "monte_carlo_first_arrival",
    "diffusion_density",
    "diffusion_detection_rate",
    "images_detection_rate",
]


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


def _survivor_counts(steps, d: int) -> dict:
    """2^n S_{n,d} at each given step n, as a dict keyed by n.

    The telescoped sum is the window C(n, j), ceil((n-d)/2) <= j <=
    floor((n+d-1)/2), clipped to [0, n].  Its first binomial is carried
    from row to row by one exact multiply and divide; each given row walks
    its window by C(n, j+1) = C(n, j)(n - j)/(j + 1), at most d terms.
    """
    out = {}
    n = None
    for m in sorted(set(steps)):
        if n is None:
            n, j0 = m, max(0, (m - d + 1) // 2)
            c = math.comb(n, j0)
        while n < m:
            n += 1
            j = max(0, (n - d + 1) // 2)
            c = c * n // (j if j > j0 else n - j0)
            j0 = j
        total, term = 0, c
        for j in range(j0, min(n, (n + d - 1) // 2) + 1):
            total += term
            term = term * (n - j) // (j + 1)
        out[n] = total
    return out


def first_arrival_probability(n: int, d: int) -> Fraction:
    """Probability the walk from -d first reaches 0 exactly at step n.

    The hitting-time theorem F_{n,d} = (d/n) P_{n,d}.  A walk starting on
    the detector (d = 0) counts as arrived at step 0.
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be >= 0")
    if n == 0 or d == 0:
        return Fraction(int(n == d))
    return Fraction(d, n) * walk_probability(n, d)


def _ballot_counts(n_max: int, d: int):
    """Yield (n, c_n) for the c_n = 2^n F_{n,d} that are not 0, n <= n_max.

    c_d = 1 (the straight path) and, two steps on, the ballot-number
    recurrence c_{n+2} = c_n n (n+1) / ((k+1)(n+1-k)) with k = (n+d)/2,
    whose division is exact; every other c_n is 0.  For d = 0 the
    recurrence gives c_0 = 1 and zeros after it.  One count is alive at
    a time.
    """
    if n_max < 0 or d < 0:
        raise ValueError("n_max and d must be >= 0")
    c = 1
    for n in range(d, n_max + 1, 2):
        yield n, c
        k = (n + d) // 2
        c = c * n * (n + 1) // ((k + 1) * (n + 1 - k))


def first_arrival_counts(n_max: int, d: int) -> list:
    """First-arrival path counts c_n = 2^n F_{n,d} for n = 0..n_max, as ints
    (`_ballot_counts`)."""
    counts = [0] * (n_max + 1)
    for n, c in _ballot_counts(n_max, d):
        counts[n] = c
    return counts


def first_arrival_probability_float(n, d: int):
    """F_{n,d} as floats, vectorized over n (0 for n < 0).

    c_n / 2^n in Python's int true division: the exact value, rounded once,
    as each count of `_ballot_counts` is produced.
    """
    n = np.asarray(n, dtype=np.int64)
    table = np.zeros(int(n.max(initial=0)) + 1)
    for k, c in _ballot_counts(table.size - 1, d):
        table[k] = c / (1 << k)
    return np.where(n >= 0, table[np.maximum(n, 0)], 0.0)


def conservation_defects(steps, d: int) -> list:
    """2^n (S_{n,d} + sum_{k<=n} F_{k,d} - 1) at each given step n, as ints.

    Survivors are the carried binomial windows of `_survivor_counts`;
    A_n = 2 A_{n-1} + c_n counts the walks absorbed by step n.  Zero iff
    conserved exactly.
    """
    steps = list(steps)
    if d < 0 or any(n < 0 for n in steps):
        raise ValueError("steps and d must be >= 0")
    arrived = list(accumulate(first_arrival_counts(max(steps, default=0), d),
                              lambda a, c: 2 * a + c))
    survivors = _survivor_counts(steps, d)
    return [survivors[n] + arrived[n] - (1 << n) for n in steps]


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# Trials are partitioned into fixed-size chunks; chunk i uses the Philox
# stream keyed by (seed, i), so the histogram does not depend on how the
# chunks are grouped.
MC_CHUNK = 1 << 14
# Chunks of walkers run together as one batch.  A batch shares one pass of
# numpy calls per column among its chunks, and one batch at a time bounds
# memory (about 1 MiB).
MC_BATCH = 4


@dataclass
class FirstArrivalHistogram:
    d: int
    n_max: int
    trials: int
    counts: np.ndarray        # counts[n] = first arrivals at step n
    never_arrived: int

    def frequencies(self) -> np.ndarray:
        return self.counts / self.trials

    def exact_reference(self) -> np.ndarray:
        return first_arrival_probability_float(np.arange(self.n_max + 1),
                                               self.d)

    def z_scores(self) -> np.ndarray:
        """Per-bin (observed - expected) / binomial standard error."""
        p = self.exact_reference()
        se = np.sqrt(np.maximum(p * (1.0 - p) / self.trials, 1e-300))
        return (self.frequencies() - p) / se


def _code_tables() -> np.ndarray:
    """Per-byte walk codes; bit i of a byte is step i + 1, 1 = toward 0.

    codes[left - 1, r * 256 + b] covers the byte's first `left` steps (1-8)
    for a walker r sites away: 32 + k if it reaches the detector first at
    step k <= left, else its net move toward the detector plus 8 (0..16).
    Rows r = 0..9, where row 9 (r >= 9) never arrives and row 0 is never
    looked up.
    """
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    reach = np.cumsum(2 * bits - 1, axis=1)
    hit = reach == np.arange(10)[:, None, None]
    first = np.where(hit.any(axis=2), hit.argmax(axis=2) + 1, 9)
    codes = np.where(first <= np.arange(1, 9)[:, None, None], 32 + first,
                     8 + reach.T[:, None, :])
    return codes.astype(np.uint8).reshape(8, 2560)


_CODES = _code_tables()


class _ByteStream:
    """The bytes of successive `integers(0, 256, n, np.uint8)` calls on
    Generator(Philox(key=[seed, chunk_index])), read as raw Philox words.

    Each such call reads ceil(n / 4) uint32 words, the low and then the high
    half of each raw uint64, and drops the unused bytes of its last word: a
    call takes n bytes of the little-endian raw stream, and the next call
    starts at the following multiple of 4.  Raw words are read ahead in
    blocks of at least MC_CHUNK bytes, which later calls share.
    """

    def __init__(self, seed: int, chunk_index: int):
        # Not at module load: numpy.random brings secrets, hmac and OpenSSL
        # (about 6 MiB and 10 ms), and only a Monte Carlo draw needs it.
        from numpy.random import Philox
        self._bitgen = Philox(key=[seed, chunk_index])
        self._bytes = np.empty(0, dtype=np.uint8)
        self._pos = 0

    def draw(self, n: int) -> np.ndarray:
        end = self._pos + n
        if end > self._bytes.size:
            words = max(-(-(end - self._bytes.size) // 8), MC_CHUNK // 8)
            raw = self._bitgen.random_raw(words).astype("<u8", copy=False)
            self._bytes = np.concatenate((self._bytes[self._pos:],
                                          raw.view(np.uint8)))
            self._pos, end = 0, n
        data = self._bytes[self._pos:end]
        self._pos += -(-n // 4) * 4
        return data


def _mc_batch(d: int, n_max: int, chunks, seed: int) -> tuple:
    """Run the (chunk_index, trials) chunks in lockstep; (counts, never).

    Per 8-step column each chunk draws one byte per live walker from its own
    stream, and one pass over the concatenated batch advances every walker.
    """
    counts = np.zeros(n_max + 1, dtype=np.int64)
    live = [trials for _, trials in chunks]
    if d == 0:
        counts[0] = sum(live)
        return counts, 0
    streams = [_ByteStream(seed, i) for i, _ in chunks]
    # Survivors stay within d + n_max sites; 16 leaves room for r += 8.
    dtype = np.int16 if d + n_max + 16 <= 32767 else np.int64
    r = None                                    # distance of each live walker
    for start in range(0, n_max, 8):
        if not any(live):
            break
        left = min(8, n_max - start)            # the last byte may be partial
        table = _CODES[left - 1]
        b = np.concatenate([s.draw(k) for s, k in zip(streams, live)])
        if r is None:                           # all walkers start d away
            row = 256 * min(d, 9)
            code = table[row:row + 256].take(b)
        else:
            idx = np.minimum(r, nine[:r.size])
            idx <<= 8
            idx |= b
            code = table.take(idx)
        # A column starts after a multiple of 8 steps, so r has the parity of
        # d and arrivals fall only on steps k = d (mod 2).
        for k in range(2 - d % 2, left + 1, 2):
            counts[start + k] += np.count_nonzero(code == 32 + k)
        keep = code < 32
        if r is None:
            r = np.subtract(d + 8, code.compress(keep), dtype=dtype)
            # numpy's minimum is several times faster against an array
            # than against a scalar.
            nine = np.full(r.size, 9, dtype=dtype)
        else:
            r += 8
            r -= code
            r = r.compress(keep)
        ends = list(accumulate(live))
        live = [int(np.count_nonzero(keep[e - k:e]))
                for e, k in zip(ends, live)]
    return counts, sum(live)


def monte_carlo_first_arrival(d: int, n_max: int, trials: int, seed: int,
                              workers: int = 1) -> FirstArrivalHistogram:
    """Sample first-arrival steps; deterministic per seed.

    Trials run in fixed chunks of MC_CHUNK with counter-based per-chunk
    streams, so the result depends only on (d, n_max, trials, seed).
    Each chunk draws one byte per live walker per 8 steps, looks up its
    code (see _code_tables) and drops walkers as they arrive; distances
    are int16 while d + n_max + 16 <= 32767, else int64.  The chunks run
    MC_BATCH at a time in the calling thread.  `workers` is checked and
    otherwise unused (only the benchmark workloads still pass it): no
    thread is started, and neither the memory nor the result depends on it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
    for i in range(0, len(chunks), MC_BATCH):
        c, nv = _mc_batch(d, n_max, chunks[i:i + MC_BATCH], seed)
        counts += c
        never += nv
    return FirstArrivalHistogram(d=d, n_max=n_max, trials=trials,
                                 counts=counts, never_arrived=never)


# ---------------------------------------------------------------------------
# Diffusion (continuum) limit
# ---------------------------------------------------------------------------


def diffusion_density(m: float, x: float, x1: float, tau: float):
    """Mass-scaled diffusion propagator sqrt(m/2 pi tau) e^(-m(x-x1)^2/2 tau)."""
    if m <= 0:
        raise ValueError("mass must be positive")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError(f"tau must be > 0, got {tau}")
    dx = np.asarray(x) - np.asarray(x1)
    return np.sqrt(m / (2.0 * math.pi * tau)) * np.exp(-m * dx**2 / (2.0 * tau))


def diffusion_detection_rate(m: float, d: float, tau):
    """First-passage density (d/tau) sqrt(m/2 pi tau) e^(-m d^2/2 tau).

    Normalized: the integral over tau in (0, inf) is exactly 1.
    """
    if d <= 0:
        raise ValueError(f"d must be > 0, got {d}")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be > 0")
    return (d / tau) * diffusion_density(m, 0.0, d, tau)


def images_detection_rate(m: float, d: float, tau: float):
    """Detection rate from the image construction at an absorbing origin.

    Builds G_tau(x) = P_tau(x; -d) - P_tau(x; d) and returns the flux into
    the boundary, -(1/2m) dG/dx at x = 0, from a centered finite difference
    of half-width h = 1e-5: an independent route to
    diffusion_detection_rate, which it equals up to the difference error.
    """
    if d <= 0 or not tau > 0:
        raise ValueError("d and tau must be > 0")
    h = 1e-5
    g = lambda x: (diffusion_density(m, x, -d, tau)
                   - diffusion_density(m, x, d, tau))
    return -(g(h) - g(-h)) / (2.0 * h) / (2.0 * m)


def lattice_arrival_curve(d_lattice: int, n_max: int):
    """Rescale the exact lattice F_n to a continuum detection-rate curve.

    The walk starts d_lattice sites, a physical distance 1, from the
    detector, so the lattice spacing is dx = 1 / d_lattice and, at unit
    mass, the clock-time step is dtau = dx^2: the target density has
    position variance tau, while the walk variance is n dx^2.
    Returns (tau array, rate array) at the parity steps where F_n != 0.
    """
    dx = 1.0 / d_lattice
    dtau = dx * dx
    n = np.arange(n_max + 1)
    F = first_arrival_probability_float(n, d_lattice)
    # Nonzero bins are spaced 2 steps apart; the density spreads each bin's
    # mass over 2*dtau of clock time.
    keep = F > 0
    return n[keep] * dtau, F[keep] / (2.0 * dtau)
