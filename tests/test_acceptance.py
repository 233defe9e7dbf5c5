"""Acceptance gate: every top-level correctness claim, one pass/fail line each.

Each criterion is implemented in toalab.validation with pinned configurations
and tolerances; here we only run them and report.  A failing criterion fails
the test — tolerances are never loosened here.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from toalab.detectors import _detector_current
from toalab.validation import CRITERIA, criterion_8, run_criterion
from toalab.wavepacket import SpacePacket, space_amplitude


@pytest.mark.parametrize("cid", sorted(CRITERIA), ids=lambda c: f"criterion_{c:02d}")
def test_criterion(cid, capsys):
    tracemalloc.start()
    try:
        result = run_criterion(cid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, (
        f"criterion {cid} ({result.title}) failed; observed: {result.observed}")
    # The largest working set sets validate's peak RSS; cold, criterion 9
    # traces 1.7 to 1.85 MiB, the most, and criterion 3 0.16.
    assert peak < 2.5 * 2**20, (
        f"criterion {cid} traced {peak / 2**20:.2f} MiB, above 2.5 MiB")


# Criterion 8's packet and the ten clock times of its central differences.
CRITERION_8 = SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0)
CLOCK_TIMES = [(tau - 0.05, tau + 0.05) for tau in (80.0, 90.0, 100.0,
                                                     110.0, 120.0)]


def surviving_norm(pkt, t):
    """The norm left of the detector, integral of |psi(x, t)|^2 over
    (-inf, 0], by scipy quadrature: the oracle of criterion 8."""
    value, _ = quad(lambda x: abs(space_amplitude(pkt, x, t)) ** 2,
                    -np.inf, 0.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


@pytest.mark.parametrize("t", [t for pair in CLOCK_TIMES for t in pair])
def test_criterion_8_closed_form_is_the_quadrature(t):
    pkt = CRITERION_8
    closed = 0.5 * math.erfc((pkt.x0 + pkt.v0 * t)
                             / (pkt.sigma_x * abs(pkt.dispersion_factor(t))))
    assert closed == pytest.approx(surviving_norm(pkt, t), rel=1e-12)


def test_criterion_8_residual_is_the_quadratures():
    # The same central differences on the quadrature's norms: what is left
    # is the finite-difference error, which the closed form does not move.
    worst = max(abs((surviving_norm(CRITERION_8, hi)
                     - surviving_norm(CRITERION_8, lo)) / (hi - lo)
                    + _detector_current(CRITERION_8, (lo + hi) / 2.0))
                for lo, hi in CLOCK_TIMES)
    observed = criterion_8().observed["worst_abs_residual"]
    assert observed == pytest.approx(worst, abs=1e-13)
    assert observed == pytest.approx(1.649786813273657e-07, rel=1e-9)


def test_criterion_8_holds_no_grid():
    # The parent's 40001-point grid and its |psi|^2 traced 2.44 MiB.
    criterion_8()                     # warm the imports and caches
    tracemalloc.start()
    try:
        criterion_8()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 2**20, f"criterion 8 traced {peak} bytes"
