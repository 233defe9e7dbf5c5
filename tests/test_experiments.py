"""End-to-end experiments: slit in time, metric comparison, lattice limit."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import dawsn

from toalab.detectors import (ArrivalDistribution, _arrival_moments,
                              _kijowski_window_curve, default_tau_grid,
                              kijowski_bullet_stats, kijowski_curve)
from toalab.experiments import (discrete_continuum_experiment, gated_source,
                                metric_comparison, single_slit_sweep)
from toalab.detectors import sqm_detection_curve
from toalab.kernels import (NumericalError, _peaked_tau_integral,
                            first_arrival_kernel)
from toalab.tqm import (TqmPacket, tqm_arrival_distribution,
                        tqm_detection_density, tqm_dispersion_budget)
from toalab.wavepacket import (SpacePacket, TimePacket, space_amplitude,
                               space_amplitude_dx)

from test_detectors import BULLET, reference_ms_absorb

# tau_bar = 1e4, v sigma_x = 1
BASE = SpacePacket(x0=-100.0, p0=0.01, sigma_x=100.0, mass=1.0)


def reference_slit_uncertainties(pkt, W):
    """The slit closed forms typed out per theory (test oracle): the SQM
    spread tau_bar/(sqrt(2) m v0 Sigma_x) with the gate-widened Sigma_x =
    hypot(sigma_x, v0 W), and the TQM spread with the time term 1/(2 W^2)
    added in quadrature (sigma_t = sqrt(2) W).  Returns (sqm, tqm)."""
    tau_bar = pkt.d / pkt.v0
    Sigma_x = math.hypot(pkt.sigma_x, pkt.v0 * W)
    sqm = tau_bar / (math.sqrt(2.0) * pkt.mass * pkt.v0 * Sigma_x)
    tqm = (tau_bar / (math.sqrt(2.0) * pkt.mass)) * math.sqrt(
        1.0 / (pkt.v0**2 * Sigma_x**2) + 1.0 / (2.0 * W**2))
    return sqm, tqm


def slit_uncertainties(pkt, W):
    """The library's (sqm, tqm) closed-form spreads at gate width W."""
    sweep = single_slit_sweep(pkt, [W])
    return float(sweep.sqm_uncertainty[0]), float(sweep.tqm_uncertainty[0])


def reference_single_slit_sqm(pkt, W):
    """The single slit by a fixed rule (test oracle): per tau of the
    default window, the gate convolution on 1025 gate-time nodes.  Returns
    the normalized curve of the rate v0 |psi_D|^2."""
    gated = gated_source(pkt, W)
    disp = tqm_dispersion_budget(gated)
    dtau_cf = disp.sigma_bar_tau / math.sqrt(2.0)
    tau_grid = default_tau_grid(disp.tau_bar, dtau_cf)
    tg = np.linspace(-10.0 * W, 10.0 * W, 1025)
    gate = (math.pi * W**2) ** -0.25 * np.exp(-tg**2 / (2.0 * W**2))
    source_phase = np.exp(-1j * pkt.p0**2 * tg / (2.0 * pkt.mass))
    amp = np.empty(tau_grid.size, dtype=complex)
    for i, tau in enumerate(tau_grid):
        phi = space_amplitude(pkt, 0.0, tau - tg)
        amp[i] = np.trapezoid(gate * source_phase * phi, tg)
    rates = pkt.v0 * np.abs(amp) ** 2
    return ArrivalDistribution(tau_grid, rates / np.trapezoid(rates, tau_grid))


def reference_first_arrival_row(pkt):
    """The first-arrival-kernel row by direct quadrature, kept as the oracle
    for the derivative identity: |int dx' F_tau(0; x') phi_0(x')|^2 per tau
    on metric_comparison's grid, normalized over it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        stats = kijowski_bullet_stats(pkt)
    grid = default_tau_grid(stats.tau_bar, stats.uncertainty)
    x = np.linspace(pkt.x0 - 12.0 * pkt.sigma_x, pkt.x0 + 12.0 * pkt.sigma_x,
                    4001)
    phi0 = space_amplitude(pkt, x)
    fa = np.empty(grid.size)
    for i, tau in enumerate(grid):
        fa[i] = abs(np.trapezoid(
            first_arrival_kernel(pkt.mass, 0.0, x, tau) * phi0, x)) ** 2
    fa /= np.trapezoid(fa, grid)
    return ArrivalDistribution(grid, fa)


def assert_first_arrival_row_matches_quadrature(comp, pkt):
    row = comp.rows["first_arrival_kernel"]
    ref = reference_first_arrival_row(pkt)
    assert row["mean"] == pytest.approx(ref.mean, rel=1e-10)
    assert row["uncertainty"] == pytest.approx(ref.uncertainty, rel=1e-10)


def reference_ms_row(pkt, lam, steps_per_tau_bar):
    """(mean, uncertainty, norm) of the per-step Marchewka-Schuss recursion
    at epsilon = tau_bar / steps_per_tau_bar over (0, 2 tau_bar]."""
    eps = (pkt.d / pkt.v0) / steps_per_tau_bar
    steps = 2 * steps_per_tau_bar
    detected = reference_ms_absorb(pkt, lam, eps, steps)
    ms = ArrivalDistribution((np.arange(steps) + 1.0) * eps, detected / eps)
    return ms.mean, ms.uncertainty, float(detected.sum())


def reference_ms_total(pkt):
    """The Marchewka-Schuss hard-wall total G(inf) = int_0^inf |2 dphi/dx(0,
    tau)|^2 dtau in closed form (test oracle).  With a = d/sigma_x,
    b = p0 sigma_x and Dawson's function F,
    G(inf) = 2 m p0 (erf a + erf b)
             + (4 m a / (sqrt(pi) sigma_x)) (e^(-b^2) F(a) - e^(-a^2) F(b))."""
    a, b, m = pkt.d / pkt.sigma_x, pkt.p0 * pkt.sigma_x, pkt.mass
    return (2.0 * m * pkt.p0 * (math.erf(a) + math.erf(b))
            + 4.0 * m * a / (math.sqrt(math.pi) * pkt.sigma_x)
            * (math.exp(-b * b) * dawsn(a) - math.exp(-a * a) * dawsn(b)))


@pytest.mark.parametrize("sigma_x", [1.0, 10.0, 100.0])
def test_peaked_tau_integral_is_the_ms_total(sigma_x):
    # From next to the source to the far field, and from sigma_p/p0 = 2 to
    # 1/64: the hard-wall total matches its closed form to 1e-12.
    worst = 0.0
    for b, a in itertools.product((0.5, 1, 2, 4, 8, 16, 32, 64),
                                  (1.5, 3, 10, 100, 1e3, 1e4, 1e5)):
        pkt = SpacePacket(x0=-a * sigma_x, p0=b / sigma_x, sigma_x=sigma_x)
        tau_bar = pkt.d / pkt.v0
        g = _peaked_tau_integral(
            lambda tau: np.abs(2.0 * space_amplitude_dx(pkt, 0.0, tau)) ** 2,
            tau_bar, math.hypot(sigma_x, tau_bar / sigma_x) / pkt.v0)[0]
        worst = max(worst, abs(g / reference_ms_total(pkt) - 1.0))
    assert worst <= 1e-12


def _tqm(space):
    return TqmPacket(time=TimePacket(t0=0.0, E0=1.0, sigma_t=1.0),
                     space=space)


@pytest.mark.parametrize("build", [
    kijowski_bullet_stats,
    sqm_detection_curve,
    metric_comparison,
    lambda sp: tqm_dispersion_budget(_tqm(sp)),
    lambda sp: tqm_detection_density(_tqm(sp), 1.0, 0.0),
    lambda sp: tqm_arrival_distribution(_tqm(sp)),
], ids=["kijowski_bullet_stats", "sqm_detection_curve", "metric_comparison",
        "tqm_dispersion_budget", "tqm_detection_density",
        "tqm_arrival_distribution"])
@pytest.mark.parametrize("x0", [0.0, 5.0])
def test_packet_at_or_past_detector_rejected(build, x0):
    # Every builder reads d = -x0 from the packet; d <= 0 is refused.
    with pytest.raises(ValueError, match="d must be > 0"):
        build(SpacePacket(x0=x0, p0=1.0, sigma_x=1.0, mass=1.0))


@pytest.mark.parametrize("build", [
    kijowski_bullet_stats,
    sqm_detection_curve,
    metric_comparison,
    lambda sp: tqm_dispersion_budget(_tqm(sp)),
    lambda sp: tqm_arrival_distribution(_tqm(sp)),
], ids=["kijowski_bullet_stats", "sqm_detection_curve", "metric_comparison",
        "tqm_dispersion_budget", "tqm_arrival_distribution"])
@pytest.mark.parametrize("p0", [0.0, -1.0])
def test_left_moving_packet_rejected(build, p0):
    # Every frozen-law builder refuses p0 <= 0 with one message.
    with pytest.raises(ValueError, match="right-moving packet, p0 > 0"):
        build(SpacePacket(x0=-10.0, p0=p0, sigma_x=1.0, mass=1.0))


def test_detection_density_takes_any_momentum():
    # The current is defined for any p0, so only d <= 0 is refused.
    left = _tqm(SpacePacket(x0=-10.0, p0=-1.0, sigma_x=1.0, mass=1.0))
    assert np.isfinite(tqm_detection_density(left, 1.0, 0.0))


class TestSlitClosedForms:
    def test_config_validation_and_defaults(self):
        src = gated_source(BASE, 2.0)
        assert src.time.sigma_t == pytest.approx(2.0 * math.sqrt(2.0))
        assert tqm_dispersion_budget(src).tau_bar == pytest.approx(1e4)
        assert src.space.p0 == pytest.approx(0.01)
        with pytest.raises(ValueError, match="W must be positive"):
            gated_source(BASE, -1.0)
        with pytest.raises(ValueError, match="W must be positive"):
            gated_source(BASE, 0.0)
        for p0 in (0.0, -0.5, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"v0 must be in \(0, 1\)"):
                gated_source(SpacePacket(x0=-1.0, p0=p0, sigma_x=1.0), 1.0)

    def test_wide_gate_limit(self):
        # v0 W >> sigma_x: the gate dominates the spatial width and both
        # spreads approach tau_bar/(sqrt(2) m v0^2 W).
        pkt, W = BASE, 1e6
        limit = pkt.d / pkt.v0 / (math.sqrt(2.0) * pkt.mass * pkt.v0**2 * W)
        sqm, tqm = slit_uncertainties(pkt, W)
        assert sqm == pytest.approx(limit, rel=1e-4)
        assert tqm == pytest.approx(limit, rel=1e-4)

    def test_narrow_gate_values(self):
        # W = 0.1 with v sigma_x = 1: SQM stays at the free floor
        # tau_bar/sqrt(2) = 7071; TQM spread is (tau_bar/sqrt 2)sqrt(1 + 50).
        tau_bar = BASE.d / BASE.v0
        sqm, tqm = slit_uncertainties(BASE, 0.1)
        assert sqm / tau_bar == pytest.approx(1.0 / math.sqrt(2.0),
                                              rel=1e-6)
        assert tqm / tau_bar == pytest.approx(math.sqrt(51.0 / 2.0),
                                              rel=1e-6)
        assert tqm / tau_bar == pytest.approx(5.05, abs=0.01)

    def test_crossover_ratio_is_sqrt_two(self):
        # At W = v0 sigma_x / sqrt(2) the time term equals the space term.
        sqm, tqm = slit_uncertainties(BASE, 0.01 * 100.0 / math.sqrt(2.0))
        assert tqm / sqm == pytest.approx(math.sqrt(2.0), rel=1e-4)

    def test_quadratic_additivity(self):
        pkt, W = BASE, 0.5
        extra = (pkt.d / pkt.v0)**2 / (2.0 * pkt.mass**2) / (2.0 * W**2)
        sqm, tqm = slit_uncertainties(pkt, W)
        assert tqm**2 == pytest.approx(sqm**2 + extra, rel=1e-12)

    def test_tqm_packet_is_the_gated_source(self):
        src, W = BASE, 0.5
        pkt = gated_source(src, W)
        assert pkt.space.sigma_x == math.hypot(src.sigma_x, src.v0 * W)
        assert pkt.space.d == src.d and pkt.space.p0 == src.p0
        assert pkt.time.sigma_t == math.sqrt(2.0) * W
        assert pkt.time.E0 == pkt.mass == src.mass

    @pytest.mark.parametrize("W", [
        np.geomspace(1e-3, 10.0, 29),      # criterion 11
        [10.0, 1.0, 0.1, 0.01],            # slit-sweep default
    ], ids=["criterion_11", "cli_default"])
    def test_sweep_matches_reference_formulas(self, W):
        sweep = single_slit_sweep(BASE, W)
        for w, sqm, tqm, *_ in sweep.rows():
            ref_sqm, ref_tqm = reference_slit_uncertainties(BASE, w)
            assert sqm == pytest.approx(ref_sqm, rel=2e-15, abs=0.0)
            assert tqm == pytest.approx(ref_tqm, rel=2e-15, abs=0.0)


class TestSlitCurves:
    # Deep frozen-dispersion regime: Delta tau / tau_bar ~ 5e-4, so the
    # exact moments of the gated packet track the closed form tightly.
    DEEP = SpacePacket(x0=-8.0e4, p0=25.0 * 0.8, sigma_x=1.0, mass=25.0)
    MID = SpacePacket(x0=-1e4, p0=0.5, sigma_x=10.0, mass=1.0)

    def test_sqm_curve_matches_closed_form(self):
        mean, dt = _arrival_moments(self.DEEP, 0.0, 10.0)
        closed = reference_slit_uncertainties(self.DEEP, 10.0)[0]
        assert dt == pytest.approx(closed, rel=0.02)
        assert mean == pytest.approx(self.DEEP.d / self.DEEP.v0, rel=1e-3)
        assert slit_uncertainties(self.DEEP, 10.0)[0] == pytest.approx(
            closed, rel=2e-15, abs=0.0)

    def test_sqm_narrow_gate_approaches_free_packet(self):
        free = self.DEEP
        floor = free.d / free.v0 / (math.sqrt(2.0) * free.mass * free.v0
                                    * free.sigma_x)
        assert slit_uncertainties(free, 1e-3)[0] == pytest.approx(floor,
                                                                  rel=1e-6)
        assert _arrival_moments(free, 0.0, 1e-3)[1] == pytest.approx(
            floor, rel=0.02)

    def test_tqm_curve_matches_closed_form(self):
        curve = tqm_arrival_distribution(gated_source(self.DEEP, 10.0))
        assert curve.norm == pytest.approx(1.0, abs=1e-6)
        assert curve.uncertainty == pytest.approx(
            slit_uncertainties(self.DEEP, 10.0)[1], rel=0.02)

    def test_tqm_never_narrower_than_sqm(self):
        for W in (0.5, 2.0, 10.0, 50.0):
            sqm, tqm = slit_uncertainties(self.DEEP, W)
            assert tqm >= sqm

    @pytest.mark.parametrize("W", [1e-3, 1.0, 10.0],
                             ids=["deep-1e-3", "deep-1", "deep-10"])
    def test_moments_match_fixed_rule(self, W):
        # The gated density v0 |psi_D|^2 on the default window, by the
        # 1025-node gate convolution, against its exact moments (alpha = 0).
        ref = reference_single_slit_sqm(self.DEEP, W)
        mean, dt = _arrival_moments(self.DEEP, 0.0, W)
        assert mean == pytest.approx(ref.mean, rel=1e-10)
        assert dt == pytest.approx(ref.uncertainty, rel=1e-10)

    def test_wide_gate_spreads_the_arrival_by_the_gate(self):
        # At W = 0.1 tau_bar the gate selects p0 to 1.25e-4 sigma_p, which
        # the momentum window must follow; the arrival spread is then the
        # gate's own, W/sqrt(2), while the closed form has left its regime.
        W = 1e4
        assert _arrival_moments(self.DEEP, 0.0, W)[1] == pytest.approx(
            W / math.sqrt(2.0), rel=1e-6)

    @pytest.mark.parametrize("pkt,W", [
        (BASE, 0.05), (BASE, 1.0), (MID, 1.0), (MID, 10.0)],
        ids=["base-0.05", "base-1", "mid-1", "mid-10"])
    def test_moments_refuse_content_near_zero(self, pkt, W):
        # sigma_p/p0 = 1 and 0.2: the moments diverge at p = 0.
        with pytest.raises(ValueError, match="near p = 0"):
            _arrival_moments(pkt, 0.0, W)


class TestSweep:
    def test_ratio_monotone_in_narrowing_gate(self):
        sweep = single_slit_sweep(BASE, [10.0, 1.0, 0.1, 0.01])
        r = sweep.ratio
        assert np.all(np.diff(r) < 0)        # W sorted ascending
        assert r[-1] == pytest.approx(1.0, abs=1e-2)

    def test_small_gate_scaling_exponent(self):
        W = np.array([1e-4, 1e-3, 1e-2])
        sweep = single_slit_sweep(BASE, W)
        slope = np.polyfit(np.log(W), np.log(sweep.tqm_uncertainty), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_rows_are_ordered_and_positive(self):
        sweep = single_slit_sweep(BASE, [0.5, 2.0, 1.0])
        rows = list(sweep.rows())
        assert [r[0] for r in rows] == [0.5, 1.0, 2.0]
        assert all(r[1] > 0 and r[2] >= r[1] for r in rows)

    def test_exact_column_is_the_gated_moments(self):
        deep = TestSlitCurves.DEEP
        sweep = single_slit_sweep(deep, [10.0, 1e-3, 1.0])
        assert sweep.sqm_exact_uncertainty == tuple(
            _arrival_moments(deep, 0.0, W)[1] for W in (1e-3, 1.0, 10.0))
        assert sweep.sqm_exact_refusal is None
        assert [r[4] for r in sweep.rows()] == list(
            sweep.sqm_exact_uncertainty)

    def test_exact_column_refused_near_p_zero(self):
        # BASE has sigma_p/p0 = 1: every W is refused, for one reason.
        sweep = single_slit_sweep(BASE, [0.01, 1.0])
        assert sweep.sqm_exact_uncertainty == (None, None)
        assert "sigma_p = 0.01 exceeds p0/8" in sweep.sqm_exact_refusal
        assert "near p = 0" in sweep.sqm_exact_refusal

    def test_exact_column_refuses_an_unresolved_gate(self):
        # At W = 1e30 the gated window p0 +/- 7.5e-30 is below the float
        # spacing of p0 = 20: that W alone is refused, with its reason.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = single_slit_sweep(TestSlitCurves.DEEP, [1.0, 1e30])
        assert sweep.sqm_exact_uncertainty[0] == pytest.approx(
            2781.67120737, rel=1e-9)
        assert sweep.sqm_exact_uncertainty[1] is None
        assert "at gate W = 1e+30: the window" in sweep.sqm_exact_refusal


class TestMetricComparison:
    def test_bullet_regime_metrics_agree(self):
        pkt = SpacePacket(x0=-2.0e4, p0=10.0, sigma_x=10.0, mass=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comp = metric_comparison(pkt)
        assert comp.consistent
        means = [comp.rows[k]["mean"] for k in
                 ("kijowski_full", "kijowski_bullet", "current",
                  "first_arrival_kernel")]
        assert max(means) - min(means) < 0.02 * 2000.0
        for name, mean, unc, norm in comp.as_table():
            assert unc > 0
        assert_first_arrival_row_matches_quadrature(comp, pkt)

    def test_marchewka_schuss_row_resolves_the_packet(self):
        # The grid-free odd-image route: a real fraction is detected and
        # the mean sits on the flight time.
        pkt = SpacePacket(x0=-2.0e4, p0=10.0, sigma_x=10.0, mass=1.0)
        ms = metric_comparison(pkt, lam=0.1).rows["marchewka_schuss"]
        assert ms["norm"] > 0.1
        assert ms["mean"] == pytest.approx(2000.0, rel=1e-2)
        assert ms["uncertainty"] == pytest.approx(14.14, rel=5e-2)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_marchewka_schuss_row_is_the_recursion_limit(self, lam):
        # The recursion's error is O(epsilon): the row lies within the
        # change from epsilon = tau_bar/10^4 to tau_bar/40 000 of the
        # finer one.
        ms = metric_comparison(BULLET, lam=lam).rows["marchewka_schuss"]
        coarse = reference_ms_row(BULLET, lam, 10**4)
        fine = reference_ms_row(BULLET, lam, 4 * 10**4)
        for key, c, f in zip(("mean", "uncertainty", "norm"), coarse, fine):
            assert abs(ms[key] - f) <= abs(c - f), key

    @pytest.mark.parametrize("pkt", [
        BULLET, SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0),
        # An arrival 8e-4 tau_bar wide, which G(inf)'s window must resolve.
        SpacePacket(x0=-2.0e4, p0=30.0, sigma_x=30.0, mass=1.0),
        # Packets whose Dawson term is 7.9e-9, 3.9e-7 and -4.3e-6 of G(inf);
        # the last has d/sigma_x < p0 sigma_x.
        SpacePacket(x0=-1e4, p0=0.4, sigma_x=10.0, mass=1.0),
        SpacePacket(x0=-400.0, p0=0.35, sigma_x=10.0, mass=1.0),
        SpacePacket(x0=-3.0, p0=5.0, sigma_x=1.0, mass=1.0)],
        ids=["bullet", "slow", "narrow", "far", "near", "close"])
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_marchewka_schuss_norm_is_exact(self, pkt, lam):
        # The norm is kappa G/(1 + kappa G), kappa = lam/(2 pi m), with the
        # exact hard-wall total G(inf) of `reference_ms_total`.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # their regimes
            ms = metric_comparison(pkt, lam=lam).rows["marchewka_schuss"]
        kappa_g = lam / (2.0 * math.pi * pkt.mass) * reference_ms_total(pkt)
        assert ms["norm"] == pytest.approx(kappa_g / (1.0 + kappa_g),
                                           rel=1e-11)

    def test_marchewka_schuss_small_absorption_keeps_its_digits(self):
        # 1 - 1/(1 + kappa G) would round to 0 at kappa G = 6e-20; the row
        # keeps norm = kappa G(inf) and the moments of the rate kappa r.
        ms = metric_comparison(BULLET, lam=1e-20).rows["marchewka_schuss"]
        kappa_g = 2e-20 * BULLET.p0 * math.erf(BULLET.p0 * BULLET.sigma_x) \
            / math.pi
        assert ms["norm"] == pytest.approx(kappa_g, rel=1e-10)
        assert ms["mean"] == pytest.approx(2000.0, rel=1e-6)

    def test_marchewka_schuss_window_missing_g_is_numerical_error(self):
        # sigma_x = 30 at tau_bar = 100: the bullet-sized grid holds 0.73 of
        # the Kijowski norm 1 (and 2.92 of G(inf) = 4 m p0 erf(p0 sigma_x) =
        # 4), and the Kijowski curve's check refuses it before any row.
        pkt = SpacePacket(x0=-100.0, p0=1.0, sigma_x=30.0, mass=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            with pytest.raises(NumericalError, match=r"Kijowski curve's tau "
                               r"window captures norm 0\.730253 of the exact "
                               r"Kijowski norm 1;"):
                metric_comparison(pkt, lam=1.0)

    @pytest.mark.parametrize("b,a", itertools.product((2.5, 3, 4),
                                                      (1.5, 3, 10)))
    def test_window_misses_less_of_g_than_of_the_kijowski_norm(self, b, a):
        # On the default window the Kijowski curve's relative shortfall
        # tops that of G(inf) (0.12-0.50 of it here), so a window that
        # misses G by over 1e-3 is refused by the Kijowski check first.
        pkt = SpacePacket(x0=-a * 10.0, p0=b / 10.0, sigma_x=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # their regimes
            stats = kijowski_bullet_stats(pkt)
        grid = default_tau_grid(stats.tau_bar, stats.uncertainty)
        g = 4.0 * np.trapezoid(np.abs(space_amplitude_dx(pkt, 0.0, grid))
                               ** 2, grid)
        kij = kijowski_curve(pkt, grid).norm
        assert 0.0 < 1.0 - g / reference_ms_total(pkt) \
            < 1.0 - kij / (0.5 * math.erfc(-b))

    def test_marchewka_schuss_without_absorption_checks_no_window(
            self, monkeypatch):
        # lam = 0 detects nothing whatever G is, so the grid that misses
        # G(inf) above still gives the null row once the curves' own checks
        # are passed over.
        pkt = SpacePacket(x0=-100.0, p0=1.0, sigma_x=30.0, mass=1.0)
        monkeypatch.setattr("toalab.detectors._require_captured",
                            lambda *args: None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ms = metric_comparison(pkt, lam=0.0).rows["marchewka_schuss"]
        assert ms == {"mean": None, "uncertainty": None, "norm": 0.0}

    def test_negative_absorption_rejected(self):
        with pytest.raises(ValueError, match="lam must be >= 0"):
            metric_comparison(BULLET, lam=-1.0)

    def test_out_of_regime_flagged(self):
        pkt = SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0)
        with pytest.warns(UserWarning, match="bullet regime") as record:
            comp = metric_comparison(pkt)
        assert not comp.consistent
        # d = 10 sigma_x: the weight -x' still equals |x'| where phi_0 lives.
        assert not any("first_arrival_kernel" in str(w.message)
                       for w in record)
        assert_first_arrival_row_matches_quadrature(comp, pkt)

    def test_packet_weight_at_detector_flags_first_arrival_row(self):
        # d = 3 sigma_x: erfc(3)/2 = 1.1e-5 of the packet sits at x' >= 0,
        # while the window still holds the Kijowski norm and the flux.
        pkt = SpacePacket(x0=-3.0, p0=5.0, sigma_x=1.0, mass=1.0)
        with pytest.warns(UserWarning, match="first_arrival_kernel row"):
            metric_comparison(pkt)


def reference_current_uncertainty(pkt):
    """The current's exact spread (test oracle): m^2 <(d^2 + a^2 + a/p)/
    p^2> - <tau>^2 under the Kijowski weight |phi|^2, a = (p - p0)/
    sigma_p^2, by a 20001-point trapezoid on p0 +/- 12 sigma_p."""
    p0, sp, m, d = pkt.p0, pkt.sigma_p, pkt.mass, pkt.d
    p = np.linspace(p0 - 12.0 * sp, p0 + 12.0 * sp, 20001)
    w = np.exp(-((p - p0) / sp) ** 2)
    a = (p - p0) / sp**2
    weight = np.trapezoid(w, p)
    mean = m * d * np.trapezoid(w / p, p) / weight
    second = m * m * np.trapezoid(w * (d * d + a * a + a / p) / p**2,
                                  p) / weight
    return math.sqrt(second - mean**2)


class TestRegimeMap:
    """The 42-packet regime map (sigma_x = 10, m = 1): each default-window
    builder refuses a packet or returns moments that match the exact ones
    to 1e-4 relative wherever those exist (sigma_p/p0 <= 1/8).  The
    refusal counts are pinned: a later change may lower them, but only by
    returning checked numbers."""

    P0_SIGMA_X = (1, 2, 4, 8, 16, 32, 64)    # sigma_p/p0 = 1/(p0 sigma_x)
    D_OVER_SIGMA_X = (1.5, 3, 10, 1e2, 1e3, 1e4)
    BUILDERS = {"kijowski": lambda pkt: _kijowski_window_curve(pkt)[1],
                "current": sqm_detection_curve,
                "compare": lambda pkt: metric_comparison(pkt, lam=1.0)}

    def test_builders_refuse_or_match_exact_moments(self):
        refused = {name: set() for name in self.BUILDERS}
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for b in self.P0_SIGMA_X:
                for r in self.D_OVER_SIGMA_X:
                    pkt = SpacePacket(x0=-10.0 * r, p0=b / 10.0,
                                      sigma_x=10.0, mass=1.0)
                    got = {}
                    for name, build in self.BUILDERS.items():
                        try:
                            got[name] = build(pkt)
                        except ValueError:   # NumericalError among them
                            refused[name].add((b, r))
                    if b < 8:    # sigma_p/p0 > 1/8: no moment exists
                        continue
                    mean, dt = _arrival_moments(pkt, 0.5)
                    exact = {"kijowski": (mean, dt), "current": (
                        mean, reference_current_uncertainty(pkt))}
                    for name, (ref_mean, ref_dt) in exact.items():
                        if name in got:
                            worst = max(
                                worst, abs(got[name].mean / ref_mean - 1.0),
                                abs(got[name].uncertainty / ref_dt - 1.0))
        narrow = {name: sum(b >= 8 for b, _ in keys)
                  for name, keys in refused.items()}
        assert (len(refused["kijowski"]), narrow["kijowski"]) == (26, 12)
        assert (len(refused["current"]), narrow["current"]) == (23, 10)
        assert refused["compare"] == refused["kijowski"]
        assert worst < 1e-4


class TestDiscreteContinuum:
    def test_refinement_errors_decrease_monotonically(self):
        table = discrete_continuum_experiment()
        assert table.refinements == (1, 2, 4, 8)
        assert table.monotone
        assert all(table.conservation_exact)
        assert table.max_rel_errors[0] == pytest.approx(0.2045, abs=2e-3)
        assert table.max_rel_errors[-1] < 0.01

    def test_invalid_refinement_rejected(self):
        with pytest.raises(ValueError):
            discrete_continuum_experiment(refinements=(0, 1))

    @pytest.mark.parametrize("refinements", [(4, 2), (1, 1), (1, 2, 2, 4)])
    def test_refinements_not_strictly_increasing_rejected(self, refinements):
        with pytest.raises(ValueError, match="strictly increasing"):
            discrete_continuum_experiment(refinements=refinements)

    @pytest.mark.parametrize("d_lattice", [0, -1])
    def test_invalid_lattice_offset_rejected(self, d_lattice):
        with pytest.raises(ValueError, match="d_lattice must be >= 1"):
            discrete_continuum_experiment(d_lattice=d_lattice)
