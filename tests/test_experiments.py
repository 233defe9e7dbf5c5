"""End-to-end experiments: slit in time, metric comparison, lattice limit."""

import math
import warnings

import numpy as np
import pytest

from toalab.detectors import (ArrivalDistribution, default_tau_grid,
                              kijowski_bullet_stats)
from toalab.experiments import (SlitConfig, discrete_continuum_experiment,
                                metric_comparison, single_slit_sqm,
                                single_slit_sweep, single_slit_tqm,
                                sqm_slit_uncertainty, tqm_slit_uncertainty)
from toalab.kernels import first_arrival_kernel
from toalab.wavepacket import SpacePacket, space_amplitude

BASE = dict(d=100.0, v0=0.01, sigma_x=100.0, m=1.0)  # tau_bar = 1e4, v sigma_x = 1


def reference_first_arrival_row(pkt, d):
    """The first-arrival-kernel row by direct quadrature, kept as the oracle
    for the derivative identity: |int dx' F_tau(0; x') phi_0(x')|^2 per tau
    on metric_comparison's grid, normalized over it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stats = kijowski_bullet_stats(pkt, d)
    grid = default_tau_grid(stats.tau_bar, stats.uncertainty, n=1201,
                            spread=10.0)
    shifted = SpacePacket(x0=-d, p0=pkt.p0, sigma_x=pkt.sigma_x,
                          mass=pkt.mass)
    x = np.linspace(-d - 12.0 * pkt.sigma_x, -d + 12.0 * pkt.sigma_x, 4001)
    phi0 = space_amplitude(shifted, x)
    fa = np.empty(grid.size)
    for i, tau in enumerate(grid):
        fa[i] = abs(np.trapezoid(
            first_arrival_kernel(pkt.mass, 0.0, x, tau) * phi0, x)) ** 2
    fa /= np.trapezoid(fa, grid)
    return ArrivalDistribution(grid, fa)


def assert_first_arrival_row_matches_quadrature(comp, pkt, d):
    row = comp.rows["first_arrival_kernel"]
    ref = reference_first_arrival_row(pkt, d)
    assert row["mean"] == pytest.approx(ref.mean, rel=1e-10)
    assert row["uncertainty"] == pytest.approx(ref.uncertainty, rel=1e-10)


class TestSlitClosedForms:
    def test_config_validation_and_defaults(self):
        cfg = SlitConfig(W=2.0, **BASE)
        assert cfg.sigma_t == pytest.approx(2.0 * math.sqrt(2.0))
        assert cfg.tau_bar == pytest.approx(1e4)
        assert cfg.p0 == pytest.approx(0.01)
        with pytest.raises(ValueError):
            SlitConfig(W=-1.0, **BASE)
        with pytest.raises(ValueError):
            SlitConfig(W=1.0, d=1.0, v0=1.5, sigma_x=1.0)

    def test_wide_gate_limit(self):
        # v0 W >> sigma_x: the gate dominates the spatial width and both
        # spreads approach tau_bar/(sqrt(2) m v0^2 W).
        cfg = SlitConfig(W=1e6, **BASE)
        limit = cfg.tau_bar / (math.sqrt(2.0) * cfg.m * cfg.v0**2 * cfg.W)
        assert sqm_slit_uncertainty(cfg) == pytest.approx(limit, rel=1e-4)
        assert tqm_slit_uncertainty(cfg) == pytest.approx(limit, rel=1e-4)

    def test_narrow_gate_values(self):
        # W = 0.1 with v sigma_x = 1: SQM stays at the free floor
        # tau_bar/sqrt(2) = 7071; TQM spread is (tau_bar/sqrt 2)sqrt(1 + 50).
        cfg = SlitConfig(W=0.1, **BASE)
        assert sqm_slit_uncertainty(cfg) / cfg.tau_bar == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-6)
        assert tqm_slit_uncertainty(cfg) / cfg.tau_bar == pytest.approx(
            math.sqrt(51.0 / 2.0), rel=1e-6)
        assert tqm_slit_uncertainty(cfg) / cfg.tau_bar == pytest.approx(
            5.05, abs=0.01)

    def test_crossover_ratio_is_sqrt_two(self):
        # At W = v0 sigma_x / sqrt(2) the time term equals the space term.
        cfg = SlitConfig(W=0.01 * 100.0 / math.sqrt(2.0), **BASE)
        ratio = tqm_slit_uncertainty(cfg) / sqm_slit_uncertainty(cfg)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-4)

    def test_quadratic_additivity(self):
        cfg = SlitConfig(W=0.5, **BASE)
        extra = cfg.tau_bar**2 / (2.0 * cfg.m**2) / (2.0 * cfg.W**2)
        assert tqm_slit_uncertainty(cfg) ** 2 == pytest.approx(
            sqm_slit_uncertainty(cfg) ** 2 + extra, rel=1e-12)


class TestSlitCurves:
    # Deep frozen-dispersion regime: Delta tau / tau_bar ~ 5e-4, so the
    # numerical gate convolution tracks the closed form tightly.
    DEEP = dict(d=8.0e4, v0=0.8, sigma_x=1.0, m=25.0)

    def test_sqm_curve_matches_closed_form(self):
        cfg = SlitConfig(W=10.0, **self.DEEP)
        res = single_slit_sqm(cfg)
        assert res.curve.norm == pytest.approx(1.0, abs=1e-6)
        assert res.numerical_uncertainty == pytest.approx(
            res.closed_form_uncertainty, rel=0.02)
        assert res.curve.mean == pytest.approx(res.tau_bar, rel=1e-3)

    def test_sqm_narrow_gate_approaches_free_packet(self):
        free = SlitConfig(W=1e-3, **self.DEEP)
        res = single_slit_sqm(free)
        floor = free.tau_bar / (math.sqrt(2.0) * free.m * free.v0
                                * free.sigma_x)
        assert res.closed_form_uncertainty == pytest.approx(floor, rel=1e-6)
        assert res.numerical_uncertainty == pytest.approx(floor, rel=0.02)

    def test_tqm_curve_matches_closed_form(self):
        cfg = SlitConfig(W=10.0, **self.DEEP)
        res = single_slit_tqm(cfg)
        assert res.curve.norm == pytest.approx(1.0, abs=1e-6)
        assert res.numerical_uncertainty == pytest.approx(
            res.closed_form_uncertainty, rel=0.02)

    def test_tqm_never_narrower_than_sqm(self):
        for W in (0.5, 2.0, 10.0, 50.0):
            cfg = SlitConfig(W=W, **self.DEEP)
            assert tqm_slit_uncertainty(cfg) >= sqm_slit_uncertainty(cfg)

    def test_wide_gate_warns(self):
        cfg = SlitConfig(W=0.2 * 1e4, **BASE)
        with pytest.warns(UserWarning, match="frozen-dispersion"):
            single_slit_sqm(cfg, tau_grid=np.linspace(
                1.0, 1e5, 512))


class TestSweep:
    def test_ratio_monotone_in_narrowing_gate(self):
        base = SlitConfig(W=1.0, **BASE)
        sweep = single_slit_sweep(base, [10.0, 1.0, 0.1, 0.01])
        r = sweep.ratio
        assert np.all(np.diff(r) < 0)        # W sorted ascending
        assert r[-1] == pytest.approx(1.0, abs=1e-2)

    def test_small_gate_scaling_exponent(self):
        base = SlitConfig(W=1.0, **BASE)
        W = np.array([1e-4, 1e-3, 1e-2])
        sweep = single_slit_sweep(base, W)
        slope = np.polyfit(np.log(W), np.log(sweep.tqm_uncertainty), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_rows_are_ordered_and_positive(self):
        base = SlitConfig(W=1.0, **BASE)
        sweep = single_slit_sweep(base, [0.5, 2.0, 1.0])
        rows = list(sweep.rows())
        assert [r[0] for r in rows] == [0.5, 1.0, 2.0]
        assert all(r[1] > 0 and r[2] >= r[1] for r in rows)


class TestMetricComparison:
    def test_bullet_regime_metrics_agree(self):
        pkt = SpacePacket(x0=-2.0e4, p0=10.0, sigma_x=10.0, mass=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comp = metric_comparison(pkt, 2.0e4)
        assert comp.consistent
        means = [comp.rows[k]["mean"] for k in
                 ("kijowski_full", "kijowski_bullet", "current",
                  "first_arrival_kernel")]
        assert max(means) - min(means) < 0.02 * 2000.0
        for name, mean, unc, norm in comp.as_table():
            assert unc > 0
        assert_first_arrival_row_matches_quadrature(comp, pkt, 2.0e4)

    def test_marchewka_schuss_row_resolves_the_packet(self):
        # The grid-free odd-image route: a real fraction is detected and
        # the mean sits on the flight time.
        pkt = SpacePacket(x0=-2.0e4, p0=10.0, sigma_x=10.0, mass=1.0)
        ms = metric_comparison(pkt, 2.0e4, lam=0.1).rows["marchewka_schuss"]
        assert ms["norm"] > 0.1
        assert ms["mean"] == pytest.approx(2000.0, rel=1e-2)
        assert ms["uncertainty"] == pytest.approx(14.14, rel=5e-2)

    def test_out_of_regime_flagged(self):
        pkt = SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0)
        with pytest.warns(UserWarning, match="bullet regime") as record:
            comp = metric_comparison(pkt, 100.0)
        assert not comp.consistent
        # d = 10 sigma_x: the weight -x' still equals |x'| where phi_0 lives.
        assert not any("first_arrival_kernel" in str(w.message)
                       for w in record)
        assert_first_arrival_row_matches_quadrature(comp, pkt, 100.0)

    def test_packet_weight_at_detector_flags_first_arrival_row(self):
        # d = 2 sigma_x: erfc(2)/2 = 2.3e-3 of the packet sits at x' >= 0.
        pkt = SpacePacket(x0=-20.0, p0=1.0, sigma_x=10.0, mass=1.0)
        with pytest.warns(UserWarning, match="first_arrival_kernel row"):
            metric_comparison(pkt, 20.0)


class TestDiscreteContinuum:
    def test_refinement_errors_decrease_monotonically(self):
        table = discrete_continuum_experiment()
        assert table.d_lattices == (2, 4, 8, 16)
        assert table.monotone
        assert all(table.conservation_exact)
        assert table.max_rel_errors[0] == pytest.approx(0.2045, abs=2e-3)
        assert table.max_rel_errors[-1] < 0.01

    def test_invalid_refinement_rejected(self):
        with pytest.raises(ValueError):
            discrete_continuum_experiment(refinements=(0, 1))
