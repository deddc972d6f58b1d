"""Sweeps, saturation fits, mirror-shift reports, free-space comparisons."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import LAMBDA0, OMEGA0
from tunneltime import analysis, photonic, quantum
from tunneltime.errors import FitFailureError, NotInStopbandError


class TestHartmanSweep:
    def test_grating_saturation_and_growing_ratio(self):
        family = analysis.GratingFamily(kappa=0.2)
        lengths = [kl / 0.2 for kl in (1, 2, 4, 6, 8, 10, 14, 20)]
        sweep = analysis.hartman_sweep(family, lengths)
        tau_10 = sweep.tau_g[sweep.lengths == 50.0][0]
        tau_20 = sweep.tau_g[sweep.lengths == 100.0][0]
        assert abs(tau_20 - tau_10) / tau_20 < 1e-6
        # apparent speed keeps growing linearly once the delay saturates
        speed_ratio = sweep.apparent_speed[-1] / sweep.apparent_speed[-3]
        assert speed_ratio == pytest.approx(100.0 / 50.0, rel=1e-6)

    def test_quantum_saturation(self):
        kappa = np.sqrt(2.0)
        family = analysis.QuantumBarrierFamily(v0=2.0, energy=1.0)
        lengths = [kl / kappa for kl in (5.0, 10.0, 20.0)]
        sweep = analysis.hartman_sweep(family, lengths)
        assert abs(sweep.tau_g[-1] - sweep.tau_g[-2]) / sweep.tau_g[-1] < 1e-6

    def test_single_length_consistency(self):
        family = analysis.QuantumBarrierFamily(v0=2.0, energy=1.0)
        sweep = analysis.hartman_sweep(family, [3.0])
        report = quantum.delay_report(quantum.QuantumBarrier(2.0, 3.0), 1.0)
        assert sweep.tau_g[0] == pytest.approx(report.tau_g, rel=1e-12)
        assert sweep.u_per_pin[0] == pytest.approx(report.tau_d, rel=1e-10)
        assert sweep.apparent_speed[0] == pytest.approx(report.apparent_speed, rel=1e-12)

    def test_photonic_proportionality_is_exactly_one(self):
        family = analysis.GratingFamily(kappa=0.15)
        sweep = analysis.hartman_sweep(family, [10.0, 30.0, 60.0, 100.0])
        np.testing.assert_allclose(sweep.proportionality_ratio, 1.0, rtol=1e-6)


class TestEnergySaturation:
    def test_transparent_family_grows_linearly(self):
        family = analysis.GratingFamily(kappa=0.0)
        curve = analysis.energy_saturation(family, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(curve.u_per_pin, curve.lengths, rtol=1e-9)
        assert curve.fitted_depth is None

    def test_fit_matches_field_penetration_depth(self):
        family = analysis.GratingFamily(kappa=0.2)
        lengths = [kl / 0.2 for kl in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)]
        curve = analysis.energy_saturation(family, lengths)
        assert curve.fitted_depth is not None and curve.field_depth is not None
        assert abs(curve.fitted_depth - curve.field_depth) / curve.field_depth < 0.05

    def test_delay_and_energy_saturate_at_the_same_rate(self):
        # quantum case: tau_g and the stored probability saturate together
        kappa = np.sqrt(2.0)
        family = analysis.QuantumBarrierFamily(v0=2.0, energy=1.0)
        lengths = np.array([kl / kappa for kl in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)])
        taus = np.array([family.delay(x) for x in lengths])
        dwell = np.array([family.stored(x) for x in lengths])
        tau_res = np.log(family.delay(10.0 / kappa) - taus + 1e-300)
        dwell_res = np.log(abs(family.stored(10.0 / kappa) - dwell) + 1e-300)
        tau_rate = -np.polyfit(lengths, tau_res, 1)[0]
        dwell_rate = -np.polyfit(lengths, dwell_res, 1)[0]
        assert abs(tau_rate - dwell_rate) / tau_rate < 0.05

    def test_needs_three_lengths(self):
        with pytest.raises(FitFailureError):
            analysis.energy_saturation(analysis.GratingFamily(kappa=0.2), [1.0, 2.0])


class TestSkcReport:
    def test_vacuum_slab_reference(self):
        report = analysis.skc_report(photonic.LayeredStack.vacuum_slab(3.0), 5.0)
        assert report.advance == pytest.approx(0.0, abs=1e-8)
        assert report.apparent_speed == pytest.approx(1.0, abs=1e-8)
        assert report.mirror_shift == report.advance

    def test_documented_stack_lands_in_regime(self, skc_stack):
        report = analysis.skc_report(skc_stack, OMEGA0)
        assert 1.4 <= report.apparent_speed <= 2.0
        assert report.advance == report.mirror_shift
        assert report.advance + report.barrier_delay == report.vacuum_delay
        assert report.apparent_speed > 1.0 and report.barrier_delay < report.vacuum_delay

    def test_advance_equals_stored_energy_difference(self, skc_stack):
        report = analysis.skc_report(skc_stack, OMEGA0)
        energy_route = report.u_free - report.u_barrier
        assert report.advance == pytest.approx(energy_route, rel=1e-6)

    def test_backward_escape_dominates_for_opaque_barrier(self, skc_stack):
        report = analysis.skc_report(skc_stack, OMEGA0)
        assert 0.5 < report.backward_escape_fraction < 1.0
        assert "backward" in report.interpretation
        assert "not a propagation speed" in report.interpretation

    def test_passband_probe_rejected(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        with pytest.raises(NotInStopbandError):
            analysis.skc_report(skc_stack, band.upper * 1.2)
