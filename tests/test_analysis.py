"""Sweeps, saturation fits, mirror-shift reports, free-space comparisons."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FLOAT_RANGE, OMEGA0
from tunneltime import analysis, photonic, quantum
from tunneltime.errors import (FitFailureError, NonFiniteResultError, NotInStopbandError,
                               TunnelTimeError)


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

    def test_a_quantity_that_underflows_is_named(self):
        # tau_g = 6.4e184 is finite and tau_d underflows to 0, so tau_g/tau_d
        # has no value: a named error rather than a divide RuntimeWarning
        with pytest.raises(NonFiniteResultError):
            analysis.hartman_sweep(analysis.QuantumBarrierFamily(1e300, 5e-324), [5e-324])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        quantum_family=st.booleans(),
        a=FLOAT_RANGE,
        b=FLOAT_RANGE,
        kappa=st.one_of(st.just(0.0), FLOAT_RANGE),
        n_bar=st.floats(1.0, 4.0),
        lengths=st.lists(FLOAT_RANGE, min_size=1, max_size=4),
    )
    def test_finite_or_named(self, quantum_family, a, b, kappa, n_bar, lengths):
        # both families across the float range: every field finite, or a
        # named TunnelTimeError, and no RuntimeWarning (an error under this
        # suite's filter); a family checks itself when it is made
        try:
            family = (analysis.QuantumBarrierFamily(v0=a, energy=b) if quantum_family
                      else analysis.GratingFamily(kappa=kappa, n_bar=n_bar, omega_b=b))
            sweep = analysis.hartman_sweep(family, lengths)
        except TunnelTimeError:
            return
        for values in (sweep.tau_g, sweep.u_per_pin, sweep.apparent_speed,
                       sweep.proportionality_ratio, sweep.tail_relative_change):
            assert np.all(np.isfinite(values))


class TestGratingFamily:
    @pytest.mark.parametrize("kappa, n_bar, omega_b", [(-0.1, 1.0, 1.0), (0.1, 0.0, 1.0),
                                                       (0.1, 1.0, -1.0), (np.nan, 1.0, 1.0)])
    def test_rejects_what_no_grating_takes(self, kappa, n_bar, omega_b):
        with pytest.raises(ValueError):
            analysis.GratingFamily(kappa, n_bar, omega_b)


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

    def test_an_overflow_in_the_kernel_is_named(self):
        # the lengths reach the barrier as Python floats, so an overflow is an
        # inf that is named, not a numpy RuntimeWarning
        with pytest.raises(NonFiniteResultError):
            analysis.energy_saturation(analysis.QuantumBarrierFamily(5e-324, 1e-300),
                                       [2.5e158, 3e158, 4e158])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        quantum_family=st.booleans(),
        a=FLOAT_RANGE,
        b=FLOAT_RANGE,
        kappa=st.one_of(st.just(0.0), FLOAT_RANGE),
        n_bar=st.floats(1.0, 4.0),
        lengths=st.lists(FLOAT_RANGE, min_size=3, max_size=5),
    )
    def test_finite_or_named(self, quantum_family, a, b, kappa, n_bar, lengths):
        # both families across the float range: every field finite or None,
        # or a ValueError (twice the longest length may pass the float range)
        # or a named TunnelTimeError, and no RuntimeWarning (an error under
        # this suite's filter); a family checks itself when it is made
        try:
            family = (analysis.QuantumBarrierFamily(v0=a, energy=b) if quantum_family
                      else analysis.GratingFamily(kappa=kappa, n_bar=n_bar, omega_b=b))
            curve = analysis.energy_saturation(family, lengths)
        except (ValueError, TunnelTimeError):
            return
        assert np.all(np.isfinite(curve.u_per_pin))
        for depth in (curve.fitted_depth, curve.field_depth):
            assert depth is None or math.isfinite(depth)

    def test_needs_three_lengths(self):
        with pytest.raises(FitFailureError):
            analysis.energy_saturation(analysis.GratingFamily(kappa=0.2), [1.0, 2.0])


class TestQuantumPenetrationDepth:
    @pytest.mark.parametrize("v0, energy", [(2.0, 1.0), (5.0, 0.5), (1.0, 1e-3)])
    def test_below_the_top_is_one_over_kappa(self, v0, energy):
        depth = analysis.QuantumBarrierFamily(v0, energy).field_penetration_depth()
        assert depth == pytest.approx(1.0 / math.sqrt(2.0 * (v0 - energy)), rel=1e-15)

    @pytest.mark.parametrize("energy", [2.0, 3.5])
    def test_none_at_and_above_the_top(self, energy):
        assert analysis.QuantumBarrierFamily(2.0, energy).field_penetration_depth() is None

    def test_depth_is_a_python_float(self):
        depth = analysis.QuantumBarrierFamily(2.0, 1.0).field_penetration_depth()
        assert type(depth) is float and depth == 1.0 / math.sqrt(2.0)

    @pytest.mark.parametrize("v0, energy", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan),
                                            (2.0, -1.0), (-1.0, 5.0), (1e308, -1e308)])
    def test_rejects_what_no_barrier_takes(self, v0, energy):
        # the family checks itself when it is made, as GratingFamily does
        with pytest.raises((ValueError, TunnelTimeError)):
            analysis.QuantumBarrierFamily(v0, energy)

    def test_saturation_fit_matches_it(self):
        # the fit reads 0.7197 against 1/kappa = 1/sqrt(2) = 0.7071
        family = analysis.QuantumBarrierFamily(v0=2.0, energy=1.0)
        lengths = [kl / math.sqrt(2.0) for kl in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)]
        curve = analysis.energy_saturation(family, lengths)
        assert curve.field_depth == family.field_penetration_depth()
        assert abs(curve.fitted_depth - curve.field_depth) / curve.field_depth < 0.05


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        cell=st.lists(st.tuples(FLOAT_RANGE, FLOAT_RANGE), min_size=1, max_size=3),
        count=st.integers(1, 12),
        n_in=FLOAT_RANGE,
        n_out=FLOAT_RANGE,
        omega=FLOAT_RANGE,
    )
    def test_finite_or_named(self, cell, count, n_in, n_out, omega):
        # indices, thicknesses and frequencies across the float range: every
        # field finite or None, or a named TunnelTimeError, and no
        # RuntimeWarning (an error under this suite's filter).  Every drawn
        # argument is in its domain, so a ValueError fails the draw
        stack = photonic.LayeredStack(tuple(cell) * count, n_in=n_in, n_out=n_out)
        try:
            report = analysis.skc_report(stack, omega)
        except TunnelTimeError:
            return
        fields = dataclasses.asdict(report)
        assert all(value is None or math.isfinite(value) for value in fields.values())

    def test_passband_probe_rejected(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        with pytest.raises(NotInStopbandError):
            analysis.skc_report(skc_stack, band.upper * 1.2)
