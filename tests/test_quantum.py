"""Rectangular-barrier scattering, delays, and dwell time."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import quantum_matching_oracle, sampled_phase_slope
from tunneltime import quantum
from tunneltime.errors import AboveBarrierError, NonPositiveEnergyError

KAPPA = np.sqrt(2.0)  # kappa for v0 = 2, E = 1
EPS = np.finfo(float).eps


class TestValidation:
    def test_barrier_requires_positive_height(self):
        with pytest.raises(ValueError):
            quantum.QuantumBarrier(0.0, 1.0)

    def test_barrier_requires_nonnegative_length(self):
        with pytest.raises(ValueError):
            quantum.QuantumBarrier(1.0, -1.0)

    def test_scatter_rejects_nonpositive_energy(self):
        with pytest.raises(NonPositiveEnergyError):
            quantum.scatter(quantum.QuantumBarrier(2.0, 1.0), 0.0)

    @pytest.mark.parametrize("energy", [0.0, -0.5])
    @pytest.mark.parametrize("route", ["group_delay", "dwell_time", "delay_report"])
    def test_delay_routes_reject_nonpositive_energy(self, route, energy):
        # raised before sqrt(2E) is formed, or a RuntimeWarning would come first
        with pytest.raises(NonPositiveEnergyError):
            getattr(quantum, route)(quantum.QuantumBarrier(2.0, 1.0), energy)

    def test_scatter_rejects_above_barrier(self):
        with pytest.raises(AboveBarrierError):
            quantum.scatter(quantum.QuantumBarrier(2.0, 1.0), 2.0)


class TestScatter:
    def test_zero_length_barrier_is_transparent(self):
        state = quantum.scatter(quantum.QuantumBarrier(2.0, 0.0), 1.0)
        assert state.t == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert state.r == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_point_magnitude(self):
        # v0=2, E=1, L=3: k = kappa = sqrt(2), |t| = 1/cosh(3 sqrt 2)
        state = quantum.scatter(quantum.QuantumBarrier(2.0, 3.0), 1.0)
        assert abs(state.t) == pytest.approx(1.0 / np.cosh(3.0 * np.sqrt(2.0)), rel=1e-12)

    def test_amplitudes_match_linear_system_oracle(self):
        for v0, length, energy in ((2.0, 3.0, 1.0), (5.0, 0.7, 2.2), (1.5, 12.0, 0.4)):
            state = quantum.scatter(quantum.QuantumBarrier(v0, length), energy)
            t_ref, r_ref, _, _ = quantum_matching_oracle(v0, length, energy)
            assert state.t == pytest.approx(t_ref, rel=1e-12, abs=1e-15)
            assert state.r == pytest.approx(r_ref, rel=1e-12, abs=1e-15)

    def test_flux_conservation_over_random_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            v0 = rng.uniform(0.2, 10.0)
            energy = rng.uniform(0.01, 0.99) * v0
            length = rng.uniform(0.0, 20.0 / np.sqrt(2.0 * (v0 - energy)))
            state = quantum.scatter(quantum.QuantumBarrier(v0, length), energy)
            defect = abs(abs(state.t) ** 2 + abs(state.r) ** 2 - 1.0)
            assert defect < 1e-12

    # at kappa L = 1000 t underflows to zero and cosh(kappa L) overflows
    @pytest.mark.parametrize("kappa_l", [3.0, 20.0, 1000.0])
    def test_wavefunction_continuity_at_interfaces(self, kappa_l):
        barrier = quantum.QuantumBarrier(2.0, kappa_l / KAPPA)
        state = quantum.scatter(barrier, 1.0)
        length = barrier.length
        assert abs(state.psi_incident_side(0.0) - state.psi_inside(0.0)) < 1e-10
        assert abs(state.psi_inside(length) - state.psi_transmitted_side(length)) < 1e-10
        assert abs(state.dpsi_incident_side(0.0) - state.dpsi_inside(0.0)) < 1e-10
        assert abs(state.dpsi_inside(length) - state.dpsi_transmitted_side(length)) < 1e-10

    def test_piecewise_sampler_matches_regions(self):
        state = quantum.scatter(quantum.QuantumBarrier(2.0, 3.0), 1.0)
        xs = np.array([-1.0, 0.5, 3.5])
        psi = state.psi(xs)
        assert psi[0] == pytest.approx(complex(state.psi_incident_side(-1.0)))
        assert psi[1] == pytest.approx(complex(state.psi_inside(0.5)))
        assert psi[2] == pytest.approx(complex(state.psi_transmitted_side(3.5)))


class TestGroupDelay:
    def test_zero_length(self):
        assert quantum.group_delay(quantum.QuantumBarrier(2.0, 0.0), 1.0) == 0.0

    def test_hartman_saturation(self):
        tau_10 = quantum.group_delay(quantum.QuantumBarrier(2.0, 10.0 / KAPPA), 1.0)
        tau_20 = quantum.group_delay(quantum.QuantumBarrier(2.0, 20.0 / KAPPA), 1.0)
        assert abs(tau_10 - tau_20) / tau_20 < 1e-6
        # saturated value 2/(k kappa) = 1 for these parameters
        assert tau_20 == pytest.approx(1.0, rel=1e-6)

    def test_matches_symbolic_oracle(self):
        cases = [(2.0, kappa_l / KAPPA, 1.0) for kappa_l in (2.0, 5.0, 10.0)]
        rng = np.random.default_rng(11)
        for _ in range(500):
            v0 = rng.uniform(0.1, 10.0)
            cases.append((v0, rng.uniform(0.01, 20.0), v0 * rng.uniform(0.02, 0.98)))
        for v0, length, energy in cases:
            barrier = quantum.QuantumBarrier(v0, length)
            assert quantum.group_delay(barrier, energy) == pytest.approx(
                quantum.analytic_group_delay(barrier, energy), rel=1e-13
            )

    def test_free_propagation_limit(self):
        # v0 -> 0 must hand back the transit time L/k
        barrier = quantum.QuantumBarrier(1e-9, 2.0)
        k = np.sqrt(2.0 * 0.5)
        assert quantum.group_delay(barrier, 0.5) == pytest.approx(2.0 / k, rel=1e-6)

    @pytest.mark.parametrize("energy", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize("kappa_l", [100.0, 1e3, 1e4])
    def test_opaque_limit(self, energy, kappa_l):
        # |t| underflows past kappa L ~ 345; tau_g tends to 2/(k kappa).
        # Terms of order kappa L cancel in D'/D, so roundoff grows with kappa L
        k, kappa = np.sqrt(2.0 * energy), np.sqrt(2.0 * (2.0 - energy))
        tau = quantum.group_delay(quantum.QuantumBarrier(2.0, kappa_l / kappa), energy)
        assert tau == pytest.approx(2.0 / (k * kappa), rel=8 * EPS * kappa_l)

    @pytest.mark.parametrize("energy", [2.0 - 1e-6, 2.0, 2.0 + 1e-6, 1e-3, 1.0, 3.0])
    @pytest.mark.parametrize("length", [1e-4, 0.1, 3.0])
    def test_matches_sampled_phase_slope(self, energy, length):
        # below, at and above the barrier top, and at kappa L far below the
        # series cutoff of the closed form
        barrier = quantum.QuantumBarrier(2.0, length)
        sampled = sampled_phase_slope(
            lambda energies: quantum._closed_form(barrier, energies)[0], energy, 1e-4 * energy
        )
        assert quantum.group_delay(barrier, energy) == pytest.approx(sampled, rel=1e-10)

    @pytest.mark.parametrize("energy", [1.0, 2.5])
    def test_continuous_across_the_series_cutoff(self, energy):
        # |kappa L| = 0.5 switches from the series to the closed quotients
        kappa = abs(np.sqrt(complex(2.0 * (2.0 - energy))))
        below, above = (
            quantum.group_delay(quantum.QuantumBarrier(2.0, np.nextafter(0.5, side) / kappa), energy)
            for side in (0.0, 1.0)
        )
        assert below == pytest.approx(above, rel=1e-14)


class TestDwellTime:
    def test_free_stream_transport_time(self):
        barrier = quantum.QuantumBarrier(1e-9, 2.0)
        assert quantum.dwell_time(barrier, 0.5) == pytest.approx(2.0, rel=1e-6)

    def test_against_midpoint_rule_oracle(self):
        barrier = quantum.QuantumBarrier(2.0, 3.0)
        energy = 1.0
        state = quantum.scatter(barrier, energy)
        xs = (np.arange(1_000_000) + 0.5) * (barrier.length / 1_000_000)
        brute = np.sum(np.abs(state.psi_inside(xs)) ** 2) * (barrier.length / 1_000_000)
        brute /= state.k
        measured = quantum.dwell_time(barrier, energy)
        assert measured > 0.0
        assert measured == pytest.approx(brute, rel=1e-8)

    def test_monotone_saturation_below_midpoint_energy(self):
        # at E < v0/2 the dwell time decreases toward its opaque-limit value
        energy = 0.5
        kappa = np.sqrt(2.0 * (2.0 - energy))
        taus = [
            quantum.dwell_time(quantum.QuantumBarrier(2.0, kl / kappa), energy)
            for kl in (5.0, 10.0, 20.0)
        ]
        assert taus[0] > taus[1] > taus[2]
        assert abs(taus[2] - taus[1]) < abs(taus[1] - taus[0])

    def test_positive_for_tunneling_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v0 = rng.uniform(0.5, 5.0)
            energy = rng.uniform(0.05, 0.95) * v0
            length = rng.uniform(0.05, 10.0 / np.sqrt(2.0 * (v0 - energy)))
            assert quantum.dwell_time(quantum.QuantumBarrier(v0, length), energy) > 0.0

    def test_continuous_through_barrier_top(self):
        barrier = quantum.QuantumBarrier(2.0, 1.0)
        at_top = quantum.dwell_time(barrier, 2.0)
        for energy in (2.0 * (1.0 - 1e-9), 2.0 * (1.0 + 1e-9)):
            assert quantum.dwell_time(barrier, energy) == pytest.approx(at_top, rel=1e-8)

    def test_opaque_barrier_saturates(self):
        # kappa L = 600 at v0 = 2, E = 1: |t|^2 alone underflows, tau_d -> 1/2;
        # at kappa L = 1414 (L = 1000) cosh(kappa L) itself overflows
        for length in (600.0 / np.sqrt(2.0), 1000.0):
            barrier = quantum.QuantumBarrier(2.0, length)
            assert quantum.dwell_time(barrier, 1.0) == pytest.approx(0.5, rel=1e-12)


class TestDelayReport:
    def test_zero_length_report(self):
        report = quantum.delay_report(quantum.QuantumBarrier(2.0, 0.0), 1.0)
        assert report.tau_g == report.tau_d == report.tau_i == 0.0
        assert report.front_time == 0.0
        assert report.apparent_speed is None
        assert not report.apparent_superluminal

    @pytest.mark.parametrize("length", [1e103, 1e200, 1e300])
    def test_barrier_too_long_to_cube_kappa_l_keeps_the_opaque_values(self, length):
        # (kappa L)^3 and L^2 overflow past kappa L ~ 5.6e102; the delays are
        # those at L = 1e102, the opaque limits tau_g = 1 and tau_d = 0.5
        report = quantum.delay_report(quantum.QuantumBarrier(2.0, length), 1.0)
        shorter = quantum.delay_report(quantum.QuantumBarrier(2.0, 1e102), 1.0)
        assert report.tau_g == pytest.approx(1.0, rel=4 * EPS)
        assert report.tau_d == pytest.approx(0.5, rel=4 * EPS)
        assert report.tau_g == pytest.approx(shorter.tau_g, rel=4 * EPS)
        assert report.tau_d == pytest.approx(shorter.tau_d, rel=4 * EPS)

    def test_identity_is_exact_by_construction(self):
        report = quantum.delay_report(quantum.QuantumBarrier(2.0, 3.0), 1.0)
        assert report.tau_g == report.tau_d + report.tau_i

    def test_opaque_barrier_apparent_superluminality(self):
        barrier = quantum.QuantumBarrier(2.0, 20.0 / KAPPA)
        report = quantum.delay_report(barrier, 1.0)
        k = np.sqrt(2.0)
        assert report.apparent_speed > 5.0 * k
        assert report.apparent_superluminal
        assert report.tau_g == pytest.approx(1.0, rel=1e-6)  # saturated lifetime

    def test_self_interference_matches_reflection_closed_form(self):
        # tau_i = tau_g - tau_d must equal -Im(r)/k^2 for this barrier shape
        for kappa_l in (2.0, 5.0, 10.0):
            barrier = quantum.QuantumBarrier(2.0, kappa_l / KAPPA)
            report = quantum.delay_report(barrier, 1.0)
            state = quantum.scatter(barrier, 1.0)
            expected = -state.r.imag / (2.0 * 1.0)  # k^2 = 2E
            assert report.tau_i == pytest.approx(expected, abs=5e-9)

    @pytest.mark.parametrize("energy", [0.3, 1.0, 1.7, 2.5])
    @pytest.mark.parametrize("length", [3.0, 1000.0, 1e6])
    def test_winful_split_from_opaque_to_above_barrier(self, energy, length):
        # tau_g - tau_d = -Im(r)/k^2 (Winful, PRL 91, 260401 (2003)), also
        # where |t| underflows and above the barrier top.  At a != 0 terms of
        # order kappa L cancel in tau_g, so the tolerance grows with kappa L
        barrier = quantum.QuantumBarrier(2.0, length)
        report = quantum.delay_report(barrier, energy)
        r = complex(quantum._closed_form(barrier, energy)[1])
        kappa = abs(np.sqrt(complex(2.0 * (2.0 - energy))))
        tol = 4 * EPS * (kappa * length + abs(report.tau_g))
        assert report.tau_i == pytest.approx(-r.imag / (2.0 * energy), abs=tol)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_self_interference_delay_on_random_barriers(self, side):
        # tau_i = -Im(r)/k^2 with k = sqrt(2E) (Winful, PRL 91, 260401 (2003))
        # on 3000 barriers up to kappa L = 30, every hundredth of zero length
        rng = np.random.default_rng(7)
        for i in range(3000):
            v0 = float(rng.uniform(0.1, 10.0))
            ratio = float(rng.uniform(0.01, 0.99) if side == "below" else rng.uniform(1.01, 5.0))
            energy = v0 * ratio
            rate = np.sqrt(2.0 * abs(v0 - energy))
            length = 0.0 if i % 100 == 0 else float(rng.uniform(0.0, 30.0)) / rate
            barrier = quantum.QuantumBarrier(v0, length)
            report = quantum.delay_report(barrier, energy)
            if side == "below":
                r = quantum.scatter(barrier, energy).r
            else:
                r = complex(quantum._closed_form(barrier, energy)[1])
            # a zero-length barrier has tau_g = tau_d = r = 0 exactly
            tol = max(1e-12 * (abs(report.tau_g) + abs(report.tau_d)), 1e-300)
            assert report.tau_i == pytest.approx(-r.imag / (2.0 * energy), rel=0.0, abs=tol)
