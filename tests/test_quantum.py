"""Rectangular-barrier scattering, delays, and dwell time."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import quantum_matching_oracle, sampled_phase_slope
from tunneltime import photonic, quantum, spectral
from tunneltime.errors import NonFiniteResultError, NonPositiveEnergyError

KAPPA = np.sqrt(2.0)  # kappa for v0 = 2, E = 1
EPS = np.finfo(float).eps


class TestValidation:
    def test_barrier_requires_positive_height(self):
        with pytest.raises(ValueError):
            quantum.QuantumBarrier(0.0, 1.0)

    def test_barrier_requires_nonnegative_length(self):
        with pytest.raises(ValueError):
            quantum.QuantumBarrier(1.0, -1.0)

    def test_numpy_fields_are_held_as_python_floats(self):
        # a numpy length would run the kernel in numpy scalars, whose overflow
        # is a RuntimeWarning (an error under this suite's filter), not an inf
        barrier = quantum.QuantumBarrier(5e-324, np.float64(2.542322008807814e158))
        assert type(barrier.v0) is float and type(barrier.length) is float
        with pytest.raises(NonFiniteResultError):
            quantum.group_delay(barrier, 1e-300)

    def test_scatter_rejects_nonpositive_energy(self):
        # one bad energy in an array fails the whole call
        for energy in (0.0, np.inf, np.array([1.0, 0.0, 3.0]), np.array([1.0, np.nan])):
            with pytest.raises(NonPositiveEnergyError):
                quantum.scatter(quantum.QuantumBarrier(2.0, 1.0), energy)

    @pytest.mark.parametrize("energy", [0.0, -0.5, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("route", ["group_delay", "dwell_time", "delay_report"])
    def test_delay_routes_reject_nonpositive_energy(self, route, energy):
        # raised before sqrt(2E) is formed, or a RuntimeWarning would come first
        with pytest.raises(NonPositiveEnergyError):
            getattr(quantum, route)(quantum.QuantumBarrier(2.0, 1.0), energy)

    @pytest.mark.parametrize("route", ["scatter", "group_delay", "dwell_time", "delay_report"])
    @pytest.mark.parametrize("v0, energy", [(2.0, 1.7e308), (1.7e308, 1.0)])
    def test_routes_name_an_overflowing_energy(self, route, v0, energy):
        # 2 E or 2 (v0 - E) leaves the float range: a named error, not an
        # overflow RuntimeWarning
        with pytest.raises(NonFiniteResultError):
            getattr(quantum, route)(quantum.QuantumBarrier(v0, 1.0), energy)


class TestScatter:
    def test_zero_length_barrier_is_transparent(self):
        t, r = quantum.scatter(quantum.QuantumBarrier(2.0, 0.0), 1.0)
        assert t == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert r == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_point_magnitude(self):
        # v0=2, E=1, L=3: k = kappa = sqrt(2), |t| = 1/cosh(3 sqrt 2)
        t, _ = quantum.scatter(quantum.QuantumBarrier(2.0, 3.0), 1.0)
        assert abs(t) == pytest.approx(1.0 / np.cosh(3.0 * np.sqrt(2.0)), rel=1e-12)

    def test_amplitudes_match_linear_system_oracle(self):
        # below and, in the last two, above the barrier top; the oracle is
        # singular at the top (kappa = 0), where the sampled-phase and
        # dwell-time continuity checks cover t
        for v0, length, energy in (
            (2.0, 3.0, 1.0), (5.0, 0.7, 2.2), (1.5, 12.0, 0.4), (2.0, 3.0, 3.7), (0.5, 9.0, 0.9)
        ):
            t, r = quantum.scatter(quantum.QuantumBarrier(v0, length), energy)
            t_ref, r_ref, _, _ = quantum_matching_oracle(v0, length, energy)
            assert t == pytest.approx(t_ref, rel=1e-12, abs=1e-15)
            assert r == pytest.approx(r_ref, rel=1e-12, abs=1e-15)

    def test_energy_array_is_bit_equal_to_scalar_calls(self):
        # and a grating's frequencies, inside, at the edge of and outside its
        # stopband, Bragg among them
        barrier = quantum.QuantumBarrier(2.0, 3.0)
        energies = np.append(np.linspace(0.01, 6.0, 997), 2.0)  # and the barrier top
        grating = photonic.UniformGrating(0.25, 20.0, 1.3, 4.0)
        omegas = np.append(4.0 + np.linspace(-0.79, 0.79, 801) / 1.3, 4.0)
        for call, values in ((lambda x: quantum.scatter(barrier, x), energies),
                             (lambda x: photonic.grating_response(grating, x), omegas)):
            t, r = call(values)
            scalar_t, scalar_r = zip(*(call(x) for x in values))
            for got, scalar in ((t, scalar_t), (r, scalar_r)):
                assert got.tobytes() == np.array(scalar).tobytes()

    def test_one_value_is_0d_and_an_array_keeps_its_shape(self):
        barrier = quantum.QuantumBarrier(2.0, 3.0)
        grating = photonic.UniformGrating(0.25, 20.0, 1.3, 4.0)
        for call, value in ((lambda x: quantum.scatter(barrier, x), 1.0),
                            (lambda x: photonic.grating_response(grating, x), 4.1)):
            for values in (value, np.full((2, 3), value), np.empty(0)):
                for got in call(values):
                    assert got.shape == np.shape(values) and got.dtype == complex

    @pytest.mark.parametrize("length", [1e103, 1.5e308])
    def test_opaque_reflection_at_any_length(self, length):
        # kappa L overflows at 1.5e308: the opaque limit, where t underflows
        # to zero and r = i b / (kappa + i a) has |r| = 1
        t, r = quantum.scatter(quantum.QuantumBarrier(2.0, length), 0.7)
        assert t == 0.0
        assert abs(r) == pytest.approx(1.0, rel=2 * EPS, abs=0.0)

    def test_subnormal_length_keeps_the_precision_of_r(self):
        # kappa L ~ 1e-209, so r = i b L / (1 + i a L) to roundoff: b L and
        # a L are normal though L is subnormal, and r = i b (L/D) would read
        # the subnormal L/D (Re r was 0 where it is -5e-21)
        v0, length, energy = 1e181, 1e-315, 1e-248
        k = np.sqrt(2.0 * energy)
        a, b = (v0 - 2.0 * energy) / k, -v0 / k
        _, r = quantum.scatter(quantum.QuantumBarrier(v0, length), energy)
        assert r == pytest.approx(1j * (b * length) / (1.0 + 1j * (a * length)), rel=4 * EPS)

    def test_barrier_top_of_a_very_long_barrier_is_finite(self):
        # a L ~ 7e374 at E = v0 would overflow D; with a power of two near
        # a L taken out of D first, t ~ 1/(a L) underflows and |r| = 1
        t, r = quantum.scatter(quantum.QuantumBarrier(1e150, 1e300), 1e150)
        assert t == 0.0
        assert abs(r) == 1.0

    def test_zero_length_at_any_height_and_energy(self):
        # c L = 0 takes no power-of-two scale, so k cosh z stays in the float
        # range, and t = 1 exactly
        barrier = quantum.QuantumBarrier(1e300, 0.0)
        t, r = quantum.scatter(barrier, 5e-324)
        assert t == 1.0 and r == 0.0
        assert quantum.group_delay(barrier, 5e-324) == 0.0 == quantum.dwell_time(barrier, 5e-324)

    def test_tiny_energy_on_a_tall_barrier(self):
        # a = (v0 - 2E)/k and b = -v0/k would overflow; t ~ -i k/(v0 L) and
        # r ~ -1, as an 80-digit evaluation of the closed form reads
        t, r = quantum.scatter(quantum.QuantumBarrier(1e300, 5e-324), 5e-324)
        assert t.real == pytest.approx(4.0480450661462119e-277, rel=1e-15, abs=0.0)
        assert t.imag == pytest.approx(-6.362424904190392e-139, rel=1e-15, abs=0.0)
        assert r == pytest.approx(-1.0 - 6.362424904190392e-139j, rel=1e-15, abs=0.0)
        assert spectral.unitarity_defect(t, r, 1.0) <= 1e-15

    @pytest.mark.parametrize("v0, length, energy, part, expected", [
        # beta sinh(z)/rate = -v0 L ~ 5e-344 underflows
        (1e-20, 5e-324, 1e-316, "r", -3.4935717137995457e-186j),
        # k e^{-Re z} ~ 1e-350 underflows at kappa L = 575
        (5.05e-201, 5.75e103, 5e-201, "t", 1.4966496382951583e-251 + 7.4084157095610248e-251j),
    ])
    def test_parts_whose_factors_leave_the_float_range(self, v0, length, energy, part, expected):
        # each part of t and r is a product of k, c, beta, e^{-Re z}, cosh z and
        # sinh(z)/rate over |k D|^2 with its exponents summed as integers;
        # the expected values are 80-digit evaluations of the closed form
        t, r = quantum.scatter(quantum.QuantumBarrier(v0, length), energy)
        value = complex(t if part == "t" else r)
        assert value.real == pytest.approx(expected.real, rel=1e-12, abs=0.0)
        assert value.imag == pytest.approx(expected.imag, rel=1e-12, abs=0.0)

    def test_flux_conservation_over_random_cases(self):
        # below the barrier top, then anywhere from 0.01 v0 to 3 v0, then at
        # the top itself, where kappa = 0
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(1000):
            v0 = rng.uniform(0.2, 10.0)
            energy = rng.uniform(0.01, 0.99) * v0
            cases.append((v0, energy, rng.uniform(0.0, 20.0 / np.sqrt(2.0 * (v0 - energy)))))
        for _ in range(1000):
            v0 = rng.uniform(0.2, 10.0)
            cases.append((v0, rng.uniform(0.01, 3.0) * v0, rng.uniform(0.0, 20.0 / np.sqrt(v0))))
        cases += [(v0, v0, length) for v0, _, length in cases[::10]]
        for v0, energy, length in cases:
            t, r = quantum.scatter(quantum.QuantumBarrier(v0, length), energy)
            defect = abs(abs(t) ** 2 + abs(r) ** 2 - 1.0)
            assert defect < 1e-12


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

    def test_barrier_top_of_a_very_long_barrier(self):
        # tau_g -> -2 L/(3 a) = 9.428090415820632e+74 as a L grows at E = v0,
        # where a L^3 ~ 7e524 would overflow D'
        a = -1e150 / np.sqrt(2e150)
        tau = quantum.group_delay(quantum.QuantumBarrier(1e150, 1e150), 1e150)
        assert tau == pytest.approx(-2.0 * 1e150 / (3.0 * a), rel=1e-15, abs=0.0)

    def test_free_propagation_limit(self):
        # v0 -> 0 must hand back the transit time L/k
        barrier = quantum.QuantumBarrier(1e-9, 2.0)
        k = np.sqrt(2.0 * 0.5)
        assert quantum.group_delay(barrier, 0.5) == pytest.approx(2.0 / k, rel=1e-6)

    @pytest.mark.parametrize("energy", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize("kappa_l", [100.0, 1e3, 1e4])
    def test_opaque_limit(self, energy, kappa_l):
        # |t| underflows past kappa L ~ 345; tau_g tends to 2/(k kappa).  No
        # term of order kappa L cancels in D'/D, so roundoff does not grow
        k, kappa = np.sqrt(2.0 * energy), np.sqrt(2.0 * (2.0 - energy))
        tau = quantum.group_delay(quantum.QuantumBarrier(2.0, kappa_l / kappa), energy)
        assert tau == pytest.approx(2.0 / (k * kappa), rel=2 * EPS, abs=0.0)

    @pytest.mark.parametrize("energy", [2.0 - 1e-6, 2.0, 2.0 + 1e-6, 1e-3, 1.0, 3.0])
    @pytest.mark.parametrize("length", [1e-4, 0.1, 3.0])
    def test_matches_sampled_phase_slope(self, energy, length):
        # below, at and above the barrier top, and at kappa L far below the
        # series cutoff of the closed form
        barrier = quantum.QuantumBarrier(2.0, length)
        sampled = sampled_phase_slope(
            lambda energies: quantum.scatter(barrier, energies)[0], energy, 1e-4 * energy
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

    @pytest.mark.parametrize("energy", [1e-250, 1e-300, 5e-324])
    @pytest.mark.parametrize("length", [0.0, 1.0])
    def test_finite_where_a_over_k_squared_overflows(self, energy, length):
        # tau_g ~ 1/k as E -> 0; on v0 = 2, L = 1, tau_g k reads
        # 1.0373147207275482 from E = 1e-20 down to 1e-200, where a/k^2 is
        # still finite, and at L = 0 the delay is 0
        barrier = quantum.QuantumBarrier(2.0, length)
        k = np.sqrt(2.0 * energy)
        tau = quantum.group_delay(barrier, energy)
        assert tau * k == pytest.approx(1.0373147207275482 * length, rel=1e-14, abs=0.0)
        report = quantum.delay_report(barrier, energy)
        assert report.tau_g == tau and np.isfinite(report.tau_i)


    def test_tiny_energy_on_a_tall_barrier(self):
        # tau_g ~ 1/(k v0 L) while a/k^2 ~ 1e623 would overflow; the value is
        # a 120-digit derivative of arg t
        barrier = quantum.QuantumBarrier(1e300, 5e-324)
        tau = quantum.group_delay(barrier, 5e-324)
        assert tau == pytest.approx(6.4388456855334261e184, rel=1e-15, abs=0.0)
        report = quantum.delay_report(barrier, 5e-324)
        assert report.tau_g == tau and report.tau_d >= 0.0

    def test_dk_term_where_c_sinh_over_rate_underflows(self):
        # c sinh(z)/rate ~ 2e-343 underflows, and the dk term (half the delay
        # here) is a product with its exponents summed as integers; the value
        # is an 80-digit evaluation
        tau = quantum.group_delay(quantum.QuantumBarrier(1e-181, 1e-301), 1e-42)
        assert tau == pytest.approx(7.0710678118654756e-281, rel=1e-14, abs=0.0)


class TestDwellTime:
    def test_free_stream_transport_time(self):
        barrier = quantum.QuantumBarrier(1e-9, 2.0)
        assert quantum.dwell_time(barrier, 0.5) == pytest.approx(2.0, rel=1e-6)

    def test_against_midpoint_rule_oracle(self):
        barrier = quantum.QuantumBarrier(2.0, 3.0)
        energy = 1.0
        # the oracle's interior field a e^{kappa x} + b e^{-kappa x}, kappa = sqrt(2)
        _, _, a, b = quantum_matching_oracle(barrier.v0, barrier.length, energy)
        xs = (np.arange(1_000_000) + 0.5) * (barrier.length / 1_000_000)
        inside = a * np.exp(KAPPA * xs) + b * np.exp(-KAPPA * xs)
        brute = np.sum(np.abs(inside) ** 2) * (barrier.length / 1_000_000)
        brute /= np.sqrt(2.0 * energy)  # j_in = k
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
        # at kappa L = 1414 (L = 1000) cosh(kappa L) itself overflows, and at
        # L = 1.2e308 kappa L does
        for length in (600.0 / np.sqrt(2.0), 1000.0, 1.2e308):
            barrier = quantum.QuantumBarrier(2.0, length)
            assert quantum.dwell_time(barrier, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_short_barrier_of_large_a_keeps_its_dwell_time(self):
        # a L = 1.75e151 at z ~ 5e-59, so tau_d = L/(a L)^2/k; D is carried
        # times 2^-j there, and 2^-2j would underflow L e^{-2 Re z} 2^-2j
        v0, length, energy = 4.0654668028029695e+100, 6.101445249742728e-110, 1e-320
        k = np.sqrt(2.0 * energy)
        al = (v0 - 2.0 * energy) / k * length
        tau = quantum.dwell_time(quantum.QuantumBarrier(v0, length), energy)
        assert tau == pytest.approx(length / al / k / al, rel=4 * EPS, abs=0.0)

    @pytest.mark.parametrize("energy", [1e-310, 1e-315, 1e-320, 5e-324])
    def test_subnormal_energy_keeps_the_low_energy_law(self, energy):
        # tau_d ~ k as E -> 0, and |t e^{Re(kappa) L}|^2 ~ 2 E is subnormal
        # here: on v0 = 2, L = 1, tau_d/k reads 0.29733959510092256 at E = 1e-20
        barrier = quantum.QuantumBarrier(2.0, 1.0)
        low = quantum.dwell_time(barrier, 1e-20) / np.sqrt(2e-20)
        assert quantum.dwell_time(barrier, energy) / np.sqrt(2.0 * energy) == pytest.approx(
            low, rel=1e-12, abs=0.0)


    def test_tiny_energy_on_a_tall_barrier(self):
        # tau_d ~ k L/(v0 L)^2 underflows to 0 here, a true underflow
        tau = quantum.dwell_time(quantum.QuantumBarrier(1e300, 5e-324), 5e-324)
        assert np.isfinite(tau) and tau >= 0.0


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
        # those at kappa L = 40, below, at (the opaque limits tau_g = 1 and
        # tau_d = 0.5) and above v0/2
        for v0, energy in ((2.0, 1.0), (2.0, 0.7), (2.0, 1.3), (8.0, 1.0)):
            kappa = np.sqrt(2.0 * (v0 - energy))
            report = quantum.delay_report(quantum.QuantumBarrier(v0, length), energy)
            shorter = quantum.delay_report(quantum.QuantumBarrier(v0, 40.0 / kappa), energy)
            assert report.tau_g == pytest.approx(shorter.tau_g, rel=4 * EPS, abs=0.0)
            assert report.tau_d == pytest.approx(shorter.tau_d, rel=4 * EPS, abs=0.0)
        report = quantum.delay_report(quantum.QuantumBarrier(2.0, length), 1.0)
        assert report.tau_g == pytest.approx(1.0, rel=4 * EPS, abs=0.0)
        assert report.tau_d == pytest.approx(0.5, rel=4 * EPS, abs=0.0)

    @pytest.mark.parametrize("length", [1e150, 1e200, 1e300, 1.7e308])
    def test_barrier_top_past_where_l_squared_overflows(self, length):
        # at E = v0, tau_g and tau_d both tend to 4 L/(3 k) as c L grows; L^2
        # overflows past L ~ 1.3e154, and L^3 past 5.6e102
        barrier = quantum.QuantumBarrier(1e150, length)
        expected = 4.0 * (length / (3.0 * np.sqrt(2e150)))
        assert quantum.group_delay(barrier, 1e150) == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert quantum.dwell_time(barrier, 1e150) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("v0, energy", [(2.0, 0.7), (2.0, 1.3), (8.0, 1.0)])
    def test_hartman_limit_at_every_length(self, v0, energy):
        # tau_g stops growing with length (Hartman, J. Appl. Phys. 33, 3427
        # (1962)): from kappa L = 40 out to L = 1e300 it keeps its value
        kappa = np.sqrt(2.0 * (v0 - energy))
        opaque = quantum.group_delay(quantum.QuantumBarrier(v0, 40.0 / kappa), energy)
        for length in np.geomspace(40.0 / kappa, 1e300, 301):
            tau = quantum.group_delay(quantum.QuantumBarrier(v0, float(length)), energy)
            assert tau == pytest.approx(opaque, rel=4 * EPS, abs=0.0)

    def test_overflowing_rate_is_the_opaque_limit(self):
        # kappa L overflows at v0 = L = 9.6e250, E = 2: tau_g takes the
        # opaque value -(da/dE + a/kappa^2) kappa/(kappa^2 + a^2), about
        # 2.2822e-126, and tau_d, about 4.75e-377, rounds to zero
        barrier = quantum.QuantumBarrier(9.6e250, 9.6e250)
        assert quantum.group_delay(barrier, 2.0) == pytest.approx(2.282177322938192e-126,
                                                                  rel=4 * EPS, abs=0.0)
        assert quantum.dwell_time(barrier, 2.0) == 0.0

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
            _, r = quantum.scatter(barrier, 1.0)
            expected = -r.imag / (2.0 * 1.0)  # k^2 = 2E
            assert report.tau_i == pytest.approx(expected, abs=5e-9)

    @pytest.mark.parametrize("energy", [0.3, 1.0, 1.7, 2.5])
    @pytest.mark.parametrize("length", [3.0, 1000.0, 1e6])
    def test_winful_split_from_opaque_to_above_barrier(self, energy, length):
        # tau_g - tau_d = -Im(r)/k^2 (Winful, PRL 91, 260401 (2003)), also
        # where |t| underflows and above the barrier top, to roundoff of
        # tau_g's own size at every kappa L
        barrier = quantum.QuantumBarrier(2.0, length)
        report = quantum.delay_report(barrier, energy)
        _, r = quantum.scatter(barrier, energy)
        tol = 4 * EPS * (1.0 + abs(report.tau_g))
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
            _, r = quantum.scatter(barrier, energy)
            # a zero-length barrier has tau_g = tau_d = r = 0 exactly
            tol = max(1e-12 * (abs(report.tau_g) + abs(report.tau_d)), 1e-300)
            assert report.tau_i == pytest.approx(-r.imag / (2.0 * energy), rel=0.0, abs=tol)
