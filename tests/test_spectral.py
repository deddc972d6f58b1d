"""Frequency grids, phase unwrapping, differentiation, peak location."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sampled_phase_slope
from tunneltime import quantum, spectral
from tunneltime.errors import (
    EdgeOfGridError,
    FlatSignalError,
    NonConvergentError,
    NonFiniteResultError,
    PeakAtBoundaryError,
    TunnelTimeError,
    UndersampledPhaseError,
    ZeroAmplitudeError,
)

# any float, nan and the infinities included
ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308, -1.7e308, np.inf, np.nan]),
)


def make_response(grid, t):
    r = np.sqrt(np.maximum(0.0, 1.0 - np.abs(t) ** 2)).astype(complex)
    return spectral.ComplexResponse(grid, t, r)


class TestFrequencyGrid:
    def test_basic_properties(self):
        grid = spectral.FrequencyGrid.centered(10.0, 0.5, 11)
        assert grid.count == 11
        assert grid.spacing == pytest.approx(0.1)
        assert grid.omegas[5] == pytest.approx(10.0)
        assert grid.span == pytest.approx(1.0)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            spectral.FrequencyGrid(1.0, np.linspace(-1, 1, 4))

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            spectral.FrequencyGrid(1.0, np.array([0.0, 0.1, 0.25, 0.3, 0.4]))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            spectral.FrequencyGrid(1.0, np.linspace(1, -1, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_carrier_or_detuning(self, bad):
        # a non-finite spacing would otherwise raise a RuntimeWarning first
        detunings = np.linspace(-1.0, 1.0, 5)
        for make in (
            lambda: spectral.FrequencyGrid(bad, detunings),
            lambda: spectral.FrequencyGrid(5.0, [bad] * 5),
            lambda: spectral.FrequencyGrid(5.0, np.append(detunings, bad)),
            lambda: spectral.FrequencyGrid.centered(bad, 1.0, 9),
            lambda: spectral.FrequencyGrid.centered(5.0, bad, 9),
        ):
            with pytest.raises(ValueError):
                make()

    def test_rejects_frequencies_that_overflow(self):
        # a finite carrier and finite detunings whose sum is not, or whose
        # step or spread of steps is not: a ValueError, not a RuntimeWarning
        up = np.linspace(0.0, 1e308, 5)
        step = [-1.7e308, 1.7e308, 1.71e308, 1.72e308, 1.73e308]
        spread = [-0.5e308, 0.5e308, -0.5e308, 0.0, 1.0]
        for omega0, detunings in ((1e308, up), (-1e308, -up[::-1]), (0.0, step), (0.0, spread)):
            with pytest.raises(ValueError):
                spectral.FrequencyGrid(omega0, detunings)
        assert spectral.FrequencyGrid(-1e308, up).omegas[-1] == 0.0

    def test_index_of_off_grid(self):
        grid = spectral.FrequencyGrid.centered(10.0, 0.5, 11)
        with pytest.raises(EdgeOfGridError):
            grid.index_of(12.0)


class TestUnwrapPhase:
    def test_constant_unity_response(self):
        grid = spectral.FrequencyGrid.centered(5.0, 1.0, 21)
        phase = spectral.unwrap_phase(make_response(grid, np.ones(21, dtype=complex)))
        np.testing.assert_allclose(phase.phi, 0.0, atol=0.0)

    def test_linear_phase_recovered_exactly_through_wraps(self):
        # slope 3.0 with detunings up to 3 wraps the raw argument repeatedly;
        # detunings start small enough that the first sample is principal
        grid = spectral.FrequencyGrid(5.0, np.linspace(-0.5, 3.0, 141))
        t = np.exp(1j * 3.0 * grid.detunings)
        phase = spectral.unwrap_phase(make_response(grid, t))
        np.testing.assert_allclose(phase.phi, 3.0 * grid.detunings, atol=1e-12)

    def test_barrier_phase_matches_fine_grid_oracle(self):
        barrier = quantum.QuantumBarrier(2.0, 3.0)
        coarse = np.linspace(0.2, 1.8, 81)
        fine = np.linspace(0.2, 1.8, 8001)  # 100x finer, shares every sample
        def unwrapped(energies):
            ts, _ = quantum.scatter(barrier, energies)
            grid = spectral.FrequencyGrid(float(energies.mean()),
                                          energies - float(energies.mean()))
            return spectral.unwrap_phase(make_response(grid, ts)).phi
        phi_coarse = unwrapped(coarse)
        phi_fine = unwrapped(fine)
        np.testing.assert_allclose(phi_coarse, phi_fine[::100], atol=1e-12)

    def test_zero_amplitude_rejected(self):
        grid = spectral.FrequencyGrid.centered(5.0, 1.0, 9)
        for bad in (0.0, np.nan, np.inf):
            t = np.ones(9, dtype=complex)
            t[4] = bad
            with pytest.raises(ZeroAmplitudeError):
                spectral.unwrap_phase(spectral.ComplexResponse(grid, t, np.zeros(9)))

    def test_undersampled_phase_rejected(self):
        # alternating 0/pi phases leave the wrap direction ambiguous
        grid = spectral.FrequencyGrid.centered(5.0, 1.0, 9)
        t = np.exp(1j * np.pi * np.arange(9))
        with pytest.raises(UndersampledPhaseError):
            spectral.unwrap_phase(spectral.ComplexResponse(grid, t, np.zeros(9)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_unwrap_rewrap_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        grid = spectral.FrequencyGrid.centered(4.0, 1.0, 201)
        coeffs = rng.uniform(-4.0, 4.0, size=3)
        phi_true = np.polyval(coeffs, grid.detunings)
        t = np.exp(1j * phi_true) * rng.uniform(0.3, 1.0)
        phase = spectral.unwrap_phase(spectral.ComplexResponse(grid, t, np.zeros(201)))
        np.testing.assert_allclose(
            np.exp(1j * phase.phi), t / np.abs(t), atol=1e-12
        )
        assert np.max(np.abs(np.diff(phase.phi))) < np.pi


class TestPhaseDerivative:
    def test_zero_phase(self):
        grid = spectral.FrequencyGrid.centered(5.0, 1e-3, 9)
        est = spectral.phase_derivative(
            spectral.UnwrappedPhase(grid, np.zeros(9)), 5.0
        )
        assert est.value == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_linear_phase_slope(self, slope):
        grid = spectral.FrequencyGrid.centered(5.0, 4e-4, 9)
        phase = spectral.UnwrappedPhase(grid, slope * grid.detunings)
        est = spectral.phase_derivative(phase, 5.0)
        assert est.value == pytest.approx(slope, rel=1e-10, abs=1e-10)

    def test_pure_delay_slope_sign_convention(self):
        # a delay tau in this package's convention is phi = +tau * detuning
        grid = spectral.FrequencyGrid.centered(5.0, 1e-3, 9)
        up = spectral.UnwrappedPhase(grid, 5.0 * grid.detunings)
        assert spectral.phase_derivative(up, 5.0).value == pytest.approx(5.0, rel=1e-12)
        down = spectral.UnwrappedPhase(grid, -5.0 * grid.detunings)
        assert spectral.phase_derivative(down, 5.0).value == pytest.approx(-5.0, rel=1e-12)

    def test_linearity_of_derivative(self):
        rng = np.random.default_rng(7)
        grid = spectral.FrequencyGrid.centered(3.0, 1e-3, 17)
        for _ in range(25):
            c1 = rng.uniform(-2, 2, size=4)
            c2 = rng.uniform(-2, 2, size=4)
            p1 = np.polyval(c1, grid.detunings)
            p2 = np.polyval(c2, grid.detunings)
            d1 = spectral.phase_derivative(spectral.UnwrappedPhase(grid, p1), 3.0).value
            d2 = spectral.phase_derivative(spectral.UnwrappedPhase(grid, p2), 3.0).value
            d12 = spectral.phase_derivative(
                spectral.UnwrappedPhase(grid, p1 + p2), 3.0
            ).value
            assert d12 == pytest.approx(d1 + d2, rel=1e-9, abs=1e-12)

    def test_barrier_derivative_matches_symbolic_oracle(self):
        # the stencil on a sampled barrier phase, kappa L = 20
        barrier = quantum.QuantumBarrier(2.0, 20.0 / np.sqrt(2.0))
        energy = 1.0
        measured = sampled_phase_slope(
            lambda energies: quantum.scatter(barrier, energies)[0], energy, 1e-4 * energy
        )
        expected = quantum.analytic_group_delay(barrier, energy)
        assert measured == pytest.approx(expected, rel=1e-8)

    def test_edge_of_grid(self):
        grid = spectral.FrequencyGrid.centered(5.0, 1e-3, 9)
        phase = spectral.UnwrappedPhase(grid, np.zeros(9))
        with pytest.raises(EdgeOfGridError):
            spectral.phase_derivative(phase, grid.omegas[2])

    def test_nonconvergent_on_noise(self):
        rng = np.random.default_rng(3)
        grid = spectral.FrequencyGrid.centered(5.0, 1e-3, 9)
        phase = spectral.UnwrappedPhase(grid, rng.uniform(-1.0, 1.0, 9))
        with pytest.raises(NonConvergentError):
            spectral.phase_derivative(phase, 5.0)

    def test_reports_error_estimate(self):
        grid = spectral.FrequencyGrid.centered(5.0, 1e-3, 9)
        phase = spectral.UnwrappedPhase(grid, 2.0 * grid.detunings ** 2)
        est = spectral.phase_derivative(phase, 5.0)
        assert est.value == pytest.approx(0.0, abs=1e-9)
        assert est.error >= 0.0


class TestLocatePeak:
    def test_gaussian_on_aligned_grid(self):
        times = 0.3 + 0.5 * np.arange(40)  # grid contains 7.3
        samples = np.exp(-((times - 7.3) ** 2))
        assert spectral.locate_peak(times, samples) == pytest.approx(7.3, abs=1e-3)

    def test_delta_like_peak(self):
        times = np.linspace(0.0, 10.0, 21)
        samples = np.zeros(21)
        samples[13] = 1.0
        assert spectral.locate_peak(times, samples) == times[13]

    def test_asymmetric_pulse_against_oversampled_oracle(self):
        times = np.arange(0.0, 12.0, 0.05)
        pulse = times ** 3 * np.exp(-times)
        fine = np.arange(0.0, 12.0, 0.0005)  # 100x oversampled brute force
        oracle = fine[np.argmax(fine ** 3 * np.exp(-fine))]
        assert spectral.locate_peak(times, pulse) == pytest.approx(oracle, abs=1e-3)

    def test_peak_at_boundary(self):
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(PeakAtBoundaryError):
            spectral.locate_peak(times, times)

    def test_flat_signal(self):
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(FlatSignalError):
            spectral.locate_peak(times, np.ones(11))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_shift_equivariance(self, shift):
        times = np.linspace(-20.0, 20.0, 161)
        samples = np.exp(-((times - 3.1) ** 2) / 4.0) * (1.0 + 0.2 * np.tanh(times))
        base = spectral.locate_peak(times, samples)
        shifted = spectral.locate_peak(times + shift, samples)
        assert shifted - base == pytest.approx(shift, abs=1e-9)


class TestFiniteOrNamed:
    @pytest.mark.parametrize("samples", [[0.0, 1.0, np.nan, 1.0, 0.0],
                                         [0.0, 1.0, np.inf, 1.0, 0.0]])
    def test_locate_peak_rejects_nonfinite_samples(self, samples):
        # nan was read as the peak, and inf raised a bare RuntimeWarning
        with pytest.raises(ValueError):
            spectral.locate_peak(np.arange(5.0), samples)
        with pytest.raises(ValueError):
            spectral.locate_peak(samples, [0.0, 1.0, 2.0, 1.0, 0.0])

    def test_locate_peak_names_an_overflow(self):
        with pytest.raises(NonFiniteResultError):
            spectral.locate_peak([-1.7e308, 0.0, 1.7e308], [0.0, 1.0, 0.0])

    def test_unitarity_defect_is_finite_or_named(self):
        for t, r, weight in (([np.nan], [0.0], 1.0), ([1.0], [np.inf], 1.0),
                             ([1.0], [0.0], np.nan)):
            with pytest.raises(ValueError):
                spectral.unitarity_defect(t, r, weight)
        with pytest.raises(NonFiniteResultError):
            spectral.unitarity_defect([1e200], [0.0], 1.0)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        pairs=st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT),
                       min_size=3, max_size=7),
        weight=ANY_FLOAT,
        spread=st.tuples(ANY_FLOAT, ANY_FLOAT, st.integers(5, 9)),
        entry=st.sampled_from(["locate_peak", "unitarity_defect", "FrequencyGrid",
                               "FrequencyGrid-linspace"]),
    )
    # a grid whose steps are finite but whose span overflows, and one whose
    # read-outs are all finite
    @example(pairs=[(0.0, x, 0.0, 0.0) for x in (-1e308, -5e307, 0.0, 5e307, 1e308)],
             weight=0.0, spread=(0.0, 1.0, 5), entry="FrequencyGrid")
    @example(pairs=[(0.0, 0.0, 0.0, 0.0)] * 3, weight=1e308, spread=(-1.0, 1.0, 5),
             entry="FrequencyGrid-linspace")
    def test_entry_points_are_finite_or_named(self, pairs, weight, spread, entry):
        # a finite result, a ValueError or a named TunnelTimeError, and no
        # RuntimeWarning (an error under this suite's filter); a grid is
        # drawn both from free detunings and from a linspace, which is
        # uniform, and every read-out of it is taken
        a, b, c, d = (np.array(column) for column in zip(*pairs))
        try:
            if entry == "locate_peak":
                result = [spectral.locate_peak(a, b)]
            elif entry == "unitarity_defect":
                # complex() takes an infinite part with no RuntimeWarning
                t, r = ([complex(x, y) for x, y in zip(re, im)] for re, im in ((a, b), (c, d)))
                result = [spectral.unitarity_defect(t, r, weight)]
            else:
                detunings = b
                if entry.endswith("linspace"):
                    with np.errstate(all="ignore"):  # the grid checks what this makes
                        detunings = np.linspace(*spread)
                grid = spectral.FrequencyGrid(weight, detunings)
                result = [grid.count, grid.spacing, grid.span, *grid.omegas,
                          grid.index_of(float(grid.omegas[1]))]
        except (ValueError, TunnelTimeError):
            return
        assert all(np.isfinite(x) for x in result)
