"""Spectral pulse propagation, front causality, and the Schrodinger oracle."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import OMEGA0
from tunneltime import photonic, quantum, spectral, timedomain
from tunneltime.errors import BandTooNarrowError, WraparoundDetectedError


def stencil_run(psi0, potential, dx, dt, detector, record_every):
    """Crank-Nicolson reference with the right side B psi applied as a stencil.

    Same ``advance(done, stop)`` contract as the oracle's runs: A psi' = B psi
    with A = I + i dt H / 2 solved by gttrs and B = I - i dt H / 2 built
    cell by cell.
    """
    from scipy.linalg import lapack

    a_main = (1.0 + 0.5j * dt * (1.0 / dx ** 2 + potential)).astype(complex)
    a_off = np.full(psi0.size - 1, -0.25j * dt / dx ** 2)
    b_main = 2.0 - a_main
    b_off = 0.25j * dt / dx ** 2
    gttrf, gttrs = lapack.get_lapack_funcs(("gttrf", "gttrs"), (a_main, psi0))
    dl, d, du, du2, ipiv, _ = gttrf(a_off, a_main, a_off)
    psi = psi0

    def advance(done, stop):
        nonlocal psi
        samples = []
        for step in range(done + 1, stop + 1):
            rhs = b_main * psi
            rhs[1:-1] += b_off * (psi[2:] + psi[:-2])
            rhs[0] += b_off * psi[1]
            rhs[-1] += b_off * psi[-2]
            psi, _ = gttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)
            if step % record_every == 0:
                samples.append(psi[detector])
        return samples, psi

    return advance


def unity_response(grid):
    return spectral.ComplexResponse(
        grid, np.ones(grid.count, dtype=complex), np.zeros(grid.count, dtype=complex)
    )


class TestPulseEnvelope:
    def test_rejects_nonuniform_times(self):
        times = np.concatenate([np.linspace(0, 1, 50), [1.5]])
        with pytest.raises(ValueError):
            timedomain.PulseEnvelope(times, np.exp(-((times - 0.5) ** 2) * 500), 5.0)

    def test_rejects_undecayed_ends(self):
        times = np.linspace(-1.0, 1.0, 64)
        with pytest.raises(ValueError):
            timedomain.PulseEnvelope(times, np.exp(-times ** 2), 5.0)

    def test_gaussian_record_is_clean(self):
        pulse = timedomain.PulseEnvelope.gaussian(5.0, sigma_t=2.0, samples=1024)
        assert pulse.count == 1024
        peak = np.max(np.abs(pulse.a))
        assert abs(pulse.a[0]) <= 1e-12 * peak

    def test_bandwidth_convention(self):
        pulse = timedomain.PulseEnvelope.gaussian_with_bandwidth(
            5.0, bandwidth=0.05, samples=4096
        )
        assert pulse.bandwidth() == pytest.approx(0.05, rel=0.02)


class TestPropagateSpectral:
    def test_identity_response(self):
        pulse = timedomain.PulseEnvelope.gaussian(OMEGA0, sigma_t=40.0, samples=2048)
        result = timedomain.propagate_spectral(unity_response(pulse.fft_grid()), pulse)
        np.testing.assert_allclose(result.a_out, pulse.a, atol=1e-14)
        assert result.peak_delay == pytest.approx(0.0, abs=1e-9)
        assert result.width_ratio == pytest.approx(1.0, abs=1e-12)
        assert result.quasistatic_deviation == pytest.approx(0.0, abs=1e-13)

    def test_pure_delay_line(self):
        pulse = timedomain.PulseEnvelope.gaussian(OMEGA0, sigma_t=40.0, samples=8192)
        grid = pulse.fft_grid()
        tau = 3.7
        resp = spectral.ComplexResponse(
            grid, np.exp(1j * grid.detunings * tau), np.zeros(grid.count)
        )
        result = timedomain.propagate_spectral(resp, pulse)
        assert result.peak_delay == pytest.approx(tau, abs=1e-6)
        assert result.quasistatic_deviation < 1e-10
        assert result.width_ratio == pytest.approx(1.0, abs=1e-9)

    def test_quasistatic_transit_of_opaque_stack(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        pulse = timedomain.PulseEnvelope.gaussian_with_bandwidth(
            OMEGA0, 0.01 * band.width, samples=1024
        )
        resp = photonic.stack_response(skc_stack, pulse.fft_grid())
        result = timedomain.propagate_spectral(resp, pulse)
        tau_g = photonic.group_delay(skc_stack, OMEGA0)
        assert result.peak_delay == pytest.approx(tau_g, rel=0.01)
        assert abs(result.width_ratio - 1.0) < 0.01
        assert result.quasistatic_deviation < 0.01
        # transmitted peak stays behind the vacuum front transit
        assert result.peak_delay < skc_stack.total_length

    def test_energy_bookkeeping(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        pulse = timedomain.PulseEnvelope.gaussian_with_bandwidth(
            OMEGA0, 0.02 * band.width, samples=1024
        )
        resp = photonic.stack_response(skc_stack, pulse.fft_grid())
        result = timedomain.propagate_spectral(resp, pulse)
        balance = (result.energy_transmitted + result.energy_reflected) / result.energy_in
        assert balance == pytest.approx(1.0, abs=1e-8)

    def test_deviation_shrinks_with_bandwidth(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        deviations = []
        for fraction in (0.04, 0.02, 0.01, 0.005):
            pulse = timedomain.PulseEnvelope.gaussian_with_bandwidth(
                OMEGA0, fraction * band.width, samples=1024
            )
            resp = photonic.stack_response(skc_stack, pulse.fft_grid())
            deviations.append(
                timedomain.propagate_spectral(resp, pulse).quasistatic_deviation
            )
        assert all(a >= b for a, b in zip(deviations, deviations[1:]))

    def test_response_off_fft_grid_rejected(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        pulse = timedomain.PulseEnvelope.gaussian_with_bandwidth(
            OMEGA0, 0.01 * band.width, samples=1024
        )
        # a uniform grid that covers the spectrum but is not the FFT grid
        half = 8.0 * pulse.bandwidth()
        grid = spectral.FrequencyGrid.centered(OMEGA0, half, 1201)
        resp = photonic.stack_response(skc_stack, grid)
        with pytest.raises(ValueError, match="FFT grid"):
            timedomain.propagate_spectral(resp, pulse)

    def test_spectrum_exceeding_grid_rejected(self, skc_stack):
        pulse = timedomain.PulseEnvelope.gaussian(OMEGA0, sigma_t=10.0, samples=1024)
        narrow = spectral.FrequencyGrid.centered(OMEGA0, 0.05 / 10.0, 64)
        resp = photonic.stack_response(skc_stack, narrow)
        with pytest.raises(ValueError, match="FFT grid"):
            timedomain.propagate_spectral(resp, pulse)

    def test_wraparound_detected(self):
        pulse = timedomain.PulseEnvelope.gaussian(OMEGA0, sigma_t=10.0, samples=1024)
        grid = pulse.fft_grid()
        span = pulse.times[-1] - pulse.times[0]
        resp = spectral.ComplexResponse(
            grid, np.exp(1j * grid.detunings * 0.45 * span), np.zeros(grid.count)
        )
        with pytest.raises(WraparoundDetectedError):
            timedomain.propagate_spectral(resp, pulse)


class TestFrontCausality:
    def test_opaque_stack_respects_the_front(self, front_stack):
        result = timedomain.front_causality(front_stack, OMEGA0)
        assert result.front_time == pytest.approx(front_stack.total_length)
        assert result.pre_front_fraction < 1e-4
        tau_g = photonic.group_delay(front_stack, OMEGA0)
        assert tau_g < front_stack.total_length

    def test_vacuum_control_floor(self, front_stack):
        width = photonic.find_stopband(front_stack, OMEGA0).width
        control = timedomain.front_causality(
            photonic.LayeredStack.vacuum_slab(front_stack.total_length),
            OMEGA0,
            stopband_width=width,
        )
        assert control.pre_front_fraction < 1e-8

    def test_doubling_band_does_not_increase_fraction(self, front_stack):
        base = timedomain.front_causality(front_stack, OMEGA0, band_factor=50.0)
        doubled = timedomain.front_causality(front_stack, OMEGA0, band_factor=100.0)
        assert doubled.pre_front_fraction <= base.pre_front_fraction

    def test_band_factor_below_fifty_rejected(self, front_stack):
        with pytest.raises(BandTooNarrowError):
            timedomain.front_causality(front_stack, OMEGA0, band_factor=20.0)

    def test_wide_stopband_cannot_be_covered(self, skc_stack):
        # the SKC-regime stopband is ~27% of the carrier; 50x does not fit
        with pytest.raises(BandTooNarrowError):
            timedomain.front_causality(skc_stack, OMEGA0)


class TestTdseOracle:
    def test_packet_validation(self):
        with pytest.raises(ValueError):
            timedomain.GaussianPacket(k0=0.0, delta_k=0.1, x0=-10.0)
        with pytest.raises(ValueError):
            timedomain.GaussianPacket(k0=1.0, delta_k=0.1, x0=1.0)

    def test_quasistatic_precondition(self):
        barrier = quantum.QuantumBarrier(2.0, 1.0)
        packet = timedomain.GaussianPacket(k0=1.0, delta_k=0.5, x0=-50.0)
        with pytest.raises(ValueError):
            timedomain.tdse_oracle(barrier, packet)

    def test_overlap_precondition(self):
        barrier = quantum.QuantumBarrier(2.0, 1.0)
        kappa = np.sqrt(2.0)
        packet = timedomain.GaussianPacket(k0=1.0, delta_k=0.02 * kappa, x0=-10.0)
        with pytest.raises(ValueError):
            timedomain.tdse_oracle(barrier, packet)

    def test_free_run_measures_zero_delay(self):
        # negligible barrier: both runs identical, delay must vanish within dt
        barrier = quantum.QuantumBarrier(1e-12, 1.0)
        packet = timedomain.GaussianPacket(k0=1.0, delta_k=0.1, x0=-40.0)
        result = timedomain.tdse_oracle(barrier, packet)
        dx = 1.0 / 20.0
        assert abs(result.delay) < dx * dx
        assert result.norm_error < 1e-8
        assert result.boundary_leak < 1e-10

    def test_anchored_grid_spans_the_barrier_in_whole_cells(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            barrier = quantum.QuantumBarrier(rng.uniform(0.1, 20.0), rng.uniform(0.01, 10.0))
            dx_max = 1.0 / (20.0 * rng.uniform(0.2, 5.0))
            x_lo = rng.uniform(-300.0, -1.0)
            x_hi = barrier.length + rng.uniform(1.0, 300.0)
            x, potential, dx = timedomain._anchored_grid(barrier, x_lo, x_hi, dx_max)
            assert dx <= dx_max
            assert x[0] <= x_lo + 1e-9 * dx and x[-1] >= x_hi - 1e-9 * dx
            assert np.min(np.abs(x)) == 0.0
            assert np.sum(potential) * dx == pytest.approx(
                barrier.v0 * barrier.length, rel=1e-12
            )
            # any raw lower end inside the first cell lays out the same grid
            moved = timedomain._anchored_grid(
                barrier, x[0] + rng.uniform(0.01, 0.99) * dx, x_hi, dx_max
            )
            assert np.array_equal(moved[0], x)
            assert np.array_equal(moved[1], potential)
            assert moved[2] == dx

    def test_zero_length_barrier_has_no_potential(self):
        barrier = quantum.QuantumBarrier(3.0, 0.0)
        x, potential, dx = timedomain._anchored_grid(barrier, -5.0, 5.0, 0.1)
        assert dx == 0.1
        assert not potential.any()

    def small_packet(self):
        # k0 = 1 against a kappa L = 5 barrier (kappa = 2), delta_k = 0.05 kappa;
        # dx = 0.1 keeps each oracle call well under a second
        barrier = quantum.QuantumBarrier(2.5, 2.5)
        return barrier, timedomain.GaussianPacket(k0=1.0, delta_k=0.1, x0=-40.0)

    def test_richardson_pair_converges_at_second_order(self):
        barrier, packet = self.small_packet()
        fine = timedomain.tdse_oracle(barrier, packet, dx=0.1, dt=0.08)
        coarse = timedomain.tdse_oracle(barrier, packet, dx=0.1, dt=0.16)
        assert coarse.dt_error / fine.dt_error == pytest.approx(4.0, abs=0.2)
        # unextrapolated delays would differ by about fine.dt_error itself
        assert abs(fine.delay - coarse.delay) <= 0.1 * fine.dt_error

    def test_detector_window_is_converged(self, monkeypatch):
        barrier, packet = self.small_packet()
        base = timedomain.tdse_oracle(barrier, packet, dx=0.1)
        monkeypatch.setattr(timedomain, "_WINDOW_WIDTHS", 10.0)
        wider = timedomain.tdse_oracle(barrier, packet, dx=0.1)
        assert abs(wider.delay - base.delay) < 1e-5 * abs(base.delay)

    # a small box: 1700 cells, 3200 steps of dt = dx^2, records every 7th
    # step (so the last stretch is partial), a k0 = 3 packet at x0 = -12
    # and a V0 = 6, L = 0.5 barrier with a detector at x = 6
    DX, DT, STEPS, EVERY, EDGE = 0.05, 0.0025, 3200, 7, 40

    def small_box(self):
        x = np.arange(-45.0, 40.0, self.DX)
        psi0 = np.exp(-((x + 12.0) ** 2) / 16.0 + 3j * x)
        psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * self.DX)
        detector = int(np.argmin(np.abs(x - 6.0)))
        barrier = np.where((x >= 0.0) & (x <= 0.5), 6.0, 0.0)
        return psi0, detector, barrier

    def assert_runs_agree(self, advance, reference, psi0, detector, tol):
        layout = (psi0, detector, self.STEPS, self.EVERY, self.EDGE, self.DX)
        rec, norm, leak = timedomain._watched_run(advance, *layout)
        rec_ref, norm_ref, leak_ref = timedomain._watched_run(reference, *layout)
        # advancing from the last step to itself hands back the final psi
        psi = advance(self.STEPS, self.STEPS)[1]
        psi_ref = reference(self.STEPS, self.STEPS)[1]
        assert rec.size == rec_ref.size == self.STEPS // self.EVERY + 1
        assert np.max(np.abs(rec - rec_ref)) <= tol * np.max(np.abs(rec_ref))
        assert np.max(np.abs(psi - psi_ref)) <= tol * np.max(np.abs(psi_ref))
        assert norm == pytest.approx(norm_ref, abs=1e-12)
        # leaks far below the 1e-10 gate sit at roundoff, hence the floor
        assert leak == pytest.approx(leak_ref, rel=1e-6, abs=1e-18)

    def test_spectral_free_run_equals_stepping(self):
        psi0, detector, _ = self.small_box()
        free = np.zeros(psi0.size)
        self.assert_runs_agree(
            timedomain._free_run(psi0, self.DX, self.DT, detector, self.EVERY),
            stencil_run(psi0, free, self.DX, self.DT, detector, self.EVERY),
            psi0,
            detector,
            tol=1e-11,
        )

    def test_cayley_step_equals_stencil_step(self):
        psi0, detector, barrier = self.small_box()
        self.assert_runs_agree(
            timedomain._cayley_run(psi0, barrier, self.DX, self.DT, detector, self.EVERY),
            stencil_run(psi0, barrier, self.DX, self.DT, detector, self.EVERY),
            psi0,
            detector,
            tol=1e-12,
        )
