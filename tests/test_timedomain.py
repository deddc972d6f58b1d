"""Spectral pulse propagation, front causality, and the Schrodinger oracle."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import OMEGA0
from tunneltime import photonic, quantum, spectral, timedomain
from tunneltime.errors import (
    BandTooNarrowError,
    BoundaryContaminationError,
    NormDriftError,
    RecordTruncatedError,
    WraparoundDetectedError,
)


def ladder_packet(v0, width):
    """An E = 1, kappa L = 5 barrier and a packet of delta_k = width * kappa, k0 = sqrt(2).

    The packet starts 8 widths before the barrier; (8, 0.049) is the bench
    ``tdse`` packet and (2, 0.02) criterion 9's.
    """
    kappa = np.sqrt(2.0 * (v0 - 1.0))
    barrier = quantum.QuantumBarrier(v0, 5.0 / kappa)
    delta_k = width * kappa
    packet = timedomain.GaussianPacket(k0=np.sqrt(2.0), delta_k=delta_k, x0=-8.0 / (2.0 * delta_k))
    return barrier, packet


class SerialExecutor:
    """`ThreadPoolExecutor` stand-in whose ``submit`` runs the call at once, on the caller."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn())
        except Exception as exc:
            future.set_exception(exc)
        return future


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


def all_mode_run(psi0, dx, dt, detector, record_every):
    """Free Crank-Nicolson run over every sine mode, one full inverse DST per sample.

    Same ``advance(done, stop)`` contract as the oracle's runs: psi at step
    s is DST(e^{-i theta s} DST(psi0)) with theta_m = 2 arctan(dt lambda_m / 2).
    """
    n = psi0.size
    modes = timedomain._dst1(psi0)
    lam = 2.0 * np.sin(0.5 * np.pi * np.arange(1, n + 1) / (n + 1)) ** 2 / dx ** 2
    theta = 2.0 * np.arctan(0.5 * dt * lam)

    def psi_at(step):
        return timedomain._dst1(np.exp(-1j * theta * step) * modes)

    def advance(done, stop):
        first = (done // record_every + 1) * record_every
        samples = [psi_at(step)[detector] for step in range(first, stop + 1, record_every)]
        return samples, psi_at(stop)

    return advance


def closed_form_lag(barrier, packet):
    """Correlation lag the closed form predicts for a Gaussian packet.

    The detector records' cross-correlation is
    C(tau) = integral |phi(k)|^2 t(k) e^{-ikL} e^{-iE tau} dk / k, with
    |phi(k)|^2 = exp(-(k - k0)^2 / (2 delta_k^2)), E = k^2 / 2 and t the
    exit-anchored amplitude; the lag is the tau that maximises |C|, where
    d|C|^2/dtau = 2 Re(conj(C) dC/dtau) changes sign.
    """
    from scipy.optimize import brentq

    k0, delta_k = packet.k0, packet.delta_k
    k = np.linspace(max(k0 - 12.0 * delta_k, 1e-3 * k0), k0 + 12.0 * delta_k, 20001)
    energy = 0.5 * k ** 2
    t = quantum._closed_form(barrier, energy)[0]
    weight = np.exp(-0.5 * ((k - k0) / delta_k) ** 2) * t * np.exp(-1j * k * barrier.length) / k

    def slope(tau):
        phased = weight * np.exp(-1j * energy * tau)
        return float(np.real(np.conj(phased.sum()) * np.sum(-1j * energy * phased)))

    # the monochromatic delay tau_g - L/v brackets the packet's lag
    guess = quantum.analytic_group_delay(barrier, 0.5 * k0 ** 2) - barrier.length / k0
    return brentq(slope, guess - 0.1, guess + 0.1, xtol=1e-14)


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


# carrier of the vacuum-slab delay lines: at OMEGA0 the FFT bands of their
# records (8192 samples at sigma_t = 40, 1024 at sigma_t = 10) reach omega <= 0
DELAY_LINE_CARRIER = 30.0


class TestPropagateSpectral:
    def test_identity_response(self):
        pulse = timedomain.PulseEnvelope.gaussian(OMEGA0, sigma_t=40.0, samples=2048)
        result = timedomain.propagate_spectral(photonic.LayeredStack(()), pulse)
        np.testing.assert_allclose(result.a_out, pulse.a, atol=1e-14)
        assert result.peak_delay == pytest.approx(0.0, abs=1e-9)
        assert result.width_ratio == pytest.approx(1.0, abs=1e-12)
        assert result.quasistatic_deviation == pytest.approx(0.0, abs=1e-13)

    def test_pure_delay_line(self):
        pulse = timedomain.PulseEnvelope.gaussian(DELAY_LINE_CARRIER, sigma_t=40.0, samples=8192)
        tau = 3.7
        result = timedomain.propagate_spectral(photonic.LayeredStack.vacuum_slab(tau), pulse)
        assert result.peak_delay == pytest.approx(tau, abs=1e-6)
        assert result.quasistatic_deviation < 1e-10
        assert result.width_ratio == pytest.approx(1.0, abs=1e-9)

    def test_band_reaching_nonpositive_frequencies_rejected(self):
        # at OMEGA0 the 8192-sample record's band reaches past omega = 0
        pulse = timedomain.PulseEnvelope.gaussian(OMEGA0, sigma_t=40.0, samples=8192)
        with pytest.raises(BandTooNarrowError):
            timedomain.propagate_spectral(photonic.LayeredStack.vacuum_slab(3.7), pulse)

    def test_quasistatic_transit_of_opaque_stack(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        pulse = timedomain.PulseEnvelope.gaussian_with_bandwidth(
            OMEGA0, 0.01 * band.width, samples=1024
        )
        result = timedomain.propagate_spectral(skc_stack, pulse)
        tau_g = photonic.group_delay(skc_stack, OMEGA0)
        assert result.tau_g == tau_g
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
        result = timedomain.propagate_spectral(skc_stack, pulse)
        balance = (result.energy_transmitted + result.energy_reflected) / result.energy_in
        assert balance == pytest.approx(1.0, abs=1e-8)

    def test_deviation_shrinks_with_bandwidth(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        deviations = []
        for fraction in (0.04, 0.02, 0.01, 0.005):
            pulse = timedomain.PulseEnvelope.gaussian_with_bandwidth(
                OMEGA0, fraction * band.width, samples=1024
            )
            deviations.append(
                timedomain.propagate_spectral(skc_stack, pulse).quasistatic_deviation
            )
        assert all(a >= b for a, b in zip(deviations, deviations[1:]))

    def test_wraparound_detected(self):
        pulse = timedomain.PulseEnvelope.gaussian(DELAY_LINE_CARRIER, sigma_t=10.0, samples=1024)
        span = pulse.times[-1] - pulse.times[0]
        with pytest.raises(WraparoundDetectedError):
            timedomain.propagate_spectral(
                photonic.LayeredStack.vacuum_slab(0.45 * span), pulse
            )


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

    def test_richardson_ladder_converges_at_fourth_order(self):
        barrier, packet = self.small_packet()
        fine = timedomain.tdse_oracle(barrier, packet, dx=0.1, dt=0.08)
        coarse = timedomain.tdse_oracle(barrier, packet, dx=0.1, dt=0.16)
        # dt_error compares two second-order extrapolations, so it shrinks as
        # dt^4 (measured ratio 15.66)
        assert coarse.dt_error / fine.dt_error == pytest.approx(16.0, abs=0.8)
        # the two calls record on different clocks, so their delays need not
        # agree to fine.dt_error; second-order delays would differ by about
        # coarse.dt_error, and the ladder's differ by 0.055 of it (measured
        # 1.04e-6), so 0.15 leaves a 2.7x margin
        assert abs(fine.delay - coarse.delay) <= 0.15 * coarse.dt_error

    @pytest.mark.parametrize(
        "v0, width, bound",
        [
            # the bench tdse packet: measured gap 1.2e-5, so 1e-4 leaves an 8x margin
            pytest.param(8.0, 0.049, 1e-4, id="bench"),
            # criterion 9's packet: measured gap 1.8e-7, so 1e-6 leaves a 5x
            # margin; its dx/2 run takes about 4 s
            pytest.param(2.0, 0.02, 1e-6, id="criterion-9", marks=pytest.mark.slow),
        ],
    )
    def test_dx_extrapolation_matches_closed_form_lag(self, v0, width, bound):
        # the oracle at dx and dx/2, extrapolated in dx, against the lag the
        # closed form predicts for the whole packet
        barrier, packet = ladder_packet(v0, width)
        dx = 1.0 / (20.0 * packet.k0)
        # the barrier spans twice as many whole cells at dx/2, so the grid halves
        assert math.ceil(barrier.length / (0.5 * dx)) == 2 * math.ceil(barrier.length / dx)
        coarse = timedomain.tdse_oracle(barrier, packet).delay
        fine = timedomain.tdse_oracle(barrier, packet, dx=0.5 * dx).delay
        extrapolated = fine + (fine - coarse) / 3.0
        assert abs(extrapolated - closed_form_lag(barrier, packet)) < bound

    def test_detector_window_is_converged(self, monkeypatch):
        barrier, packet = self.small_packet()
        base = timedomain.tdse_oracle(barrier, packet, dx=0.1)
        monkeypatch.setattr(timedomain, "_WINDOW_WIDTHS", 10.0)
        wider = timedomain.tdse_oracle(barrier, packet, dx=0.1)
        assert abs(wider.delay - base.delay) < 1e-5 * abs(base.delay)

    def test_record_cut_short_raises(self):
        # small_packet's records end near 1e-5 of their peak power and pass;
        # a strongly dispersive packet (sigma_x k0 = 2, inside the quasi-static
        # precondition) keeps sending slow components past the detector, and
        # its free record ends at 8.7e-3 of peak power
        barrier, packet = self.small_packet()
        timedomain.tdse_oracle(barrier, packet, dx=0.1)
        dispersive = timedomain.GaussianPacket(k0=1.0, delta_k=0.25, x0=-16.0)
        with pytest.raises(RecordTruncatedError, match="free record"):
            timedomain.tdse_oracle(quantum.QuantumBarrier(13.0, 0.4), dispersive)

    @pytest.mark.parametrize("case", ["small", "bench"])
    def test_two_threads_give_the_serial_result(self, monkeypatch, case):
        barrier, packet = self.small_packet() if case == "small" else ladder_packet(8.0, 0.049)
        dx = 0.1 if case == "small" else None
        threaded = timedomain.tdse_oracle(barrier, packet, dx=dx)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialExecutor)
        serial = timedomain.tdse_oracle(barrier, packet, dx=dx)
        assert dataclasses.asdict(threaded) == dataclasses.asdict(serial)

    @pytest.mark.parametrize(
        "failing, raised, finished",
        [
            pytest.param({4, 2, 1}, 4, set(), id="all"),
            pytest.param({1}, 1, {4, 2}, id="dt-only"),
            pytest.param({2, 1}, 2, {4}, id="2dt-and-dt"),
            pytest.param({2}, 2, {4, 1}, id="2dt-only"),
        ],
    )
    def test_failing_rungs_raise_the_serial_error(self, monkeypatch, failing, raised, finished):
        # rungs named by their step in units of dt; each failing rung's pair
        # raises with that step in its message.  The worker runs 4 dt, then
        # 2 dt, and stops at its first error, as a serial ladder would; the
        # caller runs dt, and a thread's rung is the one whose barrier run it
        # started last
        on_thread = threading.local()
        done = set()
        cayley_run, pair_times = timedomain._cayley_run, timedomain._pair_times

        def tagged_cayley_run(psi0, potential, dx, dt, detector, record_every):
            on_thread.step = 4 // record_every
            return cayley_run(psi0, potential, dx, dt, detector, record_every)

        def failing_pair_times(*args):
            if on_thread.step in failing:
                raise RecordTruncatedError(f"rung at step {on_thread.step} dt")
            times = pair_times(*args)
            done.add(on_thread.step)
            return times

        monkeypatch.setattr(timedomain, "_cayley_run", tagged_cayley_run)
        monkeypatch.setattr(timedomain, "_pair_times", failing_pair_times)
        barrier, packet = self.small_packet()
        threads = threading.active_count()
        with pytest.raises(RecordTruncatedError, match=f"step {raised} dt$") as error:
            timedomain.tdse_oracle(barrier, packet, dx=0.1)
        assert error.value.__context__ is None  # no other rung's error in its traceback
        assert done == finished
        assert threading.active_count() == threads

    @pytest.mark.parametrize("clock", [0.2, 0.35])
    @pytest.mark.parametrize("shift", [0.123456, 1.7777, -2.6101])
    def test_band_limited_lag_recovers_a_known_shift(self, clock, shift):
        # chirped Gaussian records of unit power width on a fast carrier; the
        # barrier record is the free one delayed by ``shift``, so |corr| peaks
        # at exactly that lag
        t = np.arange(-12.0, 12.0 + shift, clock)

        def record(time):
            return np.exp(-0.25 * time ** 2 * (1.0 - 3.0j) - 40.0j * time)

        corr = np.correlate(record(t - shift), record(t), mode="full")
        lags = (np.arange(corr.size) - (t.size - 1)) * clock
        assert abs(timedomain._band_limited_peak(lags, corr) - shift) < 1e-6
        # the 3-point parabola on the same clock is off by 2.5e-4 or more
        assert abs(spectral.locate_peak(lags, np.abs(corr)) - shift) > 1e-4

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
            timedomain._free_run(
                psi0, self.DX, self.DT, detector, self.EVERY, self.EDGE,
                timedomain._sine_band(psi0),
            ),
            stencil_run(psi0, free, self.DX, self.DT, detector, self.EVERY),
            psi0,
            detector,
            tol=1e-11,
        )

    def test_band_limited_free_run_equals_all_modes(self):
        psi0, detector, _ = self.small_box()
        band = timedomain._sine_band(psi0)
        assert band[1].size < psi0.size // 8
        self.assert_runs_agree(
            timedomain._free_run(psi0, self.DX, self.DT, detector, self.EVERY, self.EDGE, band),
            all_mode_run(psi0, self.DX, self.DT, detector, self.EVERY),
            psi0,
            detector,
            tol=1e-12,
        )

    def test_broadband_state_keeps_every_mode(self):
        _, detector, _ = self.small_box()
        rng = np.random.default_rng(3)
        psi0 = rng.standard_normal(1700) + 1j * rng.standard_normal(1700)
        lo, modes = timedomain._sine_band(psi0)
        assert (lo, modes.size) == (0, psi0.size)
        # a broadband state reaches the edges at once, so compare the runs
        # stop by stop instead of through the leak check
        banded = timedomain._free_run(
            psi0, self.DX, self.DT, detector, self.EVERY, self.EDGE, (lo, modes)
        )
        reference = all_mode_run(psi0, self.DX, self.DT, detector, self.EVERY)
        for done, stop in ((0, 30), (30, 100), (100, 100)):
            rec, rows = banded(done, stop)
            rec_ref, psi_ref = reference(done, stop)
            if done < stop:
                psi_ref = np.concatenate([psi_ref[: self.EDGE], psi_ref[-self.EDGE :]])
            scale = np.max(np.abs(psi_ref))
            assert len(rec) == len(rec_ref)
            assert np.max(np.abs(np.subtract(rec, rec_ref)), initial=0.0) <= 1e-12 * scale
            assert rows.shape == psi_ref.shape
            assert np.max(np.abs(rows - psi_ref)) <= 1e-12 * scale

    def still_run(self, psi0, detector, leak_stop=None, final_scale=1.0):
        """An ``advance`` that holds psi0 still, but puts 1e-9 of probability
        in the last cell at the stop ``leak_stop`` and scales the final psi
        by ``final_scale``."""

        def advance(done, stop):
            psi = psi0.copy()
            if stop == leak_stop and done < stop:
                psi[-1] = math.sqrt(1e-9 / self.DX)
            if done == stop:
                psi *= final_scale
            return [psi0[detector]] * (stop // self.EVERY - done // self.EVERY), psi

        return advance

    def test_edge_probability_at_one_stop_is_contamination(self):
        psi0, detector, _ = self.small_box()
        layout = (psi0, detector, self.STEPS, self.EVERY, self.EDGE, self.DX)
        rec, _, leak = timedomain._watched_run(self.still_run(psi0, detector), *layout)
        assert rec.size == self.STEPS // self.EVERY + 1 and leak < 1e-20
        # the stops fall every 50 steps; one of them, mid-run, leaks
        with pytest.raises(BoundaryContaminationError, match="domain edges"):
            timedomain._watched_run(self.still_run(psi0, detector, leak_stop=1600), *layout)

    def test_final_norm_off_by_more_than_1e_8_is_drift(self):
        psi0, detector, _ = self.small_box()
        layout = (psi0, detector, self.STEPS, self.EVERY, self.EDGE, self.DX)
        # a scale of 1 + e changes the norm by about 2 e
        _, norm, _ = timedomain._watched_run(
            self.still_run(psi0, detector, final_scale=1.0 + 2e-9), *layout
        )
        assert norm == pytest.approx(4e-9, rel=1e-3)
        with pytest.raises(NormDriftError, match="norm drifted"):
            timedomain._watched_run(
                self.still_run(psi0, detector, final_scale=1.0 + 1e-8), *layout
            )

    def free_pair(self, psi0, detector, meter=lambda advance: advance):
        """One free-run pair as the oracle runs it: steps dt and 2 dt over the
        same time, sharing one band."""
        band = timedomain._sine_band(psi0)
        for step, steps in ((self.DT, self.STEPS), (2 * self.DT, self.STEPS // 2)):
            advance = timedomain._free_run(
                psi0, self.DX, step, detector, self.EVERY, self.EDGE, band
            )
            timedomain._watched_run(
                meter(advance), psi0, detector, steps, self.EVERY, self.EDGE, self.DX
            )

    def test_free_pair_stops_allocate_no_grid_transform(self):
        # a full-length transform at a check stop allocates at least 4 grid
        # vectors (the odd extension and its FFT); each stop must stay under
        # 2 of them, and the whole pair under 10
        psi0, detector, _ = self.small_box()
        grid_vector = psi0.nbytes
        timedomain._dst1(psi0)  # numpy caches the FFT plan outside the count
        stop_peaks = []

        def meter(advance):
            def metered(done, stop):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = advance(done, stop)
                if done < stop:
                    stop_peaks.append(tracemalloc.get_traced_memory()[1] - held)
                return out

            return metered

        tracemalloc.start()
        try:
            self.free_pair(psi0, detector)
            pair_peak = tracemalloc.get_traced_memory()[1]
            self.free_pair(psi0, detector, meter)
        finally:
            tracemalloc.stop()
        assert len(stop_peaks) == 2 * 64
        assert max(stop_peaks) < 2 * grid_vector
        assert pair_peak < 10 * grid_vector

    def test_cayley_step_equals_stencil_step(self):
        psi0, detector, barrier = self.small_box()
        self.assert_runs_agree(
            timedomain._cayley_run(psi0, barrier, self.DX, self.DT, detector, self.EVERY),
            stencil_run(psi0, barrier, self.DX, self.DT, detector, self.EVERY),
            psi0,
            detector,
            tol=1e-12,
        )
