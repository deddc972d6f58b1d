"""Spectral pulse propagation, front causality, and the Schrodinger oracle."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import LAMBDA0, OMEGA0
from tunneltime import photonic, quantum, spectral, timedomain
from tunneltime.errors import (
    BandTooNarrowError,
    BoundaryContaminationError,
    NormDriftError,
    NotInStopbandError,
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


def edge_probability(psi, edge_cells, dx):
    """Probability in psi's first and last ``edge_cells`` entries."""
    return (np.sum(np.abs(psi[:edge_cells]) ** 2) + np.sum(np.abs(psi[-edge_cells:]) ** 2)) * dx


def stencil_run(psi0, potential, dx, dt, detector, every, steps, edge_cells):
    """Crank-Nicolson reference with the right side B psi applied as a stencil.

    Returns what the oracle's runs return: psi[detector] at step 0 and at
    every ``every``-th step, the final psi and the largest edge probability
    at the leak-check stops.  A psi' = B psi with A = I + i dt H / 2 solved
    by gttrs and B = I - i dt H / 2 built cell by cell.
    """
    from scipy.linalg import lapack

    a_main = (1.0 + 0.5j * dt * (1.0 / dx ** 2 + potential)).astype(complex)
    a_off = np.full(psi0.size - 1, -0.25j * dt / dx ** 2)
    b_main = 2.0 - a_main
    b_off = 0.25j * dt / dx ** 2
    gttrf, gttrs = lapack.get_lapack_funcs(("gttrf", "gttrs"), (a_main, psi0))
    dl, d, du, du2, ipiv, _ = gttrf(a_off, a_main, a_off)
    stops = timedomain._stops(steps)
    psi, records, leak = psi0, [psi0[detector]], 0.0
    for step in range(1, steps + 1):
        rhs = b_main * psi
        rhs[1:-1] += b_off * (psi[2:] + psi[:-2])
        rhs[0] += b_off * psi[1]
        rhs[-1] += b_off * psi[-2]
        psi, _ = gttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)
        if step % every == 0:
            records.append(psi[detector])
        if step in stops:
            leak = max(leak, edge_probability(psi, edge_cells, dx))
    return np.asarray(records), psi, leak


def all_mode_run(psi0, dx, dt, detector, every, steps, edge_cells):
    """Free Crank-Nicolson run over every sine mode, one full inverse DST per state.

    Returns what the oracle's runs return; psi at step s is
    DST(e^{-i theta s} DST(psi0)) with theta_m = 2 arctan(dt lambda_m / 2).
    """
    n = psi0.size
    modes = timedomain._dst1(psi0)
    lam = 2.0 * np.sin(0.5 * np.pi * np.arange(1, n + 1) / (n + 1)) ** 2 / dx ** 2
    theta = 2.0 * np.arctan(0.5 * dt * lam)

    def psi_at(step):
        return timedomain._dst1(np.exp(-1j * theta * step) * modes)

    records = [psi_at(step)[detector] for step in range(0, steps + 1, every)]
    leak = max(edge_probability(psi_at(stop), edge_cells, dx) for stop in timedomain._stops(steps))
    return np.asarray(records), psi_at(steps), leak


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


# carrier of the vacuum-slab delay lines: at OMEGA0 the FFT bands of their
# records (8192 samples at sigma_t = 40, 1024 at sigma_t = 10) reach omega <= 0
DELAY_LINE_CARRIER = 30.0


def bandwidth_of(sigma_t):
    """Power-spectrum FWHM of the Gaussian envelope exp(-t^2 / (2 sigma_t^2))."""
    return 2.0 * np.sqrt(np.log(2.0)) / sigma_t


def measured_bandwidth(times, a):
    """FWHM of the power spectrum |A~(W)|^2, half-max crossings interpolated."""
    power = np.abs(np.fft.fftshift(np.fft.ifft(a))) ** 2
    detunings = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(times.size, times[1] - times[0]))
    half = 0.5 * float(np.max(power))
    above = np.nonzero(power >= half)[0]
    lo, hi = int(above[0]), int(above[-1])
    assert 0 < lo and hi < times.size - 1, "half maximum not crossed inside the band"

    def crossing(inside, outside):
        frac = (half - power[outside]) / (power[inside] - power[outside])
        return detunings[outside] + frac * (detunings[inside] - detunings[outside])

    return crossing(hi, hi + 1) - crossing(lo, lo - 1)


def vacuum_record(bandwidth, samples):
    """The input record ``propagate_spectral`` builds, read off a stackless run."""
    return timedomain.propagate_spectral(
        photonic.LayeredStack(()), DELAY_LINE_CARRIER, bandwidth, samples
    )


class TestPulseEnvelope:
    def test_gaussian_record_is_clean(self):
        result = vacuum_record(0.05, 1024)
        times, a_in = result.times, result.a_in
        assert times.size == a_in.size == 1024
        assert times[512] == 0.0
        steps = np.diff(times)
        assert np.max(np.abs(steps - steps[0])) <= 1e-9 * steps[0]
        assert np.max(np.abs(a_in)) == 1.0
        assert max(abs(a_in[0]), abs(a_in[-1])) <= 1e-12

    @pytest.mark.parametrize("samples", [8, 9, 1024, 1025, 4096, 4097])
    def test_input_peak_is_exactly_zero(self, samples):
        # peak_delay is the output's peak time alone: the input record's
        # parabola vertex is +0.0, since sample n//2 sits at t = 0 between
        # bit-equal neighbours
        result = vacuum_record(0.05, samples)
        peak = spectral.locate_peak(result.times, np.abs(result.a_in) ** 2)
        assert peak == 0.0 and math.copysign(1.0, peak) == 1.0

    def test_bandwidth_convention(self):
        result = vacuum_record(0.05, 4096)
        assert measured_bandwidth(result.times, result.a_in) == pytest.approx(0.05, rel=0.02)

    @pytest.mark.parametrize(
        "bandwidth, samples",
        [(0.05, timedomain.MIN_PULSE_SAMPLES - 1), (0.0, 1024), (-0.05, 1024)],
        ids=["too-few-samples", "zero-bandwidth", "negative-bandwidth"],
    )
    def test_rejects_bad_record_before_marching(self, monkeypatch, bandwidth, samples):
        def no_march(stack, omegas):
            raise AssertionError("a bad record reached the stack")

        monkeypatch.setattr(photonic, "stack_t_r_samples", no_march)
        with pytest.raises(ValueError):
            vacuum_record(bandwidth, samples)

    def test_fewest_samples_run(self):
        result = vacuum_record(0.05, timedomain.MIN_PULSE_SAMPLES)
        assert result.times.size == timedomain.MIN_PULSE_SAMPLES


class TestPropagateSpectral:
    def test_identity_response(self):
        result = timedomain.propagate_spectral(
            photonic.LayeredStack(()), OMEGA0, bandwidth_of(40.0), 2048
        )
        np.testing.assert_allclose(result.a_out, result.a_in, atol=1e-14)
        assert result.peak_delay == pytest.approx(0.0, abs=1e-9)
        assert result.width_ratio == pytest.approx(1.0, abs=1e-12)
        assert result.quasistatic_deviation == pytest.approx(0.0, abs=1e-13)

    def test_pure_delay_line(self):
        tau = 3.7
        result = timedomain.propagate_spectral(
            photonic.LayeredStack.vacuum_slab(tau), DELAY_LINE_CARRIER, bandwidth_of(40.0), 8192
        )
        assert result.peak_delay == pytest.approx(tau, abs=1e-6)
        assert result.quasistatic_deviation < 1e-10
        assert result.width_ratio == pytest.approx(1.0, abs=1e-9)

    def test_band_reaching_nonpositive_frequencies_rejected(self):
        # at OMEGA0 the 8192-sample record's band reaches past omega = 0
        with pytest.raises(BandTooNarrowError):
            timedomain.propagate_spectral(
                photonic.LayeredStack.vacuum_slab(3.7), OMEGA0, bandwidth_of(40.0), 8192
            )

    def test_quasistatic_transit_of_opaque_stack(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        result = timedomain.propagate_spectral(skc_stack, OMEGA0, 0.01 * band.width, 1024)
        tau_g = photonic.group_delay(skc_stack, OMEGA0)
        assert result.tau_g == tau_g
        assert result.peak_delay == pytest.approx(tau_g, rel=0.01)
        assert abs(result.width_ratio - 1.0) < 0.01
        assert result.quasistatic_deviation < 0.01
        # transmitted peak stays behind the vacuum front transit
        assert result.peak_delay < skc_stack.total_length

    def test_energy_bookkeeping(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        result = timedomain.propagate_spectral(skc_stack, OMEGA0, 0.02 * band.width, 1024)
        assert result.energy_balance == pytest.approx(1.0, abs=1e-8)

    def test_energy_balance_weighs_the_exit_medium(self):
        # unweighted, the transmitted energy of this lossless stack leaves the
        # balance at 0.973: the exit medium carries n_out |E|^2 per |E|^2
        stack = photonic.LayeredStack.quarter_wave(2.0, 1.5, 11, LAMBDA0, n_out=1.5)
        band = photonic.find_stopband(stack, OMEGA0)
        result = timedomain.propagate_spectral(stack, OMEGA0, 0.01 * band.width, 1024)
        assert abs(result.energy_balance - 1.0) < 1e-12

    def test_deviation_shrinks_with_bandwidth(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        deviations = [
            timedomain.propagate_spectral(
                skc_stack, OMEGA0, fraction * band.width, 1024
            ).quasistatic_deviation
            for fraction in (0.04, 0.02, 0.01, 0.005)
        ]
        assert all(a >= b for a, b in zip(deviations, deviations[1:]))

    def test_wraparound_detected(self):
        bandwidth = bandwidth_of(10.0)
        times = vacuum_record(bandwidth, 1024).times
        span = times[-1] - times[0]
        with pytest.raises(WraparoundDetectedError):
            timedomain.propagate_spectral(
                photonic.LayeredStack.vacuum_slab(0.45 * span), DELAY_LINE_CARRIER, bandwidth, 1024
            )


class TestFrontCausality:
    def test_opaque_stack_respects_the_front(self, front_stack):
        result = timedomain.front_causality(front_stack, OMEGA0)
        assert result.front_time == pytest.approx(front_stack.total_length)
        assert result.pre_front_fraction < 1e-4
        tau_g = photonic.group_delay(front_stack, OMEGA0)
        assert tau_g < front_stack.total_length

    def test_vacuum_control_floor(self, front_stack):
        assert timedomain.front_causality(front_stack, OMEGA0).vacuum_floor < 1e-8

    def test_passband_carrier_raises_before_any_synthesis(self, front_stack, monkeypatch):
        def no_synthesis(stack, omegas):
            raise AssertionError("a passband carrier reached the front synthesis")

        monkeypatch.setattr(photonic, "stack_t_r_samples", no_synthesis)
        with pytest.raises(NotInStopbandError):
            timedomain.front_causality(front_stack, 0.95 * OMEGA0)

    @pytest.mark.parametrize(
        "n_cycles, hold_cycles", [(0.0, 60.0), (-1.0, 60.0), (24.0, -1.0)],
        ids=["no-rise", "negative-rise", "negative-hold"],
    )
    def test_ramp_checked_before_the_stopband_search(self, front_stack, n_cycles, hold_cycles):
        # at a passband carrier the ramp's ValueError wins over NotInStopbandError
        with pytest.raises(ValueError):
            timedomain.front_causality(front_stack, 0.95 * OMEGA0, n_cycles, hold_cycles)

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


def five_smooth_at_least(counts: np.ndarray) -> np.ndarray:
    """Smallest 2^a 3^b 5^c >= each count, by dividing out 2, 3 and 5 from every integer."""
    rest = np.arange(2 * int(np.max(counts)) + 1)
    for p in (2, 3, 5):
        for _ in range(rest.size.bit_length()):
            rest = np.where(rest % p, rest, rest // p)
    smooth = np.flatnonzero(rest == 1)
    return smooth[np.searchsorted(smooth, counts)]


class TestFrontRecord:
    """The synthesis record grows until the stack's response is resolved on it."""

    def test_fft_length_is_the_smallest_five_smooth_length(self):
        counts = np.arange(1, 20001)
        expected = five_smooth_at_least(counts).tolist()
        assert [timedomain._fft_length(int(c)) for c in counts] == expected

    def test_shipped_stack_takes_one_record(self, front_stack, monkeypatch):
        marched, sample = [], photonic.stack_t_r_samples

        def counted(stack, omegas):
            marched.append((len(stack.layers), len(omegas)))
            return sample(stack, omegas)

        monkeypatch.setattr(photonic, "stack_t_r_samples", counted)
        result = timedomain.front_causality(front_stack, OMEGA0)
        assert result.samples == 4320
        # one march of the stack; the vacuum control is e^{i omega L}
        assert marched == [(373, 4320)]

    def test_vacuum_control_is_the_vacuum_slab_march(self, front_stack, monkeypatch):
        grids, sample = [], photonic.stack_t_r_samples

        def recorded(stack, omegas):
            grids.append(omegas)
            return sample(stack, omegas)

        monkeypatch.setattr(photonic, "stack_t_r_samples", recorded)
        timedomain.front_causality(front_stack, OMEGA0)
        (omegas,) = grids
        length = front_stack.total_length
        marched, _ = sample(photonic.LayeredStack.vacuum_slab(length), omegas)
        assert np.max(np.abs(marched - np.exp(1j * length * omegas))) <= 1e-15

    def test_odd_record_is_stepped_in_frequency_order(self, front_stack, monkeypatch):
        # at 64 stopband widths the first record is 5625 = 3^2 5^4 samples, and
        # its bins pass the bound only when compared with their neighbours in
        # frequency, not across the highest-to-lowest wrap of FFT order
        odd = timedomain.front_causality(front_stack, OMEGA0, band_factor=64.0)
        assert odd.samples == 5625
        shortest = timedomain._fft_length
        monkeypatch.setattr(timedomain, "_fft_length", lambda count: shortest(4 * count))
        longer = timedomain.front_causality(front_stack, OMEGA0, band_factor=64.0)
        assert longer.samples >= 4 * odd.samples
        assert odd.pre_front_fraction == pytest.approx(longer.pre_front_fraction, rel=1e-4)

    @pytest.mark.parametrize(
        "n_hi, layers, expected",
        [(1.05, 373, 2.1635e-11), (1.01, 2001, 1.1483e-8), (1.02, 1001, 1.0676e-9)],
    )
    def test_band_edge_ring_out_is_resolved(self, n_hi, layers, expected):
        # a first record wraps stored energy into the pre-front window: at
        # 8192 samples the first two read 1.4e-6 and 2.4e-6 and the third trips
        # the end-of-record check; the expected fractions are those of far
        # longer records
        stack = photonic.LayeredStack.quarter_wave(n_hi, 1.0, layers, LAMBDA0)
        result = timedomain.front_causality(stack, OMEGA0)
        assert result.samples > 8192
        assert result.pre_front_fraction == pytest.approx(expected, rel=1e-4)

    def test_record_past_the_cap_raises(self, front_stack, monkeypatch):
        monkeypatch.setattr(timedomain, "_RECORD_CAP", 8192)
        stack = photonic.LayeredStack.quarter_wave(1.05, 1.0, 373, LAMBDA0)
        with pytest.raises(WraparoundDetectedError, match="at the cap of 8192 samples"):
            timedomain.front_causality(stack, OMEGA0)
        # the shipped stack's ramp, transit and ring-out need 4296 samples
        monkeypatch.setattr(timedomain, "_RECORD_CAP", 4096)
        with pytest.raises(WraparoundDetectedError, match="past the cap of 4096"):
            timedomain.front_causality(front_stack, OMEGA0)


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
        # raises with that step in its message.  The pool's two threads take
        # dt, 4 dt and 2 dt in that order and run each to its end; the results
        # are read coarsest first, as a serial ladder would meet them, and a
        # thread's rung is the one whose barrier run it started last
        on_thread = threading.local()
        done = set()
        cayley_run, pair_times = timedomain._cayley_run, timedomain._pair_times

        def tagged_cayley_run(psi0, potential, dx, dt, detector, every, steps, edge_cells):
            on_thread.step = 4 // every
            return cayley_run(psi0, potential, dx, dt, detector, every, steps, edge_cells)

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

    def test_final_norm_off_by_more_than_1e_8_is_drift(self, monkeypatch):
        # the rung checks both runs' final norms; scale one run's final psi
        # by 1 + e, which changes its norm by about 2 e
        def scaled(run, scale):
            def scaled_run(*args):
                records, psi, leak = run(*args)
                return records, scale * psi, leak

            return scaled_run

        barrier, packet = self.small_packet()
        for name in ("_cayley_run", "_free_run"):
            run = getattr(timedomain, name)
            monkeypatch.setattr(timedomain, name, scaled(run, 1.0 + 2e-9))
            result = timedomain.tdse_oracle(barrier, packet, dx=0.1)
            assert result.norm_error == pytest.approx(4e-9, rel=1e-3)
            monkeypatch.setattr(timedomain, name, scaled(run, 1.0 + 1e-8))
            with pytest.raises(NormDriftError, match="norm drifted"):
                timedomain.tdse_oracle(barrier, packet, dx=0.1)
            monkeypatch.setattr(timedomain, name, run)

    def test_leak_checks_stop_64_times_and_at_the_end(self):
        assert timedomain._stops(90) == list(range(1, 91))  # every step under 128 steps
        assert timedomain._stops(360) == list(range(5, 361, 5))  # 72 stops

    # a small box: 1700 cells, 3200 steps of dt = dx^2, records every 7th
    # step (so the last record falls before the last step), a k0 = 3 packet
    # at x0 = -12 and a V0 = 6, L = 0.5 barrier with a detector at x = 6
    DX, DT, STEPS, EVERY, EDGE = 0.05, 0.0025, 3200, 7, 40

    def small_box(self, x0=-12.0):
        x = np.arange(-45.0, 40.0, self.DX)
        psi0 = np.exp(-((x - x0) ** 2) / 16.0 + 3j * x)
        psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * self.DX)
        detector = int(np.argmin(np.abs(x - 6.0)))
        barrier = np.where((x >= 0.0) & (x <= 0.5), 6.0, 0.0)
        return psi0, detector, barrier

    def layout(self, detector, steps=None):
        """The runs' arguments after psi0 (and the potential), before the band."""
        steps = self.STEPS if steps is None else steps
        return self.DX, self.DT, detector, self.EVERY, steps, self.EDGE

    def assert_runs_agree(self, run, reference, tol):
        (rec, psi, leak), (rec_ref, psi_ref, leak_ref) = run, reference
        assert rec.size == rec_ref.size == self.STEPS // self.EVERY + 1
        assert np.max(np.abs(rec - rec_ref)) <= tol * np.max(np.abs(rec_ref))
        assert np.max(np.abs(psi - psi_ref)) <= tol * np.max(np.abs(psi_ref))

        def norm_error(psi):
            return abs(float(np.sum(np.abs(psi) ** 2) * self.DX) - 1.0)

        assert norm_error(psi) == pytest.approx(norm_error(psi_ref), abs=1e-12)
        # leaks far below the 1e-10 gate sit at roundoff, hence the floor
        assert leak == pytest.approx(leak_ref, rel=1e-6, abs=1e-18)

    def test_spectral_free_run_equals_stepping(self):
        psi0, detector, _ = self.small_box()
        layout = self.layout(detector)
        self.assert_runs_agree(
            timedomain._free_run(psi0, *layout, timedomain._sine_band(psi0)),
            stencil_run(psi0, np.zeros(psi0.size), *layout),
            tol=1e-11,
        )

    def test_band_limited_free_run_equals_all_modes(self):
        psi0, detector, _ = self.small_box()
        band = timedomain._sine_band(psi0)
        assert band[1].size < psi0.size // 8
        layout = self.layout(detector)
        self.assert_runs_agree(
            timedomain._free_run(psi0, *layout, band), all_mode_run(psi0, *layout), tol=1e-12
        )

    def band_phases(self, psi0):
        """The free run's band (first index, coefficients), its mode numbers
        and their Crank-Nicolson phases per step of DT."""
        n = psi0.size
        lo, modes = timedomain._sine_band(psi0)
        m = np.arange(lo + 1, lo + modes.size + 1)
        lam = 2.0 * np.sin(0.5 * np.pi * m / (n + 1)) ** 2 / self.DX ** 2
        return lo, modes, m, 2.0 * np.arctan(0.5 * self.DT * lam)

    def full_state(self, psi0, step):
        """psi at ``step`` from one full inverse transform of the band's amplitudes."""
        lo, modes, _, theta = self.band_phases(psi0)
        amps = np.zeros(psi0.size, dtype=complex)
        amps[lo : lo + modes.size] = np.exp(-1j * theta * step) * modes
        return timedomain._dst1(amps)

    def test_broadband_state_keeps_every_mode(self):
        _, detector, _ = self.small_box()
        rng = np.random.default_rng(3)
        psi0 = rng.standard_normal(1700) + 1j * rng.standard_normal(1700)
        n = psi0.size
        lo, modes, m, theta = self.band_phases(psi0)
        assert (lo, modes.size) == (0, n)  # so the leaks go one stop per batch
        # a broadband state reaches the edges at once, so its free run stops
        # at the first leak check; compare the edge leaks and the detector's
        # band sum, the free run's two partial transforms, with full ones
        steps = [0, 30, 100]
        leaks = timedomain._edge_leaks(n, m, modes, theta, steps, self.EDGE, self.DX)
        at_detector = np.sqrt(2.0 / (n + 1)) * timedomain._sines(np.sin, n, detector + 1, m)
        for step, leak in zip(steps, leaks):
            psi = self.full_state(psi0, step)
            assert leak == pytest.approx(edge_probability(psi, self.EDGE, self.DX), rel=1e-12)
            amps = np.exp(-1j * theta * step) * modes
            assert abs(np.sum(at_detector * amps) - psi[detector]) <= 1e-12 * np.max(np.abs(psi))

    def test_batched_leaks_equal_full_transforms_at_every_stop(self):
        # launched at x = 8 the packet's edge probability climbs from
        # roundoff to 1.5e-2 over the run (at x = -12 every stop is under
        # the floor); 64 stops in batches of 11 leave a ragged last batch
        psi0, _, _ = self.small_box(x0=8.0)
        lo, modes, m, theta = self.band_phases(psi0)
        stops = timedomain._stops(self.STEPS)
        assert len(stops) % (psi0.size // modes.size) != 0
        leaks = timedomain._edge_leaks(psi0.size, m, modes, theta, stops, self.EDGE, self.DX)
        assert leaks.size == len(stops) and np.max(leaks) > 1e-3
        for stop, leak in zip(stops, leaks):
            full = edge_probability(self.full_state(psi0, stop), self.EDGE, self.DX)
            assert leak == pytest.approx(full, rel=1e-6, abs=1e-18)

    def test_edge_probability_at_one_stop_is_contamination(self):
        # launched at x = 8 and run free (the barrier would scatter the tail
        # it overlaps there), the packet puts 1e-10 of its probability in the
        # right edge cells near step 2050: each run of half the steps passes,
        # and each full run raises at its first stop over the gate
        psi0, detector, _ = self.small_box(x0=8.0)
        free, band = np.zeros(psi0.size), timedomain._sine_band(psi0)
        runs = (
            lambda steps: timedomain._cayley_run(psi0, free, *self.layout(detector, steps)),
            lambda steps: timedomain._free_run(psi0, *self.layout(detector, steps), band),
        )
        for run in runs:
            assert run(self.STEPS // 2)[2] < 1e-10
            with pytest.raises(BoundaryContaminationError, match="domain edges") as error:
                run(self.STEPS)
            # the reported leak is the first one over 1e-10, far below the end's
            assert float(str(error.value).split()[0]) < 1e-9

    def free_pair(self, psi0, detector):
        """One free-run pair as the oracle runs it: steps dt and 2 dt over the
        same time, sharing one band."""
        band = timedomain._sine_band(psi0)
        for step, steps in ((self.DT, self.STEPS), (2 * self.DT, self.STEPS // 2)):
            timedomain._free_run(
                psi0, self.DX, step, detector, self.EVERY, steps, self.EDGE, band
            )

    def test_free_pair_stops_allocate_no_grid_transform(self, monkeypatch):
        # a full-length transform allocates at least 4 grid vectors (the odd
        # extension and its FFT): the pair takes one for its shared band, and
        # each run one for its final psi after its 64 leak checks, which take
        # none; the whole pair stays under 10 grid vectors
        psi0, detector, _ = self.small_box()
        grid_vector = psi0.nbytes
        timedomain._dst1(psi0)  # numpy caches the FFT plan outside the count
        dst1, edge_leaks, calls = timedomain._dst1, timedomain._edge_leaks, []

        def counted_dst1(x):
            calls.append("transform")
            return dst1(x)

        def counted_edge_leaks(*args):
            leaks = edge_leaks(*args)
            calls.append(leaks.size)
            return leaks

        monkeypatch.setattr(timedomain, "_dst1", counted_dst1)
        monkeypatch.setattr(timedomain, "_edge_leaks", counted_edge_leaks)
        tracemalloc.start()
        try:
            self.free_pair(psi0, detector)
            pair_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == ["transform"] + [64, "transform"] * 2
        assert pair_peak < 10 * grid_vector

    def test_cayley_step_equals_stencil_step(self):
        psi0, detector, barrier = self.small_box()
        layout = self.layout(detector)
        self.assert_runs_agree(
            timedomain._cayley_run(psi0, barrier, *layout),
            stencil_run(psi0, barrier, *layout),
            tol=1e-12,
        )
