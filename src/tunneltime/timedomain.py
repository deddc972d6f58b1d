"""Time-domain validation: spectral pulse synthesis and a Schrodinger integrator.

Sign conventions match the frequency-domain modules: fields go like
e^{i(kz - wt)}, an envelope A(t) rides a carrier e^{-i omega0 t}, and its
spectrum is A~(W) = integral A(t) e^{+iWt} dt over detunings W.  Applying a
transfer function then means

    A_out(t) = (1/2pi) integral t(omega0 + W) A~(W) e^{-iWt} dW,

so the vacuum-slab response t = e^{i w L} delays the envelope by exactly L.
Records are synthesized on uniform time grids via the FFT; every envelope is
required to decay below 1e-12 of its peak at both record ends so cyclic
wraparound stays out of the physics.

The Crank-Nicolson integrator provides an independent oracle for the quantum
group delay: it knows nothing about transmission phases, it just propagates
a wave packet and times the transmitted peak at a detector plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack as _lapack

from . import photonic, spectral
from .errors import (
    BandTooNarrowError,
    BoundaryContaminationError,
    NormDriftError,
    SpectrumExceedsGridError,
    WraparoundDetectedError,
)
from .photonic import LayeredStack
from .quantum import QuantumBarrier

_EDGE_DECAY = 1e-12          # envelope floor at record ends, relative to peak
_WRAPAROUND_LIMIT = 1e-9     # synthesized records must stay below this at ends
_SPECTRUM_POWER_LEVEL = 1e-6  # power level at which the spectrum must fit the grid


@dataclass(frozen=True)
class PulseEnvelope:
    """Complex envelope A(0, t) on a uniform time grid, carrier ``omega0``."""

    times: np.ndarray
    a: np.ndarray
    omega0: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        a = np.asarray(self.a, dtype=complex)
        times.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "a", a)
        if times.ndim != 1 or times.size < 8 or a.shape != times.shape:
            raise ValueError("times and a must be equal-length 1-D arrays")
        steps = np.diff(times)
        if steps[0] <= 0 or np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ValueError("time grid must be uniform and increasing")
        peak = float(np.max(np.abs(a)))
        if peak <= 0.0:
            raise ValueError("envelope is identically zero")
        if max(abs(a[0]), abs(a[-1])) > _EDGE_DECAY * peak:
            raise ValueError("envelope must decay below 1e-12 of peak at record ends")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def count(self) -> int:
        return self.times.size

    def fft_grid(self) -> spectral.FrequencyGrid:
        """The frequency grid on which this record's FFT lives (ascending)."""
        detunings = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(self.count, self.dt))
        return spectral.FrequencyGrid(self.omega0, detunings)

    def bandwidth(self) -> float:
        """FWHM of the power spectrum |A~(W)|^2 (half-max crossings interpolated)."""
        power = np.abs(np.fft.fftshift(np.fft.ifft(self.a))) ** 2
        detunings = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(self.count, self.dt))
        half = 0.5 * float(np.max(power))
        above = np.nonzero(power >= half)[0]
        lo, hi = int(above[0]), int(above[-1])

        def crossing(inside: int, outside: int) -> float:
            frac = (half - power[outside]) / (power[inside] - power[outside])
            return float(detunings[outside] + frac * (detunings[inside] - detunings[outside]))

        left = crossing(lo, lo - 1) if lo > 0 else float(detunings[0])
        right = crossing(hi, hi + 1) if hi < self.count - 1 else float(detunings[-1])
        return right - left

    @classmethod
    def gaussian(
        cls,
        omega0: float,
        sigma_t: float,
        samples: int = 4096,
        duration_factor: float = 16.0,
    ) -> "PulseEnvelope":
        """Gaussian envelope exp(-t^2 / (2 sigma_t^2)) on a centered record.

        The record spans ``duration_factor`` times the intensity FWHM
        (2 sqrt(ln 2) sigma_t), which keeps the ends far below the 1e-12
        decay floor for any factor >= 16.
        """
        fwhm = 2.0 * np.sqrt(np.log(2.0)) * sigma_t  # FWHM of |A|^2
        span = duration_factor * fwhm
        dt = span / samples
        times = (np.arange(samples) - samples // 2) * dt
        a = np.exp(-(times ** 2) / (2.0 * sigma_t ** 2)).astype(complex)
        return cls(times, a, omega0)

    @classmethod
    def gaussian_with_bandwidth(
        cls,
        omega0: float,
        bandwidth: float,
        samples: int = 4096,
        duration_factor: float = 16.0,
    ) -> "PulseEnvelope":
        """Gaussian whose power-spectrum FWHM equals ``bandwidth``."""
        sigma_t = 2.0 * np.sqrt(np.log(2.0)) / bandwidth
        return cls.gaussian(omega0, sigma_t, samples, duration_factor)


@dataclass(frozen=True)
class PropagationResult:
    """Transmitted envelope with its quasi-static diagnostics."""

    times: np.ndarray
    a_out: np.ndarray
    a_reflected: np.ndarray
    peak_delay: float
    width_ratio: float
    quasistatic_deviation: float
    t0: complex
    tau_g: float
    energy_in: float
    energy_transmitted: float
    energy_reflected: float


@dataclass(frozen=True)
class TurnOnRamp:
    """C1 raised-cosine turn-on/turn-off envelope, measured in carrier cycles."""

    n_cycles: float = 24.0
    hold_cycles: float = 60.0

    def __post_init__(self):
        if self.n_cycles <= 0 or self.hold_cycles < 0:
            raise ValueError("n_cycles must be positive and hold_cycles nonnegative")


@dataclass(frozen=True)
class FrontTestResult:
    """Energy fraction of the transmitted signal arriving before the front."""

    front_time: float
    pre_front_fraction: float
    carrier: float
    band: float
    record_length: float


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian wave packet: center momentum, momentum width, launch position."""

    k0: float
    delta_k: float
    x0: float

    def __post_init__(self):
        if self.k0 <= 0 or self.delta_k <= 0:
            raise ValueError("k0 and delta_k must be positive")
        if self.x0 >= 0:
            raise ValueError("packet must launch on the incident side (x0 < 0)")

    @property
    def sigma_x(self) -> float:
        return 1.0 / (2.0 * self.delta_k)


@dataclass(frozen=True)
class TdseResult:
    """Crank-Nicolson measurement of the transmitted-peak delay.

    ``delay`` is the arrival-time difference of the transmitted peak relative
    to the free-particle peak at the same detector, extracted as the lag of
    the complex cross-correlation of the two detector records.  Correlating
    the records cancels the free-space matter-wave dispersion accumulated
    over the common path, which would otherwise bias the difference of
    independently located peaks by O(delta_k * path).  The naive per-run
    peak arrivals are kept as diagnostics.
    """

    delay: float
    arrival_with_barrier: float
    arrival_free: float
    norm_error: float
    boundary_leak: float


def _response_on_fft_grid(resp: spectral.ComplexResponse, pulse: PulseEnvelope):
    """Response samples reordered onto the FFT bins of ``pulse.fft_grid()``, its only grid."""
    grid = resp.grid
    if abs(grid.omega0 - pulse.omega0) > 1e-9 * max(1.0, abs(pulse.omega0)):
        raise ValueError("response carrier differs from the pulse carrier")

    fft_detunings = pulse.fft_grid().detunings
    spec_power = np.abs(np.fft.fftshift(np.fft.ifft(pulse.a))) ** 2
    needed = fft_detunings[spec_power >= _SPECTRUM_POWER_LEVEL * np.max(spec_power)]
    margin = 0.5 * grid.spacing
    if needed.min() < grid.detunings[0] - margin or needed.max() > grid.detunings[-1] + margin:
        raise SpectrumExceedsGridError(
            "pulse spectrum at the 1e-6 power level spills past the response grid"
        )
    if grid.count != pulse.count or (
        np.max(np.abs(grid.detunings - fft_detunings)) > 1e-6 * grid.spacing
    ):
        raise ValueError("response must be sampled on the pulse's FFT grid (pulse.fft_grid())")
    return np.fft.ifftshift(resp.t), np.fft.ifftshift(resp.r)


def _rms_width(times: np.ndarray, envelope: np.ndarray) -> float:
    power = np.abs(envelope) ** 2
    total = float(np.sum(power))
    mean = float(np.sum(times * power) / total)
    return float(np.sqrt(np.sum((times - mean) ** 2 * power) / total))


def propagate_spectral(resp: spectral.ComplexResponse, pulse: PulseEnvelope) -> PropagationResult:
    """Send a narrowband envelope through a sampled complex response.

    The output is the inverse transform of t(omega0 + W) times the input
    spectrum.  The quasi-static deviation compares the output against
    T0 * A(0, t - tau_g) (the lumped-element prediction), with T0 the carrier
    transmission and tau_g the phase-derivative group delay; the reference
    delayed envelope is evaluated by the exact spectral shift.
    """
    t_fft, r_fft = _response_on_fft_grid(resp, pulse)
    n = pulse.count
    dt = pulse.dt
    omega_fft = 2.0 * np.pi * np.fft.fftfreq(n, dt)

    spec_in = np.fft.ifft(pulse.a)
    a_out = np.fft.fft(spec_in * t_fft)
    a_refl = np.fft.fft(spec_in * r_fft)

    peak_out = float(np.max(np.abs(a_out)))
    if peak_out > 0 and max(abs(a_out[0]), abs(a_out[-1])) > _WRAPAROUND_LIMIT * peak_out:
        raise WraparoundDetectedError("transmitted envelope does not decay at record ends")

    phase = spectral.unwrap_phase(resp)
    tau_g = spectral.phase_derivative(phase, pulse.omega0).value
    t0 = resp.t_at_carrier
    a_ref = np.fft.fft(spec_in * t0 * np.exp(1j * omega_fft * tau_g))
    deviation = float(np.max(np.abs(a_out - a_ref)) / peak_out) if peak_out > 0 else 0.0

    peak_delay = spectral.locate_peak(pulse.times, np.abs(a_out) ** 2) - spectral.locate_peak(
        pulse.times, np.abs(pulse.a) ** 2
    )
    width_ratio = _rms_width(pulse.times, a_out) / _rms_width(pulse.times, pulse.a)

    return PropagationResult(
        times=pulse.times,
        a_out=a_out,
        a_reflected=a_refl,
        peak_delay=float(peak_delay),
        width_ratio=float(width_ratio),
        quasistatic_deviation=deviation,
        t0=t0,
        tau_g=float(tau_g),
        energy_in=float(np.sum(np.abs(pulse.a) ** 2) * dt),
        energy_transmitted=float(np.sum(np.abs(a_out) ** 2) * dt),
        energy_reflected=float(np.sum(np.abs(a_refl) ** 2) * dt),
    )


def _ramp_envelope(times: np.ndarray, t_on: float, rise: float, hold: float) -> np.ndarray:
    """Compact-support C1 envelope: raised-cosine rise, hold, mirrored fall."""
    tau = times - t_on
    env = np.zeros_like(times)
    rising = (tau >= 0.0) & (tau < rise)
    env[rising] = 0.5 * (1.0 - np.cos(np.pi * tau[rising] / rise))
    env[(tau >= rise) & (tau <= rise + hold)] = 1.0
    falling = (tau > rise + hold) & (tau < 2.0 * rise + hold)
    env[falling] = 0.5 * (1.0 + np.cos(np.pi * (tau[falling] - rise - hold) / rise))
    return env


def front_causality(
    stack: LayeredStack,
    omega_mid: float,
    ramp: TurnOnRamp = TurnOnRamp(),
    band_factor: float = 50.0,
    stopband_width: Optional[float] = None,
) -> FrontTestResult:
    """Fraction of transmitted energy arriving before the light front.

    A smoothly switched-on carrier at ``omega_mid`` is synthesized over a
    band of ``band_factor`` times the stopband width (the front is broadband)
    and sent through the stack; the front cannot arrive before the vacuum
    transit of the total length.  ``stopband_width`` may be passed explicitly
    so a vacuum-slab control run uses the identical synthesis.
    """
    if band_factor < 50.0:
        raise BandTooNarrowError("synthesis band must cover at least 50x the stopband")
    if stopband_width is None:
        stopband_width = photonic.find_stopband(stack, omega_mid).width
    band = band_factor * stopband_width
    if band >= 1.9 * omega_mid:
        raise BandTooNarrowError(
            "required band reaches nonpositive frequencies; stopband too wide"
        )

    length = stack.total_length
    cycle = 2.0 * np.pi / omega_mid
    rise = ramp.n_cycles * cycle
    hold = ramp.hold_cycles * cycle
    # ring-out sizing: stopband-edge resonances decay on ~1/width scales
    ring = 80.0 * max(cycle, 2.0 * np.pi / stopband_width)
    t_on = 8.0 * rise
    duration = t_on + 2.0 * rise + hold + length + ring

    # fix dt from the band exactly; padding the record up to a power of two
    # only adds ring-out room and keeps every synthesis frequency positive
    dt = 2.0 * np.pi / band
    n = max(4096, 1 << int(np.ceil(np.log2(duration / dt))))
    times = np.arange(n) * dt

    env_in = _ramp_envelope(times, t_on, rise, hold)
    omega_fft = 2.0 * np.pi * np.fft.fftfreq(n, dt)
    omegas = omega_mid + omega_fft
    if np.any(omegas <= 0.0):
        raise BandTooNarrowError("synthesis band reaches nonpositive frequencies")
    t_fft, _ = photonic.stack_t_r_samples(stack, omegas)

    env_out = np.fft.fft(np.fft.ifft(env_in) * t_fft)
    power = np.abs(env_out) ** 2
    peak = float(np.max(power))
    # the record-end samples sit at the synthesis floor (the quantity this
    # test measures); only gross wraparound of the physical ring is an error
    tail = power[int(0.98 * n):]
    if np.max(tail) > 1e-6 * peak:
        raise WraparoundDetectedError("transmitted record does not ring out; enlarge it")

    front_abs = t_on + length
    pre = float(np.sum(power[times < front_abs]))
    tot = float(np.sum(power))
    return FrontTestResult(
        front_time=length,
        pre_front_fraction=pre / tot,
        carrier=omega_mid,
        band=band,
        record_length=float(n * dt),
    )


def tdse_oracle(
    barrier: QuantumBarrier,
    packet: GaussianPacket,
    dx: Optional[float] = None,
    dt: Optional[float] = None,
) -> TdseResult:
    """Crank-Nicolson wave-packet run measuring the transmitted-peak delay.

    Integrates i dpsi/dt = -psi''/2 + V psi on a grid wide enough that
    boundary reflections stay negligible, records psi at a detector plane
    5 packet widths past the exit, and measures the transmitted-peak
    arrival relative to the identical free packet (V = 0) on the same grid
    as the cross-correlation lag of the two records.  The difference
    estimates tau_g - L/v.  Norm must hold to 1e-8 (Cayley form is unitary)
    and no more than 1e-10 of probability may touch the domain edges.

    Quasi-static precondition: delta_k <= 0.05 * kappa in the tunneling
    regime.  Defaults follow dx <= 1/(20 k0), dt <= dx^2.
    """
    k0, sigma_x = packet.k0, packet.sigma_x
    energy = 0.5 * k0 ** 2
    if energy < barrier.v0:
        kappa = np.sqrt(2.0 * (barrier.v0 - energy))
        if packet.delta_k > 0.05 * kappa:
            raise ValueError("quasi-static run needs delta_k <= 0.05 * kappa")
    # launch overlap with the barrier must be negligible
    overlap = 0.5 * math.erfc(-packet.x0 / (np.sqrt(2.0) * sigma_x))
    if overlap > 1e-12:
        raise ValueError("launch position overlaps the barrier (needs < 1e-12)")

    length = barrier.length
    v = k0
    x_det = length + 5.0 * sigma_x
    t_end = (x_det - packet.x0) / v + 6.0 * sigma_x / v
    # free-packet dispersion over the run sets the box margins
    sigma_end = sigma_x * np.sqrt(1.0 + (t_end / (2.0 * sigma_x ** 2)) ** 2)
    x_refl_end = -v * t_end - packet.x0  # reflected peak position at t_end
    x_lo = min(packet.x0, x_refl_end) - 10.0 * sigma_end
    x_hi = x_det + 6.0 * sigma_x + 10.0 * sigma_end
    if dx is None:
        dx = 1.0 / (20.0 * k0)
    if dt is None:
        dt = dx * dx
    n = int(np.ceil((x_hi - x_lo) / dx)) + 1
    x = x_lo + np.arange(n) * dx
    steps = int(np.ceil(t_end / dt))

    psi0 = np.exp(-((x - packet.x0) ** 2) / (4.0 * sigma_x ** 2) + 1j * k0 * x)
    psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * dx)

    detector = int(round((x_det - x_lo) / dx))
    inside = (x >= 0.0) & (x <= length)
    edge_cells = max(4, int(round(2.0 * sigma_end / dx)))
    # detector record decimation: plenty of samples per packet width while
    # keeping the cross-correlation cheap
    record_every = max(1, steps // 8192)

    def run(with_barrier: bool):
        # Cayley form (I + i dt H / 2) psi' = (I - i dt H / 2) psi with a
        # Dirichlet tridiagonal H; the left side is LU-factored once (gttrf)
        # and reused every step, the right side is a direct stencil.
        potential = np.zeros(n)
        if with_barrier:
            potential[inside] = barrier.v0
        a_main = (1.0 + 0.5j * dt * (1.0 / dx ** 2 + potential)).astype(complex)
        a_off = np.full(n - 1, -0.25j * dt / dx ** 2)
        b_main = 2.0 - a_main
        b_off = 0.25j * dt / dx ** 2
        gttrf, gttrs = _lapack.get_lapack_funcs(("gttrf", "gttrs"), (a_main, psi0))
        dl, d, du, du2, ipiv, info = gttrf(a_off.copy(), a_main.copy(), a_off.copy())
        if info != 0:
            raise RuntimeError(f"tridiagonal factorization failed (info={info})")

        psi = psi0.copy()
        recorded = [psi0[detector]]
        check_every = max(1, steps // 64)
        worst_leak = 0.0
        for step in range(1, steps + 1):
            rhs = b_main * psi
            rhs[1:-1] += b_off * (psi[2:] + psi[:-2])
            rhs[0] += b_off * psi[1]
            rhs[-1] += b_off * psi[-2]
            psi, info = gttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)
            if info != 0:
                raise RuntimeError(f"tridiagonal solve failed (info={info})")
            if step % record_every == 0:
                recorded.append(psi[detector])
            if step % check_every == 0 or step == steps:
                leak = (
                    np.sum(np.abs(psi[:edge_cells]) ** 2)
                    + np.sum(np.abs(psi[-edge_cells:]) ** 2)
                ) * dx
                worst_leak = max(worst_leak, float(leak))
                if worst_leak > 1e-10:
                    raise BoundaryContaminationError(
                        f"{worst_leak:.3e} of the norm reached the domain edges"
                    )
        norm_err = abs(float(np.sum(np.abs(psi) ** 2) * dx) - 1.0)
        if norm_err > 1e-8:
            raise NormDriftError(f"norm drifted by {norm_err:.3e}")
        return np.asarray(recorded), norm_err, worst_leak

    series_b, norm_b, leak_b = run(True)
    series_f, norm_f, leak_f = run(False)
    dt_rec = record_every * dt
    t_axis = np.arange(series_b.size) * dt_rec
    arrival_barrier = spectral.locate_peak(t_axis, np.abs(series_b) ** 2)
    arrival_free = spectral.locate_peak(t_axis, np.abs(series_f) ** 2)
    # arrival difference as the complex cross-correlation lag; numpy
    # conjugates the second argument
    corr = np.correlate(series_b, series_f, mode="full")
    lags = (np.arange(corr.size) - (series_b.size - 1)) * dt_rec
    delay = spectral.locate_peak(lags, np.abs(corr))
    return TdseResult(
        delay=float(delay),
        arrival_with_barrier=float(arrival_barrier),
        arrival_free=float(arrival_free),
        norm_error=max(norm_b, norm_f),
        boundary_leak=max(leak_b, leak_f),
    )
