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
a wave packet and times the transmitted peak at a detector plane.  The run
through the barrier steps the Cayley form with one tridiagonal solve per
step (scipy's LAPACK wrappers, imported only when the oracle runs); the
free reference run is the same discrete dynamics evaluated exactly in the
sine basis that diagonalises the Dirichlet Laplacian, so it takes no steps.
It sums only the packet's occupied band of sine modes, and between its first
and last step it forms only the grid rows that the boundary-leak check
reads.  A detector record that has not decayed by the end of its window
raises instead of yielding a delay.  A ladder of three time steps, all
recorded on the coarsest step's clock, cancels the step's error to fourth
order; a worker thread runs the two coarser rungs while the calling thread
runs the finest, and the result is the serial one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import photonic, spectral
from .errors import (
    BandTooNarrowError,
    BoundaryContaminationError,
    NormDriftError,
    RecordTruncatedError,
    WraparoundDetectedError,
)
from .photonic import LayeredStack
from .quantum import QuantumBarrier

_EDGE_DECAY = 1e-12          # envelope floor at record ends, relative to peak
_WRAPAROUND_LIMIT = 1e-9     # synthesized records must stay below this at ends
_DURATION_FACTOR = 16.0       # a Gaussian record spans this many intensity FWHMs
# oracle detector window past the peak arrival, in packet widths at arrival
_WINDOW_WIDTHS = 8.0
# oracle default finest step in units of the default cell squared, (1/(20 k0))^2:
# the coarsest ladder whose dt_error stays within 1/10 of the 5 % delay gate
_DEFAULT_DT_PER_CELL2 = 128.0
# zero-padding factor of the band-limited correlation peak
_LAG_PAD = 64
# sine modes outside the free run's band hold at most this share of psi0's power
_BAND_TAIL_SHARE = 1e-26
# oracle detector records must fall below this share of peak power by t_end
_RECORD_END_POWER = 1e-3


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
    def gaussian(cls, omega0: float, sigma_t: float, samples: int = 4096) -> "PulseEnvelope":
        """Gaussian envelope exp(-t^2 / (2 sigma_t^2)) on a centered record.

        The record spans _DURATION_FACTOR = 16 times the intensity FWHM
        (2 sqrt(ln 2) sigma_t), which keeps the ends far below the 1e-12
        decay floor.
        """
        fwhm = 2.0 * np.sqrt(np.log(2.0)) * sigma_t  # FWHM of |A|^2
        span = _DURATION_FACTOR * fwhm
        dt = span / samples
        times = (np.arange(samples) - samples // 2) * dt
        a = np.exp(-(times ** 2) / (2.0 * sigma_t ** 2)).astype(complex)
        return cls(times, a, omega0)

    @classmethod
    def gaussian_with_bandwidth(
        cls, omega0: float, bandwidth: float, samples: int = 4096
    ) -> "PulseEnvelope":
        """Gaussian whose power-spectrum FWHM equals ``bandwidth``."""
        sigma_t = 2.0 * np.sqrt(np.log(2.0)) / bandwidth
        return cls.gaussian(omega0, sigma_t, samples)


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

    Every time is the Richardson extrapolation of a ladder of runs at steps
    dt, 2 dt and 4 dt: with R2(a, b) = d(a) + (d(a) - d(b)) / 3, it is
    R2(dt, 2 dt) + (R2(dt, 2 dt) - R2(2 dt, 4 dt)) / 15.  ``dt_error`` =
    |R2(dt, 2 dt) - R2(2 dt, 4 dt)| bounds the error of R2(dt, 2 dt) and so
    overstates the ladder's own (0.0 for a result built by hand).  The
    arrivals are 3-point parabola peaks of each record's power on the 4 dt
    record clock, up to about 1e-2 off on the bench `tdse` packet, and no
    check reads them.
    """

    delay: float
    arrival_with_barrier: float
    arrival_free: float
    norm_error: float
    boundary_leak: float
    dt_error: float = 0.0


def _rms_width(times: np.ndarray, envelope: np.ndarray) -> float:
    power = np.abs(envelope) ** 2
    total = float(np.sum(power))
    mean = float(np.sum(times * power) / total)
    return float(np.sqrt(np.sum((times - mean) ** 2 * power) / total))


def propagate_spectral(stack: LayeredStack, pulse: PulseEnvelope) -> PropagationResult:
    """Send a narrowband envelope through a layered stack.

    The stack is sampled once, at omega0 + W for each FFT bin's detuning W
    in FFT order, so each bin meets its own frequency; a band that reaches
    omega <= 0 raises BandTooNarrowError.  The output is the inverse
    transform of t(omega0 + W) times the input spectrum.  The quasi-static
    deviation compares the output against T0 * A(0, t - tau_g) (the
    lumped-element prediction), with T0 = t(omega0) from the zero-detuning
    bin and tau_g the exact `photonic.group_delay` at the carrier; the
    reference delayed envelope is evaluated by the exact spectral shift.
    """
    dt = pulse.dt
    omega_fft = 2.0 * np.pi * np.fft.fftfreq(pulse.count, dt)
    omegas = pulse.omega0 + omega_fft
    lowest = float(np.min(omegas))
    if lowest <= 0.0:
        raise BandTooNarrowError(
            f"pulse band reaches omega = {lowest:.6g} <= 0; use fewer samples or less bandwidth"
        )
    t_fft, r_fft = photonic.stack_t_r_samples(stack, omegas)

    spec_in = np.fft.ifft(pulse.a)
    a_out = np.fft.fft(spec_in * t_fft)
    a_refl = np.fft.fft(spec_in * r_fft)

    peak_out = float(np.max(np.abs(a_out)))
    if peak_out > 0 and max(abs(a_out[0]), abs(a_out[-1])) > _WRAPAROUND_LIMIT * peak_out:
        raise WraparoundDetectedError("transmitted envelope does not decay at record ends")

    tau_g = photonic.group_delay(stack, pulse.omega0)
    t0 = complex(t_fft[0])
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
    omegas = omega_mid + 2.0 * np.pi * np.fft.fftfreq(n, dt)
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


def _dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of ``x`` (its own inverse) from numpy's FFT of the odd extension.

    Its basis vectors phi_m[j] = sqrt(2/(n+1)) sin(pi (j+1) m / (n+1)),
    m = 1..n, diagonalise the Dirichlet Laplacian on n cells.
    """
    n = x.size
    odd = np.zeros(2 * (n + 1), dtype=complex)
    odd[1 : n + 1] = x
    odd[n + 2 :] = -x[::-1]
    return (0.5j * np.sqrt(2.0 / (n + 1))) * np.fft.fft(odd)[1 : n + 1]


def _cayley_run(psi0, potential, dx, dt, detector, record_every):
    """Stepped Crank-Nicolson run as an ``advance(done, stop)`` for `_watched_run`.

    The Cayley form A psi' = B psi has A = I + i dt H / 2 and B = 2I - A, so
    psi' = 2 A^-1 psi - psi: A is LU-factored once (gttrf) and each step is
    one tridiagonal solve (gttrs).
    """
    from scipy.linalg import lapack

    a_main = 1.0 + 0.5j * dt * (1.0 / dx ** 2 + potential)
    a_off = np.full(psi0.size - 1, -0.25j * dt / dx ** 2)
    gttrf, gttrs = lapack.get_lapack_funcs(("gttrf", "gttrs"), (a_main, psi0))
    dl, d, du, du2, ipiv, info = gttrf(a_off, a_main, a_off)
    if info != 0:
        raise RuntimeError(f"tridiagonal factorization failed (info={info})")
    psi = psi0

    def advance(done: int, stop: int):
        nonlocal psi
        samples = []
        for step in range(done + 1, stop + 1):
            chi, info = gttrs(dl, d, du, du2, ipiv, psi)
            if info != 0:
                raise RuntimeError(f"tridiagonal solve failed (info={info})")
            chi *= 2.0
            chi -= psi
            psi = chi
            if step % record_every == 0:
                samples.append(psi[detector])
        return samples, psi

    return advance


def _sine_band(psi0: np.ndarray):
    """First mode index and `_dst1` coefficients of ``psi0``'s occupied band.

    The band is the smallest contiguous run of coefficients outside which
    at most `_BAND_TAIL_SHARE` of sum |c_m|^2 lies.  Each tail is summed
    from its own end, since that share is below the roundoff of the total.
    """
    coeffs = _dst1(psi0)
    power = np.abs(coeffs) ** 2
    share = _BAND_TAIL_SHARE * float(np.sum(power))
    below = np.concatenate(([0.0], np.cumsum(power)))  # below[lo] = sum over m < lo
    above = np.concatenate((np.cumsum(power[::-1])[::-1], [0.0]))  # above[hi] = over m >= hi
    lo = np.nonzero(below <= share)[0]
    # for each lower cut, the first upper cut whose tail fits the rest of the share
    hi = np.searchsorted(-above, below[lo] - share)
    best = int(np.argmin(hi - lo))
    return int(lo[best]), coeffs[lo[best] : hi[best]].copy()


def _sines(trig, n: int, rows: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """trig(pi p m / (n+1)) for row numbers p and mode numbers m, reduced exactly mod 2 pi."""
    return trig(np.pi / (n + 1) * (np.multiply.outer(rows, modes) % (2 * (n + 1))))


def _edge_rows(n: int, modes: np.ndarray, edge_cells: int):
    """psi's first and last ``edge_cells`` rows from its amplitudes on sine ``modes``.

    Row j = R b + r of phi_m is sqrt(2/(n+1)) sin(a (R b + r + 1) m) with
    a = pi/(n+1), and by angle addition that is
    cos(a R b m) sin(a (r+1) m) + sin(a R b m) cos(a (r+1) m), so four
    tables of about sqrt(edge_cells) rows stand in for the edge_cells-row
    one.  The right edge mirrors the left: phi_m[n-1-j] = (-1)^(m+1) phi_m[j].
    Returns a function of the amplitudes giving the left rows followed by
    the right rows, in grid order.
    """
    block = math.isqrt(edge_cells - 1) + 1
    starts = np.arange(0, edge_cells, block)
    offsets = np.arange(1, block + 1)
    scale = np.sqrt(2.0 / (n + 1))
    outer_cos = scale * _sines(np.cos, n, starts, modes)
    outer_sin = scale * _sines(np.sin, n, starts, modes)
    inner_sin = _sines(np.sin, n, modes, offsets)
    inner_cos = _sines(np.cos, n, modes, offsets)
    parity = np.where(modes % 2 == 1, 1.0, -1.0)

    def rows(amps: np.ndarray) -> np.ndarray:
        # real and imaginary parts of the left and mirrored right amplitudes,
        # one at a time, so no temporary is larger than a table
        parts = (amps.real, amps.imag, parity * amps.real, parity * amps.imag)
        vals = np.empty((4, starts.size, block))
        for part, out in zip(parts, vals):
            np.matmul(part * outer_cos, inner_sin, out=out)
            out += (part * outer_sin) @ inner_cos
        left = (vals[0] + 1j * vals[1]).ravel()[:edge_cells]
        right = (vals[2] + 1j * vals[3]).ravel()[:edge_cells]
        return np.concatenate([left, right[::-1]])

    return rows


def _free_run(psi0, dx, dt, detector, record_every, edge_cells, band):
    """Free (V = 0) Crank-Nicolson run, exact in the sine basis, as an ``advance``.

    The Dirichlet H0 has the `_dst1` basis as eigenvectors and eigenvalues
    lambda_m = (1 - cos(pi m / (n+1))) / dx^2, so a Crank-Nicolson step
    multiplies mode m by (1 - i dt lambda_m / 2) / (1 + i dt lambda_m / 2)
    = e^{-i theta_m}, theta_m = 2 arctan(dt lambda_m / 2).  Step s is then
    psi_s = DST(e^{-i theta s} c) with c = DST(psi0), and no step is taken.

    Only psi0's occupied band of modes enters (``band``, from `_sine_band`,
    shared by every run of one psi0): each record is a sum over the band.
    A stop hands back only psi's first and last ``edge_cells`` rows
    (`_edge_rows`); ``advance(stop, stop)`` hands back the full psi, one
    `_dst1`.
    """
    n = psi0.size
    lo, modes = band
    m = np.arange(lo + 1, lo + modes.size + 1)
    # 2 sin^2(a/2) is 1 - cos(a) without cancellation at the packet's long wavelengths
    lam = 2.0 * np.sin(0.5 * np.pi * m / (n + 1)) ** 2 / dx ** 2
    theta = 2.0 * np.arctan(0.5 * dt * lam)
    at_detector = np.sqrt(2.0 / (n + 1)) * _sines(np.sin, n, detector + 1, m) * modes
    turn = np.exp(-1j * theta * record_every)
    edges = _edge_rows(n, m, edge_cells)

    def advance(done: int, stop: int):
        # exact phases at the stretch's first record, then one turn per
        # record; re-anchoring every stretch keeps the phase roundoff from
        # piling up over the whole run
        first = (done // record_every + 1) * record_every
        phased = at_detector * np.exp(-1j * theta * first)
        samples = []
        for _ in range(first, stop + 1, record_every):
            samples.append(phased.sum())
            phased *= turn
        amps = np.exp(-1j * theta * stop) * modes
        if done < stop:
            return samples, edges(amps)
        full = np.zeros(n, dtype=complex)
        full[lo : lo + modes.size] = amps
        return samples, _dst1(full)

    return advance


def _watched_run(advance, psi0, detector, steps, record_every, edge_cells, dx):
    """Detector record of one run, with its boundary-leak and norm checks.

    ``advance(done, stop)`` carries the run from step ``done`` to ``stop``
    and returns psi[detector] at each multiple of ``record_every`` in
    (done, stop] together with psi at ``stop``, or with any array whose
    first and last ``edge_cells`` entries are psi's (`_free_run` returns
    just those rows); ``advance(steps, steps)`` takes no step and returns
    the full psi.  At every ``max(1, steps // 64)``-th step (so at every
    step of a run under 128 steps) and at the last one, no more than 1e-10
    of probability may sit in the ``edge_cells`` at either end
    (`BoundaryContaminationError`); the final norm must hold to 1e-8
    (`NormDriftError`).
    """
    check_every = max(1, steps // 64)
    stops = list(range(check_every, steps, check_every)) + [steps]
    recorded = [psi0[detector]]
    worst_leak, done = 0.0, 0
    for stop in stops:
        samples, psi = advance(done, stop)
        recorded.extend(samples)
        leak = (
            np.sum(np.abs(psi[:edge_cells]) ** 2) + np.sum(np.abs(psi[-edge_cells:]) ** 2)
        ) * dx
        worst_leak = max(worst_leak, float(leak))
        if worst_leak > 1e-10:
            raise BoundaryContaminationError(
                f"{worst_leak:.3e} of the norm reached the domain edges"
            )
        done = stop
    psi = advance(steps, steps)[1]
    norm_err = abs(float(np.sum(np.abs(psi) ** 2) * dx) - 1.0)
    if norm_err > 1e-8:
        raise NormDriftError(f"norm drifted by {norm_err:.3e}")
    return np.asarray(recorded), norm_err, worst_leak


def _anchored_grid(barrier: QuantumBarrier, x_lo: float, x_hi: float, dx_max: float):
    """Oracle grid with nodes on both barrier faces, and the potential on it.

    dx = L / ceil(L / dx_max) puts nodes on x = 0 and x = L, so the barrier
    spans the same whole number of cells wherever the box ends fall; the
    ends are rounded outward to whole cells from 0.  The two face nodes
    carry V0 / 2 (the trapezoid rule), so sum(V) dx = V0 L.
    """
    cells = math.ceil(barrier.length / dx_max)
    dx = barrier.length / cells if cells else dx_max
    below = math.ceil(-x_lo / dx)
    x = (np.arange(below + math.ceil(x_hi / dx) + 1) - below) * dx
    potential = np.zeros(x.size)
    if cells:
        potential[below : below + cells + 1] = barrier.v0
        potential[[below, below + cells]] = 0.5 * barrier.v0
    return x, potential, dx


def _band_limited_peak(lags: np.ndarray, series: np.ndarray) -> float:
    """Peak of |series| on uniform ``lags``, with its envelope interpolated.

    The spectrum of the complex series is rolled so that its strongest bin
    sits at zero frequency, which strips the carrier and leaves the smooth
    envelope; zero-padding it `_LAG_PAD` times interpolates that envelope
    between samples, and `spectral.locate_peak`'s parabola refines the
    finest sample.  The series must have decayed at both ends, since the
    interpolation is cyclic.
    """
    n = series.size
    spectrum = np.fft.fft(series)
    spectrum = np.roll(spectrum, -int(np.argmax(np.abs(spectrum))))
    padded = np.zeros(n * _LAG_PAD, dtype=complex)
    half = (n + 1) // 2
    padded[:half] = spectrum[:half]
    padded[padded.size - (n - half) :] = spectrum[half:]
    fine_lags = lags[0] + np.arange(padded.size) * ((lags[1] - lags[0]) / _LAG_PAD)
    return spectral.locate_peak(fine_lags, np.abs(np.fft.ifft(padded)))


def _pair_times(series_b: np.ndarray, series_f: np.ndarray, dt_rec: float) -> np.ndarray:
    """Delay, barrier arrival and free arrival from one pair of detector records.

    The delay is the band-limited peak of the complex cross-correlation
    (`_band_limited_peak`); each arrival is the 3-point parabola through
    the peak of its record's power.  Each record must have decayed below
    `_RECORD_END_POWER` of its peak power by its last sample, or the window
    cut the packet short.
    """
    for name, series in (("barrier", series_b), ("free", series_f)):
        power = np.abs(series) ** 2
        if power[-1] > _RECORD_END_POWER * np.max(power):
            raise RecordTruncatedError(
                f"{name} record ends at {power[-1] / np.max(power):.3e} of its peak power"
            )
    t_axis = np.arange(series_b.size) * dt_rec
    # arrival difference as the complex cross-correlation lag; numpy
    # conjugates the second argument
    corr = np.correlate(series_b, series_f, mode="full")
    lags = (np.arange(corr.size) - (series_b.size - 1)) * dt_rec
    return np.array(
        [
            _band_limited_peak(lags, corr),
            spectral.locate_peak(t_axis, np.abs(series_b) ** 2),
            spectral.locate_peak(t_axis, np.abs(series_f) ** 2),
        ]
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

    Both runs follow the same discrete Crank-Nicolson map on the same grid:
    the barrier run steps it (`_cayley_run`), the free run evaluates it
    exactly on the packet's occupied sine modes (`_free_run`, one
    `_sine_band` shared by every free run), and one loop
    (`_watched_run`) keeps both records and applies both checks.  The
    barrier/free pair runs at steps dt, 2 dt and 4 dt, and all six runs
    record on one clock of 4 dt.  Crank-Nicolson turns a mode by
    2 arctan(dt lambda / 2), whose error is even in dt, so the ladder of
    `TdseResult` cancels the dt^2 and dt^4 terms of the delay.  The lag is
    the band-limited peak of the correlation (`_band_limited_peak`), which
    a coarse clock biases far less than a 3-point parabola.

    The rungs share no written state, so one worker thread runs the 4 dt
    and 2 dt pairs while the calling thread runs the dt pair, about the same
    work (scipy's tridiagonal solve releases the GIL).  Each run's
    arithmetic and the order in which the rungs combine are the serial
    ones, so the result is identical to a serial ladder's, and so is the
    error: that of the coarsest failing rung.  The worker is joined before
    the call returns or raises.

    Both records of each pair must have fallen below 1e-3 of their peak
    power by the last sample (`RecordTruncatedError` otherwise), so a
    window that cuts a dispersive packet short cannot pass as a delay.

    The grid has nodes on both barrier faces (`_anchored_grid`).  Quasi-static
    precondition: delta_k <= 0.05 * kappa in the tunneling regime.  Defaults
    are dx = L / ceil(20 k0 L) <= 1/(20 k0) and a finest step
    dt = 128 (1/(20 k0))^2 = 0.32 / k0^2, which does not follow dx; an
    explicit dx is an upper bound and an explicit dt the finest step.
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

    def free_width(t: float) -> float:
        return sigma_x * math.sqrt(1.0 + (t / (2.0 * sigma_x ** 2)) ** 2)

    v = k0
    x_det = barrier.length + 5.0 * sigma_x
    t_arrival = (x_det - packet.x0) / v
    t_end = t_arrival + _WINDOW_WIDTHS * free_width(t_arrival) / v
    # free-packet dispersion over the run sets the box margins
    sigma_end = free_width(t_end)
    x_refl_end = -v * t_end - packet.x0  # reflected peak position at t_end
    x, potential, dx = _anchored_grid(
        barrier,
        min(packet.x0, x_refl_end) - 10.0 * sigma_end,
        packet.x0 + v * t_end + 10.0 * sigma_end,
        1.0 / (20.0 * k0) if dx is None else dx,
    )
    if dt is None:
        dt = _DEFAULT_DT_PER_CELL2 / (20.0 * k0) ** 2
    clock = 4.0 * dt
    records = math.ceil(t_end / clock)

    # x - x0 counted in whole cells from the node nearest x0, so each cell's
    # phase roundoff grows with its distance from the launch point, not with
    # |x| as it would through x itself
    launch = int(round((packet.x0 - x[0]) / dx))
    offset = (np.arange(x.size) - launch) * dx + (x[launch] - packet.x0)
    psi0 = np.exp(-(offset ** 2) / (4.0 * sigma_x ** 2) + 1j * k0 * offset)
    psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * dx)

    detector = int(round((x_det - x[0]) / dx))
    edge_cells = max(4, int(round(2.0 * sigma_end / dx)))

    band = _sine_band(psi0)  # the free runs' modes, shared by the ladder

    def rung(every: int):
        """Times, norm error and leak of the pair at step clock / every."""
        step = clock / every
        layout = (psi0, detector, records * every, every, edge_cells, dx)
        series_b, norm_b, leak_b = _watched_run(
            _cayley_run(psi0, potential, dx, step, detector, every), *layout
        )
        series_f, norm_f, leak_f = _watched_run(
            _free_run(psi0, dx, step, detector, every, edge_cells, band), *layout
        )
        return _pair_times(series_b, series_f, clock), max(norm_b, norm_f), max(leak_b, leak_f)

    # imported here, as `_cayley_run` imports LAPACK: no CLI experiment runs the oracle
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as worker:
        coarser = worker.submit(lambda: [rung(1), rung(2)])
        try:
            finest, error = rung(4), None
        except Exception as exc:
            error = exc
        # outside the handler, so that a coarser rung's error comes first, as
        # in a serial ladder, and carries no trace of the dt rung's
        rungs = coarser.result()
    if error is not None:
        raise error
    (coarsest, coarse, fine), norms, leaks = zip(*rungs, finest)
    norm_error, leak = max(norms), max(leaks)
    pair_fine = fine + (fine - coarse) / 3.0  # R2(dt, 2 dt)
    pair_coarse = coarse + (coarse - coarsest) / 3.0  # R2(2 dt, 4 dt)
    delay, arrival_barrier, arrival_free = pair_fine + (pair_fine - pair_coarse) / 15.0
    return TdseResult(
        delay=float(delay),
        arrival_with_barrier=float(arrival_barrier),
        arrival_free=float(arrival_free),
        norm_error=norm_error,
        boundary_leak=leak,
        dt_error=float(abs(pair_fine[0] - pair_coarse[0])),
    )
