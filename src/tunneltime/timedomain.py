"""Time-domain validation: spectral pulse synthesis and a Schrodinger integrator.

Sign conventions match the frequency-domain modules: fields go like
e^{i(kz - wt)}, an envelope A(t) rides a carrier e^{-i omega0 t}, and its
spectrum is A~(W) = integral A(t) e^{+iWt} dt over detunings W.  Applying a
transfer function then means

    A_out(t) = (1/2pi) integral t(omega0 + W) A~(W) e^{-iWt} dW,

so the vacuum-slab response t = e^{i w L} delays the envelope by exactly L.
Records are synthesized on uniform time grids via the FFT.  A pulse's
Gaussian record spans 16 intensity FWHMs, so its ends sit near e^-88 of its
peak, and a turn-on ramp has compact support inside its record, so the FFT's
cyclic wraparound reaches no input; each output is checked at its record ends.

The Crank-Nicolson integrator provides an independent oracle for the quantum
group delay: it knows nothing about transmission phases, it just propagates
a wave packet and times the transmitted peak at a detector plane.  The run
through the barrier steps the Cayley form with one tridiagonal solve per
step (scipy's LAPACK wrappers, imported only when the oracle runs); the
free reference run is the same discrete dynamics evaluated exactly in the
sine basis that diagonalises the Dirichlet Laplacian, so it takes no steps.
It sums only the packet's occupied band of sine modes, each record at its
own exact phase, and it checks its edge leak a batch of stops at a time,
forming only the grid rows that the checks read.  Each run is one plain
function returning its detector record, final state and worst edge leak.
A detector record that has not decayed by the end of its window raises
instead of yielding a delay.  A ladder of three time steps, all recorded
on the coarsest step's clock, cancels the step's error to fourth order; a
pool of two threads takes the finest rung, whose stepped run is the longest
path, first and the two coarser rungs after it, and the result is the
serial one bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import photonic, quantum, spectral
from .errors import (
    BandTooNarrowError,
    BoundaryContaminationError,
    NormDriftError,
    RecordTruncatedError,
    WraparoundDetectedError,
)
from .photonic import LayeredStack
from .quantum import QuantumBarrier

_WRAPAROUND_LIMIT = 1e-9     # synthesized records must stay below this at ends
_DURATION_FACTOR = 16.0       # a Gaussian record spans this many intensity FWHMs
MIN_PULSE_SAMPLES = 8        # fewest samples of a pulse record
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
# front synthesis: largest phase step of t_stack conj(t_vacuum) between
# frequency-neighbouring bins (on quarter-wave stacks, records with steps
# of 0.30-0.36 rad still wrapped 1e-3..1e-2 of the pre-front fraction in
# from ring-out; none at or under pi/16 did), and the longest record grown
# to try (a run at the cap peaks at about 0.33 GB)
_PHASE_STEP_BOUND = np.pi / 16
_RECORD_CAP = 1 << 20


def _fft_length(count: int) -> int:
    """Smallest 2^a 3^b 5^c >= count, the lengths FFTs take fast: for each 3^b 5^c
    below the best so far, its least power-of-two multiple that reaches ``count``."""
    best = 1 << (count - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-count // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


@dataclass(frozen=True)
class PropagationResult:
    """Input and transmitted envelopes with their quasi-static diagnostics.

    ``a_in`` and ``a_out`` live on the record's grid ``times``.
    ``energy_balance`` is the transmitted envelope energy, weighted by
    n_out/n_in, plus the reflected envelope energy, over the input's: 1 for
    a lossless stack whatever its exit medium.
    """

    times: np.ndarray
    a_in: np.ndarray
    a_out: np.ndarray
    peak_delay: float
    width_ratio: float
    quasistatic_deviation: float
    tau_g: float
    energy_balance: float


@dataclass(frozen=True)
class FrontTestResult:
    """Energy fraction of the transmitted signal arriving before the front.

    ``pre_front_fraction`` is the stack's; ``vacuum_floor`` is the same
    fraction for the equal-length vacuum slab on the same synthesis, the
    floor that band-limiting alone leaves.  ``front_time`` is the vacuum
    transit of the stack's length, ``band`` the synthesis band and
    ``samples`` the length of the accepted synthesis record.
    """

    front_time: float
    pre_front_fraction: float
    vacuum_floor: float
    band: float
    samples: int


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian wave packet: center momentum, momentum width, launch position."""

    k0: float
    delta_k: float
    x0: float

    def __post_init__(self):
        if not (0.0 < self.k0 < math.inf and 0.0 < self.delta_k < math.inf):
            raise ValueError("k0 and delta_k must be positive and finite")
        if not -math.inf < self.x0 < 0.0:
            raise ValueError("packet must launch on the incident side, at a finite x0 < 0")

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


def propagate_spectral(
    stack: LayeredStack, omega0: float, bandwidth: float, samples: int
) -> PropagationResult:
    """Send a narrowband Gaussian pulse through a layered stack.

    The envelope exp(-t^2 / (2 sigma_t^2)) on the carrier ``omega0`` has
    sigma_t = 2 sqrt(ln 2) / ``bandwidth``, the FWHM of its power spectrum;
    its ``samples`` points, centred on t = 0, span 16 intensity FWHMs.
    Fewer than MIN_PULSE_SAMPLES samples or a bandwidth that is not
    positive raise ValueError.

    The stack is sampled once, at omega0 + W for each FFT bin's detuning W
    in FFT order, so each bin meets its own frequency; a band that reaches
    omega <= 0 raises BandTooNarrowError.  The output is the inverse
    transform of t(omega0 + W) times the input spectrum.  The quasi-static
    deviation compares the output against T0 * A(0, t - tau_g) (the
    lumped-element prediction), with T0 = t(omega0) from the zero-detuning
    bin and tau_g the exact `photonic.group_delay` at the carrier; the
    reference delayed envelope is evaluated by the exact spectral shift.
    """
    if samples < MIN_PULSE_SAMPLES or not bandwidth > 0:
        raise ValueError(
            f"a pulse needs at least {MIN_PULSE_SAMPLES} samples and a positive bandwidth"
        )
    fwhm_per_sigma = 2.0 * np.sqrt(np.log(2.0))  # intensity FWHM of the envelope in sigma_t
    with spectral.named_float_errors("pulse record"):
        sigma_t = fwhm_per_sigma / bandwidth
        span = _DURATION_FACTOR * (fwhm_per_sigma * sigma_t)
        times = (np.arange(samples) - samples // 2) * (span / samples)
        a_in = np.exp(-(times ** 2) / (2.0 * sigma_t ** 2)).astype(complex)
        dt = float(times[1] - times[0])
        omega_fft = 2.0 * np.pi * np.fft.fftfreq(samples, dt)
        omegas = omega0 + omega_fft
    lowest = float(np.min(omegas))
    if lowest <= 0.0:
        raise BandTooNarrowError(
            f"pulse band reaches omega = {lowest:.6g} <= 0; use fewer samples or less bandwidth"
        )
    t_fft, r_fft = photonic.stack_t_r_samples(stack, omegas)

    spec_in = np.fft.ifft(a_in)
    a_out = np.fft.fft(spec_in * t_fft)
    a_refl = np.fft.fft(spec_in * r_fft)

    peak_out = float(np.max(np.abs(a_out)))
    if peak_out > 0 and max(abs(a_out[0]), abs(a_out[-1])) > _WRAPAROUND_LIMIT * peak_out:
        raise WraparoundDetectedError("transmitted envelope does not decay at record ends")

    tau_g = photonic.group_delay(stack, omega0)
    a_ref = np.fft.fft(spec_in * complex(t_fft[0]) * np.exp(1j * omega_fft * tau_g))
    deviation = float(np.max(np.abs(a_out - a_ref)) / peak_out) if peak_out > 0 else 0.0

    # the input's peak is t = 0 exactly: sample n//2 has bit-equal neighbours
    peak_delay = spectral.locate_peak(times, np.abs(a_out) ** 2)
    width_ratio = _rms_width(times, a_out) / _rms_width(times, a_in)

    energy_in, energy_out, energy_refl = (
        float(np.sum(np.abs(a) ** 2) * dt) for a in (a_in, a_out, a_refl)
    )
    return PropagationResult(
        times=times,
        a_in=a_in,
        a_out=a_out,
        peak_delay=peak_delay,
        width_ratio=float(width_ratio),
        quasistatic_deviation=deviation,
        tau_g=float(tau_g),
        energy_balance=(stack.n_out / stack.n_in * energy_out + energy_refl) / energy_in,
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
    n_cycles: float = 24.0,
    hold_cycles: float = 60.0,
    band_factor: float = 50.0,
) -> FrontTestResult:
    """Fraction of transmitted energy arriving before the light front, with its control.

    The carrier at ``omega_mid`` is switched on by a C1 raised-cosine ramp of
    ``n_cycles`` carrier cycles, held for ``hold_cycles`` and switched off by
    the mirrored ramp; a ``n_cycles`` that is not positive or a negative
    ``hold_cycles`` raises ValueError before anything else.  The signal is
    synthesized over a band of ``band_factor`` times the width of the
    stack's stopband at ``omega_mid`` (the front is broadband); a passband
    ``omega_mid`` raises NotInStopbandError before any synthesis.  The
    ramp's spectrum is formed
    once and sent through the stack and through the equal-length vacuum
    slab, whose response is e^{i omega L} in closed form; neither output can
    arrive before the vacuum transit of the total length, and the slab's
    pre-front fraction is the floor band-limiting alone leaves.

    The band fixes the sample step, and the record starts at the smallest
    2^a 3^b 5^c length that holds the ramp, the transit and a ring-out
    allowance (4096 samples at least).  The FFT record is periodic, so
    energy that band-edge resonances store past its end wraps into the
    pre-front window; the record resolves them when the phase of
    t_stack conj(t_vacuum) turns by at most pi/16 between
    frequency-neighbouring bins.  Until it does, the record grows to the
    next such length of at least twice its size, or more if the measured
    step asks for it, but not past 2^20 samples, and the stack is marched
    again; the accepted record's length is ``FrontTestResult.samples``.
    The stack is the only thing marched.  A stack still unresolved at
    2^20 samples raises WraparoundDetectedError, as does transmitted power
    above 1e-6 of its peak in the accepted record's last 2 %.
    """
    if not (n_cycles > 0 and hold_cycles >= 0):
        raise ValueError("n_cycles must be positive and hold_cycles nonnegative")
    if not band_factor >= 50.0:
        raise BandTooNarrowError("synthesis band must cover at least 50x the stopband")
    stopband_width = photonic.find_stopband(stack, omega_mid).width
    band = band_factor * stopband_width
    if band >= 1.9 * omega_mid:
        raise BandTooNarrowError(
            "required band reaches nonpositive frequencies; stopband too wide"
        )

    length = stack.total_length
    cycle = 2.0 * np.pi / omega_mid
    rise = n_cycles * cycle
    hold = hold_cycles * cycle
    # ring-out sizing: stopband-edge resonances decay on ~1/width scales
    ring = 80.0 * max(cycle, 2.0 * np.pi / stopband_width)
    t_on = 8.0 * rise
    duration = t_on + 2.0 * rise + hold + length + ring

    # the band fixes dt exactly, so every synthesis frequency stays positive
    dt = 2.0 * np.pi / band
    needed = duration / dt
    if not needed <= _RECORD_CAP:  # an infinite duration too
        raise WraparoundDetectedError(
            f"the front synthesis needs {needed:.6g} samples, past the cap of {_RECORD_CAP}")
    count = max(4096, math.ceil(needed))
    while True:
        n = _fft_length(count)
        omegas = omega_mid + 2.0 * np.pi * np.fft.fftfreq(n, dt)
        t_stack, _ = photonic.stack_t_r_samples(stack, omegas)
        # t_stack conj(t_vacuum) from bin to bin in frequency order: the vacuum
        # factor e^{i omega L} turns every step by the same e^{i d_omega L}
        ordered = np.fft.fftshift(t_stack)
        turns = ordered[1:] * ordered[:-1].conj() * cmath.exp(-2j * np.pi * length / (n * dt))
        step = float(np.max(np.abs(np.angle(turns))))
        if step <= _PHASE_STEP_BOUND:
            break
        if n >= _RECORD_CAP:
            raise WraparoundDetectedError(
                f"the stack's response still steps {step:.3g} rad between bins "
                f"at the cap of {_RECORD_CAP} samples"
            )
        count = min(_RECORD_CAP, max(2 * n, math.ceil(n * step / _PHASE_STEP_BOUND)))
    t_vacuum = np.exp(1j * length * omegas)

    times = np.arange(n) * dt
    spec_in = np.fft.ifft(_ramp_envelope(times, t_on, rise, hold))
    # the samples before the front are a prefix of the ascending times
    front_sample = int(np.searchsorted(times, t_on + length))

    def pre_front_fraction(t_fft: np.ndarray) -> float:
        power = np.abs(np.fft.fft(spec_in * t_fft)) ** 2
        # the record-end samples sit at the synthesis floor (the quantity this
        # test measures); only gross wraparound of the physical ring is an error
        if np.max(power[int(0.98 * n):]) > 1e-6 * float(np.max(power)):
            raise WraparoundDetectedError("transmitted record does not ring out; enlarge it")
        return float(np.sum(power[:front_sample])) / float(np.sum(power))

    return FrontTestResult(
        front_time=length,
        pre_front_fraction=pre_front_fraction(t_stack),
        vacuum_floor=pre_front_fraction(t_vacuum),
        band=band,
        samples=n,
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


def _stops(steps: int) -> list:
    """Leak-check steps of a run: every ``max(1, steps // 64)``-th and the last."""
    every = max(1, steps // 64)
    return list(range(every, steps, every)) + [steps]


def _worse_leak(worst: float, leak: float) -> float:
    """The larger of two edge leaks; over 1e-10 it is `BoundaryContaminationError`."""
    worst = max(worst, float(leak))
    if worst > 1e-10:
        raise BoundaryContaminationError(f"{worst:.3e} of the norm reached the domain edges")
    return worst


def _cayley_run(psi0, potential, dx, dt, detector, every, steps, edge_cells):
    """Stepped Crank-Nicolson run: records, final psi and worst edge leak.

    The Cayley form A psi' = B psi has A = I + i dt H / 2 and B = 2I - A, so
    psi' = (A/2)^-1 psi - psi: A/2, exactly half of A, is LU-factored once
    (gttrf) and each step is one tridiagonal solve (gttrs).  psi[detector]
    is recorded at step 0 and at every ``every``-th step, and the probability
    in psi's first and last ``edge_cells`` entries is checked at each of
    `_stops` (`_worse_leak`).
    """
    from scipy.linalg import lapack

    a_main = 0.5 + 0.25j * dt * (1.0 / dx ** 2 + potential)
    a_off = np.full(psi0.size - 1, -0.125j * dt / dx ** 2)
    gttrf, gttrs = lapack.get_lapack_funcs(("gttrf", "gttrs"), (a_main, psi0))
    dl, d, du, du2, ipiv, info = gttrf(a_off, a_main, a_off)
    if info != 0:
        raise RuntimeError(f"tridiagonal factorization failed (info={info})")
    stops = set(_stops(steps))
    psi, records, worst = psi0, [psi0[detector]], 0.0
    for step in range(1, steps + 1):
        chi, info = gttrs(dl, d, du, du2, ipiv, psi)
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed (info={info})")
        chi -= psi
        psi = chi
        if step % every == 0:
            records.append(psi[detector])
        if step in stops:
            edges = np.sum(np.abs(psi[:edge_cells]) ** 2) + np.sum(np.abs(psi[-edge_cells:]) ** 2)
            worst = _worse_leak(worst, edges * dx)
    return np.asarray(records), psi, worst


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


def _edge_leaks(n, m, modes, theta, stops, edge_cells, dx) -> np.ndarray:
    """Probability in psi's first and last ``edge_cells`` entries at each of
    ``stops``, psi at step s having amplitudes e^{-i theta s} ``modes`` on
    the sine modes numbered ``m``.

    Row j = R b + r of phi_m is sqrt(2/(n+1)) sin(a (R b + r + 1) m) with
    a = pi/(n+1), and by angle addition that is
    cos(a R b m) sin(a (r+1) m) + sin(a R b m) cos(a (r+1) m), so each block
    of R rows is built in turn from four tables of about sqrt(edge_cells)
    rows, and no edge_cells-row table is held.  The right edge mirrors the
    left, phi_m[n-1-j] = (-1)^(m+1) phi_m[j]: with u and v a block's rows
    summed over the even and the odd modes, the left rows are u + v and the
    mirrored right rows v - u, so the two edges hold 2 (|u|^2 + |v|^2).
    The stops go in batches of max(1, n // modes.size), so one batch's
    amplitudes fill at most one grid vector.
    """
    block = math.isqrt(edge_cells - 1) + 1
    starts = np.arange(0, edge_cells, block)
    offsets = np.arange(1, block + 1)
    scale = np.sqrt(2.0 / (n + 1))
    # alternate modes have alternate parities: one class first, then the other
    order = np.r_[0 : m.size : 2, 1 : m.size : 2]
    m, modes, theta, split = m[order], modes[order], theta[order], (m.size + 1) // 2
    # every table has one column per mode
    outer_cos = scale * _sines(np.cos, n, starts, m)
    outer_sin = scale * _sines(np.sin, n, starts, m)
    inner_sin = _sines(np.sin, n, offsets, m)
    inner_cos = _sines(np.cos, n, offsets, m)
    stops = np.asarray(stops)
    batch = max(1, n // m.size)
    leaks = np.empty(stops.size)
    for i in range(0, stops.size, batch):
        amps = -1j * theta * stops[i : i + batch, None]
        np.exp(amps, out=amps)
        amps *= modes
        # real parts over imaginary parts, so one real product serves both
        parts = np.concatenate((amps.real, amps.imag))
        del amps
        power = np.zeros(parts.shape[0])
        for start, cos_b, sin_b in zip(starts, outer_cos, outer_sin):
            width = min(block, edge_cells - start)
            table = inner_sin[:width] * cos_b
            table += inner_cos[:width] * sin_b
            for cls in (slice(None, split), slice(split, None)):
                rows = parts[:, cls] @ table[:, cls].T
                power += np.einsum("ij,ij->i", rows, rows)
        leaks[i : i + batch] = power[: power.size // 2] + power[power.size // 2 :]
    return 2.0 * dx * leaks


def _free_run(psi0, dx, dt, detector, every, steps, edge_cells, band):
    """Free (V = 0) Crank-Nicolson run, exact in the sine basis: records,
    final psi and worst edge leak, as `_cayley_run` returns them.

    The Dirichlet H0 has the `_dst1` basis as eigenvectors and eigenvalues
    lambda_m = (1 - cos(pi m / (n+1))) / dx^2, so a Crank-Nicolson step
    multiplies mode m by (1 - i dt lambda_m / 2) / (1 + i dt lambda_m / 2)
    = e^{-i theta_m}, theta_m = 2 arctan(dt lambda_m / 2).  Step s is then
    psi_s = DST(e^{-i theta s} c) with c = DST(psi0), and no step is taken.

    Only psi0's occupied band of modes enters (``band``, from `_sine_band`,
    shared by every run of one psi0).  Each record is one sum over the band
    at its own phase e^{-i theta s}.  The leaks at all of `_stops` come from
    psi's first and last ``edge_cells`` rows, a batch of stops at a time
    (`_edge_leaks`), and are scanned in stop order, so the run raises at the
    first stop over the gate (`_worse_leak`) as a stepped run would.  The
    final psi is the run's one `_dst1`.
    """
    n = psi0.size
    lo, modes = band
    m = np.arange(lo + 1, lo + modes.size + 1)
    # 2 sin^2(a/2) is 1 - cos(a) without cancellation at the packet's long wavelengths
    lam = 2.0 * np.sin(0.5 * np.pi * m / (n + 1)) ** 2 / dx ** 2
    theta = 2.0 * np.arctan(0.5 * dt * lam)
    at_detector = np.sqrt(2.0 / (n + 1)) * _sines(np.sin, n, detector + 1, m) * modes
    worst = 0.0
    for leak in _edge_leaks(n, m, modes, theta, _stops(steps), edge_cells, dx):
        worst = _worse_leak(worst, leak)
    records = [np.sum(at_detector * np.exp(-1j * theta * s)) for s in range(0, steps + 1, every)]
    full = np.zeros(n, dtype=complex)
    full[lo : lo + modes.size] = np.exp(-1j * theta * steps) * modes
    return np.asarray(records), _dst1(full), worst


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
    `_sine_band` shared by every free run).  Each run returns its record,
    final psi and worst leak, checking the leak at each of `_stops`
    against one gate (`_worse_leak`); the rung checks both final norms.
    The barrier/free pair runs at steps dt, 2 dt and 4 dt, and all six runs
    record on one clock of 4 dt.  Crank-Nicolson turns a mode by 2 arctan(dt lambda / 2),
    whose error is even in dt, so the ladder of `TdseResult` cancels the
    dt^2 and dt^4 terms of the delay.  The lag is the band-limited peak of
    the correlation (`_band_limited_peak`), which a coarse clock biases far
    less than a 3-point parabola.

    The rungs share no written state, so a pool of two threads takes the dt
    pair first, then the 4 dt and the 2 dt pairs as a thread frees (scipy's
    tridiagonal solve releases the GIL).  With the free runs' leaks checked
    in batches the threads carry about equal work, and the dt pair's Cayley
    steps, 4/3 as many as the other two rungs' together, are the critical
    path.  Each run's arithmetic and the order in which the rungs combine
    are the serial ones, and results are read coarsest first, so the result
    is identical to a serial ladder's, and so is the error: that of the
    coarsest failing rung.  The pool is joined before the call returns or raises.

    Both records of each pair must have fallen below 1e-3 of their peak
    power by the last sample (`RecordTruncatedError` otherwise), so a
    window that cuts a dispersive packet short cannot pass as a delay.

    The grid has nodes on both barrier faces (`_anchored_grid`).  Quasi-static
    precondition: delta_k <= 0.05 * kappa in the tunneling regime.  Defaults
    are dx = L / ceil(20 k0 L) <= 1/(20 k0) and a finest step
    dt = 128 (1/(20 k0))^2 = 0.32 / k0^2, which does not follow dx; an
    explicit dx is an upper bound and an explicit dt the finest step, each
    positive and finite; sizing past the float range raises NonFiniteResultError.
    """
    if not all(step is None or 0.0 < step < math.inf for step in (dx, dt)):
        raise ValueError("an explicit dx or dt must be positive and finite")
    k0, sigma_x = packet.k0, packet.sigma_x
    with spectral.named_float_errors("oracle grid"):
        energy = 0.5 * k0 * k0
        _, kappa, _ = quantum._wave_numbers(barrier, energy)
        if energy < barrier.v0 and packet.delta_k > 0.05 * kappa.real:
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
        x_lo = min(packet.x0, x_refl_end) - 10.0 * sigma_end
        x_hi = packet.x0 + v * t_end + 10.0 * sigma_end
        if dt is None:
            dt = _DEFAULT_DT_PER_CELL2 / (20.0 * k0) ** 2
        clock = spectral._finite(4.0 * dt, "record clock 4 dt")
        # an infinite run time, which an infinite box end needs, overflows here
        records = math.ceil(t_end / clock)
        dx_max = 1.0 / (20.0 * k0) if dx is None else dx
        x, potential, dx = _anchored_grid(barrier, x_lo, x_hi, dx_max)

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
        layout = (dx, clock / every, detector, every, records * every, edge_cells)
        series_b, psi, leak_b = _cayley_run(psi0, potential, *layout)
        norm_b = abs(float(np.sum(np.abs(psi) ** 2) * dx) - 1.0)
        del psi  # one final state is held at a time
        series_f, psi, leak_f = _free_run(psi0, *layout, band)
        norm = max(norm_b, abs(float(np.sum(np.abs(psi) ** 2) * dx) - 1.0))
        if norm > 1e-8:
            raise NormDriftError(f"norm drifted by {norm:.3e}")
        return _pair_times(series_b, series_f, clock), norm, max(leak_b, leak_f)

    # imported here, as `_cayley_run` imports LAPACK: no CLI experiment runs the oracle
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(2) as pool:
        # the dt rung first, the others queued behind; read coarsest first, so
        # a failure raises the serial ladder's error, with no other as context
        futures = {every: pool.submit(lambda every=every: rung(every)) for every in (4, 1, 2)}
        rungs = [futures[every].result() for every in (1, 2, 4)]
    (coarsest, coarse, fine), norms, leaks = zip(*rungs)
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
