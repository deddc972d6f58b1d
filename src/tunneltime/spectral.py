"""Shared spectral substrate: frequency grids, the unitarity defect, the
sampled-phase oracle, and the two-wave barrier of the quantum rectangle and
the uniform grating (scaled closed-form t and r, exact group delay, exact
field integral).  No runtime path reads a sampled phase: the oracle
(`ComplexResponse`, `unwrap_phase`, `phase_derivative`) is what the tests
check the exact delays against, and `photonic.phase_energy_check` unwraps
the march's own phase.

Conventions
-----------
Frequencies are angular (rad per unit time).  A grid stores a carrier
``omega0`` plus uniformly spaced detunings, so ``omegas = omega0 + detunings``.
Phases are the argument of the complex transmission and are unwrapped with a
nearest-multiple-of-2*pi step correction; grids must be fine enough that the
true phase change per step stays below pi (enforced, never silently patched).

All operations here are pure functions of immutable inputs and are safe to
call concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    EdgeOfGridError,
    FlatSignalError,
    NonConvergentError,
    NonFiniteResultError,
    PeakAtBoundaryError,
    UndersampledPhaseError,
    ZeroAmplitudeError,
)

_TWO_PI = 2.0 * np.pi

# |t| below this is treated as an exact zero (phase undefined)
_AMPLITUDE_FLOOR = 1e-300

# fractional non-uniformity tolerated in "uniform" grids
_UNIFORMITY_TOL = 1e-9

# Taylor coefficients 1/13!, 1/11!, ..., 1/3! of h(z) = (sinh z - z)/z^3 in z^2;
# below the cutoff they reach roundoff and avoid the cancellation in sinh z - z
_H_SERIES = tuple(1.0 / math.factorial(n) for n in range(13, 2, -2))
_H_SERIES_CUTOFF = 0.5


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _as_complex_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of angular frequencies around a carrier ``omega0``.

    ``detunings`` must be strictly increasing with constant spacing and hold
    at least 5 samples (the sampled-phase oracle's stencil needs them).
    """

    omega0: float
    detunings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "detunings", _as_float_array(self.detunings))
        d = self.detunings
        if d.ndim != 1 or d.size < 5:
            raise ValueError("grid needs at least 5 samples")
        steps = np.diff(d)
        if steps[0] <= 0.0:
            raise ValueError("grid spacing must be positive")
        if np.max(np.abs(steps - steps[0])) > _UNIFORMITY_TOL * steps[0]:
            raise ValueError("grid must be uniformly spaced")

    @classmethod
    def centered(cls, omega0: float, half_width: float, count: int) -> "FrequencyGrid":
        """Grid of ``count`` samples spanning ``omega0 +/- half_width``."""
        if count < 5:
            raise ValueError("grid needs at least 5 samples")
        if half_width <= 0.0:
            raise ValueError("half_width must be positive")
        return cls(omega0, np.linspace(-half_width, half_width, count))

    @property
    def count(self) -> int:
        return self.detunings.size

    @property
    def spacing(self) -> float:
        return float(self.detunings[1] - self.detunings[0])

    @property
    def omegas(self) -> np.ndarray:
        return self.omega0 + self.detunings

    @property
    def span(self) -> float:
        return float(self.detunings[-1] - self.detunings[0])

    def index_of(self, omega: float) -> int:
        """Index of the grid sample nearest to ``omega`` (must lie on grid)."""
        pos = (omega - self.omega0 - self.detunings[0]) / self.spacing
        j = int(round(pos))
        if j < 0 or j >= self.count or abs(pos - j) > 0.5:
            raise EdgeOfGridError(f"omega={omega} not on the grid")
        return j


@dataclass(frozen=True)
class ComplexResponse:
    """Complex transmission/reflection sampled on a frequency grid."""

    grid: FrequencyGrid
    t: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", _as_complex_array(self.t))
        object.__setattr__(self, "r", _as_complex_array(self.r))
        if self.t.shape != (self.grid.count,) or self.r.shape != (self.grid.count,):
            raise ValueError("t and r must match the grid length")


@dataclass(frozen=True)
class UnwrappedPhase:
    """Continuous phase on a grid (no 2*pi jumps), kept for the sampled-phase oracle."""

    grid: FrequencyGrid
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", _as_float_array(self.phi))
        if self.phi.shape != (self.grid.count,):
            raise ValueError("phi must match the grid length")
        if self.phi.size > 1 and np.max(np.abs(np.diff(self.phi))) >= np.pi:
            raise ValueError("unwrapped phase must step by less than pi")


class DerivativeEstimate(NamedTuple):
    """d(phi)/d(omega) and its Richardson error estimate, from the sampled-phase oracle."""

    value: float
    error: float


def unitarity_defect(t, r, weight: float) -> float:
    """max |weight |t|^2 + |r|^2 - 1|, zero when lossless; a stack's weight is n_out/n_in."""
    return float(np.max(np.abs(weight * np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)))


def unwrap_phase(resp: ComplexResponse) -> UnwrappedPhase:
    """Unwrap arg(t) over the response grid.

    Kept for the sampled-phase oracle that the tests check against; no
    runtime path calls it, and the benchmark traces this name.
    A |t| that is non-finite or below 1e-300 has no phase: ZeroAmplitudeError.
    Each step is corrected by the nearest multiple of 2*pi.  If a corrected
    step still reaches pi the direction of the jump is ambiguous and the grid
    is too coarse: UndersampledPhaseError.
    """
    mags = np.abs(resp.t)
    if not np.all(np.isfinite(mags) & (mags >= _AMPLITUDE_FLOOR)):
        raise ZeroAmplitudeError("|t| non-finite or below 1e-300; phase undefined")
    raw = np.angle(resp.t)
    jumps = np.diff(raw)
    wraps = np.round(jumps / _TWO_PI)
    corrected = jumps - _TWO_PI * wraps
    if corrected.size and np.max(np.abs(corrected)) >= np.pi * (1.0 - 1e-9):
        raise UndersampledPhaseError(
            "adjacent phase jump ~pi even after one 2*pi correction"
        )
    # phi[k] = raw[k] + 2*pi*m_k with integer m_k keeps exp(i*phi) == t/|t|
    # to roundoff regardless of grid length.
    offsets = np.concatenate(([0.0], -np.cumsum(wraps)))
    return UnwrappedPhase(resp.grid, raw + _TWO_PI * offsets)


def phase_derivative(phase: UnwrappedPhase, at: float) -> DerivativeEstimate:
    """d(phi)/d(omega) at a grid point via 5-point stencils at h and 2h.

    Kept as the sampled-phase oracle that the tests check every exact delay
    against; the benchmark traces this name.
    The Richardson pair reuses grid samples (spacings h and 2h), so the
    evaluation point must sit at least 4 samples from each grid edge.  The
    extrapolated value comes with |D(h) - D(2h)|/15 as its error estimate;
    disagreement beyond 1e-6 relative raises NonConvergentError.
    """
    grid = phase.grid
    j = grid.index_of(at)
    if j < 4 or j > grid.count - 5:
        raise EdgeOfGridError("need 4 samples on each side of the target")
    phi = phase.phi
    h = grid.spacing
    d_h = (phi[j - 2] - 8.0 * phi[j - 1] + 8.0 * phi[j + 1] - phi[j + 2]) / (12.0 * h)
    d_2h = (phi[j - 4] - 8.0 * phi[j - 2] + 8.0 * phi[j + 2] - phi[j + 4]) / (24.0 * h)
    value = d_h + (d_h - d_2h) / 15.0
    disagreement = abs(d_h - d_2h)
    # cancellation noise floor of the stencils themselves
    local_scale = float(np.max(np.abs(phi[j - 4 : j + 5])))
    noise = 64.0 * np.finfo(float).eps * max(1.0, local_scale) / h
    if disagreement > max(1e-6 * abs(value), noise):
        raise NonConvergentError(
            f"stencil refinements disagree: {d_h!r} vs {d_2h!r}"
        )
    return DerivativeEstimate(value=float(value), error=float(disagreement / 15.0))


def _h_series(z):
    """h(z) = (sinh z - z)/z^3 by its Taylor series; accurate below the cutoff."""
    h = 0.0
    for c in _H_SERIES:
        h = h * z * z + c
    return h


def _two_wave(rate, a, b, length):
    """t, r and t e^{Re(rate) L} of a two-wave barrier, vectorised over every argument.

    The field is a cosh/sinh combination of ``rate`` (Re >= 0) inside, and

        t = 1 / (cosh(rate L) + i a sinh(rate L)/rate),  r = i b (sinh(rate L)/rate) t.

    cosh and sinh are carried times e^{-Re(rate) L}: nothing overflows, an
    opaque barrier's t underflows cleanly to zero, and r and the scaled
    amplitude stay exact.  sinh(z)/z = 1 + z^2 h(z) is summed as a series near
    z = 0, so rate = 0 (the barrier top, the band edge) needs no branch.
    """
    z = np.asarray(rate, dtype=complex) * length
    decay = np.exp(-z.real)
    turn = np.exp(1j * z.imag)
    far = np.exp(-z - z.real)
    small = np.abs(z) < _H_SERIES_CUTOFF
    near = np.where(small, z, 0.0)
    series = (1.0 + near * near * _h_series(near)) * decay
    # sinh(rate L)/rate times e^{-Re z}: the series near 0, the quotient elsewhere
    sinh_over_rate = length * np.where(small, series, 0.5 * (turn - far) / np.where(small, 1.0, z))
    scaled_t = 1.0 / (0.5 * (turn + far) + 1j * a * sinh_over_rate)
    return decay * scaled_t, 1j * b * sinh_over_rate * scaled_t, scaled_t


def _turn(z: complex) -> complex:
    """e^{i Im z}; a phase Im z that overflowed has no value and raises NonFiniteResultError."""
    if not math.isfinite(z.imag):
        raise NonFiniteResultError(f"phase {z.imag!r} of rate x length is not finite")
    return cmath.exp(1j * z.imag)


def _two_wave_delay(rate, a, da, ds, length: float) -> float:
    """Exact group delay -Im(D'/D) of a two-wave barrier (see :func:`_two_wave`).

    t = 1/D with D = cosh z + i a sinh(z)/rate and z = rate L, so
    d(arg t)/dx = -Im(D'/D) for the variable x that ``da`` = da/dx and
    ``ds`` = ds/dx differentiate by, s = rate^2.  In s,

        d cosh z = (L/2) sinh(z)/rate,  d(sinh(z)/rate) = (L^3/2) g(z),

    with g(z) = (z cosh z - sinh z)/z^3, entire and even; below the cutoff
    g(z) = (1 + z^2 h(z/2)/4)^2/2 - h(z), from cosh z = 1 + 2 sinh^2(z/2).
    D and D' are carried times e^{-Re z}, which cancels in the ratio, so
    the delay stays finite where t underflows; rate = 0 needs no branch.
    Above the cutoff L^2 g is (cosh z - sinh(z)/z)/rate^2, which forms
    neither z^3 nor L^2, so no barrier is too long.
    """
    rate = complex(rate)
    z = rate * length
    decay = math.exp(-z.real)
    turn, far = _turn(z), cmath.exp(-z - z.real)
    cosh_z = 0.5 * (turn + far)
    if abs(z) < _H_SERIES_CUTOFF:
        h = _h_series(z)
        sinh_over_rate = length * (1.0 + z * z * h) * decay
        l2g = length ** 2 * (0.5 * (1.0 + 0.25 * z * z * _h_series(0.5 * z)) ** 2 - h) * decay
    else:
        sinh_z = 0.5 * (turn - far)
        sinh_over_rate = length * sinh_z / z
        l2g = (cosh_z - sinh_z / z) / rate ** 2
    d = cosh_z + 1j * a * sinh_over_rate
    d_slope = ds * 0.5 * length * (sinh_over_rate + 1j * a * l2g) + 1j * da * sinh_over_rate
    # 0.0 - x rather than -x, so a zero delay (L = 0) is +0.0, never -0.0
    return 0.0 - (d_slope / d).imag


def _two_wave_integral(scaled_t, rate, coupling: float, length: float) -> float:
    """|t|^2 L [1 + 4 coupling L^2 h(2 rate L)] with h(z) = (sinh z - z)/z^3.

    The exact integral of |field|^2 over a two-wave barrier of length L
    (see :func:`_two_wave`), given its scaled exit amplitude
    ``scaled_t`` = t e^{Re(rate) L}.  h is entire and even, h(0) = 1/6; both
    terms in the bracket are evaluated times e^{-2 Re(rate) L}, so the product
    stays exact on opaque barriers where |t|^2 alone underflows.  Above the
    cutoff 4 L^2 h is (sinh z - z)/(z rate^2), which forms neither z^3 nor
    L^2, so no barrier is too long.
    """
    z = 2.0 * complex(rate) * length
    decay = math.exp(-z.real)
    if abs(z) < _H_SERIES_CUTOFF:
        l2h = 4.0 * length ** 2 * _h_series(z) * decay
    else:  # sinh(z) e^{-Re z} = (e^{i Im z} - e^{-z - Re z}) / 2
        sinh_z = 0.5 * (_turn(z) - cmath.exp(-z - z.real))
        l2h = (sinh_z - z * decay) / (z * complex(rate) ** 2)
    return float(length * abs(scaled_t) ** 2 * (decay + coupling * l2h.real))


def locate_peak(times, samples) -> float:
    """Peak time of a nonnegative series, refined by a 3-point parabola.

    Requires a strict interior maximum; the refinement fits a quadratic
    through the maximum sample and its two neighbours and returns the vertex.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(samples, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size < 3:
        raise ValueError("times and samples must be equal-length 1-D arrays")
    if np.all(v == v[0]):
        raise FlatSignalError("all samples equal")
    j = int(np.argmax(v))
    if j == 0 or j == t.size - 1:
        raise PeakAtBoundaryError("maximum sits on the record boundary")
    t0, t1, t2 = t[j - 1], t[j], t[j + 1]
    v0, v1, v2 = v[j - 1], v[j], v[j + 1]
    # vertex of the parabola through three (generally non-uniform) points
    denom = (t1 - t0) * (v1 - v2) - (t1 - t2) * (v1 - v0)
    if denom <= 0.0:
        # degenerate plateau around the max; the sample itself is the answer
        return float(t1)
    num = (t1 - t0) ** 2 * (v1 - v2) - (t1 - t2) ** 2 * (v1 - v0)
    return float(t1 - 0.5 * num / denom)
