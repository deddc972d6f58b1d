"""Shared spectral substrate: frequency grids, the unitarity defect, the
sampled-phase oracle, and the two-wave barrier of the quantum rectangle and
the uniform grating.  One scalar kernel over k D, k the incident wave
number, serves t and r, the exact group delay and the exact field integral;
an array goes value by value, about 3 us a value on a 2-core x86-64 host.
These barriers have tau_r = tau_t: r = i b (sinh(z)/rate) t with b and
rate^2 real, so sinh(z)/rate is real and arg r - arg t is constant between
the zeros of r.  No runtime path reads a sampled phase: the oracle
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
import contextlib
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

# Taylor coefficients 1/19!, 1/17!, ..., 1/3! of h(z) = (sinh z - z)/z^3 in z^2;
# below twice the cutoff (the field integral's h(2z)) they reach roundoff and
# avoid the cancellation in sinh z - z
_H_SERIES = tuple(1.0 / math.factorial(n) for n in range(19, 2, -2))
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

    ``omega0``, ``detunings``, their sums, spacing and span must be finite,
    and ``detunings`` strictly increasing with constant spacing and at least 5
    samples (the sampled-phase oracle's stencil needs them).
    """

    omega0: float
    detunings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "detunings", _as_float_array(self.detunings))
        d = self.detunings
        if d.ndim != 1 or d.size < 5:
            raise ValueError("grid needs at least 5 samples")
        if not (math.isfinite(self.omega0) and np.all(np.isfinite(d))):
            raise ValueError("grid carrier and detunings must be finite")
        # finite detunings may still lie further apart than the float range
        with np.errstate(over="ignore"):
            steps = np.diff(d)
            if not (np.all(np.isfinite(steps)) and np.isfinite(d[-1] - d[0])):
                raise ValueError("grid spacing and span must be finite")
            if steps[0] <= 0.0:
                raise ValueError("grid spacing must be positive")
            # a spread that overflows is past any tolerance
            if np.max(np.abs(steps - steps[0])) > _UNIFORMITY_TOL * steps[0]:
                raise ValueError("grid must be uniformly spaced")
        # the sums are monotone in the detuning, so the ends bound them all;
        # a Python float sum overflows to inf, with no warning
        if not all(math.isfinite(self.omega0 + float(x)) for x in (d[0], d[-1])):
            raise ValueError("grid frequencies omega0 + detunings must be finite")

    @classmethod
    def centered(cls, omega0: float, half_width: float, count: int) -> "FrequencyGrid":
        """Grid of ``count`` samples spanning ``omega0 +/- half_width``."""
        if count < 5:
            raise ValueError("grid needs at least 5 samples")
        if not (half_width > 0.0 and math.isfinite(half_width)):
            raise ValueError("half_width must be positive and finite")
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
        # Python floats carry an overflow to inf with no RuntimeWarning
        pos = (float(omega) - float(self.omega0) - float(self.detunings[0])) / self.spacing
        if not math.isfinite(pos):
            raise EdgeOfGridError(f"omega={omega} not on the grid")
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
    """max |weight |t|^2 + |r|^2 - 1|, zero when lossless; a stack's weight is n_out/n_in.

    Raises ValueError for a t, r or weight that is not finite, and
    NonFiniteResultError where the sum overflows.
    """
    t, r = np.asarray(t, dtype=complex), np.asarray(r, dtype=complex)
    if not (math.isfinite(weight) and np.all(np.isfinite(t)) and np.all(np.isfinite(r))):
        raise ValueError("t, r and weight must be finite")
    with named_float_errors("unitarity defect"):
        # |t| of a finite t may overflow to inf with no numpy warning
        defect = float(np.max(np.abs(weight * np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)))
    return _finite(defect, "unitarity defect")


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


def _finite(value: float, what: str) -> float:
    """``value``, or NonFiniteResultError naming ``what`` where it is inf or nan."""
    if not math.isfinite(value):
        raise NonFiniteResultError(f"{what} is not finite")
    return value


@contextlib.contextmanager
def named_float_errors(what: str):
    """NonFiniteResultError, its message led by ``what``, at numpy's overflow, 1/0 or invalid value.

    Python floats raise OverflowError or ZeroDivisionError at some of these,
    mapped too, and carry the rest to inf or nan, so a float result is checked
    too (:func:`_finite`).  The CLI runs each experiment under it, by kind.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except ArithmeticError as exc:  # FloatingPointError from numpy among them
        raise NonFiniteResultError(f"{what}: {type(exc).__name__}: {exc}") from exc


def _ratio(numerators, denominators) -> float:
    """prod(numerators)/prod(denominators), binary exponents summed as integers: no partial
    product over- or underflows, so the ratio is exact to roundoff wherever it is a float."""
    mantissa, exponent = 1.0, 0
    for x in numerators:
        m, e = math.frexp(x)
        mantissa, exponent = mantissa * m, exponent + e
    for x in denominators:
        m, e = math.frexp(x)
        mantissa, exponent = mantissa / m, exponent - e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def _two_wave_denominator(rate: complex, c: float, k: float, length: float):
    """z = rate L, e^{-Re z}, e^{-z - Re z}, cosh z, sinh(z)/rate and k D, times e^{-Re z}.

    The field of a two-wave barrier is a cosh/sinh combination of ``rate``
    (Re >= 0) inside, and t = 1/D with k D = k cosh z + i c sinh(z)/rate for
    the incident wave number ``k``; this is the one place k D is formed, so
    c/k is never formed.  cosh and sinh are carried times e^{-Re z}, and
    sinh(z)/rate is (e^{i Im z} - e^{-z - Re z})/(2 rate), which no
    length multiplies: an opaque barrier's t underflows to zero while r
    stays exact, an infinite Re z is the opaque limit, and an infinite Im z
    or k D raises NonFiniteResultError.  The series L (1 + z^2 h(z)) near
    z = 0 takes rate = 0 (the barrier top).  There c L can overflow k D
    where t, r and the delay are finite, so every value but z is also
    carried times 2^-j, 2^j an exact power of two near max(1, |c| L), and L
    enters as L 2^-j: t = 0 and |r| = 1 on a barrier too long for c L.
    """
    z = rate * length
    if not math.isfinite(z.imag):  # cmath.exp would raise a bare ValueError
        raise NonFiniteResultError(f"phase {z.imag!r} of rate x length is not finite")
    turn, decay, far = cmath.exp(1j * z.imag), math.exp(-z.real), cmath.exp(-z - z.real)
    if abs(z) < _H_SERIES_CUTOFF:
        # at least 2^-1020, so e^{-Re z} 2^-j stays a normal float; 1 at c L = 0
        j = math.frexp(c)[1] + math.frexp(length)[1] if c * length else 0
        scale = math.ldexp(1.0, -min(max(0, j), 1020))
        sinh_over_rate = length * scale * (1.0 + z * z * _h_series(z)) * decay
        turn, decay, far = turn * scale, decay * scale, far * scale
    else:
        sinh_over_rate = 0.5 * (turn - far) / rate
    cosh_z = 0.5 * (turn + far)
    d = k * cosh_z + 1j * c * sinh_over_rate
    if not cmath.isfinite(d):  # t, r, the delay and the integral would read 0
        raise NonFiniteResultError(f"scaled k D = {d!r} is not finite")
    return z, decay, far, cosh_z, sinh_over_rate, d


def _two_wave_t_r(rate: complex, c: float, beta: float, k: float, length: float):
    """t = k e^{-Re z}/(k D) and r = i beta S/(k D), S = sinh(z)/rate real as rate^2 is.

    ``beta`` = b k for r = i b S/D.  |t| and beta S/|k D| are one :func:`_ratio` each, as
    k e^{-Re z} and beta S can leave the float range where they do not.
    """
    _, decay, _, _, sinh_over_rate, d = _two_wave_denominator(rate, c, k, length)
    size = abs(d)
    cos, sin = d.real / size, d.imag / size
    t, r = _ratio((k, decay), (size,)), _ratio((beta, sinh_over_rate.real), (size,))
    return complex(t * cos, -t * sin), complex(r * sin, r * cos)


def _two_wave_arrays(values: np.ndarray, setup, length: float):
    """t and r of :func:`_two_wave_t_r` at each float of ``values``, in its shape.

    ``setup`` maps one value to its (rate, c, beta, k), or raises outside its
    domain; a t or r that is inf or nan raises NonFiniteResultError.
    """
    with named_float_errors("t and r"):
        pairs = [_two_wave_t_r(*setup(x), length) for x in values.ravel().tolist()]
    t_r = np.array(pairs, dtype=complex).T.copy().reshape((2,) + values.shape)
    if not np.all(np.isfinite(t_r)):
        raise NonFiniteResultError("t and r are not finite")
    return t_r[0], t_r[1]


def _two_wave_delay(rate, c, k, dc, dk, ds, length: float) -> float:
    """Exact group delay -Im(D'/D) = -Im((k D)'/(k D)) of a two-wave barrier.

    For the x that ``dc``, ``dk`` and ``ds`` = d(rate^2) differentiate by, with
    S = sinh(z)/rate real, d cosh z = (L/2) S ds and dS = (L^3/2) g(z) ds,
    g(z) = (z cosh z - sinh z)/z^3 (see :func:`_two_wave_denominator`):

        Im((k D)'/(k D)) = [ds (L/2) c k (L^2 g cosh z - S^2) + (dc k - dk c) S cosh z] / |k D|^2.

    Below the cutoff the ds and dc terms are one :func:`_ratio` each: no
    power of L, c or k is formed.  Above it, from sinh z - cosh z = -e^{-z},
    they are ds (L/2) Im[1/rate - e^{-z} (k - i c/rate)/(rate k D)]
    + Re[(dc - ds c/(2 rate^2)) S/(k D)], where L multiplies only Im of the
    bracket, which has no 1/rate part below the barrier top, so nothing of
    order rate L cancels at any length; ds meets Im of the bracket before L,
    and c meets 1/rate before ds, so a grating's delay holds where kappa,
    delta and 1/L share any scale.  The dk term is one :func:`_ratio` on both sides.
    """
    z, decay, far, cosh_z, sinh_over_rate, d = _two_wave_denominator(rate, c, k, length)
    size, s, ch = abs(d), sinh_over_rate.real, cosh_z.real
    if abs(z) < _H_SERIES_CUTOFF:
        # sinh(z/2)^2 = (z/2)^2 q^2, so cosh z = 1 + z^2 q^2/2 and g = q^2/2 - h(z)
        h, q2 = _h_series(z), (1.0 + 0.25 * z * z * _h_series(0.5 * z)) ** 2
        spread = ((0.5 * q2 - h) * (1.0 + 0.5 * z * z * q2) - (1.0 + z * z * h) ** 2).real
        slope = (_ratio((0.5, ds, c, k, length, length, length, spread, decay, decay),
                        (size, size)) + _ratio((dc, k, s, ch), (size, size)))
    else:
        bracket = 1.0 / rate - far * (k - 1j * c / rate) / (rate * d)
        slope = (ds * bracket.imag * 0.5 * length
                 + ((dc - 0.5 * ds * (c / rate) / rate) * sinh_over_rate / d).real)
    slope -= _ratio((dk, c, s, ch), (size, size))
    # 0.0 - x rather than -x, so a zero delay (L = 0) is +0.0, never -0.0
    return 0.0 - slope


def _two_wave_integral(rate, c, k, coupling, length: float) -> float:
    """|t|^2 L [1 + 4 a b L^2 h(2 rate L)] / k, h(z) = (sinh z - z)/z^3, coupling = (a, b).

    The exact integral of |field|^2 over a two-wave barrier of length L
    (see :func:`_two_wave_denominator`) per incident flux k.  Below the cutoff
    its two terms are one :func:`_ratio` each, so no power of L, nor a b, is
    formed.  Above it, with z = rate L and g = a/rate b/rate formed first, the
    product L (1 - g) + g sinh(z) cosh(z)/rate, times e^{-2 Re z}, is
    divided by |k D| before k multiplies and after: |t|^2 is never formed.
    """
    z, decay, _, cosh_z, sinh_over_rate, d = _two_wave_denominator(rate, c, k, length)
    size = abs(d)
    a, b = coupling
    if abs(z) < _H_SERIES_CUTOFF:
        return (_ratio((k, length, decay, decay), (size, size))
                + _ratio((4.0, a, b, k, length, length, length, _h_series(2.0 * z).real,
                          decay, decay), (size, size)))
    g = a / rate * b / rate
    product = length * decay * decay * (1.0 - g) + g * sinh_over_rate * cosh_z
    return product.real / size * k / size


def locate_peak(times, samples) -> float:
    """Peak time of a nonnegative series, refined by a 3-point parabola.

    Requires a strict interior maximum; the refinement fits a quadratic
    through the maximum sample and its two neighbours and returns the vertex.
    Raises ValueError for a time or sample that is not finite, and
    NonFiniteResultError where the fit overflows.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(samples, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size < 3:
        raise ValueError("times and samples must be equal-length 1-D arrays")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("times and samples must be finite")
    if np.all(v == v[0]):
        raise FlatSignalError("all samples equal")
    j = int(np.argmax(v))
    if j == 0 or j == t.size - 1:
        raise PeakAtBoundaryError("maximum sits on the record boundary")
    t0, t1, t2 = t[j - 1], t[j], t[j + 1]
    v0, v1, v2 = v[j - 1], v[j], v[j + 1]
    with named_float_errors("peak refinement"):
        # vertex of the parabola through three (generally non-uniform) points
        denom = (t1 - t0) * (v1 - v2) - (t1 - t2) * (v1 - v0)
        if denom <= 0.0:
            # degenerate plateau around the max; the sample itself is the answer
            return float(t1)
        num = (t1 - t0) ** 2 * (v1 - v2) - (t1 - t2) ** 2 * (v1 - v0)
        return float(t1 - 0.5 * num / denom)
