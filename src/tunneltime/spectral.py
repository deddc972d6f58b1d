"""Shared spectral substrate: frequency grids, complex responses, phase tools.

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

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    EdgeOfGridError,
    FlatSignalError,
    NonConvergentError,
    PeakAtBoundaryError,
    UndersampledPhaseError,
    ZeroAmplitudeError,
)

_TWO_PI = 2.0 * np.pi

# |t| below this is treated as an exact zero (phase undefined)
_AMPLITUDE_FLOOR = 1e-300

# fractional non-uniformity tolerated in "uniform" grids
_UNIFORMITY_TOL = 1e-9

# samples of a group-delay grid: 4 on each side of the centre, as the
# h / 2h stencil pair of phase_derivative needs
_DELAY_STENCIL_POINTS = 9


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
    at least 5 samples (the derivative stencil needs them).
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

    def unitarity_defect(self) -> float:
        """max_k | |t_k|^2 + |r_k|^2 - 1 |  (zero for lossless systems)."""
        return float(np.max(np.abs(np.abs(self.t) ** 2 + np.abs(self.r) ** 2 - 1.0)))

    @property
    def t_at_carrier(self) -> complex:
        """Transmission at the sample closest to the carrier."""
        return complex(self.t[self.grid.index_of(self.grid.omega0)])


@dataclass(frozen=True)
class UnwrappedPhase:
    """Continuous transmission phase on a frequency grid (no 2*pi jumps)."""

    grid: FrequencyGrid
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", _as_float_array(self.phi))
        if self.phi.shape != (self.grid.count,):
            raise ValueError("phi must match the grid length")
        if self.phi.size > 1 and np.max(np.abs(np.diff(self.phi))) >= np.pi:
            raise ValueError("unwrapped phase must step by less than pi")


class DerivativeEstimate(NamedTuple):
    """Value of d(phi)/d(omega) plus the Richardson error estimate."""

    value: float
    error: float


def unwrap_phase(resp: ComplexResponse) -> UnwrappedPhase:
    """Unwrap arg(t) over the response grid.

    Each step is corrected by the nearest multiple of 2*pi.  If a corrected
    step still reaches pi the direction of the jump is ambiguous and the grid
    is too coarse: UndersampledPhaseError.
    """
    mags = np.abs(resp.t)
    if np.any(mags < _AMPLITUDE_FLOOR):
        raise ZeroAmplitudeError("|t| below 1e-300; phase undefined")
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


def group_delay(
    response: Callable[[FrequencyGrid], ComplexResponse], at: float, half_width: float
) -> DerivativeEstimate:
    """d(arg t)/d(omega) at ``at``: the one phase-derivative delay route.

    ``response`` maps a grid to its complex response.  It is sampled on
    9 points spanning ``at +/- half_width`` -- exactly the samples the
    Richardson stencil pair needs -- and the unwrapped phase is
    differentiated at the centre.
    """
    grid = FrequencyGrid.centered(at, half_width, _DELAY_STENCIL_POINTS)
    return phase_derivative(unwrap_phase(response(grid)), at)


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
