"""Closed-form scattering on a 1-D rectangular barrier, natural units.

Units: hbar = m = 1, so E = k^2/2, group speed v = k, and the evanescent
rate inside the barrier is kappa = sqrt(2*(v0 - E)) for E < v0.

Phase convention: the incident wave is exp(ikx) for x <= 0 and the
transmitted wave is t * exp(ik(x - L)) for x >= L, i.e. the transmission
phase is anchored at the barrier exit.  A vanishing barrier then gives
t -> exp(ikL) and a zero-length barrier gives t = 1 exactly.  With this
anchoring the group delay is simply d(arg t)/dE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from . import spectral
from .errors import AboveBarrierError, NonPositiveEnergyError, QuadratureFailureError

# half-width of the energy grid used for phase differentiation, as a
# fraction of E
_ENERGY_GRID_REL_HALFWIDTH = 1e-4

_DWELL_REL_TOL = 1e-10


@dataclass(frozen=True)
class QuantumBarrier:
    """Rectangular potential of height ``v0`` on 0 <= x <= ``length``."""

    v0: float
    length: float

    def __post_init__(self):
        if not (self.v0 > 0.0 and np.isfinite(self.v0)):
            raise ValueError("barrier height v0 must be positive and finite")
        if not (self.length >= 0.0 and np.isfinite(self.length)):
            raise ValueError("barrier length must be nonnegative and finite")


def _amplitudes(v0: float, length: float, energy: float):
    """Transmission/reflection and interior coefficients for any E > 0.

    Returns (t, r, a, b) where the interior wave is
    a*exp(kappa_c*x) + b*exp(-kappa_c*x) with kappa_c = sqrt(2*(v0-E)) taken
    as a complex number, making the same expressions valid above the barrier
    (kappa_c imaginary) as below it.  At E == v0 exactly the interior basis
    degenerates and (a, b) are returned as None.
    """
    k = np.sqrt(2.0 * energy)
    kappa_c = np.sqrt(complex(2.0 * (v0 - energy)))
    if kappa_c == 0.0:
        # E == v0 in floating point: the interior is linear, psi = t*(1 + ik(x-L)),
        # and the matching equations collapse to t = 1/(1 - ikL/2).
        t = 1.0 / (1.0 - 0.5j * k * length)
        r = 1.0 - t
        return t, r, None, None
    ch = np.cosh(kappa_c * length)
    sh = np.sinh(kappa_c * length)
    denom = ch + 0.5j * (kappa_c / k - k / kappa_c) * sh
    t = 1.0 / denom
    r = t * (ch - 1j * (k / kappa_c) * sh) - 1.0
    # interior coefficients follow from matching at x = L:
    #   a*exp(+kappa*L) = t*(1 + ik/kappa)/2,  b*exp(-kappa*L) = t*(1 - ik/kappa)/2
    a = 0.5 * t * (1.0 + 1j * k / kappa_c) * np.exp(-kappa_c * length)
    b = 0.5 * t * (1.0 - 1j * k / kappa_c) * np.exp(kappa_c * length)
    return t, r, a, b


def transmission(barrier: QuantumBarrier, energy: float) -> complex:
    """Complex transmission amplitude, exit-anchored, valid for any E > 0."""
    if energy <= 0.0:
        raise NonPositiveEnergyError("energy must be positive")
    t, _, _, _ = _amplitudes(barrier.v0, barrier.length, energy)
    return complex(t)


@dataclass(frozen=True)
class ScatterState:
    """Stationary scattering solution at a tunneling energy E < v0."""

    barrier: QuantumBarrier
    energy: float
    k: float
    kappa: float
    t: complex
    r: complex
    _a: complex
    _b: complex

    def psi_incident_side(self, x):
        """exp(ikx) + r exp(-ikx); the x <= 0 form."""
        x = np.asarray(x, dtype=float)
        return np.exp(1j * self.k * x) + self.r * np.exp(-1j * self.k * x)

    def psi_inside(self, x):
        """Interior evanescent combination; the 0 <= x <= L form."""
        x = np.asarray(x, dtype=float)
        kap = complex(self.kappa)
        return self._a * np.exp(kap * x) + self._b * np.exp(-kap * x)

    def psi_transmitted_side(self, x):
        """t exp(ik(x - L)); the x >= L form."""
        x = np.asarray(x, dtype=float)
        return self.t * np.exp(1j * self.k * (x - self.barrier.length))

    def dpsi_incident_side(self, x):
        x = np.asarray(x, dtype=float)
        return 1j * self.k * (np.exp(1j * self.k * x) - self.r * np.exp(-1j * self.k * x))

    def dpsi_inside(self, x):
        x = np.asarray(x, dtype=float)
        kap = complex(self.kappa)
        return kap * (self._a * np.exp(kap * x) - self._b * np.exp(-kap * x))

    def dpsi_transmitted_side(self, x):
        x = np.asarray(x, dtype=float)
        return 1j * self.k * self.t * np.exp(1j * self.k * (x - self.barrier.length))

    def psi(self, x):
        """Piecewise wavefunction valid on the whole axis."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        left = x < 0.0
        right = x > self.barrier.length
        mid = ~(left | right)
        out[left] = self.psi_incident_side(x[left])
        out[mid] = self.psi_inside(x[mid])
        out[right] = self.psi_transmitted_side(x[right])
        return out


@dataclass(frozen=True)
class DelayReport:
    """Group delay, dwell time, and derived diagnostics for one barrier/energy.

    ``tau_i = tau_g - tau_d`` holds exactly by construction.  The ratio
    length/tau_g is reported as an *apparent* speed only: it is a length over
    a lifetime, not a propagation velocity, and ``apparent_superluminal``
    merely flags when that ratio exceeds the incident speed.
    """

    tau_g: float
    tau_d: float
    tau_i: float
    front_time: float
    apparent_speed: Optional[float]
    apparent_superluminal: bool


def scatter(barrier: QuantumBarrier, energy: float) -> ScatterState:
    """Stationary tunneling solution from the four matching equations.

    Requires 0 < E < v0; use :func:`transmission` for the analytically
    continued amplitude at other energies.
    """
    if energy <= 0.0:
        raise NonPositiveEnergyError("energy must be positive")
    if energy >= barrier.v0:
        raise AboveBarrierError("scatter() requires the tunneling regime E < v0")
    t, r, a, b = _amplitudes(barrier.v0, barrier.length, energy)
    return ScatterState(
        barrier=barrier,
        energy=energy,
        k=float(np.sqrt(2.0 * energy)),
        kappa=float(np.sqrt(2.0 * (barrier.v0 - energy))),
        t=complex(t),
        r=complex(r),
        _a=complex(a),
        _b=complex(b),
    )


def _response(barrier: QuantumBarrier, grid: spectral.FrequencyGrid) -> spectral.ComplexResponse:
    ts = np.empty(grid.count, dtype=complex)
    rs = np.empty(grid.count, dtype=complex)
    for i, e in enumerate(grid.omegas):
        ts[i], rs[i], _, _ = _amplitudes(barrier.v0, barrier.length, float(e))
    return spectral.ComplexResponse(grid, ts, rs)


def group_delay(barrier: QuantumBarrier, energy: float) -> float:
    """Group delay tau_g = d(arg t)/dE at the exit-anchored convention.

    Differentiation runs on a 9-point energy grid of half-width 1e-4*E
    through the shared spectral stencil.  The closed form continues
    analytically above the barrier, so the free-propagation limit
    v0 -> 0 reproduces tau_g -> L/k.
    """
    if energy <= 0.0:
        raise NonPositiveEnergyError("energy must be positive")
    half = _ENERGY_GRID_REL_HALFWIDTH * energy
    return spectral.group_delay(lambda grid: _response(barrier, grid), energy, half).value


def dwell_time(barrier: QuantumBarrier, energy: float) -> float:
    """Dwell time tau_d = (1/j_in) * integral of |psi|^2 over the barrier.

    The incident flux for a unit-amplitude wave is j_in = k.  The integral
    is evaluated by adaptive quadrature to 1e-10 relative accuracy.
    """
    if energy <= 0.0:
        raise NonPositiveEnergyError("energy must be positive")
    length = barrier.length
    if length == 0.0:
        return 0.0
    k = np.sqrt(2.0 * energy)
    t, _, a, b = _amplitudes(barrier.v0, length, energy)
    kappa_c = np.sqrt(complex(2.0 * (barrier.v0 - energy)))

    if a is None:
        # E == v0: linear interior psi = t*(1 + ik(x - L))
        def density(x: float) -> float:
            return float(np.abs(t * (1.0 + 1j * k * (x - length))) ** 2)
    else:
        def density(x: float) -> float:
            psi = a * np.exp(kappa_c * x) + b * np.exp(-kappa_c * x)
            return float(np.abs(psi) ** 2)

    integral, abserr = quad(density, 0.0, length, epsabs=0.0, epsrel=1e-12, limit=200)
    if integral <= 0.0 or abserr > _DWELL_REL_TOL * integral:
        raise QuadratureFailureError(
            f"dwell-time quadrature error {abserr} exceeds {_DWELL_REL_TOL} relative"
        )
    return float(integral / k)


def delay_report(barrier: QuantumBarrier, energy: float) -> DelayReport:
    """Assemble tau_g, tau_d, tau_i = tau_g - tau_d and the speed diagnostics."""
    if energy <= 0.0:
        raise NonPositiveEnergyError("energy must be positive")
    k = float(np.sqrt(2.0 * energy))
    length = barrier.length
    if length == 0.0:
        return DelayReport(
            tau_g=0.0,
            tau_d=0.0,
            tau_i=0.0,
            front_time=0.0,
            apparent_speed=None,
            apparent_superluminal=False,
        )
    tau_g = group_delay(barrier, energy)
    tau_d = dwell_time(barrier, energy)
    apparent = length / tau_g if tau_g > 0.0 else None
    return DelayReport(
        tau_g=tau_g,
        tau_d=tau_d,
        tau_i=tau_g - tau_d,
        front_time=length / k,
        apparent_speed=apparent,
        apparent_superluminal=bool(apparent is not None and apparent > k),
    )


def analytic_group_delay(barrier: QuantumBarrier, energy: float) -> float:
    """Symbolically differentiated group delay for E < v0 (test oracle).

    arg t = -arctan(u * tanh(kappa L)) with u = (kappa^2 - k^2)/(2 k kappa);
    this is its exact E-derivative.
    """
    v0, length = barrier.v0, barrier.length
    if not 0.0 < energy < v0:
        raise AboveBarrierError("closed-form delay stated for the tunneling regime")
    s = np.sqrt(energy * (v0 - energy))
    kappa = np.sqrt(2.0 * (v0 - energy))
    u = (v0 - 2.0 * energy) / (2.0 * s)
    du = -(v0 ** 2) / (4.0 * s ** 3)
    th = np.tanh(kappa * length)
    dth = -length / (np.cosh(kappa * length) ** 2 * kappa)
    return float(-(du * th + u * dth) / (1.0 + (u * th) ** 2))
