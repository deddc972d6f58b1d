"""Closed-form scattering on a 1-D rectangular barrier, natural units.

Units: hbar = m = 1, so E = k^2/2, group speed v = k, and the evanescent
rate inside the barrier is kappa = sqrt(2*(v0 - E)) for E < v0.

Phase convention: the incident wave is exp(ikx) for x <= 0 and the
transmitted wave is t * exp(ik(x - L)) for x >= L, i.e. the transmission
phase is anchored at the barrier exit.  A vanishing barrier then gives
t -> exp(ikL) and a zero-length barrier gives t = 1 exactly.  With this
anchoring the group delay is simply d(arg t)/dE.  This module sets up
k = sqrt(2E), kappa = sqrt(2 (v0 - E)), complex, and c = v0 - 2E; the scalar
two-wave kernel of :mod:`spectral` turns them into t and r (:func:`scatter`),
that delay and the dwell time at any E > 0 and any length, energy by energy
for an array.  There is no wavefunction sampler: the tests check the closed
form against an independent boundary-matching solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import spectral
from .errors import AboveBarrierError, NonFiniteResultError, NonPositiveEnergyError


@dataclass(frozen=True)
class QuantumBarrier:
    """Rectangular potential of height ``v0`` on 0 <= x <= ``length``, held as Python floats."""

    v0: float
    length: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        if not (self.v0 > 0.0 and math.isfinite(self.v0)):
            raise ValueError("barrier height v0 must be positive and finite")
        if not (self.length >= 0.0 and math.isfinite(self.length)):
            raise ValueError("barrier length must be nonnegative and finite")


def _wave_numbers(barrier: QuantumBarrier, energy: float):
    """k = sqrt(2 E), kappa = sqrt(2 (v0 - E)), complex, and c = v0 - 2E at one float E > 0."""
    if not (energy > 0.0 and math.isfinite(energy)):
        raise NonPositiveEnergyError("energy must be positive and finite")
    energy = float(energy)
    k, kappa_squared = math.sqrt(2.0 * energy), 2.0 * (barrier.v0 - energy)
    if not (math.isfinite(k) and math.isfinite(kappa_squared)):
        raise NonFiniteResultError(f"2 E or 2 (v0 - E) overflows at E = {energy!r}")
    return k, cmath.sqrt(kappa_squared), barrier.v0 - 2.0 * energy


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


def scatter(barrier: QuantumBarrier, energy):
    """Exit-anchored t and r at energies E > 0, one energy (0-d) or an array.

    :func:`spectral._two_wave_t_r` energy by energy, with kappa = sqrt(2 (v0 - E))
    complex, c = v0 - 2E and beta = -v0: one expression at any E > 0.  An
    energy that is not positive and finite raises NonPositiveEnergyError.
    """

    def setup(e):
        k, kappa, c = _wave_numbers(barrier, e)
        return kappa, c, -barrier.v0, k

    return spectral._two_wave_arrays(np.asarray(energy, dtype=float), setup, barrier.length)


def group_delay(barrier: QuantumBarrier, energy: float) -> float:
    """Exact group delay tau_g = d(arg t)/dE at the exit-anchored convention.

    The two-wave delay of :func:`spectral._two_wave_delay` with rate
    kappa = sqrt(2 (v0 - E)) taken complex, c = v0 - 2E, k = sqrt(2 E),
    dc/dE = -2, dk/dE = 1/k and d(kappa^2)/dE = -2: one expression below,
    at and above the barrier top, the Hartman limit at any length, and the
    1/k law as E -> 0.  A delay that overflows raises NonFiniteResultError.
    """
    k, kappa, c = _wave_numbers(barrier, energy)
    tau = spectral._two_wave_delay(kappa, c, k, -2.0, 1.0 / k, -2.0, barrier.length)
    return spectral._finite(tau, f"group delay at E = {energy!r}")


def dwell_time(barrier: QuantumBarrier, energy: float) -> float:
    """Dwell time tau_d = (1/j_in) * integral of |psi|^2 over the barrier, j_in = k.

    Exact (Buttiker, PRB 27, 6178 (1983)) with kappa = sqrt(2 (v0 - E))
    complex, so one expression holds below, at and above the barrier top:
    tau_d = |t|^2 L [1 + 4 v0 L^2 h(2 kappa L)] / k, h(z) = (sinh z - z)/z^3
    (:func:`spectral._two_wave_integral`).
    """
    k, kappa, c = _wave_numbers(barrier, energy)
    tau = spectral._two_wave_integral(kappa, c, k, (barrier.v0, 1.0), barrier.length)
    return spectral._finite(tau, f"dwell time at E = {energy!r}")


def delay_report(barrier: QuantumBarrier, energy: float) -> DelayReport:
    """Assemble tau_g, tau_d, tau_i = tau_g - tau_d and the speed diagnostics, all finite."""
    k, _, _ = _wave_numbers(barrier, energy)
    tau_g = group_delay(barrier, energy)
    tau_d = dwell_time(barrier, energy)
    apparent = barrier.length / tau_g if tau_g > 0.0 else None
    tau_i, front_time = tau_g - tau_d, barrier.length / k
    spectral._finite(max(abs(tau_i), front_time, apparent or 0.0),
                     f"tau_i, L/k or L/tau_g at E = {energy!r}")
    return DelayReport(tau_g=tau_g, tau_d=tau_d, tau_i=tau_i, front_time=front_time,
                       apparent_speed=apparent,
                       apparent_superluminal=bool(apparent is not None and apparent > k))


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
