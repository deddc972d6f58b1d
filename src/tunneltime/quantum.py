"""Closed-form scattering on a 1-D rectangular barrier, natural units.

Units: hbar = m = 1, so E = k^2/2, group speed v = k, and the evanescent
rate inside the barrier is kappa = sqrt(2*(v0 - E)) for E < v0.

Phase convention: the incident wave is exp(ikx) for x <= 0 and the
transmitted wave is t * exp(ik(x - L)) for x >= L, i.e. the transmission
phase is anchored at the barrier exit.  A vanishing barrier then gives
t -> exp(ikL) and a zero-length barrier gives t = 1 exactly.  With this
anchoring the group delay is simply d(arg t)/dE.  t, r and that delay come
from the scaled two-wave closed form of :mod:`spectral` with kappa taken
complex: one expression below, at and above the barrier top, finite on
opaque barriers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectral
from .errors import AboveBarrierError, NonPositiveEnergyError


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


def _closed_form(barrier: QuantumBarrier, energy):
    """t, r, t e^{Re(kappa) L} and kappa at energies E > 0 (array or scalar).

    kappa = sqrt(2 (v0 - E)) is taken complex, so the one two-wave closed form
    of :func:`spectral._two_wave` holds below, at and above the barrier top,
    with a = (v0 - 2E)/k and b = -v0/k.
    """
    energy = np.asarray(energy, dtype=float)
    if np.any(energy <= 0.0):
        raise NonPositiveEnergyError("energy must be positive")
    k = np.sqrt(2.0 * energy)
    kappa_c = np.sqrt((2.0 * (barrier.v0 - energy)).astype(complex))
    a = (barrier.v0 - 2.0 * energy) / k
    return (*spectral._two_wave(kappa_c, a, -barrier.v0 / k, barrier.length), kappa_c)


def transmission(barrier: QuantumBarrier, energy: float) -> complex:
    """Complex transmission amplitude, exit-anchored, valid for any E > 0."""
    return complex(_closed_form(barrier, energy)[0])


@dataclass(frozen=True)
class ScatterState:
    """Stationary scattering solution at a tunneling energy E < v0.

    ``k`` = sqrt(2E) is the wavenumber outside the barrier and ``kappa`` =
    sqrt(2 (v0 - E)) the decay rate inside it; ``t`` (exit-anchored) and
    ``r`` are the transmission and reflection amplitudes.
    """

    barrier: QuantumBarrier
    k: float
    kappa: float
    t: complex
    r: complex
    scaled_t: complex  # t e^{kappa L}, finite where t itself underflows

    def psi_incident_side(self, x):
        """exp(ikx) + r exp(-ikx); the x <= 0 form."""
        x = np.asarray(x, dtype=float)
        return np.exp(1j * self.k * x) + self.r * np.exp(-1j * self.k * x)

    def _inside_waves(self, x):
        """The growing and decaying terms of psi_inside, from t e^{kappa L}.

        (t e^{kappa L} / 2)(1 +/- ik/kappa) times e^{kappa (x - 2L)} and e^{-kappa x}:
        both exponents are <= 0 on [0, L], so opaque barriers never overflow.
        """
        x = np.asarray(x, dtype=float)
        half = 0.5 * self.scaled_t
        ratio = 1j * self.k / self.kappa
        grow = half * (1.0 + ratio) * np.exp(self.kappa * (x - 2.0 * self.barrier.length))
        return grow, half * (1.0 - ratio) * np.exp(-self.kappa * x)

    def psi_inside(self, x):
        """t [cosh kappa(x - L) + i (k/kappa) sinh kappa(x - L)]; the 0 <= x <= L form."""
        grow, decay = self._inside_waves(x)
        return grow + decay

    def psi_transmitted_side(self, x):
        """t exp(ik(x - L)); the x >= L form."""
        x = np.asarray(x, dtype=float)
        return self.t * np.exp(1j * self.k * (x - self.barrier.length))

    def dpsi_incident_side(self, x):
        x = np.asarray(x, dtype=float)
        return 1j * self.k * (np.exp(1j * self.k * x) - self.r * np.exp(-1j * self.k * x))

    def dpsi_inside(self, x):
        grow, decay = self._inside_waves(x)
        return self.kappa * (grow - decay)

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
    """Stationary tunneling solution: closed-form t and r at the energy.

    Requires 0 < E < v0; use :func:`transmission` for the analytically
    continued amplitude at other energies.
    """
    if energy >= barrier.v0:
        raise AboveBarrierError("scatter() requires the tunneling regime E < v0")
    t, r, scaled_t, _ = _closed_form(barrier, energy)
    return ScatterState(
        barrier=barrier,
        k=float(np.sqrt(2.0 * energy)),
        kappa=float(np.sqrt(2.0 * (barrier.v0 - energy))),
        t=complex(t),
        r=complex(r),
        scaled_t=complex(scaled_t),
    )


def group_delay(barrier: QuantumBarrier, energy: float) -> float:
    """Exact group delay tau_g = d(arg t)/dE at the exit-anchored convention.

    The two-wave delay of :func:`spectral._two_wave_delay` with rate
    kappa = sqrt(2 (v0 - E)) taken complex, a = (v0 - 2E)/k,
    da/dE = -2/k - a/k^2 and d(kappa^2)/dE = -2: one expression below, at
    and above the barrier top, finite on barriers too opaque for t.  The
    free-propagation limit v0 -> 0 reproduces tau_g -> L/k.
    """
    if energy <= 0.0:
        raise NonPositiveEnergyError("energy must be positive")
    k = math.sqrt(2.0 * energy)
    kappa = cmath.sqrt(2.0 * (barrier.v0 - energy))
    a = (barrier.v0 - 2.0 * energy) / k
    return spectral._two_wave_delay(kappa, a, -2.0 / k - a / k ** 2, -2.0, barrier.length)


def dwell_time(barrier: QuantumBarrier, energy: float) -> float:
    """Dwell time tau_d = (1/j_in) * integral of |psi|^2 over the barrier, j_in = k.

    Exact (Buttiker, PRB 27, 6178 (1983)) with kappa = sqrt(2 (v0 - E))
    complex, so one expression holds below, at and above the barrier top:
    tau_d = |t|^2 L [1 + 4 v0 L^2 h(2 kappa L)] / k with h(z) = (sinh z - z)/z^3.
    """
    _, _, scaled_t, kappa_c = _closed_form(barrier, energy)
    integral = spectral._two_wave_integral(scaled_t, kappa_c, barrier.v0, barrier.length)
    return float(integral / np.sqrt(2.0 * energy))


def delay_report(barrier: QuantumBarrier, energy: float) -> DelayReport:
    """Assemble tau_g, tau_d, tau_i = tau_g - tau_d and the speed diagnostics."""
    tau_g = group_delay(barrier, energy)  # rejects E <= 0 before k is formed
    tau_d = dwell_time(barrier, energy)
    k = float(np.sqrt(2.0 * energy))
    length = barrier.length
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
