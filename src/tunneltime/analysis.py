"""Experiment-level sweeps: delay saturation, stored energy, mirror-shift reports.

The sweeps tie together the three quantities this package is about: the
group delay (a phase derivative), the dwell time / stored energy per input
power (a field integral), and the ratio length/delay.  The ratio is always
labeled an *apparent* speed: dividing a barrier length by a lifetime does
not produce a propagation velocity, and these reports exist to make that
distinction measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import photonic, quantum, spectral
from .errors import FitFailureError, NotInStopbandError
from .photonic import LayeredStack, UniformGrating
from .quantum import QuantumBarrier

# slices per grating period of the cell behind a grating family's field depth
_SLICES_PER_PERIOD = 30


@dataclass(frozen=True)
class QuantumBarrierFamily:
    """Rectangular barriers of fixed height and energy, scalable in length; a v0 or energy
    that no barrier takes raises ValueError or a TunnelTimeError when the family is made."""

    v0: float
    energy: float

    def __post_init__(self):
        self.field_penetration_depth()

    def delay(self, length: float) -> float:
        return quantum.group_delay(QuantumBarrier(self.v0, length), self.energy)

    def stored(self, length: float) -> float:
        """Stored probability per unit incident flux (the dwell time)."""
        return quantum.dwell_time(QuantumBarrier(self.v0, length), self.energy)

    def field_penetration_depth(self) -> Optional[float]:
        """1/e depth of the interior amplitude envelope, 1/kappa (None above barrier)."""
        _, kappa, _ = quantum._wave_numbers(QuantumBarrier(self.v0, 1.0), self.energy)
        return 1.0 / kappa.real if self.energy < self.v0 else None


@dataclass(frozen=True)
class GratingFamily:
    """Uniform gratings of fixed coupling, scalable in length, probed at Bragg; a kappa,
    n_bar or omega_b that no grating takes raises ValueError when the family is made."""

    kappa: float
    n_bar: float = 1.0
    omega_b: float = 2.0 * np.pi

    def __post_init__(self):
        self._grating(1.0)

    def _grating(self, length: float) -> UniformGrating:
        return UniformGrating(self.kappa, length, self.n_bar, self.omega_b)

    def delay(self, length: float) -> float:
        return photonic.grating_group_delay(self._grating(length), self.omega_b)

    def stored(self, length: float) -> float:
        return photonic.grating_stored_energy(self._grating(length), self.omega_b)

    def field_penetration_depth(self) -> Optional[float]:
        """Field 1/e depth at Bragg, independent of coupled-mode theory's 1/kappa.

        The :func:`photonic.bloch_depth` of one grating period cut into
        _SLICES_PER_PERIOD slices, which no length changes; None at kappa = 0.
        """
        period = self._grating(np.pi / (self.n_bar * self.omega_b))
        return photonic.bloch_depth(period.as_layered_stack(_SLICES_PER_PERIOD), self.omega_b)


@dataclass(frozen=True)
class HartmanSweep:
    """Group delay and stored quantity across barrier lengths."""

    lengths: np.ndarray
    tau_g: np.ndarray
    u_per_pin: np.ndarray
    apparent_speed: np.ndarray
    tail_relative_change: float
    proportionality_ratio: np.ndarray


@dataclass(frozen=True)
class EnergySaturationCurve:
    """Stored energy versus length with its exponential-saturation fit.

    ``fitted_depth`` is the field 1/e depth of the fit, None when the
    stored energy does not saturate; ``field_depth`` is the family's
    independent estimate, the same at every length.
    """

    lengths: np.ndarray
    u_per_pin: np.ndarray
    fitted_depth: Optional[float]
    field_depth: Optional[float]


@dataclass(frozen=True)
class SkcReport:
    """Mirror-shift bookkeeping for a barrier versus equal-length vacuum.

    ``mirror_shift`` equals ``advance`` identically (c = 1): the measured
    quantity is a path-length difference, not a velocity.  The delay through
    the barrier is the lifetime of the energy stored in it, most of which
    escapes backward through reflection; the vacuum path needs longer
    because transport out of the region must precede fresh energy entering.
    ``apparent_speed`` is None when the delay is not positive (an empty stack).
    """

    barrier_delay: float
    vacuum_delay: float
    advance: float
    mirror_shift: float
    apparent_speed: Optional[float]
    u_barrier: float
    u_free: float
    backward_escape_fraction: float

    @property
    def interpretation(self) -> str:
        return (
            "delay is the lifetime of stored energy (fraction escaping backward: "
            f"{self.backward_escape_fraction:.3f}); the mirror shift of "
            f"{self.mirror_shift:.6g} measures the stored-energy deficit "
            f"u_free - u_barrier = {self.u_free - self.u_barrier:.6g}, "
            "not a propagation speed"
        )


def hartman_sweep(family, lengths: Sequence[float]) -> HartmanSweep:
    """Delay and stored quantity per length, with saturation diagnostics.

    ``tail_relative_change`` compares the delay at the longest length with
    the delay at the longest length not exceeding a tenth of it (falling
    back to the shortest length for narrow sweeps): saturated families show
    values at the numerical floor.  A delay or stored quantity that underflows
    to 0 cannot divide: NonFiniteResultError.
    """
    lengths = np.asarray(sorted(float(x) for x in lengths))
    if lengths.size < 1 or lengths[0] <= 0.0:
        raise ValueError("need at least one positive length")
    tau = np.array([family.delay(x) for x in lengths.tolist()])
    stored = np.array([family.stored(x) for x in lengths.tolist()])
    decade = lengths[lengths <= lengths[-1] / 10.0]
    ref = decade[-1] if decade.size else lengths[0]
    with spectral.named_float_errors("hartman sweep"):
        tail = abs(tau[-1] - tau[np.searchsorted(lengths, ref)]) / abs(tau[-1])
        return HartmanSweep(lengths=lengths, tau_g=tau, u_per_pin=stored,
                            apparent_speed=lengths / tau, tail_relative_change=float(tail),
                            proportionality_ratio=tau / stored)


def energy_saturation(family, lengths: Sequence[float]) -> EnergySaturationCurve:
    """Stored energy per length plus a fit of its exponential approach.

    Fits u_plateau - U(L) proportional to exp(-2L/depth), with the plateau
    taken at twice the longest length.  ``fitted_depth`` is None when the
    residuals do not decay (a transparent family grows linearly instead);
    ``field_depth`` reports the family's independent field-penetration
    estimate for comparison, a grating family's Bloch depth.
    """
    lengths = np.asarray(sorted(float(x) for x in lengths))
    if lengths.size < 3:
        raise FitFailureError("saturation fit needs at least 3 lengths")
    u = np.array([family.stored(x) for x in lengths.tolist()])
    u_plateau = family.stored(2.0 * float(lengths[-1]))
    residuals = u_plateau - u
    usable = residuals > 1e3 * np.finfo(float).eps * max(abs(u_plateau), 1.0)
    fitted: Optional[float] = None
    if np.count_nonzero(usable) >= 3:
        r_use = residuals[usable]
        # genuine exponential saturation shrinks the residual sharply across
        # the sweep; linear growth (kappa = 0) only shrinks it geometrically
        # with the plateau proxy and must not be fitted
        if r_use[-1] <= 0.1 * r_use[0]:
            slope, _ = np.polyfit(lengths[usable], np.log(r_use), 1)
            if slope < 0.0:
                fitted = float(-2.0 / slope)
    return EnergySaturationCurve(
        lengths=lengths,
        u_per_pin=u,
        fitted_depth=fitted,
        field_depth=family.field_penetration_depth(),
    )


def skc_report(stack: LayeredStack, omega_mid: float) -> SkcReport:
    """Barrier delay versus equal-length vacuum transit, as a mirror shift.

    Raises NotInStopbandError when ``omega_mid`` sits in the passband of an
    attenuating stack (|t|^2 >= 0.5); a fully transparent structure such as
    a vacuum slab is a valid reference and reports zero advance.  The
    advance is also expressible as the stored-energy difference
    u_free - u_barrier; both sides come from independent routes (exact
    phase slope versus field integral).  A field past the float range raises
    NonFiniteResultError.
    """
    t_mid, refl = photonic.stack_t_r(stack, omega_mid)
    trans_power = abs(t_mid) ** 2
    if 0.5 <= trans_power < 1.0 - 1e-12:
        raise NotInStopbandError(f"|t({omega_mid})|^2 = {trans_power:.3f} >= 0.5")
    tau = photonic.group_delay(stack, omega_mid)
    length = stack.total_length
    advance = length - tau
    apparent = length / tau if tau > 0.0 else None
    spectral._finite(max(length, abs(advance), apparent or 0.0), "length, advance or length/delay")
    return SkcReport(
        barrier_delay=tau,
        vacuum_delay=length,
        advance=advance,
        mirror_shift=advance,
        apparent_speed=apparent,
        u_barrier=photonic.stored_energy(stack, omega_mid),
        u_free=length,
        backward_escape_fraction=float(abs(refl) ** 2),
    )

