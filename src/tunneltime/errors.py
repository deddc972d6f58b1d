"""Exception hierarchy for tunneltime.

Every numerical or domain failure raised by this package derives from
:class:`TunnelTimeError`, so callers (and the CLI) can distinguish
"the physics computation failed" from ordinary Python errors.
"""


class TunnelTimeError(Exception):
    """Base class for all tunneltime numerical and domain errors."""


# -- spectral --------------------------------------------------------------

class ZeroAmplitudeError(TunnelTimeError):
    """Transmission amplitude is (numerically) zero; its phase is undefined."""


class UndersampledPhaseError(TunnelTimeError):
    """Adjacent phase samples jump by ~pi; the frequency grid is too coarse."""


class EdgeOfGridError(TunnelTimeError):
    """Requested point is too close to a grid edge for the derivative stencil."""


class NonConvergentError(TunnelTimeError):
    """The sampled-phase oracle's two Richardson stencils disagree beyond tolerance."""


class PeakAtBoundaryError(TunnelTimeError):
    """Series maximum sits on the first or last sample; no interior peak."""


class FlatSignalError(TunnelTimeError):
    """All samples are equal; there is no peak to locate."""


# -- quantum barrier -------------------------------------------------------

class AboveBarrierError(TunnelTimeError):
    """Energy at or above the barrier top; not a tunneling configuration."""


class NonPositiveEnergyError(TunnelTimeError):
    """Scattering energy must be strictly positive."""


# -- photonic barrier ------------------------------------------------------

class DetuningOutOfRangeError(TunnelTimeError):
    """Detuning outside the validity window of the coupled-mode closed form."""


class NotInStopbandError(TunnelTimeError):
    """Frequency lies outside the barrier's stopband (|t|^2 >= 0.5)."""


class FitFailureError(TunnelTimeError):
    """An envelope or saturation fit has too few points or no decay to fit."""


# -- time domain -----------------------------------------------------------

class WraparoundDetectedError(TunnelTimeError):
    """Synthesized record does not decay at its ends; FFT wraparound present."""


class NormDriftError(TunnelTimeError):
    """Total probability drifted beyond tolerance during time integration."""


class BoundaryContaminationError(TunnelTimeError):
    """Probability reached the simulation-domain edges above tolerance."""


class RecordTruncatedError(TunnelTimeError):
    """A detector record has not decayed by its last sample; the window is too short."""


class BandTooNarrowError(TunnelTimeError):
    """A synthesis band cannot cover the required multiple of the stopband,
    or a front or pulse band reaches nonpositive frequencies."""


# -- command line ----------------------------------------------------------

class NonFiniteResultError(TunnelTimeError):
    """A result bound for the CSV or JSON output is NaN or infinite."""
