"""1-D photonic barriers: layered stacks and uniform gratings.

Units and conventions
---------------------
c = 1, vacuum impedance 1, normal incidence, lossless nonmagnetic media.
Fields carry the e^{i(kz - wt)} sign convention, so a forward wave in a
medium of index n is E ~ exp(i n w z) with H = n E.

Transmission is exit-anchored: the incident amplitude is measured at the
stack's front face and the transmitted amplitude at its back face, so an
empty stack gives t = 1 and a vacuum slab of thickness d gives
t = exp(i w d) (pure propagation, delay d).  With this anchoring the group
delay d(arg t)/dw of a vacuum slab is its transit time.

One backward march carries the unit transmitted wave (E, H) = (1, n_out)
from the exit face to the front face; a layer of index n and thickness d
steps the interface fields back by

    [E, H](z) = [[cos(delta), -i sin(delta)/n],
                 [-i n sin(delta), cos(delta)]] . [E, H](z + d),

delta = n d w, with exact power-of-two rescaling against overflow.  t and r
are read off at the front face, each layer's wave amplitudes at its own.
Stored energy uses the time-averaged density u = (n^2 |E|^2 + |H|^2)/4; per
unit input power it is directly a time, and a vacuum slab yields its length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import spectral
from .errors import DetuningOutOfRangeError, NotInStopbandError

# fraction of the Bragg frequency within which the coupled-mode closed form
# is trusted
_GRATING_VALIDITY = 0.2

# relative half-width of the frequency grid used for group-delay stencils;
# small enough that the stencil truncation stays below the 1e-6 convergence
# gate even for sharp resonances, while staying well above roundoff
_DELAY_GRID_REL_HALFWIDTH = 1e-6

_MIN_FIELD_POINTS_PER_LAYER = 32

# growth bound at which the backward march rescales: far below overflow, and
# out of reach of short or weakly modulated stacks
_RESCALE_BOUND = 1e150


@dataclass(frozen=True)
class LayeredStack:
    """Ordered lossless dielectric layers (index, thickness) between two media."""

    layers: Tuple[Tuple[float, float], ...]
    n_in: float = 1.0
    n_out: float = 1.0

    def __post_init__(self):
        norm = tuple((float(n), float(d)) for n, d in self.layers)
        object.__setattr__(self, "layers", norm)
        for n, d in norm:
            if not (n > 0.0 and np.isfinite(n) and d > 0.0 and np.isfinite(d)):
                raise ValueError("layer indices and thicknesses must be positive")
        if not all(n > 0.0 and np.isfinite(n) for n in (self.n_in, self.n_out)):
            raise ValueError("surrounding indices must be positive and finite")

    @property
    def total_length(self) -> float:
        return float(sum(d for _, d in self.layers))

    def reversed(self) -> "LayeredStack":
        return LayeredStack(self.layers[::-1], n_in=self.n_out, n_out=self.n_in)

    @classmethod
    def quarter_wave(
        cls,
        n_hi: float,
        n_lo: float,
        n_layers: int,
        lambda0: float,
        n_in: float = 1.0,
        n_out: float = 1.0,
    ) -> "LayeredStack":
        """Alternating quarter-wave layers hi/lo/hi/... at design wavelength."""
        if n_layers < 1:
            raise ValueError("need at least one layer")
        layers = []
        for i in range(n_layers):
            n = n_hi if i % 2 == 0 else n_lo
            layers.append((n, lambda0 / (4.0 * n)))
        return cls(tuple(layers), n_in=n_in, n_out=n_out)

    @classmethod
    def vacuum_slab(cls, length: float) -> "LayeredStack":
        """Equal-length stretch of empty space (the free-space reference)."""
        return cls(((1.0, float(length)),))


@dataclass(frozen=True)
class UniformGrating:
    """Uniform sinusoidal index grating described by coupled-mode theory.

    kappa is the coupling constant (1/length), n_bar the average index and
    omega_b the Bragg angular frequency.  The equivalent index profile is
    n(z) = n_bar + (2 kappa / omega_b) cos(2 n_bar omega_b z).
    """

    kappa: float
    length: float
    n_bar: float
    omega_b: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.kappa, self.length, self.n_bar, self.omega_b])):
            raise ValueError("grating parameters must be finite")
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        if self.omega_b <= 0.0 or self.n_bar <= 0.0:
            raise ValueError("omega_b and n_bar must be positive")

    def detuning(self, omega) -> np.ndarray:
        """delta = n_bar * (omega - omega_b)."""
        return self.n_bar * (np.asarray(omega, dtype=float) - self.omega_b)

    def as_layered_stack(self, slices_per_period: int = 40) -> LayeredStack:
        """Finely sliced piecewise-constant version of the sinusoidal profile.

        Embedded in surrounding media of index n_bar so only the grating
        response remains (no end-face Fresnel steps).
        """
        delta_n = 2.0 * self.kappa / self.omega_b
        beta0 = self.n_bar * self.omega_b
        period = np.pi / beta0
        n_slices = max(1, int(round(slices_per_period * self.length / period)))
        dz = self.length / n_slices
        centers = (np.arange(n_slices) + 0.5) * dz
        indices = self.n_bar + delta_n * np.cos(2.0 * beta0 * centers)
        layers = tuple((float(n), dz) for n in indices)
        return LayeredStack(layers, n_in=self.n_bar, n_out=self.n_bar)


@dataclass(frozen=True)
class FieldProfile:
    """Sampled E/H fields through a stack, unit input power normalization."""

    z: np.ndarray
    e: np.ndarray
    h: np.ndarray
    index: np.ndarray
    layer_edges: np.ndarray

    def density(self) -> np.ndarray:
        """Time-averaged energy density (n^2 |e|^2 + |h|^2)/4 at the samples."""
        return (self.index ** 2 * np.abs(self.e) ** 2 + np.abs(self.h) ** 2) / 4.0


@dataclass(frozen=True)
class EnergyReport:
    """Stored energy of a stack at one frequency, per unit input power.

    ``penetration_depth`` is the 1/e depth of the *field-amplitude* envelope,
    obtained from a log-linear fit of the per-layer energy density over the
    front half of the structure (the density decays at twice the field rate).
    It is None when the envelope does not decay (passband illumination).
    """

    u_per_pin: float
    z: np.ndarray
    density: np.ndarray
    penetration_depth: Optional[float]
    free_space_u_per_pin: float


@dataclass(frozen=True)
class Stopband:
    """Half-transmission stopband: contiguous band with |t|^2 < 0.5."""

    lower: float
    upper: float

    @property
    def center(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class PhaseEnergyReport:
    """Comparison of the fitted phase slope against stored energy per power."""

    slope: float
    u_per_pin: float
    relative_difference: float
    max_residual: float


def _backward_march(stack: LayeredStack, omegas: np.ndarray):
    """(E, H, k) at the exit face, then at each layer's front face, last layer first.

    The true fields are 2^k (E, H), k an integer per frequency: E and H are
    rescaled by exact powers of two before a step that could take a running
    bound on their size past _RESCALE_BOUND, and never otherwise.
    """
    e = np.ones(omegas.shape, dtype=complex)
    h = np.full(omegas.shape, complex(stack.n_out))
    k = np.zeros(omegas.shape, dtype=int)
    bound = max(1.0, stack.n_out)
    yield e, h, k
    for n, d in reversed(stack.layers):
        # one step grows max(|E|, |H|) by at most this factor
        growth = 1.0 + max(n, 1.0 / n)
        if bound * growth > _RESCALE_BOUND:
            _, shift = np.frexp(np.maximum(np.abs(e), np.abs(h)))
            scale = np.ldexp(1.0, -shift)
            e, h, k, bound = e * scale, h * scale, k + shift, 1.0
        bound *= growth
        phase = (n * d) * omegas
        cos_p, sin_p = np.cos(phase), np.sin(phase)
        e, h = cos_p * e - 1j * (sin_p / n) * h, cos_p * h - 1j * (n * sin_p) * e
        yield e, h, k


def _split_waves(e, h, n):
    """Forward and backward wave amplitudes of the fields (E, H) in index n."""
    return 0.5 * (e + h / n), 0.5 * (e - h / n)


def _stack_t_r(stack: LayeredStack, omegas: np.ndarray):
    """t and r at positive frequencies, read off the backward march's front face.

    With incident and reflected amplitudes a, b there, t = 2^(-k)/a and r = b/a.
    """
    if np.any(omegas <= 0.0):
        raise ValueError("frequencies must be positive")
    for e, h, k in _backward_march(stack, omegas):
        pass  # only the front face is needed
    incident, reflected = _split_waves(e, h, stack.n_in)
    return np.ldexp(1.0, -k) / incident, reflected / incident


# The three public forms below differ only in how frequencies come in and
# results go out; none calls another, so a tracer wrapping them counts each
# march to the front face once.

def stack_response(stack: LayeredStack, grid: spectral.FrequencyGrid) -> spectral.ComplexResponse:
    """Complex transmission/reflection of a layered stack over a grid.

    For equal surrounding media the response is unitary: |t|^2 + |r|^2 = 1.
    """
    return spectral.ComplexResponse(grid, *_stack_t_r(stack, grid.omegas))


def stack_t_r(stack: LayeredStack, omega: float):
    """Single-frequency transmission and reflection of a stack."""
    t, r = _stack_t_r(stack, np.asarray([float(omega)]))
    return complex(t[0]), complex(r[0])


def stack_t_r_samples(stack: LayeredStack, omegas: np.ndarray):
    """Vectorized t, r over an arbitrary array of positive frequencies."""
    return _stack_t_r(stack, np.asarray(omegas, dtype=float))


def _grating_closed_form(grating: UniformGrating, omega, length=None):
    """t, r, t e^{Re(gamma) L} and gamma of the coupled-mode grating at ``omega``.

    The two-wave barrier of :func:`spectral._two_wave` with a = -delta, b = kappa
    and gamma = sqrt(kappa^2 - delta^2) taken complex; ``length`` defaults to
    the grating's.  The validity window is enforced here for every grating quantity.
    """
    delta = grating.detuning(omega)
    if np.any(np.abs(delta) >= _GRATING_VALIDITY * grating.omega_b):
        raise DetuningOutOfRangeError(
            "detuning outside coupled-mode validity |delta| < 0.2 * omega_b"
        )
    gamma = np.sqrt((grating.kappa ** 2 - delta ** 2).astype(complex))
    if length is None:
        length = grating.length
    return (*spectral._two_wave(gamma, -delta, grating.kappa, length), gamma)


def grating_response(grating: UniformGrating, grid: spectral.FrequencyGrid) -> spectral.ComplexResponse:
    """Coupled-mode closed-form response of a uniform grating.

    With delta = n_bar (omega - omega_b) and gamma = sqrt(kappa^2 - delta^2):

        t = gamma / (gamma cosh(gamma L) - i delta sinh(gamma L))
        r = i kappa sinh(gamma L) / (gamma cosh(gamma L) - i delta sinh(gamma L))

    At the Bragg frequency |t| = sech(kappa L).  Detunings are only trusted
    within |delta| < 0.2 * omega_b.
    """
    t, r, _, _ = _grating_closed_form(grating, grid.omegas)
    return spectral.ComplexResponse(grid, t, r)


def grating_envelopes(grating: UniformGrating, omega: float, z: np.ndarray):
    """Forward/backward mode envelopes R(z), S(z) with R(0) = 1, S(L) = 0.

    The grating beyond z is a grating of length L - z with amplitudes t', r'.
    It transmits R t' = t and reflects S = r' R; both are taken in scaled
    form, so opaque gratings stay finite.
    """
    z = np.asarray(z, dtype=float)
    _, _, scaled_t, gamma = _grating_closed_form(grating, omega)
    _, rest_r, rest_scaled_t, _ = _grating_closed_form(grating, omega, grating.length - z)
    # t / t' = (t e^{Re(gamma) L}) e^{-Re(gamma) z} / (t' e^{Re(gamma) (L - z)})
    forward = scaled_t * np.exp(-gamma.real * z) / rest_scaled_t
    return forward, rest_r * forward


def grating_stored_energy(grating: UniformGrating, omega: float) -> float:
    """Stored energy per unit input power, U/P_in = n_bar * int(|R|^2 + |S|^2) dz.

    A field integral, independent of the phase-derivative route of
    :func:`grating_group_delay`.  Exact with gamma = sqrt(kappa^2 - delta^2)
    complex, inside, at the edge of and outside the stopband alike:
    U/P_in = n_bar |t|^2 L [1 + 4 kappa^2 L^2 h(2 gamma L)], h(z) = (sinh z - z)/z^3.
    """
    _, _, scaled_t, gamma = _grating_closed_form(grating, omega)
    integral = spectral._two_wave_integral(scaled_t, gamma, grating.kappa ** 2, grating.length)
    return float(grating.n_bar * integral)


def reconstruct_fields(
    stack: LayeredStack,
    omega: float,
    points_per_layer: int = _MIN_FIELD_POINTS_PER_LAYER,
) -> FieldProfile:
    """E and H through the stack, unit input power normalization.

    Inside layer j, at distance s from its front face,
    E = a_j e^{i n w s} + b_j e^{-i n w s} and H = n (a_j e^{i n w s} - b_j e^{-i n w s})
    with the wave amplitudes of :func:`_layer_wave_coefficients`.
    """
    points_per_layer = max(points_per_layer, _MIN_FIELD_POINTS_PER_LAYER)
    coeffs = _layer_wave_coefficients(stack, omega)
    index, thickness = (np.asarray(col) for col in zip(*stack.layers))
    edges = np.concatenate(([0.0], np.cumsum(thickness)))
    s = np.linspace(0.0, thickness, points_per_layer, axis=1)
    phase = (index * omega)[:, None] * s
    forward = coeffs[:, :1] * np.exp(1j * phase)
    backward = coeffs[:, 1:] * np.exp(-1j * phase)
    return FieldProfile(
        z=(edges[:-1, None] + s).ravel(),
        e=(forward + backward).ravel(),
        h=(index[:, None] * (forward - backward)).ravel(),
        index=np.repeat(index, points_per_layer),
        layer_edges=edges,
    )


def _layer_wave_coefficients(stack: LayeredStack, omega: float) -> np.ndarray:
    """Per-layer forward/backward wave amplitudes (a_j, b_j), unit input power.

    Within layer j the field is a_j e^{i n w s} + b_j e^{-i n w s} with s the
    distance from the layer's front face; row j of the (N, 2) result is read
    off the backward march there.  The march follows the dominant solution,
    so opaque barriers stay accurate and too deep layers underflow to zero.
    """
    march = _backward_march(stack, np.asarray([float(omega)]))
    # index 0 is the stack's front face, index N its exit face
    e, h, k = (np.concatenate(col)[::-1] for col in zip(*march))
    incident, _ = _split_waves(e[0], h[0], stack.n_in)
    # unit input power: P_in = n_in |E0|^2 / 2
    scale = np.sqrt(2.0 / stack.n_in) * np.ldexp(1.0, k[:-1] - k[0]) / incident
    index = np.array([n for n, _ in stack.layers])
    return scale[:, None] * np.stack(_split_waves(e[:-1], h[:-1], index), axis=1)


def stored_energy(stack: LayeredStack, omega: float) -> EnergyReport:
    """Stored energy per unit input power, with density profile and 1/e depth.

    Inside a homogeneous lossless layer the combined density
    (n^2 |E|^2 + |H|^2)/4 is exactly constant (electric and magnetic
    standing-wave oscillations cancel), so the integral is evaluated in
    closed form per layer: u_j = n_j^2 (|a_j|^2 + |b_j|^2) / 2.

    The 1/e depth comes from a log-linear fit of the layer densities over the
    front half, on bins of roughly half-wave optical thickness; it is the
    field-amplitude depth (density slope divided by two) and is None when the
    profile does not decay.
    """
    coeffs = _layer_wave_coefficients(stack, omega)
    index = np.array([n for n, _ in stack.layers])
    densities = 0.5 * index ** 2 * np.sum(np.abs(coeffs) ** 2, axis=1)
    edges = np.concatenate(([0.0], np.cumsum([d for _, d in stack.layers])))
    thicknesses = np.diff(edges)
    u_total = float(np.sum(densities * thicknesses))

    centers = 0.5 * (edges[:-1] + edges[1:])
    depth = _fit_penetration_depth(stack, omega, densities)

    return EnergyReport(
        u_per_pin=u_total,
        z=centers,
        density=densities,
        penetration_depth=depth,
        free_space_u_per_pin=stack.total_length,
    )


def _fit_penetration_depth(stack, omega, densities) -> Optional[float]:
    """Field 1/e depth from layer densities binned to ~half-wave thickness."""
    # group consecutive layers until each bin holds >= pi of optical phase,
    # which averages out the half-wave alternation of quarter-wave pairs and
    # of finely sliced gratings alike; a trailing bin needs >= pi/2
    bounds, phase = [0], 0.0
    for j, (n, d) in enumerate(stack.layers):
        phase += n * d * omega
        if phase >= np.pi - 1e-12:
            bounds.append(j + 1)
            phase = 0.0
    if phase >= 0.5 * np.pi:
        bounds.append(len(stack.layers))
    starts = np.array(bounds[:-1], dtype=int)
    thick = np.array([d for _, d in stack.layers[: bounds[-1]]])
    widths = np.add.reduceat(thick, starts)
    bins_z = np.concatenate(([0.0], np.cumsum(widths)[:-1])) + 0.5 * widths
    bins_u = np.add.reduceat(densities[: bounds[-1]] * thick, starts) / widths

    # the fit covers the front half, including a bin centred on the half
    # length: a mirror-symmetric stack puts the middle bin's centre there
    # only up to roundoff, so the comparison carries a tolerance.  Bins deep
    # inside a stack too opaque for floating point hold a density that has
    # underflowed (subnormal or zero); they are left out of the fit
    half = (0.5 + 1e-9) * stack.total_length
    front = (bins_z <= half) & (bins_u >= np.finfo(float).tiny)
    if np.count_nonzero(front) < 3:
        return None
    slope, _ = np.polyfit(bins_z[front], np.log(bins_u[front]), 1)
    if slope >= 0.0:
        return None  # not decaying: passband illumination, no 1/e depth
    return float(2.0 / (-slope))


def group_delay(stack: LayeredStack, omega: float) -> float:
    """Group delay d(arg t)/dw of a stack via the shared phase stencil."""
    half = _DELAY_GRID_REL_HALFWIDTH * omega
    return spectral.group_delay(lambda grid: stack_response(stack, grid), omega, half).value


def grating_group_delay(grating: UniformGrating, omega: float) -> float:
    """Group delay of a uniform grating from the coupled-mode phase."""
    half = _DELAY_GRID_REL_HALFWIDTH * omega
    return spectral.group_delay(lambda grid: grating_response(grating, grid), omega, half).value


def _transmittance(stack: LayeredStack, omegas) -> np.ndarray:
    t, _ = _stack_t_r(stack, np.asarray(omegas, dtype=float))
    return np.abs(t) ** 2


def find_stopband(
    stack: LayeredStack,
    omega_ref: float,
    scan_factor: float = 0.7,
    scan_points: int = 4001,
) -> Stopband:
    """Locate the half-transmission stopband containing ``omega_ref``.

    |t|^2 is scanned over omega_ref * (1 +/- scan_factor) and the contiguous
    region below 0.5 around omega_ref is refined by bisection.  Raises
    NotInStopbandError when |t(omega_ref)|^2 >= 0.5.
    """
    if float(_transmittance(stack, [omega_ref])[0]) >= 0.5:
        raise NotInStopbandError(f"|t({omega_ref})|^2 >= 0.5; not inside a stopband")
    lo = max(omega_ref * (1.0 - scan_factor), 1e-12 * omega_ref)
    hi = omega_ref * (1.0 + scan_factor)
    omegas = np.linspace(lo, hi, scan_points)
    below = _transmittance(stack, omegas) < 0.5
    j_ref = int(np.argmin(np.abs(omegas - omega_ref)))

    j = j_ref
    while j > 0 and below[j - 1]:
        j -= 1
    lower = omegas[j] if j == 0 else _bisect_half(stack, omegas[j - 1], omegas[j])
    j = j_ref
    while j < scan_points - 1 and below[j + 1]:
        j += 1
    upper = omegas[j] if j == scan_points - 1 else _bisect_half(stack, omegas[j + 1], omegas[j])
    return Stopband(lower=float(lower), upper=float(upper))


def _bisect_half(stack: LayeredStack, outside: float, inside: float) -> float:
    """Root of |t|^2 - 0.5 between a sample outside and one inside the band."""
    for _ in range(200):
        mid = 0.5 * (outside + inside)
        if float(_transmittance(stack, [mid])[0]) < 0.5:
            inside = mid
        else:
            outside = mid
        if abs(inside - outside) <= 1e-14 * abs(inside):
            break
    return 0.5 * (outside + inside)


def phase_energy_check(stack: LayeredStack, grid: spectral.FrequencyGrid) -> PhaseEnergyReport:
    """Linearity of arg t over a narrow midgap band versus stored energy.

    Fits arg t = phi0 + slope * detuning by least squares over the grid
    (which must span at most 2% of the stopband width when the carrier sits
    inside a stopband), evaluates stored energy per input power at the
    carrier, and reports the relative slope/energy difference plus the
    maximum fit residual in radians.  Transparent structures (no stopband,
    e.g. a vacuum slab) skip the span restriction.
    """
    try:
        band = find_stopband(stack, grid.omega0)
    except NotInStopbandError:
        band = None
    if band is not None and grid.span > 0.02 * band.width * (1.0 + 1e-9):
        raise ValueError("grid span exceeds 2% of the stopband width")
    resp = stack_response(stack, grid)
    phase = spectral.unwrap_phase(resp)
    detunings = grid.detunings
    coeffs = np.polyfit(detunings, phase.phi, 1)
    fit = np.polyval(coeffs, detunings)
    residual = float(np.max(np.abs(phase.phi - fit)))
    slope = float(coeffs[0])
    u = stored_energy(stack, grid.omega0).u_per_pin
    rel = abs(slope - u) / u if u != 0.0 else np.inf
    return PhaseEnergyReport(
        slope=slope,
        u_per_pin=u,
        relative_difference=float(rel),
        max_residual=residual,
    )
