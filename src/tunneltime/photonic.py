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

A layer of index n and thickness d maps interface fields forward via

    [E, H](z + d) = [[cos(delta), i sin(delta)/n],
                     [i n sin(delta), cos(delta)]] . [E, H](z),

with delta = n d w.  Stored energy uses the time-averaged density
u = (n^2 |E|^2 + |H|^2)/4; with the incident field scaled to unit input
power, the stored energy per input power is directly a time, and a vacuum
slab yields exactly its length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.integrate import quad

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


def _stack_t_r(stack: LayeredStack, omegas: np.ndarray):
    """t and r of a stack at positive frequencies: the one transfer-matrix kernel.

    Accumulates the forward field-transfer matrix P per frequency and solves
    the boundary equations for t and r.
    """
    if np.any(omegas <= 0.0):
        raise ValueError("frequencies must be positive")
    m = omegas.size
    total = np.zeros((m, 2, 2), dtype=complex)
    total[:, 0, 0] = 1.0
    total[:, 1, 1] = 1.0
    for n, d in stack.layers:
        delta = n * d * omegas
        cos_d = np.cos(delta)
        sin_d = np.sin(delta)
        layer = np.empty((m, 2, 2), dtype=complex)
        layer[:, 0, 0] = cos_d
        layer[:, 0, 1] = 1j * sin_d / n
        layer[:, 1, 0] = 1j * n * sin_d
        layer[:, 1, 1] = cos_d
        total = layer @ total
    # det P = 1, so the boundary equations invert cleanly; this form avoids
    # the catastrophic 1 + r cancellation for opaque stacks (|r| -> 1)
    n_in, n_out = stack.n_in, stack.n_out
    p11, p12 = total[:, 0, 0], total[:, 0, 1]
    p21, p22 = total[:, 1, 0], total[:, 1, 1]
    t = 2.0 * n_in / (n_out * p11 - p21 + n_in * p22 - n_in * n_out * p12)
    r = t * (p22 - n_out * p12) - 1.0
    return t, r


# The three public forms below differ only in how frequencies come in and
# results go out; none calls another, so a tracer wrapping them counts each
# transfer-matrix evaluation once.

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


def grating_response(grating: UniformGrating, grid: spectral.FrequencyGrid) -> spectral.ComplexResponse:
    """Coupled-mode closed-form response of a uniform grating.

    With delta = n_bar (omega - omega_b) and gamma = sqrt(kappa^2 - delta^2):

        t = gamma / (gamma cosh(gamma L) - i delta sinh(gamma L))
        r = i kappa sinh(gamma L) / (gamma cosh(gamma L) - i delta sinh(gamma L))

    At the Bragg frequency |t| = sech(kappa L).  Detunings are only trusted
    within |delta| < 0.2 * omega_b.
    """
    delta = grating.detuning(grid.omegas)
    if np.any(np.abs(delta) >= _GRATING_VALIDITY * grating.omega_b):
        raise DetuningOutOfRangeError(
            "detuning outside coupled-mode validity |delta| < 0.2 * omega_b"
        )
    t, r = _grating_t_r(grating.kappa, grating.length, delta)
    return spectral.ComplexResponse(grid, t, r)


def _grating_t_r(kappa: float, length: float, delta: np.ndarray):
    delta = np.asarray(delta, dtype=complex)
    gamma = np.sqrt(kappa ** 2 - delta ** 2)
    # gamma -> 0 at the band edges; replace by the analytic limit there
    small = np.abs(gamma) * length < 1e-8
    gamma_safe = np.where(small, 1.0, gamma)
    ch = np.cosh(gamma_safe * length)
    sh_over_g = np.sinh(gamma_safe * length) / gamma_safe
    ch = np.where(small, 1.0 + 0.5 * (gamma * length) ** 2, ch)
    sh_over_g = np.where(small, length * (1.0 + (gamma * length) ** 2 / 6.0), sh_over_g)
    denom = ch - 1j * delta * sh_over_g
    t = 1.0 / denom
    r = 1j * kappa * sh_over_g / denom
    return t, r


def grating_envelopes(grating: UniformGrating, omega: float, z: np.ndarray):
    """Forward/backward mode envelopes R(z), S(z) with R(0) = 1, S(L) = 0."""
    delta = complex(grating.detuning(omega))
    kappa, length = grating.kappa, grating.length
    gamma = np.sqrt(complex(kappa ** 2 - delta ** 2))
    t, _ = _grating_t_r(kappa, length, np.asarray([delta]))
    t = complex(t[0])
    z = np.asarray(z, dtype=float)
    if abs(gamma) * length < 1e-8:
        # degenerate band edge: linearized envelopes
        forward = t * (1.0 + 1j * delta * (z - length) + 0.0 * z)
        backward = t * 1j * kappa * (length - z)
        return forward, backward
    arg = gamma * (z - length)
    forward = t * (np.cosh(arg) + 1j * delta * np.sinh(arg) / gamma)
    backward = t * 1j * kappa * np.sinh(gamma * (length - z)) / gamma
    return forward, backward


def grating_stored_energy(grating: UniformGrating, omega: float) -> float:
    """Stored energy per unit input power, U/P_in = n_bar * int(|R|^2 + |S|^2) dz.

    A field integral, independent of the phase-derivative route of
    :func:`grating_group_delay`: the coupled-mode envelopes are integrated
    by adaptive quadrature.
    """
    def mode_density(z: float) -> float:
        f, b = grating_envelopes(grating, omega, np.asarray([z]))
        return float(np.abs(f[0]) ** 2 + np.abs(b[0]) ** 2)

    integral, _ = quad(mode_density, 0.0, grating.length, epsabs=0.0, epsrel=1e-12, limit=400)
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
    coeffs = np.asarray(_layer_wave_coefficients(stack, omega))
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


def _layer_wave_coefficients(stack: LayeredStack, omega: float):
    """Per-layer forward/backward wave amplitudes (a_j, b_j), unit input power.

    Within layer j the field is a_j e^{i n w s} + b_j e^{-i n w s} with s the
    distance from the layer's front face.  The transmitted wave fixes (E, H)
    at the back face; marching backwards through each layer follows the
    numerically dominant solution, so the amplitudes stay accurate even for
    opaque barriers.
    """
    t, _ = stack_t_r(stack, omega)
    e0 = np.sqrt(2.0 / stack.n_in)  # unit input power: P_in = n_in |E0|^2 / 2
    e_cur = e0 * t
    h_cur = stack.n_out * e_cur
    coeffs = [None] * len(stack.layers)
    for j in range(len(stack.layers) - 1, -1, -1):
        n, d = stack.layers[j]
        phase = n * omega * d
        e_front = np.cos(phase) * e_cur - 1j * np.sin(phase) / n * h_cur
        h_front = -1j * n * np.sin(phase) * e_cur + np.cos(phase) * h_cur
        coeffs[j] = (0.5 * (e_front + h_front / n), 0.5 * (e_front - h_front / n))
        e_cur, h_cur = e_front, h_front
    return coeffs


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
    edges = np.concatenate(([0.0], np.cumsum([d for _, d in stack.layers])))
    densities = np.empty(len(stack.layers))
    for j, ((n, d), (a, b)) in enumerate(zip(stack.layers, coeffs)):
        densities[j] = 0.5 * n ** 2 * (abs(a) ** 2 + abs(b) ** 2)
    thicknesses = np.diff(edges)
    u_total = float(np.sum(densities * thicknesses))

    centers = 0.5 * (edges[:-1] + edges[1:])
    depth = _fit_penetration_depth(stack, omega, densities, edges)

    return EnergyReport(
        u_per_pin=u_total,
        z=centers,
        density=densities,
        penetration_depth=depth,
        free_space_u_per_pin=stack.total_length,
    )


def _fit_penetration_depth(stack, omega, densities, edges) -> Optional[float]:
    """Field 1/e depth from layer densities binned to ~half-wave thickness."""
    # group consecutive layers until each bin holds >= pi of optical phase,
    # which averages out the half-wave alternation of quarter-wave pairs and
    # of finely sliced gratings alike
    bins_z = []
    bins_u = []
    acc_phase = 0.0
    acc_energy = 0.0
    acc_thick = 0.0
    z_start = 0.0
    for j, (n, d) in enumerate(stack.layers):
        acc_phase += n * d * omega
        acc_energy += densities[j] * d
        acc_thick += d
        if acc_phase >= np.pi - 1e-12:
            bins_z.append(z_start + 0.5 * acc_thick)
            bins_u.append(acc_energy / acc_thick)
            z_start += acc_thick
            acc_phase = 0.0
            acc_energy = 0.0
            acc_thick = 0.0
    if acc_thick > 0.0 and acc_phase >= 0.5 * np.pi:
        bins_z.append(z_start + 0.5 * acc_thick)
        bins_u.append(acc_energy / acc_thick)
    bins_z = np.asarray(bins_z)
    bins_u = np.asarray(bins_u)

    half = stack.total_length / 2.0
    front = bins_z <= half
    z_fit = bins_z[front]
    u_fit = bins_u[front]
    if z_fit.size < 3 or np.any(u_fit <= 0.0):
        return None
    slope, _ = np.polyfit(z_fit, np.log(u_fit), 1)
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
