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
are read off at the front face; stored energy is summed off each layer's
front face as the march steps.
The same march can carry dE/dw and dH/dw beside E and H, which gives the
group delay exactly, with no sampled phase.
Every step has the form (E, H) <- (A E - P H, D H - Q E) (:func:`_step`),
its coefficients formed once per layer type and its cos and sin once per
optical thickness (:func:`_layer_steps`).  Each step, cell product and
squaring is written once, with plain and augmented operators, so the same
code runs on numpy arrays of frequencies and on one float frequency, for
which the fields and coefficients are Python complex numbers.  t and r
march arrays, a single frequency included, so a frequency gets the same
bits in any company.  The one-frequency read-outs, the group delay, the
stored energy and the Bloch depth, march a float, as does the final
refinement of the stopband edges: numpy's per-call overhead would be nearly
all of their time.  The two agree to within about 1e-15 relative, not to
the bit: numpy's complex product may fuse a multiply and an add where
CPython's does not, and its cos and sin are its own.  For t,
r and the group delay, a stack that repeats a cell of p layers m >= 2
times is marched by binary powers of its cell's step, the Bloch-wave
treatment of periodic media (Yeh, Yariv & Hong, JOSA 67, 423 (1977)) with
binary powering (Knuth, TAOCP vol. 2, sec. 4.6.3; :func:`_backward_march`):
the 373-layer `front` stack, 186 cells and one layer, takes 6 steps and 7
squarings, not 373 steps.  Stored energy needs every layer face and is
marched layer by layer; it uses the time-averaged density
u = (n^2 |E|^2 + |H|^2)/4, and per unit input power it is directly a time,
one float: a vacuum slab yields its length.  The field's 1/e depth in a
periodic stack is its cell's Bloch depth.
The uniform grating is the two-wave barrier of :mod:`spectral`, whose one
scalar kernel gives t, r, the group delay and stored energy one frequency
at a time.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from . import spectral
from .errors import DetuningOutOfRangeError, NotInStopbandError, UndersampledPhaseError

# fraction of the Bragg frequency within which the coupled-mode closed form
# is trusted
_GRATING_VALIDITY = 0.2

# growth bound at which the backward march rescales: far below overflow, and
# out of reach of short or weakly modulated stacks
_RESCALE_BOUND = 1e150

# sections the stopband search's one array march cuts each edge bracket
# into, sampling 63 interior points of both brackets at once; the kept
# section is then closed on the one-float march
_SECTIONS = 64

# the stopband scan: _SCAN_POINTS frequencies over omega_ref * (1 +/- _SCAN_FACTOR)
_SCAN_FACTOR = 0.7
_SCAN_POINTS = 4001

# scan points marched on each side of omega_ref before the stopband walk;
# a band that runs past them widens the window 4x at a time, so a narrow band
# costs one march of 129 scan points, not the whole scan
_SCAN_WINDOW = 64


@dataclass(frozen=True)
class LayeredStack:
    """Ordered lossless dielectric layers (index, thickness) between two media."""

    layers: Tuple[Tuple[float, float], ...]
    n_in: float = 1.0
    n_out: float = 1.0

    def __post_init__(self):
        norm = tuple((float(n), float(d)) for n, d in self.layers)
        object.__setattr__(self, "layers", norm)
        for n, d in set(norm):
            if not (n > 0.0 and math.isfinite(n) and d > 0.0 and math.isfinite(d)):
                raise ValueError("layer indices and thicknesses must be positive")
        if not all(n > 0.0 and math.isfinite(n) for n in (self.n_in, self.n_out)):
            raise ValueError("surrounding indices must be positive and finite")

    @functools.cached_property
    def _layer_period(self) -> int:
        """:func:`_period` of the layers, set by :meth:`quarter_wave` or found at first use."""
        return _period(self.layers)

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
        """Alternating quarter-wave layers hi/lo/hi/... at design wavelength.

        The (hi, lo) pair is formed once and repeated, so every hi layer is
        the same (n, d) pair of floats, and so is every lo layer; the march
        shares one phase between the two where their n d are equal floats,
        as they are for every shipped config.  The stack's period, 2, or 1
        for one layer or equal layers, is set here, so the march by cells
        never looks for it.
        """
        if n_layers < 1:
            raise ValueError("need at least one layer")
        pair = tuple((n, lambda0 / (4.0 * n)) for n in (n_hi, n_lo))
        stack = cls((pair * ((n_layers + 1) // 2))[:n_layers], n_in=n_in, n_out=n_out)
        stack.__dict__["_layer_period"] = len(set(stack.layers[:2]))
        return stack

    @classmethod
    def vacuum_slab(cls, length: float) -> "LayeredStack":
        """Equal-length stretch of empty space (the free-space reference)."""
        return cls(((1.0, float(length)),))


@dataclass(frozen=True)
class UniformGrating:
    """Uniform sinusoidal index grating described by coupled-mode theory.

    kappa is the coupling constant (1/length), n_bar the average index and
    omega_b the Bragg angular frequency, each held as a Python float.  The
    equivalent index profile is n(z) = n_bar + (2 kappa / omega_b) cos(2 n_bar omega_b z).
    """

    kappa: float
    length: float
    n_bar: float
    omega_b: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        if not all(map(math.isfinite, (self.kappa, self.length, self.n_bar, self.omega_b))):
            raise ValueError("grating parameters must be finite")
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        if self.omega_b <= 0.0 or self.n_bar <= 0.0:
            raise ValueError("omega_b and n_bar must be positive")

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
        indices = self.n_bar + delta_n * np.cos(2.0 * (beta0 * centers))
        layers = tuple((float(n), dz) for n in indices)
        return LayeredStack(layers, n_in=self.n_bar, n_out=self.n_bar)


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


def _backward_march(stack: LayeredStack, omegas, slope: bool = False, cells: bool = False):
    """(E, H, k) at the exit face, then at the front face of each step, last step first.

    ``omegas`` is an array of frequencies, or one float, for which E and H
    are Python complex numbers and k an int.  A step is one layer.  With
    ``cells``, a stack of N = m p + r layers that holds m >= 2 whole copies
    of its repeating cell of p layers (see :func:`_period`) steps the r
    layers left at the exit face one at a time, then the m cells by binary
    powers of the cell's step M: one step of M^(2^j) for each set bit j of
    m, lowest first, with M squared in place between steps
    (:func:`_square`).  So the faces after the leftover layers are those of
    the power steps.  A power whose squared growth bound would pass
    _RESCALE_BOUND is repeated for the remaining cells instead, and a cell
    whose own growth bound does is stepped layer by layer.  The composed
    cell's rounding recurs in every cell, so the march by cells departs from
    the layer march: on random periodic stacks of 2-600 cells of 1-4 layers,
    indices 1-3.5, by up to about 4e-12 relative on 2^k a and absolute on r,
    and on the delay by up to about 4e-12 of the larger of its size and the
    optical length, 1.5e-11 of its own size.  The true fields are 2^k (E, H),
    k an integer per frequency: E and H are rescaled by exact powers of two
    before a step that could take a running bound on their size past
    _RESCALE_BOUND, and never otherwise.  A step, [growth, A, P, Q, D] from
    :func:`_step_coefficients` or :func:`_cell_matrix`, is taken by
    :func:`_step`, which overwrites array fields in place, so a yielded
    (E, H, k) is valid only until the next step.

    With ``slope``, each step goes on with dM/dw = [[dA, -dP], [-dQ, dD]],
    the fields with dE/dw and dH/dw, stepped by the product rule,
    (E, H)' <- M (E, H)' + dM/dw (E, H), and the march yields
    (E, dE/dw), (H, dH/dw) and k.  The derivatives outgrow the bound by a
    factor of order the stack's optical thickness, far inside the margin
    below overflow.  The rescale shift takes the largest of all four
    fields; the 2^k scale cancels in any ratio of a derivative to its value.

    Raises ValueError, when the exit face is drawn, for a frequency that is
    not positive and finite.
    """
    if not (omegas > 0.0 and math.isfinite(omegas) if isinstance(omegas, float)
            else np.all(np.isfinite(omegas) & (omegas > 0.0))):
        raise ValueError("frequencies must be positive and finite")
    layers = stack.layers
    period = stack._layer_period if cells else 1
    count, rest = divmod(len(layers), period)
    cell = layers[:period]
    growth = math.prod(_growth(n) for n, _ in cell)

    def powers(power, m):
        # M^(2^j) for each set bit j of m, M squared in place between
        # steps.  A power whose square could pass _RESCALE_BOUND is
        # repeated for the rest of the cells instead
        while m:
            if power[0] ** 2 > _RESCALE_BOUND:
                yield from itertools.repeat(power, m)
                return
            if m & 1:
                yield power
            m >>= 1
            if m:
                _square(power)

    def face():
        e, h, *slopes = fields
        return ((e, slopes[0]), (h, slopes[1]), k) if slope else (e, h, k)

    if period < 2 or count < 2 or growth > _RESCALE_BOUND:
        steps = _layer_steps(layers[::-1], omegas, slope)
    else:
        steps = _layer_steps(cell[::-1] + layers[len(layers) - rest:][::-1], omegas, slope)
        power = [growth, *_cell_matrix(itertools.islice(steps, period))]
        steps = itertools.chain(steps, powers(power, count))
    # the exit fields do not depend on w; on arrays a step writes P H and Q E
    # into scratch
    exit_fields = (1.0, stack.n_out, 0.0, 0.0)[:4 if slope else 2]
    if isinstance(omegas, float):
        fields, k, scratch = [complex(value) for value in exit_fields], 0, None
    else:
        fields = [np.full(omegas.shape, complex(value)) for value in exit_fields]
        k = np.zeros(omegas.shape, dtype=int)
        scratch = [np.empty_like(fields[0]) for _ in range(2)]
    bound = max(1.0, stack.n_out)
    yield face()
    for m in steps:
        if bound * m[0] > _RESCALE_BOUND:
            shift, fields = _rescaled(fields)
            k, bound = k + shift, 1.0
        bound *= m[0]
        fields = _step(fields, m, scratch)
        # a layer type with no steps left frees its coefficients before the
        # next type's are formed
        del m
        yield face()


def _period(layers) -> int:
    """Smallest p >= 1 with layers[i] == layers[i + p] for every i.

    N less the longest proper prefix of the sequence that is also a suffix,
    read off the prefix function (the Knuth-Morris-Pratt failure function)
    in O(N) comparisons; 1 for no layers.  A stack of N = m p + r layers is
    then m whole copies of its first p layers, the cell, before its last r
    layers, which repeat the cell's first r.
    """
    fail, k = [0], 0  # fail[i]: longest proper border of layers[:i + 1]
    for layer in layers[1:]:
        while k and layer != layers[k]:
            k = fail[k - 1]
        if layer == layers[k]:
            k += 1
        fail.append(k)
    return max(len(layers) - k, 1)


def _growth(n: float) -> float:
    """Bound on the factor by which one step of a layer of index n grows max(|E|, |H|)."""
    return 1.0 + max(n, 1.0 / n)


def _rescaled(fields):
    """j and ``fields`` times 2^(-j), per frequency, j the exponent of the largest |field|."""
    if isinstance(fields[0], complex):
        _, shift = math.frexp(max(map(abs, fields)))
        return shift, [field * math.ldexp(1.0, -shift) for field in fields]
    _, shift = np.frexp(functools.reduce(np.maximum, map(np.abs, fields)))
    scale = np.ldexp(1.0, -shift)
    return shift, [field * scale for field in fields]


def _layer_steps(layers, omegas, slope: bool):
    """The step coefficients of each of ``layers`` in turn.

    A layer type, a distinct (n, d) pair, has its coefficients formed at its
    first step and held until its last.  Its phase delta = n d w is keyed on
    the float n d, so types of one optical thickness, such as both types of
    a shipped quarter-wave stack, share bit-equal phases: cos(delta) and sin(delta)
    are formed once per key and frequency (:func:`_layer_trig`), and held
    only until the last type with that key has formed its coefficients.  A
    held type keeps three complex arrays, 6 words per frequency (11 with
    ``slope``), or fewer where types share one cos array.  A type that
    occurs once is never held; the most held at once is half the layers,
    for a palindrome of distinct layers.
    """
    left, held, trig = Counter(layers), {}, {}
    # types are formed in order of first use, the order of left's keys, so
    # this is the last type formed at each optical thickness
    last = {layer[0] * layer[1]: layer for layer in left}
    for layer in layers:
        left[layer] -= 1
        if layer not in held:
            n, d = layer
            key = n * d
            if key not in trig:
                trig[key] = _layer_trig(key, omegas)
            held[layer] = _step_coefficients(
                n, d, *(trig.pop(key) if last[key] == layer else trig[key]), slope)
        # no local keeps an array while suspended, so a type with no steps
        # left is freed once the march has taken its last step
        yield held[layer] if left[layer] else held.pop(layer)


def _layer_trig(thickness: float, omegas):
    """cos(delta) and sin(delta) of the phase delta = thickness * w.

    Floats for a float w.  For an array, cos(delta) is held complex,
    cos(delta) + 0i, the value numpy casts a real factor to in a product
    with a complex array, so each product keeps its bits.  The only place a
    layer's trig is evaluated; the phase dies here.
    """
    phase = thickness * omegas
    if isinstance(phase, float):
        if math.isinf(phase):  # numpy flags this overflow in an array; Python does not
            raise OverflowError(f"phase {thickness!r} * {omegas!r} overflows")
        return math.cos(phase), math.sin(phase)
    cos_p = np.zeros(omegas.shape, dtype=complex)
    cos_p.real = np.cos(phase)
    return cos_p, np.sin(phase)


def _step_coefficients(n: float, d: float, cos_p, sin_p, slope: bool = False):
    """[growth, A, P, Q, D] of one layer's step, and with ``slope`` [dA, dP, dQ, dD] after.

    A = D = cos(delta), P = i sin(delta)/n and Q = i n sin(delta), from the
    :func:`_layer_trig` of the layer's phase delta = n d w.  sin(delta) dies
    with the last type that reads it, so the march holds only what a step
    reads.  A and D are one array, which other types of the same n d may
    share as theirs: a step and :func:`_cell_matrix` only read
    coefficients, and :func:`_square` writes only into a power it owns.
    The w-derivatives are
    dM/dw = n d [[-sin(delta), -i cos(delta)/n], [-i n cos(delta), -sin(delta)]],
    dA = dD one real array.
    """
    step = [_growth(n), cos_p, 1j * (sin_p / n), 1j * (n * sin_p), cos_p]
    if slope:
        da = (-n * d) * sin_p
        step += [da, (1j * d) * cos_p, (1j * n * n * d) * cos_p, da]
    return step


def _cell_matrix(steps):
    """[A, P, Q, D, *slopes] of a cell's step from its layers' steps, exit side first.

    The cell's step is the product M = M_1 ... M_p of its layers' steps,
    built up from the exit side as M <- M_j M (:func:`_product`).
    """
    _, *cell = next(steps)
    for _, *layer in steps:
        cell = _product(layer, cell)
    return cell


def _step(fields, step, scratch):
    """``fields`` [E, H, *slopes] stepped back by ``step`` [growth, A, P, Q, D, *slopes].

    (E, H) <- (A E - P H, D H - Q E), with augmented operators, so array E
    and H are overwritten in place; P H and Q E are written into the two
    arrays of ``scratch``, None on floats.  With slopes, (dE, dH) follow by
    the product rule, dE <- A dE - P dH + (dA E - dP H) and
    dH <- D dH - Q dE + (dD H - dQ E), formed before E and H move.
    """
    e, h, *slopes = fields
    _, a, p, q, d, *dm = step
    if dm:
        (de, dh), (da, dp, dq, dd) = slopes, dm
        slopes = [a * de - p * dh + (da * e - dp * h), d * dh - q * de + (dd * h - dq * e)]
    ph = p * h if scratch is None else np.multiply(p, h, out=scratch[0])
    qe = q * e if scratch is None else np.multiply(q, e, out=scratch[1])
    e *= a
    e -= ph
    h *= d
    h -= qe
    return [e, h, *slopes]


def _square(power):
    """Square in place a step [growth, A, P, Q, D, *slopes] that owns its arrays.

    M^2 = [[A A + P Q, -P t], [-Q t, D D + P Q]] with t = A + D; with
    slopes, by the product rule, dA <- 2 A dA + s, dD <- 2 D dD + s,
    dP <- dP t + P dt and dQ <- dQ t + Q dt, with s = dP Q + P dQ and
    dt = dA + dD.  A, P, Q and D are written with augmented operators, so
    arrays are overwritten in place.
    """
    power[0] **= 2
    _, a, p, q, d, *dm = power
    t, pq = a + d, p * q
    if dm:
        da, dp, dq, dd = dm
        s, dt = dp * q + p * dq, da + dd
        dm = [da * a * 2.0 + s, dp * t + p * dt, dq * t + q * dt, dd * d * 2.0 + s]
    a *= a
    a += pq
    d *= d
    d += pq
    p *= t
    q *= t
    power[1:] = a, p, q, d, *dm


def _product(x, y):
    """The step x y, each step [A, P, Q, D, *slopes] of M = [[A, -P], [-Q, D]].

    A = xA yA + xP yQ, P = xA yP + xP yD, Q = xQ yA + xD yQ and
    D = xQ yP + xD yD; with slopes, d(x y) = x dy + dx y.
    """
    xa, xp, xq, xd, *dx = x
    ya, yp, yq, yd, *dy = y
    xy = [xa * ya + xp * yq, xa * yp + xp * yd, xq * ya + xd * yq, xq * yp + xd * yd]
    if dx:
        xy += [u + v for u, v in zip(_product(x[:4], dy), _product(dx, y[:4]))]
    return xy


def _split_waves(e, h, n):
    """Forward and backward wave amplitudes of the fields (E, H) in index n."""
    ratio = h / n
    return 0.5 * (e + ratio), 0.5 * (e - ratio)


def _front_face(stack: LayeredStack, omegas):
    """Incident and reflected amplitudes a, b and the exponent k at the front face.

    Each amplitude is 2^(-k) times the true one.
    """
    for e, h, k in _backward_march(stack, omegas, cells=True):
        pass  # only the front face is needed
    return (*_split_waves(e, h, stack.n_in), k)


def _stack_t_r(stack: LayeredStack, omegas: np.ndarray):
    """t and r at positive frequencies: t = 2^(-k)/a and r = b/a at the front face."""
    with spectral.named_float_errors("t and r"):
        incident, reflected, k = _front_face(stack, omegas)
        # 1.0 and 2^0 are both cast to 1 + 0i in the division
        return (np.ldexp(1.0, -k) if k.any() else 1.0) / incident, reflected / incident


# The three public forms below differ only in how frequencies come in and
# results go out; none calls another, so a tracer wrapping them counts each
# march to the front face once.  Each raises ValueError for a frequency that
# is not positive and finite, and NonFiniteResultError where the march or
# t and r leave the float range.

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


def _grating_rate(grating: UniformGrating, omega: float):
    """delta = n_bar (omega - omega_b) in the window (DetuningOutOfRangeError outside, NaN
    among them) and gamma = sqrt(kappa^2 - delta^2), a Python complex, from kappa and delta
    scaled by one power of two: exact, so no square over- or underflows, and gamma has the
    unscaled formula's bits wherever its squares are normal."""
    delta = grating.n_bar * (float(omega) - grating.omega_b)
    if not abs(delta) < _GRATING_VALIDITY * grating.omega_b:
        raise DetuningOutOfRangeError(
            "detuning outside coupled-mode validity |delta| < 0.2 * omega_b")
    e = math.frexp(max(grating.kappa, abs(delta)))[1]
    kappa, detuning = math.ldexp(grating.kappa, -e), math.ldexp(delta, -e)
    gamma = cmath.sqrt(kappa * kappa - detuning * detuning)
    return delta, complex(math.ldexp(gamma.real, e), math.ldexp(gamma.imag, e))


def grating_response(grating: UniformGrating, omegas):
    """Coupled-mode closed-form t and r of a uniform grating at ``omegas``, one or an array.

    With delta = n_bar (omega - omega_b) and gamma = sqrt(kappa^2 - delta^2):

        t = gamma / (gamma cosh(gamma L) - i delta sinh(gamma L))
        r = i kappa sinh(gamma L) / (gamma cosh(gamma L) - i delta sinh(gamma L))

    At the Bragg frequency |t| = sech(kappa L).  A detuning outside
    |delta| < 0.2 * omega_b raises DetuningOutOfRangeError.  Frequency by
    frequency :func:`spectral._two_wave_t_r`, with c = -delta, beta = kappa, k = 1.
    """

    def setup(omega):
        delta, gamma = _grating_rate(grating, omega)
        return gamma, -delta, grating.kappa, 1.0

    return spectral._two_wave_arrays(np.asarray(omegas, dtype=float), setup, grating.length)


def grating_stored_energy(grating: UniformGrating, omega: float) -> float:
    """Stored energy per unit input power, U/P_in = n_bar * int(|R|^2 + |S|^2) dz.

    A field integral, independent of the exact phase derivative of
    :func:`grating_group_delay`.  Exact with gamma = sqrt(kappa^2 - delta^2)
    complex, inside, at the edge of and outside the stopband alike:
    U/P_in = n_bar |t|^2 L [1 + 4 kappa^2 L^2 h(2 gamma L)], h(z) = (sinh z - z)/z^3
    (:func:`spectral._two_wave_integral`).
    """
    delta, gamma = _grating_rate(grating, omega)
    u = grating.n_bar * spectral._two_wave_integral(gamma, -delta, 1.0,
                                                     (grating.kappa, grating.kappa),
                                                     grating.length)
    return spectral._finite(u, f"stored energy at omega = {omega!r}")


def stored_energy(stack: LayeredStack, omega: float) -> float:
    """Stored energy per unit input power, U/P_in, a time.

    Inside a homogeneous lossless layer the combined density
    (n^2 |E|^2 + |H|^2)/4 is exactly constant (electric and magnetic
    standing-wave oscillations cancel), so a layer of thickness d holds d
    times its density at its front face.  The march yields each front face
    once, exit side first, and d (n^2 |E|^2 + |H|^2) is added to a sum held
    in the march's current 2^k scale, multiplied by 4^(-shift) whenever k
    moves.  With P_in = n_in |a|^2 / 2 for the incident amplitude a at the
    front face, U/P_in is the sum over 2 n_in |a|^2.  Raises ValueError for
    an ``omega`` that is not positive and finite, and NonFiniteResultError
    where the sum leaves the float range.
    """
    faces = _backward_march(stack, float(omega))
    total, scale = 0.0, 0
    with spectral.named_float_errors("stored energy"):
        e, h, _ = next(faces)  # the exit face, where k = 0
        for (n, d), (e, h, k) in zip(stack.layers[::-1], faces):
            if k != scale:
                total, scale = math.ldexp(total, 2 * (scale - k)), k
            total += d * (n * n * (e.real * e.real + e.imag * e.imag)
                          + h.real * h.real + h.imag * h.imag)
        size = abs(_split_waves(e, h, stack.n_in)[0])
        # |a| divides twice, as |a|^2 can underflow where n_in |a| does not
        u = total / (2.0 * stack.n_in * size) / size
    return spectral._finite(u, f"stored energy at omega = {omega!r}")


def bloch_depth(cell: LayeredStack, omega: float) -> Optional[float]:
    """1/e field-amplitude depth of the medium that repeats ``cell``, None in a passband.

    A Bloch wave decays by e^{-K Lambda} over the cell's length Lambda, with
    cosh(K Lambda) = |tr M|/2 for the march's cell step M (:func:`_cell_matrix`)
    at ``omega`` (Yeh, Yariv & Hong, JOSA 67, 423 (1977)); the depth 1/K is
    Lambda/ln(n_hi/n_lo) at midgap of a quarter-wave cell.  Raises ValueError
    for an empty cell or an ``omega`` that is not positive and finite, and
    NonFiniteResultError where tr M overflows.
    """
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError("omega must be positive and finite")
    if not cell.layers:
        raise ValueError("need at least one layer")
    with spectral.named_float_errors("trace of the cell's step"):
        a, _, _, d = _cell_matrix(_layer_steps(cell.layers[::-1], float(omega), slope=False))
        half_trace = abs(a + d) / 2.0
    spectral._finite(half_trace, f"trace of the cell's step at omega = {omega!r}")
    if half_trace <= 1.0:
        return None
    return cell.total_length / math.acosh(half_trace)


def group_delay(stack: LayeredStack, omega: float) -> float:
    """Exact group delay d(arg t)/dw = -Im(a'/a) of a stack at ``omega`` > 0.

    t = 2^(-k)/a with a = (E + H/n_in)/2, and E, H and their slopes come from
    one slope march (:func:`_backward_march`), so the delay stays finite on
    a stack so opaque that t underflows; below n_in = 1, where H/n_in can
    overflow, a'/a is (n_in E' + H')/(n_in E + H).  Raises
    NonFiniteResultError where the march or the delay leaves the float range.
    """
    n = stack.n_in
    with spectral.named_float_errors("group delay"):
        for (e, de), (h, dh), _ in _backward_march(stack, float(omega), slope=True, cells=True):
            pass  # only the front face is needed
        ratio = (n * de + dh) / (n * e + h) if n < 1.0 else (de + dh / n) / (e + h / n)
        # 0.0 - x rather than -x, so an empty stack's zero delay is +0.0
        delay = 0.0 - ratio.imag
    return spectral._finite(delay, f"group delay at omega = {omega!r}")


def grating_group_delay(grating: UniformGrating, omega: float) -> float:
    """Exact group delay d(arg t)/dw of a uniform grating, coupled-mode theory.

    The two-wave delay of :func:`spectral._two_wave_delay` with rate
    gamma = sqrt(kappa^2 - delta^2), c = -delta, k = 1, dc/dw = -n_bar,
    dk/dw = 0 and d(gamma^2)/dw = -2 delta n_bar; the opaque delay at any length.
    """
    delta, gamma = _grating_rate(grating, omega)
    n_bar = grating.n_bar
    tau = spectral._two_wave_delay(gamma, -delta, 1.0, -n_bar, 0.0, -2.0 * delta * n_bar,
                                   grating.length)
    return spectral._finite(tau, f"grating group delay at omega = {omega!r}")


def _transmittance(stack: LayeredStack, omegas) -> np.ndarray:
    t, _ = _stack_t_r(stack, np.asarray(omegas, dtype=float))
    return np.abs(t) ** 2


def find_stopband(stack: LayeredStack, omega_ref: float) -> Stopband:
    """Locate the half-transmission stopband containing ``omega_ref``.

    |t|^2 is scanned at _SCAN_POINTS frequencies over
    omega_ref * (1 +/- _SCAN_FACTOR), and each end of the contiguous region
    below 0.5 around omega_ref is refined by :func:`_k_section`: one array
    march samples both edge brackets at once and keeps, in each, the section
    that crosses nearest the band, so an edge bounds the below-0.5 run that
    holds omega_ref; regula falsi on the one-float march closes each
    section.  An edge on the scan boundary stays there.  The scan is marched
    only in a window around omega_ref, _SCAN_WINDOW points a side, widened
    4x while the run below 0.5 reaches a window edge that is not a scan end.
    Raises NotInStopbandError when |t(omega_ref)|^2 >= 0.5; t(omega_ref) is
    read from the first window's march, so a passband omega_ref costs one
    window.  Raises ValueError for an omega_ref whose scan range is not
    positive and finite, and NonFiniteResultError where the march is not.
    """
    lo = omega_ref * (1.0 - _SCAN_FACTOR)
    hi = omega_ref * (1.0 + _SCAN_FACTOR)
    if not (lo > 0.0 and math.isfinite(hi)):
        raise ValueError("omega_ref * (1 +/- 0.7) must be positive and finite")
    omegas = np.linspace(lo, hi, _SCAN_POINTS)
    j_ref = int(np.argmin(np.abs(omegas - omega_ref)))
    # the march is elementwise, so a frequency gets the same bits whichever
    # frequencies ride with it: omega_ref rides along as the last frequency
    # of the first window, and a widened window marches only its new points
    half = _SCAN_WINDOW
    a, b = max(j_ref - half, 0), min(j_ref + half + 1, _SCAN_POINTS)
    power = _transmittance(stack, np.append(omegas[a:b], omega_ref))
    if power[-1] >= 0.5:
        raise NotInStopbandError(f"|t({omega_ref})|^2 >= 0.5; not inside a stopband")
    below = np.zeros(_SCAN_POINTS, dtype=bool)  # known on omegas[a:b]
    below[a:b] = power[:-1] < 0.5

    j_lo = j_hi = j_ref
    while True:
        while j_lo > a and below[j_lo - 1]:
            j_lo -= 1
        while j_hi < b - 1 and below[j_hi + 1]:
            j_hi += 1
        if not (j_lo == a > 0 or j_hi == b - 1 < _SCAN_POINTS - 1):
            break
        half *= 4
        wide_a, wide_b = max(j_ref - half, 0), min(j_ref + half + 1, _SCAN_POINTS)
        fresh = np.r_[wide_a:a, b:wide_b]
        below[fresh] = _transmittance(stack, omegas[fresh]) < 0.5
        a, b = wide_a, wide_b
    # an edge on the scan boundary gets an empty bracket and keeps its sample
    inside = omegas[[j_lo, j_hi]]
    outside = omegas[[max(j_lo - 1, 0), min(j_hi + 1, _SCAN_POINTS - 1)]]
    lower, upper = _k_section(stack, outside, inside)
    return Stopband(lower=float(lower), upper=float(upper))


def _k_section(stack: LayeredStack, outside: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Crossings of |t|^2 = 0.5, one per bracket.

    Each bracket runs from a sample inside the band (|t|^2 < 0.5) to one
    outside.  One march samples _SECTIONS - 1 interior points of every live
    bracket; walking out from its inside end, the first point with
    |t|^2 >= 0.5 becomes the new outside end (the old one if none does) and
    the point before it the new inside end.  Each kept section is then
    closed one frequency at a time on the one-float march by Illinois
    regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)) on f = |t|^2 - 0.5,
    t = 2^(-k)/a as :func:`_stack_t_r` forms it, seeded with the march's
    samples; an end the march did not sample has no f, so its bracket takes
    midpoints until that end moves, as does a secant step that leaves its
    bracket.  A bracket stops once |inside - outside| <= 1e-14 |inside|, or
    once its midpoint is one of its ends, and yields its midpoint.
    """
    outside, inside = outside.copy(), inside.copy()
    live = np.flatnonzero(np.abs(inside - outside) > 1e-14 * np.abs(inside))
    a, b = inside[live], outside[live]
    sections = a[:, None] + (b - a)[:, None] * (np.arange(1, _SECTIONS) / _SECTIONS)
    powers = _transmittance(stack, sections).tolist()
    with spectral.named_float_errors("|t|^2 at a stopband edge"):
        for j, row, power in zip(live, sections.tolist(), powers):
            xs, fs = [float(inside[j]), *row, float(outside[j])], [math.nan, *power, math.nan]
            first = next((i for i in range(1, _SECTIONS) if fs[i] >= 0.5), _SECTIONS)
            x0, x1, f0, f1 = xs[first - 1], xs[first], fs[first - 1] - 0.5, fs[first] - 0.5
            kept = 0  # the end the last step kept: -1 inside, 1 outside
            while abs(x1 - x0) > 1e-14 * abs(x0):
                # halves first, so a midpoint near the float maximum does not overflow
                x = 0.5 * x0 + 0.5 * x1
                if x in (x0, x1):
                    break
                secant = x0 + (x1 - x0) * (f0 / (f0 - f1))  # nan where an end has no f
                if min(x0, x1) < secant < max(x0, x1):
                    x = secant
                incident, _, k = _front_face(stack, x)
                # an infinite a would read as t = 0
                spectral._finite(abs(incident), f"incident amplitude at omega = {x!r}")
                f = spectral._finite(abs(math.ldexp(1.0, -k) / incident) ** 2,
                                     f"|t|^2 at omega = {x!r}") - 0.5
                # Illinois: an end kept twice running has its f halved
                if f < 0.0:
                    if kept == 1:
                        f1 *= 0.5
                    x0, f0, kept = x, f, 1
                else:
                    if kept == -1:
                        f0 *= 0.5
                    x1, f1, kept = x, f, -1
            inside[j], outside[j] = x0, x1
    return 0.5 * outside + 0.5 * inside


def phase_energy_check(stack: LayeredStack, grid: spectral.FrequencyGrid) -> PhaseEnergyReport:
    """Linearity of arg t over a narrow midgap band versus stored energy.

    Fits arg t = phi0 + slope * detuning by least squares over the grid
    (which must span at most 2% of the stopband width when the carrier sits
    inside a stopband), evaluates stored energy per input power at the
    carrier, and reports the relative slope/energy difference plus the
    maximum fit residual in radians.  Transparent structures (no stopband,
    e.g. a vacuum slab) skip the span restriction.  arg t is -arg a of the
    march's rescaled incident amplitude a, which never underflows, so a stack
    too opaque for t is fitted too; an unwrapped step of pi/2 or more between
    samples raises UndersampledPhaseError.
    """
    try:
        band = find_stopband(stack, grid.omega0)
    except NotInStopbandError:
        band = None
    if band is not None and grid.span > 0.02 * band.width * (1.0 + 1e-9):
        raise ValueError("grid span exceeds 2% of the stopband width")
    with spectral.named_float_errors("arg t"):
        phi = np.unwrap(-np.angle(_front_face(stack, grid.omegas)[0]))
    if np.any(np.abs(np.diff(phi)) >= 0.5 * np.pi):
        raise UndersampledPhaseError("arg t steps by pi/2 or more between grid samples")
    # the least-squares line through the samples' centroid
    x = grid.detunings - np.mean(grid.detunings)
    slope = float(np.dot(x, phi) / np.dot(x, x))
    residual = float(np.max(np.abs(phi - np.mean(phi) - slope * x)))
    u = stored_energy(stack, grid.omega0)
    rel = abs(slope - u) / u if u != 0.0 else np.inf
    return PhaseEnergyReport(
        slope=slope,
        u_per_pin=u,
        relative_difference=float(rel),
        max_residual=residual,
    )
