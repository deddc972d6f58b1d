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
The same march can carry dE/dw and dH/dw beside E and H, which gives the
group delay exactly, with no sampled phase.
Every step has the form (E, H) <- (A E - P H, D H - Q E): four products and
two differences, written into two reused arrays beside E and H.  A layer's
step has A = D = cos(delta), P = i sin(delta)/n and Q = i n sin(delta),
formed once per layer type, a distinct (n, d) pair, and held from its first
use to its last.  cos(delta) and sin(delta) are formed once per optical
thickness n d, a float key: the two types of each shipped quarter-wave stack
share theirs, so its march costs one cos and one sin per frequency.  The
slope march, whose one-frequency calls are nearly all per-call overhead,
holds each pair, (A, D), (P, Q) and their derivatives, stacked as one
(2, F) array, and (E, H) with their derivatives as one (2, 2, F) array, so
a step, a cell product or a squaring takes about half the array calls; the
plain march keeps each pair as two arrays, which keeps its wide arrays
half the size.  For t, r and the group delay, a stack that repeats a cell
of p layers m >= 2 times is marched by powers of its cell, the Bloch-wave
treatment of periodic media (Yeh, Yariv & Hong, JOSA 67, 423 (1977)) with
binary powering (Knuth, TAOCP vol. 2, sec. 4.6.3): the cell's step M is
composed once per frequency from its layers' steps, the N mod p layers left
at the exit face are stepped singly, and then one step of M^(2^j) is taken
for each set bit j of m, M squared in place between steps.  The 373-layer
`front` stack, 186 cells and one layer, takes 6 steps and 7 squarings, not
373 steps.  The layer amplitudes behind stored energy and field profiles
need every layer face and are marched layer by layer.
Stored energy uses the time-averaged density u = (n^2 |E|^2 + |H|^2)/4; per
unit input power it is directly a time, and a vacuum slab yields its length.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import spectral
from .errors import (DetuningOutOfRangeError, NonFiniteResultError, NotInStopbandError,
                     UndersampledPhaseError)

# fraction of the Bragg frequency within which the coupled-mode closed form
# is trusted
_GRATING_VALIDITY = 0.2

# samples per layer of a reconstructed field profile
_FIELD_POINTS_PER_LAYER = 32

# growth bound at which the backward march rescales: far below overflow, and
# out of reach of short or weakly modulated stacks
_RESCALE_BOUND = 1e150

# sections each k-section round cuts a stopband-edge bracket into, so one
# march per round samples 63 interior points of every bracket; from the
# second round on the march also samples each bracket's predicted crossing
# p at p (1 -/+ _STRADDLE), a quarter of the 1e-14 stop width a side, so a
# prediction good to 2.5e-15 ends its bracket in that round
_SECTIONS = 64
_STRADDLE = 2.5e-15
# section points of a round, nearest its kept sub-bracket, that predict the
# crossing the next round straddles
_PREDICTORS = 8

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
    """Sampled E/H fields through a stack, unit input power normalization.

    ``e`` and ``h`` are the fields at the depths ``z`` from the stack's front
    face, and ``index`` is the refractive index of the layer at each sample.
    """

    z: np.ndarray
    e: np.ndarray
    h: np.ndarray
    index: np.ndarray

    def density(self) -> np.ndarray:
        """Time-averaged energy density (n^2 |e|^2 + |h|^2)/4 at the samples."""
        return (self.index ** 2 * np.abs(self.e) ** 2 + np.abs(self.h) ** 2) / 4.0


@dataclass(frozen=True)
class EnergyReport:
    """Stored energy of a stack at one frequency, per unit input power.

    ``u_per_pin`` is the stored energy and ``density`` the energy density
    of each layer, constant across it.  ``penetration_depth`` is the 1/e
    depth of the *field-amplitude* envelope, obtained from a log-linear fit
    of the per-layer energy density over the front half of the structure
    (the density decays at twice the field rate).  It is None when the
    envelope does not fall by 1/e within the stack
    (passband illumination).
    """

    u_per_pin: float
    density: np.ndarray
    penetration_depth: Optional[float]


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


def _backward_march(stack: LayeredStack, omegas: np.ndarray, slope: bool = False,
                    cells: bool = False):
    """(E, H, k) at the exit face, then at the front face of each step, last step first.

    A step is one layer.  With ``cells``, a stack of N = m p + r layers that
    holds m >= 2 whole copies of its repeating cell of p layers (see
    :func:`_period`) steps the r layers left at the exit face one at a time,
    then the m cells by binary powers of the cell's step M: one step of
    M^(2^j) for each set bit j of m, lowest first, with M squared in place
    between steps (:func:`_square`).  So the faces after the leftover layers
    are those of the power steps.  A power whose squared growth bound would
    pass _RESCALE_BOUND is repeated for the remaining cells instead, and a
    cell whose own growth bound does is stepped layer by layer.  The
    true fields are 2^k (E, H), k an integer per frequency:
    E and H are rescaled by exact powers of two before a step that could
    take a running bound on their size past _RESCALE_BOUND, and never
    otherwise.  A step (E, H) <- (A E - P H, D H - Q E) takes its
    coefficients (growth, AD, PQ), the pairs AD = (A, D) and PQ = (P, Q),
    from :func:`_step_coefficients` or :func:`_cell_matrix` and writes into
    reused arrays, so a yielded (E, H, k) is valid only until the next step.

    With ``slope``, the yielded E and H are (2, F) arrays whose row 1 is
    dE/dw and dH/dw, stepped by the product rule, (E, H)' <- M (E, H)' +
    dM/dw (E, H), with dM/dw = [[dA, -dP], [-dQ, dD]] appended to the
    coefficients as the pairs dAD and dPQ.  Every pair is then stacked, and
    the march holds the fields as one (2, 2, F) array, row 0 (E, H) and
    row 1 their derivatives, so that one product by AD and one by PQ step
    all four: each row takes AD (E, H) minus PQ (H, E), and row 1 then adds
    dAD (E, H) minus dPQ (H, E) of row 0.  Row 1 outgrows the bound by a
    factor of order the stack's optical thickness, far inside the margin
    below overflow.  The rescale shift takes the larger of both rows; the
    2^k scale cancels in any ratio of a derivative to its value.
    """
    layers = stack.layers
    period = stack._layer_period if cells else 1
    count, rest = divmod(len(layers), period)
    cell = layers[:period]
    growth = math.prod(_growth(n) for n, _ in cell)

    def powers(power, m):
        # M^(2^j) for each set bit j of m; M is squared in place between
        # steps, into spare arrays that neither a step nor a yielded face
        # holds then.  A power whose square could pass _RESCALE_BOUND is
        # repeated for the rest of the cells instead
        while m:
            if power[0] ** 2 > _RESCALE_BOUND:
                yield from itertools.repeat(power, m)
                return
            if m & 1:
                yield power
            m >>= 1
            if m:
                _square(power, *(dm if slope else (e2, h2)))

    if period < 2 or count < 2 or growth > _RESCALE_BOUND:
        steps = _layer_steps(layers[::-1], omegas, slope)
    else:
        steps = _layer_steps(cell[::-1] + layers[len(layers) - rest:][::-1], omegas, slope)
        power = [growth, *_cell_matrix(itertools.islice(steps, period), slope)]
        steps = itertools.chain(steps, powers(power, count))
        del power
    if slope:  # the exit fields do not depend on w
        fields = np.zeros((2, 2, *omegas.shape), dtype=complex)
        fields[0, 0], fields[0, 1] = 1.0, stack.n_out
        spare, cross = np.empty_like(fields), np.empty_like(fields)
        dm, dm2 = cross
        e, h = fields[:, 0], fields[:, 1]
    else:
        e = np.ones(omegas.shape, dtype=complex)
        h = np.full(omegas.shape, complex(stack.n_out))
        e2, h2 = np.empty_like(e), np.empty_like(h)
    k = np.zeros(omegas.shape, dtype=int)
    bound = max(1.0, stack.n_out)
    yield e, h, k
    for coeffs in steps:
        if bound * coeffs[0] > _RESCALE_BOUND:
            size = np.maximum(np.abs(e), np.abs(h))
            _, shift = np.frexp(size.max(axis=0) if slope else size)
            scale = np.ldexp(1.0, -shift)
            if slope:
                fields = fields * scale
            else:
                e, h = e * scale, h * scale
            k, bound = k + shift, 1.0
        bound *= coeffs[0]
        _, ad, pq, *slopes = coeffs
        if slope:
            dad, dpq = slopes
            # both rows <- AD (E, H) - PQ (H, E), then row 1 adds
            # dAD (E, H) - dPQ (H, E) of row 0
            np.multiply(ad, fields, out=spare)
            np.multiply(pq, fields[:, ::-1], out=cross)
            np.subtract(spare, cross, out=spare)
            np.multiply(dad, fields[0], out=dm)
            np.multiply(dpq, fields[0, ::-1], out=dm2)
            np.subtract(dm, dm2, out=dm)
            np.add(spare[1], dm, out=spare[1])
            fields, spare = spare, fields
            e, h = fields[:, 0], fields[:, 1]
            del dad, dpq
        else:
            # e2 = a e - p h, then h2 = d h - q e, with e's array free for
            # d h once q e is formed
            (a, d), (p, q) = ad, pq
            np.multiply(p, h, out=h2)
            np.multiply(a, e, out=e2)
            np.subtract(e2, h2, out=e2)
            np.multiply(q, e, out=h2)
            np.multiply(d, h, out=e)
            np.subtract(e, h2, out=h2)
            e, e2, h, h2 = e2, e, h2, h
            del a, p, q, d
        # a layer type with no steps left frees its coefficients before the
        # next type's are formed
        del coeffs, ad, pq, slopes
        yield e, h, k


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


def _layer_steps(layers, omegas: np.ndarray, slope: bool):
    """The step coefficients of each of ``layers`` in turn.

    A layer type, a distinct (n, d) pair, has its coefficients formed at its
    first step and held until its last.  Its phase delta = n d w is keyed on
    the float n d, so types of one optical thickness, such as both types of
    a shipped quarter-wave stack, share bit-equal phases: cos(delta) and sin(delta)
    are formed once per key and frequency (:func:`_layer_trig`), and held
    only until the last type with that key has formed its coefficients.  A
    held type keeps three complex arrays, 6 words per frequency (16 in all
    with ``slope``, whose four pairs are stacked), or fewer where types share
    one cos array.  A type that occurs once is never held; the most held at
    once is half the layers, for a palindrome of distinct layers.
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


def _layer_trig(thickness: float, omegas: np.ndarray):
    """cos(delta) + 0i and sin(delta) of the phase delta = thickness * w.

    cos(delta) is held complex, the value numpy casts a real factor to in a
    product with a complex array, so each product keeps its bits.  The only
    place a layer's trig is evaluated; the phase dies here.
    """
    phase = np.multiply(thickness, omegas)
    cos_p = np.zeros(omegas.shape, dtype=complex)
    cos_p.real = np.cos(phase)
    return cos_p, np.sin(phase)


def _step_coefficients(n: float, d: float, cos_p: np.ndarray, sin_p: np.ndarray,
                       slope: bool = False):
    """growth and the pairs AD = (A, D) and PQ = (P, Q) of one layer's step.

    A = D = cos(delta), P = i sin(delta)/n and Q = i n sin(delta), from the
    :func:`_layer_trig` of the layer's phase delta = n d w.  sin(delta) dies
    with the last type that reads it, so the march holds only what a step
    reads.  A plain march holds each pair as two arrays, A and D the same
    one, which other types of the same n d may share as their A and D: a
    step and :func:`_cell_matrix` only read coefficients, and
    :func:`_square` writes only into a power it owns.  With ``slope`` the
    w-derivatives follow,
    dM/dw = n d [[-sin(delta), -i cos(delta)/n], [-i n cos(delta), -sin(delta)]],
    and every pair, AD, PQ, dAD and dPQ, is stacked as one (2, F) array.
    """
    pq = np.multiply(1j, np.divide(sin_p, n)), np.multiply(1j, np.multiply(n, sin_p))
    if not slope:
        return _growth(n), (cos_p, cos_p), pq
    da = np.multiply(-n * d, sin_p)
    return (_growth(n), np.array((cos_p, cos_p)), np.array(pq), np.array((da, da), dtype=complex),
            np.array((np.multiply(1j * d, cos_p), np.multiply(1j * n * n * d, cos_p))))


def _cell_matrix(steps, slope: bool):
    """(AD, PQ) of a cell's step from its layers' step coefficients, exit side first.

    The cell's step is the product M = M_1 ... M_p of its layers' steps,
    built up from the exit side as M <- M_j M; with ``slope``, (dAD, dPQ)
    follow by the product rule, dM <- M_j dM + dM_j M.
    """
    _, *cell = next(steps)
    for _, *layer in steps:
        product = _product(layer[:2], cell[:2])
        if slope:
            product += [np.add(x, y) for x, y in zip(_product(layer[:2], cell[2:]),
                                                     _product(layer[2:], cell[:2]))]
        cell = product
    return cell


def _pairwise(f, *pairs):
    """f of stacked (2, F) pairs at once, or per row of pairs held as two arrays."""
    if isinstance(pairs[0], tuple):
        return tuple(map(f, *pairs))
    return f(*pairs)


def _square(power, trace, pq):
    """Square in place a step [growth, AD, PQ, *slopes] that owns its arrays.

    M^2 = [[A A + P Q, -P t], [-Q t, D D + P Q]] with t = A + D, so AD <- AD AD
    + P Q and PQ <- PQ t; with ``slopes``, held stacked, (dAD, dPQ) follow by
    the product rule, dAD <- 2 AD dAD + s and dPQ <- dPQ t + PQ dt, with
    s = dP Q + P dQ and dt = dA + dD.  ``trace`` and ``pq`` are arrays of
    one pair row's shape whose contents are dead.
    """
    power[0] **= 2
    _, ad, off, *slopes = power
    np.add(ad[0], ad[1], out=trace)
    if slopes:
        dad, dpq = slopes
        s = np.add(np.multiply(dpq[0], off[1]), np.multiply(off[0], dpq[1]))
        dtrace = np.add(dad[0], dad[1])
        np.multiply(dad, ad, out=dad)
        np.multiply(dad, 2.0, out=dad)
        np.add(dad, s, out=dad)
        np.multiply(dpq, trace, out=dpq)
        np.add(dpq, np.multiply(off, dtrace), out=dpq)
    np.multiply(off[0], off[1], out=pq)
    _pairwise(lambda x: np.add(np.multiply(x, x, out=x), pq, out=x), ad)
    _pairwise(lambda x: np.multiply(x, trace, out=x), off)


def _product(x, y):
    """(AD, PQ) of the step x y, each step given as (AD, PQ) of [[A, -P], [-Q, D]].

    Row by row, A = xA yA + xP yQ and D = xD yD + xQ yP, P = xA yP + xP yD
    and Q = xD yQ + xQ yA: each pair is the sum of two pairwise products,
    one with the other factor's pair reversed.
    """
    (xad, xpq), (yad, ypq) = x, y

    def dot(a, b, c, d):
        return np.add(np.multiply(a, b), np.multiply(c, d))

    return [_pairwise(dot, xad, yad, xpq, ypq[::-1]), _pairwise(dot, xad, ypq, xpq, yad[::-1])]


def _split_waves(e, h, n):
    """Forward and backward wave amplitudes of the fields (E, H) in index n."""
    ratio = np.divide(h, n)
    return np.multiply(0.5, np.add(e, ratio)), np.multiply(0.5, np.subtract(e, ratio))


def _front_face(stack: LayeredStack, omegas: np.ndarray, slope: bool = False):
    """Incident and reflected amplitudes a, b and the exponent k at the front face.

    Each amplitude is 2^(-k) times the true one; with ``slope`` each is a
    (2, F) array whose row 1 is its w-derivative.
    """
    if np.any(omegas <= 0.0):
        raise ValueError("frequencies must be positive")
    for e, h, k in _backward_march(stack, omegas, slope, cells=True):
        pass  # only the front face is needed
    return (*_split_waves(e, h, stack.n_in), k)


def _stack_t_r(stack: LayeredStack, omegas: np.ndarray):
    """t and r at positive frequencies: t = 2^(-k)/a and r = b/a at the front face."""
    incident, reflected, k = _front_face(stack, omegas)
    # 1.0 and 2^0 are both cast to 1 + 0i in the division
    return (np.ldexp(1.0, -k) if k.any() else 1.0) / incident, reflected / incident


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
    the grating's.  The validity window is enforced here for every grating
    quantity, and a kappa whose square overflows raises NonFiniteResultError.
    """
    delta = grating.detuning(omega)
    if np.any(np.abs(delta) >= _GRATING_VALIDITY * grating.omega_b):
        raise DetuningOutOfRangeError(
            "detuning outside coupled-mode validity |delta| < 0.2 * omega_b"
        )
    try:
        kappa_squared = float(grating.kappa) ** 2
    except OverflowError as exc:
        raise NonFiniteResultError(
            f"kappa = {grating.kappa!r} squared: {type(exc).__name__}: {exc}"
        ) from exc
    gamma = np.sqrt((kappa_squared - delta ** 2).astype(complex))
    if length is None:
        length = grating.length
    return (*spectral._two_wave(gamma, -delta, grating.kappa, length), gamma)


def grating_response(grating: UniformGrating, omegas):
    """Coupled-mode closed-form t and r of a uniform grating at ``omegas``, one or an array.

    With delta = n_bar (omega - omega_b) and gamma = sqrt(kappa^2 - delta^2):

        t = gamma / (gamma cosh(gamma L) - i delta sinh(gamma L))
        r = i kappa sinh(gamma L) / (gamma cosh(gamma L) - i delta sinh(gamma L))

    At the Bragg frequency |t| = sech(kappa L).  Detunings are only trusted
    within |delta| < 0.2 * omega_b.
    """
    t, r, _, _ = _grating_closed_form(grating, omegas)
    return t, r


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

    A field integral, independent of the exact phase derivative of
    :func:`grating_group_delay`.  Exact with gamma = sqrt(kappa^2 - delta^2)
    complex, inside, at the edge of and outside the stopband alike:
    U/P_in = n_bar |t|^2 L [1 + 4 kappa^2 L^2 h(2 gamma L)], h(z) = (sinh z - z)/z^3.
    """
    _, _, scaled_t, gamma = _grating_closed_form(grating, omega)
    integral = spectral._two_wave_integral(scaled_t, gamma, grating.kappa ** 2, grating.length)
    return float(grating.n_bar * integral)


def reconstruct_fields(stack: LayeredStack, omega: float) -> FieldProfile:
    """E and H through the stack, unit input power normalization.

    Sampled at _FIELD_POINTS_PER_LAYER points per layer, both faces included.
    Inside layer j, at distance s from its front face,
    E = a_j e^{i n w s} + b_j e^{-i n w s} and H = n (a_j e^{i n w s} - b_j e^{-i n w s})
    with the wave amplitudes of :func:`_layer_wave_coefficients`.
    """
    coeffs = _layer_wave_coefficients(stack, omega)
    index, thickness = (np.asarray(col) for col in zip(*stack.layers))
    edges = np.concatenate(([0.0], np.cumsum(thickness)))
    s = np.linspace(0.0, thickness, _FIELD_POINTS_PER_LAYER, axis=1)
    phase = (index * omega)[:, None] * s
    forward = coeffs[:, :1] * np.exp(1j * phase)
    backward = coeffs[:, 1:] * np.exp(-1j * phase)
    return FieldProfile(
        z=(edges[:-1, None] + s).ravel(),
        e=(forward + backward).ravel(),
        h=(index[:, None] * (forward - backward)).ravel(),
        index=np.repeat(index, _FIELD_POINTS_PER_LAYER),
    )


def _layer_wave_coefficients(stack: LayeredStack, omega: float) -> np.ndarray:
    """Per-layer forward/backward wave amplitudes (a_j, b_j), unit input power.

    Within layer j the field is a_j e^{i n w s} + b_j e^{-i n w s} with s the
    distance from the layer's front face; row j of the (N, 2) result is read
    off the backward march there.  The march follows the dominant solution,
    so opaque barriers stay accurate and too deep layers underflow to zero.
    """
    march = _backward_march(stack, np.asarray([float(omega)]))
    # a yield is rewritten by the next step, so each is copied; index 0 is
    # the stack's front face, index N its exit face
    faces = [(e.copy(), h.copy(), k.copy()) for e, h, k in march]
    e, h, k = (np.concatenate(col)[::-1] for col in zip(*faces))
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
    return EnergyReport(
        u_per_pin=float(np.sum(densities * thicknesses)),
        density=densities,
        penetration_depth=_fit_penetration_depth(stack, omega, densities),
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
    # a field that does not fall by 1/e within the stack (passband
    # illumination) has no penetration depth
    if slope >= 0.0 or 2.0 / -slope > stack.total_length:
        return None
    return float(2.0 / (-slope))


def group_delay(stack: LayeredStack, omega: float) -> float:
    """Exact group delay d(arg t)/dw = -Im(a'/a) of a stack at ``omega`` > 0.

    t = 2^(-k)/a, and a and a' = da/dw come from one slope march
    (:func:`_backward_march`), so the delay stays finite on a stack so opaque
    that t itself underflows to zero.
    """
    incident, _, _ = _front_face(stack, np.asarray([float(omega)]), slope=True)
    # 0.0 - x rather than -x, so an empty stack's zero delay is +0.0
    return float(0.0 - (incident[1] / incident[0]).imag[0])


def grating_group_delay(grating: UniformGrating, omega: float) -> float:
    """Exact group delay d(arg t)/dw of a uniform grating, coupled-mode theory.

    The two-wave delay of :func:`spectral._two_wave_delay` with rate
    gamma = sqrt(kappa^2 - delta^2), a = -delta, da/dw = -n_bar and
    d(gamma^2)/dw = -2 delta n_bar; finite on gratings too opaque for t.
    """
    *_, gamma = _grating_closed_form(grating, omega)
    delta = float(grating.detuning(omega))
    n_bar = grating.n_bar
    return spectral._two_wave_delay(complex(gamma), -delta, -n_bar, -2.0 * delta * n_bar,
                                    grating.length)


def _transmittance(stack: LayeredStack, omegas) -> np.ndarray:
    t, _ = _stack_t_r(stack, np.asarray(omegas, dtype=float))
    return np.abs(t) ** 2


def find_stopband(stack: LayeredStack, omega_ref: float) -> Stopband:
    """Locate the half-transmission stopband containing ``omega_ref``.

    |t|^2 is scanned at _SCAN_POINTS frequencies over
    omega_ref * (1 +/- _SCAN_FACTOR), and each end of the contiguous region
    below 0.5 around omega_ref is refined by k-section: every round samples
    both edge brackets at once and keeps, in each, the crossing nearest the
    band, so an edge bounds the below-0.5 run that holds omega_ref.  From the
    second round on each bracket is also sampled either side of its
    predicted crossing, which usually ends the search in two rounds.  An edge
    on the scan boundary stays there.  The scan is marched only in a window
    around omega_ref, _SCAN_WINDOW points a side, widened 4x while the run
    below 0.5 reaches a window edge that is not a scan end.
    Raises NotInStopbandError when |t(omega_ref)|^2 >= 0.5; t(omega_ref) is
    read from the first window's march, so a passband omega_ref costs one
    window.
    """
    lo = omega_ref * (1.0 - _SCAN_FACTOR)
    hi = omega_ref * (1.0 + _SCAN_FACTOR)
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
    """Crossings of |t|^2 = 0.5, one per bracket, refined together.

    Each bracket runs from a sample inside the band (|t|^2 < 0.5) to one
    outside.  A round marches once over _SECTIONS - 1 interior points of every
    live bracket and, from the second round on, two more that straddle the
    crossing predicted by the round before (straddling the bracket's midpoint
    where the prediction falls outside it); walking out from its inside end,
    the first point with |t|^2 >= 0.5 becomes the new outside end (the old one
    if none does) and the point before it the new inside end.  The prediction
    is inverse interpolation through the _PREDICTORS interior points nearest
    the kept sub-bracket, so it costs no march.  A bracket stops once
    |inside - outside| <= 1e-14 |inside| and yields its midpoint.
    """
    outside, inside = outside.copy(), inside.copy()
    steps = np.arange(1, _SECTIONS) / _SECTIONS
    straddle = 1.0 + np.array([-_STRADDLE, _STRADDLE])
    predicted = None
    live = np.abs(inside - outside) > 1e-14 * np.abs(inside)
    while np.any(live):
        a, b = inside[live], outside[live]
        unit = (b - a) / _SECTIONS  # one section, negative at a lower edge
        sections = a[:, None] + (b - a)[:, None] * steps
        marched = sections
        if predicted is not None:
            pair = predicted[live][:, None] * straddle
            held = (np.minimum(a, b)[:, None] <= pair) & (pair <= np.maximum(a, b)[:, None])
            missed = ~np.all(held, axis=1)
            pair[missed] = 0.5 * (a + b)[missed, None] * straddle
            marched = np.column_stack((sections, pair))
        power = _transmittance(stack, marched)
        rows, crossed = np.arange(a.size), power >= 0.5
        # walk order runs out from the inside end: the stable argsort of the
        # key (x - a) / unit, which the sections alone already follow
        if predicted is not None:
            order = rows[:, None], np.argsort((marched - a[:, None]) / unit[:, None], axis=1,
                                              kind="stable")
            marched, crossed = marched[order], crossed[order]
        walk = np.column_stack((a, marched, b))
        first = np.where(crossed.any(axis=1), crossed.argmax(axis=1) + 1, walk.shape[1] - 1)
        inside[live], outside[live] = walk[rows, first - 1], walk[rows, first]
        still = np.abs(inside - outside) > 1e-14 * np.abs(inside)
        if not still.any():  # no prediction is read after the last round
            break
        # interpolate in local coordinates, origin at the new inside end and
        # unit one section, over sections only: the straddling pair sits too
        # close to itself to help; a prediction is cut to 64 sections either
        # way, so a wild one stays finite
        origin = inside[live]
        start = np.floor((origin - a) / unit).astype(int) - _PREDICTORS // 2
        start = np.clip(start, 0, _SECTIONS - 1 - _PREDICTORS)
        near = (rows[:, None], start[:, None] + np.arange(_PREDICTORS))
        local = (sections[near] - origin[:, None]) / unit[:, None]
        offset = np.clip(_inverse_interpolation(local, power[near] - 0.5), -_SECTIONS, _SECTIONS)
        predicted = np.full(inside.shape, np.nan)
        predicted[live] = origin + unit * offset
        live = still
    return 0.5 * (outside + inside)


def _inverse_interpolation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row, the Lagrange interpolant of x over y evaluated at y = 0.

    Equal y values in a row give a non-finite result instead of a warning.
    """
    diagonal = np.arange(y.shape[1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = -y[:, None, :] / (y[:, :, None] - y[:, None, :])
        ratios[:, diagonal, diagonal] = 1.0
        return np.sum(x * np.prod(ratios, axis=2), axis=1)


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
    phi = np.unwrap(-np.angle(_front_face(stack, grid.omegas)[0]))
    if np.any(np.abs(np.diff(phi)) >= 0.5 * np.pi):
        raise UndersampledPhaseError("arg t steps by pi/2 or more between grid samples")
    detunings = grid.detunings
    coeffs = np.polyfit(detunings, phi, 1)
    fit = np.polyval(coeffs, detunings)
    residual = float(np.max(np.abs(phi - fit)))
    slope = float(coeffs[0])
    u = stored_energy(stack, grid.omega0).u_per_pin
    rel = abs(slope - u) / u if u != 0.0 else np.inf
    return PhaseEnergyReport(
        slope=slope,
        u_per_pin=u,
        relative_difference=float(rel),
        max_residual=residual,
    )
