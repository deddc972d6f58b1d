"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from tunneltime import photonic, spectral

# design wavelength used by the photonic fixtures (length units are microns
# when reporting physical equivalents; the core never cares)
LAMBDA0 = 0.702
OMEGA0 = 2.0 * np.pi / LAMBDA0

# magnitudes from the least subnormal to near the float maximum, with the
# extremes and a few round magnitudes drawn often
FLOAT_RANGE = st.one_of(
    st.floats(5e-324, 1.7e308),
    st.sampled_from([5e-324, 1e-320, 1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300, 1.7e308]),
)


@pytest.fixture(scope="session")
def skc_stack() -> photonic.LayeredStack:
    """The documented 11-layer quarter-wave barrier used by the SKC-regime runs.

    Indices are chosen so the midgap length/delay ratio lands near 1.7 with a
    total length of about 1.1 length units (micron-equivalent at 702 nm).
    """
    return photonic.LayeredStack.quarter_wave(2.0, 1.5, 11, LAMBDA0)


@pytest.fixture(scope="session")
def front_stack() -> photonic.LayeredStack:
    """Weakly modulated, strongly opaque stack with a narrow stopband.

    373 quarter-wave layers at 2% index contrast: |t|^2 ~ 2e-3 at midgap
    while the stopband is only ~1.5% of the carrier, so a synthesis band of
    50 or 100 stopband widths still keeps every frequency positive.
    """
    return photonic.LayeredStack.quarter_wave(1.02, 1.0, 373, LAMBDA0)


def quantum_matching_oracle(v0: float, length: float, energy: float):
    """Solve the four boundary-matching equations as a linear system.

    Independent of the closed form: unknowns (r, a, b, t) with the interior
    written as a e^{kappa x} + b e^{-kappa x}.
    """
    k = np.sqrt(2.0 * energy)
    kappa = np.sqrt(complex(2.0 * (v0 - energy)))
    e_plus = np.exp(kappa * length)
    e_minus = np.exp(-kappa * length)
    mat = np.array(
        [
            [-1.0, 1.0, 1.0, 0.0],
            [1j * k, kappa, -kappa, 0.0],
            [0.0, e_plus, e_minus, -1.0],
            [0.0, kappa * e_plus, -kappa * e_minus, -1j * k],
        ],
        dtype=complex,
    )
    rhs = np.array([1.0, 1j * k, 0.0, 0.0], dtype=complex)
    r, a, b, t = np.linalg.solve(mat, rhs)
    return t, r, a, b


def stack_matching_oracle(stack: photonic.LayeredStack, omega: float):
    """Solve the full interface-continuity linear system of a layered stack.

    Unknowns are (r, a_j, b_j per layer, t) with per-layer local coordinates,
    the field in layer j being a_j e^{i n w s} + b_j e^{-i n w s} at distance
    s from its front face; returns t, r and the (N, 2) array of (a_j, b_j)
    for unit incident amplitude.  This is the brute-force route the backward
    field march of :mod:`photonic` is checked against.
    """
    layers = stack.layers
    n_layers = len(layers)
    size = 2 * n_layers + 2
    mat = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)

    def a_idx(j):
        return 1 + 2 * j

    def b_idx(j):
        return 2 + 2 * j

    t_idx = size - 1
    row = 0
    # entrance: 1 + r = a_0 + b_0 ; n_in (1 - r) = n_0 (a_0 - b_0)
    n0 = layers[0][0]
    mat[row, 0] = -1.0
    mat[row, a_idx(0)] = 1.0
    mat[row, b_idx(0)] = 1.0
    rhs[row] = 1.0
    row += 1
    mat[row, 0] = stack.n_in
    mat[row, a_idx(0)] = n0
    mat[row, b_idx(0)] = -n0
    rhs[row] = stack.n_in
    row += 1
    # interior interfaces
    for j in range(n_layers - 1):
        nj, dj = layers[j]
        nj1 = layers[j + 1][0]
        ph = np.exp(1j * nj * omega * dj)
        mat[row, a_idx(j)] = ph
        mat[row, b_idx(j)] = 1.0 / ph
        mat[row, a_idx(j + 1)] = -1.0
        mat[row, b_idx(j + 1)] = -1.0
        row += 1
        mat[row, a_idx(j)] = nj * ph
        mat[row, b_idx(j)] = -nj / ph
        mat[row, a_idx(j + 1)] = -nj1
        mat[row, b_idx(j + 1)] = nj1
        row += 1
    # exit: fields match t and n_out t
    nN, dN = layers[-1]
    ph = np.exp(1j * nN * omega * dN)
    mat[row, a_idx(n_layers - 1)] = ph
    mat[row, b_idx(n_layers - 1)] = 1.0 / ph
    mat[row, t_idx] = -1.0
    row += 1
    mat[row, a_idx(n_layers - 1)] = nN * ph
    mat[row, b_idx(n_layers - 1)] = -nN / ph
    mat[row, t_idx] = -stack.n_out
    solution = np.linalg.solve(mat, rhs)
    return solution[t_idx], solution[0], solution[1:t_idx].reshape(n_layers, 2)


def grating_envelopes(grating: photonic.UniformGrating, omega: float, z: np.ndarray):
    """Forward/backward mode envelopes R(z), S(z) of a uniform grating, R(0) = 1, S(L) = 0.

    The solution of the coupled-mode equations of a uniform grating
    (Erdogan, J. Lightwave Technol. 15, 1277 (1997)) with detuning delta and
    gamma = sqrt(kappa^2 - delta^2) taken complex, written with
    shc(x) = sinh(x)/x so the band edge gamma = 0 needs no branch:

        R(z) = [cosh(gamma s) - i delta s shc(gamma s)] / D,
        S(z) = i kappa s shc(gamma s) / D,

    with s = L - z and D the bracket of R at s = L.  Independent of the
    scaled two-wave closed form of :mod:`spectral` that the package uses.
    """
    delta = grating.n_bar * (float(omega) - grating.omega_b)
    gamma = np.sqrt(complex(grating.kappa ** 2 - delta ** 2))

    def envelopes(s):
        shc = np.sinc(1j * gamma * s / np.pi)  # sin(i x)/(i x) = sinh(x)/x
        return np.cosh(gamma * s) - 1j * delta * s * shc, 1j * grating.kappa * s * shc

    forward, backward = envelopes(grating.length - np.asarray(z, dtype=float))
    denominator, _ = envelopes(grating.length)
    return forward / denominator, backward / denominator


def random_symmetric_stack(rng: np.random.Generator) -> photonic.LayeredStack:
    """Random lossless mirror-symmetric quarter-wave-like stack with a stopband."""
    periods = int(rng.integers(3, 7))
    n_hi = float(rng.uniform(1.7, 3.0))
    n_lo = float(rng.uniform(1.1, 1.45))
    lam = float(rng.uniform(0.5, 1.5))
    half = []
    for _ in range(periods):
        half.append((n_hi, lam / (4.0 * n_hi) * float(rng.uniform(0.9, 1.1))))
        half.append((n_lo, lam / (4.0 * n_lo) * float(rng.uniform(0.9, 1.1))))
    center = (n_hi, lam / (4.0 * n_hi) * float(rng.uniform(0.9, 1.1)))
    layers = tuple(half) + (center,) + tuple(half[::-1])
    return photonic.LayeredStack(layers)


def random_stack(rng: np.random.Generator) -> photonic.LayeredStack:
    """Random lossless stack with no symmetry constraint."""
    count = int(rng.integers(1, 14))
    layers = tuple(
        (float(rng.uniform(1.05, 3.2)), float(rng.uniform(0.02, 0.6)))
        for _ in range(count)
    )
    return photonic.LayeredStack(layers)


def sampled_phase_slope(values_of, at: float, half_width: float) -> float:
    """d(arg f)/d(omega) at ``at`` from 9 samples spanning ``at +/- half_width``.

    ``values_of`` maps an array of frequencies to complex values f.  Their
    unwrapped phase is differentiated by the Richardson stencil pair of
    :func:`spectral.phase_derivative`: a sampled-phase slope, independent of
    the exact group delays it checks.
    """
    grid = spectral.FrequencyGrid.centered(at, half_width, 9)
    values = values_of(grid.omegas)
    response = spectral.ComplexResponse(grid, values, np.zeros_like(values))
    return spectral.phase_derivative(spectral.unwrap_phase(response), at).value
