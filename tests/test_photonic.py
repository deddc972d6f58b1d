"""Layered stacks, uniform gratings, field reconstruction, stored energy."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    LAMBDA0,
    OMEGA0,
    random_stack,
    random_symmetric_stack,
    sampled_phase_slope,
    stack_matching_oracle,
)
from tunneltime import photonic, spectral
from tunneltime.errors import (
    DetuningOutOfRangeError,
    NonFiniteResultError,
    NotInStopbandError,
    UndersampledPhaseError,
)


def uncached_march(stack, omegas):
    """The backward march with cos and sin evaluated afresh at every layer."""
    e = np.ones(omegas.shape, dtype=complex)
    h = np.full(omegas.shape, complex(stack.n_out))
    k = np.zeros(omegas.shape, dtype=int)
    bound = max(1.0, stack.n_out)
    yield e, h, k
    for n, d in reversed(stack.layers):
        growth = 1.0 + max(n, 1.0 / n)
        if bound * growth > photonic._RESCALE_BOUND:
            _, shift = np.frexp(np.maximum(np.abs(e), np.abs(h)))
            scale = np.ldexp(1.0, -shift)
            e, h, k, bound = e * scale, h * scale, k + shift, 1.0
        bound *= growth
        phase = (n * d) * omegas
        cos_p, sin_p = np.cos(phase), np.sin(phase)
        e, h = cos_p * e - 1j * (sin_p / n) * h, cos_p * h - 1j * (n * sin_p) * e
        yield e, h, k


def full_scan_brackets(stack, omega_ref):
    """find_stopband's scan and walk, marching the whole scan at once.

    Returns the (outside, inside) brackets of the lower and upper edge; an
    edge on the scan boundary gets the empty bracket of its scan end.
    """
    factor, scan_points = photonic._SCAN_FACTOR, photonic._SCAN_POINTS
    lo = max(omega_ref * (1.0 - factor), 1e-12 * omega_ref)
    omegas = np.linspace(lo, omega_ref * (1.0 + factor), scan_points)
    power = photonic._transmittance(stack, np.append(omegas, omega_ref))
    if power[-1] >= 0.5:
        raise NotInStopbandError(f"|t({omega_ref})|^2 >= 0.5")
    below = power[:-1] < 0.5
    j_lo = j_hi = int(np.argmin(np.abs(omegas - omega_ref)))
    while j_lo > 0 and below[j_lo - 1]:
        j_lo -= 1
    while j_hi < scan_points - 1 and below[j_hi + 1]:
        j_hi += 1
    outside = omegas[[max(j_lo - 1, 0), min(j_hi + 1, scan_points - 1)]]
    return outside, omegas[[j_lo, j_hi]]


def full_scan_stopband(stack, omega_ref):
    """find_stopband with the whole scan marched before the walk."""
    lower, upper = photonic._k_section(stack, *full_scan_brackets(stack, omega_ref))
    return photonic.Stopband(lower=float(lower), upper=float(upper))


def bisection_stopband(stack, omega_ref):
    """find_stopband's scan and walk with each edge bisected on its own."""

    def bisect(outside, inside):
        for _ in range(200):
            mid = 0.5 * (outside + inside)
            if abs(photonic.stack_t_r(stack, mid)[0]) ** 2 < 0.5:
                inside = mid
            else:
                outside = mid
            if abs(inside - outside) <= 1e-14 * abs(inside):
                break
        return 0.5 * (outside + inside)

    return tuple(map(bisect, *full_scan_brackets(stack, omega_ref)))


def plain_k_section(stack, omega_ref):
    """find_stopband's scan and walk with plain 64-section rounds, no predicted crossing."""
    outside, inside = full_scan_brackets(stack, omega_ref)
    steps = np.arange(1, 64) / 64
    live = np.abs(inside - outside) > 1e-14 * np.abs(inside)
    while np.any(live):
        a, b = inside[live], outside[live]
        points = np.column_stack((a, a[:, None] + (b - a)[:, None] * steps, b))
        crossed = photonic._transmittance(stack, points[:, 1:-1]) >= 0.5
        first = np.where(crossed.any(axis=1), crossed.argmax(axis=1) + 1, 64)
        rows = np.arange(first.size)
        inside[live], outside[live] = points[rows, first - 1], points[rows, first]
        live = np.abs(inside - outside) > 1e-14 * np.abs(inside)
    return tuple(0.5 * (outside + inside))


def argsort_k_section(stack, outside, inside):
    """photonic._k_section with each round's walk order taken by a stable argsort.

    Every round, the first included, sorts its marched points by the key
    (x - inside) / section and gathers |t|^2 and the points by
    take_along_axis; the rest is the k-section as it is.
    """
    outside, inside = outside.copy(), inside.copy()
    steps = np.arange(1, photonic._SECTIONS) / photonic._SECTIONS
    straddle = 1.0 + np.array([-photonic._STRADDLE, photonic._STRADDLE])
    predictors = photonic._PREDICTORS
    predicted = None
    live = np.abs(inside - outside) > 1e-14 * np.abs(inside)
    while np.any(live):
        a, b = inside[live], outside[live]
        unit = (b - a) / photonic._SECTIONS
        sections = a[:, None] + (b - a)[:, None] * steps
        marched = sections
        if predicted is not None:
            pair = predicted[live][:, None] * straddle
            held = (np.minimum(a, b)[:, None] <= pair) & (pair <= np.maximum(a, b)[:, None])
            missed = ~np.all(held, axis=1)
            pair[missed] = 0.5 * (a + b)[missed, None] * straddle
            marched = np.column_stack((sections, pair))
        power = photonic._transmittance(stack, marched)
        order = np.argsort((marched - a[:, None]) / unit[:, None], axis=1, kind="stable")
        crossed = np.take_along_axis(power, order, axis=1) >= 0.5
        walk = np.column_stack((a, np.take_along_axis(marched, order, axis=1), b))
        first = np.where(crossed.any(axis=1), crossed.argmax(axis=1) + 1, walk.shape[1] - 1)
        rows = np.arange(first.size)
        inside[live], outside[live] = walk[rows, first - 1], walk[rows, first]
        still = np.abs(inside - outside) > 1e-14 * np.abs(inside)
        if not still.any():
            break
        origin = inside[live]
        start = np.floor((origin - a) / unit).astype(int) - predictors // 2
        start = np.clip(start, 0, photonic._SECTIONS - 1 - predictors)
        near = (rows[:, None], start[:, None] + np.arange(predictors))
        local = (sections[near] - origin[:, None]) / unit[:, None]
        offset = photonic._inverse_interpolation(local, power[near] - 0.5)
        offset = np.clip(offset, -photonic._SECTIONS, photonic._SECTIONS)
        predicted = np.full(inside.shape, np.nan)
        predicted[live] = origin + unit * offset
        live = still
    return 0.5 * (outside + inside)


def stopband_oracle_cases(skc_stack, front_stack):
    """The shipped stacks, three quarter-wave depths and 25 random symmetric stacks."""
    cases = [(skc_stack, OMEGA0), (front_stack, OMEGA0)]
    cases += [
        (photonic.LayeredStack.quarter_wave(2.0, 1.5, layers, LAMBDA0), OMEGA0)
        for layers in (11, 43, 81)
    ]
    rng = np.random.default_rng(101)  # the draws of the lifetime-identity test
    for _ in range(25):
        cases.append((random_symmetric_stack(rng), 2.0 * np.pi))
    return cases


class TestTypes:
    def test_layer_validation(self):
        with pytest.raises(ValueError):
            photonic.LayeredStack(((1.5, -0.1),))
        with pytest.raises(ValueError):
            photonic.LayeredStack(((0.0, 0.1),))

    @pytest.mark.parametrize("make", [float, np.float64, np.float32], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -0.5])
    def test_every_nonpositive_or_non_finite_value_rejected(self, bad, make):
        bad = make(bad)
        for layers in (((bad, 0.1),), ((1.5, bad),), ((1.5, 0.1), (bad, bad))):
            with pytest.raises(ValueError):
                photonic.LayeredStack(layers)
        for side in ("n_in", "n_out"):
            with pytest.raises(ValueError):
                photonic.LayeredStack(((1.5, 0.1),), **{side: bad})

    def test_total_length(self):
        stack = photonic.LayeredStack(((2.0, 0.25), (1.5, 0.5)))
        assert stack.total_length == pytest.approx(0.75)

    def test_grating_validation(self):
        with pytest.raises(ValueError):
            photonic.UniformGrating(-0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            photonic.UniformGrating(0.1, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, bad):
        good = (0.1, 1.0, 1.0, 1.0)
        for k in range(4):
            with pytest.raises(ValueError):
                photonic.UniformGrating(*good[:k], bad, *good[k + 1:])
        with pytest.raises(ValueError):
            photonic.LayeredStack(((1.5, 0.1),), n_in=bad)
        with pytest.raises(ValueError):
            photonic.LayeredStack(((1.5, 0.1),), n_out=bad)

    def test_quarter_wave_builder(self):
        stack = photonic.LayeredStack.quarter_wave(2.0, 1.5, 11, LAMBDA0)
        assert len(stack.layers) == 11
        assert stack.layers[0][0] == 2.0
        assert stack.layers[1][0] == 1.5
        for n, d in stack.layers:
            assert n * d == pytest.approx(LAMBDA0 / 4.0)

    @pytest.mark.parametrize(
        "n_hi, n_lo, count",
        [(1.02, 1.0, 373), (2.0, 1.5, 12), (2.0, 1.5, 1), (1.7, 1.7, 9), (3, 1, 6)],
        ids=["front", "even", "one-layer", "equal-indices", "integer-indices"],
    )
    def test_quarter_wave_is_the_per_index_loop(self, n_hi, n_lo, count):
        stack = photonic.LayeredStack.quarter_wave(n_hi, n_lo, count, LAMBDA0)
        loop = []
        for i in range(count):
            n = n_hi if i % 2 == 0 else n_lo
            loop.append((float(n), float(LAMBDA0 / (4.0 * n))))
        assert stack.layers == tuple(loop)
        assert all(type(x) is float for layer in stack.layers for x in layer)
        # the march steps a quarter-wave stack by its two-layer cell
        assert photonic._period(stack.layers) == (1 if n_hi == n_lo or count == 1 else 2)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 373])
    @pytest.mark.parametrize(
        "n_hi, n_lo", [(1.02, 1.0), (1.7, 1.7), (3, 1)],
        ids=["front", "equal-indices", "integer-indices"],
    )
    def test_quarter_wave_sets_the_period_it_would_find(self, n_hi, n_lo, count):
        stack = photonic.LayeredStack.quarter_wave(n_hi, n_lo, count, LAMBDA0)
        assert "_layer_period" in vars(stack)
        assert stack._layer_period == photonic._period(stack.layers)

    def test_stacks_derived_from_a_quarter_wave_find_their_own_period(self):
        stack = photonic.LayeredStack.quarter_wave(2.0, 1.5, 12, LAMBDA0)
        derived = {
            "reversed": (stack.reversed(), 2),
            "sides": (dataclasses.replace(stack, n_in=1.3), 2),
            "layers": (dataclasses.replace(stack, layers=stack.layers[:1] * 4), 1),
        }
        for other, period in derived.values():
            assert "_layer_period" not in vars(other)
            assert other._layer_period == photonic._period(other.layers) == period

    @pytest.mark.parametrize(
        "bad", [(0.0, 0.2), (1.5, -0.1), (float("nan"), 0.2), (2.0, float("inf"))]
    )
    def test_a_repeated_invalid_layer_is_rejected(self, bad):
        good = ((2.0, 0.1), (1.5, 0.2))
        for layers in (good * 3 + (bad,) * 4, (bad,) + good * 5, good + (bad,) + good + (bad,)):
            with pytest.raises(ValueError):
                photonic.LayeredStack(layers)


class TestStackResponse:
    def test_empty_stack_is_identity(self):
        grid = spectral.FrequencyGrid.centered(5.0, 1.0, 9)
        resp = photonic.stack_response(photonic.LayeredStack(()), grid)
        np.testing.assert_allclose(resp.t, 1.0, atol=1e-15)
        np.testing.assert_allclose(resp.r, 0.0, atol=1e-15)

    def test_vacuum_slab_pure_propagation_phase(self):
        grid = spectral.FrequencyGrid.centered(5.0, 1.0, 33)
        resp = photonic.stack_response(photonic.LayeredStack.vacuum_slab(2.0), grid)
        np.testing.assert_allclose(resp.t, np.exp(2j * grid.omegas), atol=1e-14)
        np.testing.assert_allclose(np.abs(resp.t), 1.0, atol=1e-14)

    def test_quarter_wave_matches_field_matching_oracle(self, skc_stack):
        t, r = photonic.stack_t_r(skc_stack, OMEGA0)
        t_ref, r_ref, _ = stack_matching_oracle(skc_stack, OMEGA0)
        assert t == pytest.approx(t_ref, rel=1e-10, abs=1e-14)
        assert r == pytest.approx(r_ref, rel=1e-10, abs=1e-14)
        # midgap of an odd quarter-wave stack: purely imaginary transmission
        assert abs(np.angle(t)) == pytest.approx(np.pi / 2.0, abs=1e-12)

    @pytest.mark.parametrize("case", ["slab", "random-n_in-n_out", "front-pass", "front-stop"])
    def test_march_matches_field_matching_oracle(self, case, front_stack):
        if case == "slab":
            stack, omega = photonic.LayeredStack(((2.3, 0.37),), n_in=1.2, n_out=1.6), 7.1
        elif case == "random-n_in-n_out":
            layers = random_stack(np.random.default_rng(31)).layers
            stack, omega = photonic.LayeredStack(layers, n_in=1.4, n_out=2.1), 6.3
        else:
            stack = front_stack
            omega = 0.95 * OMEGA0 if case == "front-pass" else OMEGA0
        t, r = photonic.stack_t_r(stack, omega)
        t_ref, r_ref, e_ref = stack_matching_oracle(stack, omega)
        assert t == pytest.approx(t_ref, rel=1e-10, abs=1e-14)
        assert r == pytest.approx(r_ref, rel=1e-10, abs=1e-14)
        # the layer amplitudes come off the same march
        profile = photonic.reconstruct_fields(stack, omega)
        scale = np.sqrt(2.0 / stack.n_in)  # oracle uses unit incident amplitude
        for idx in range(0, profile.z.size, 37):
            assert profile.e[idx] == pytest.approx(
                scale * e_ref(profile.z[idx]), rel=1e-10, abs=1e-12
            )

    def test_entry_points_agree_bit_for_bit(self, skc_stack):
        grid = spectral.FrequencyGrid.centered(OMEGA0, 0.5, 9)
        resp = photonic.stack_response(skc_stack, grid)
        t_s, r_s = photonic.stack_t_r_samples(skc_stack, grid.omegas)
        scalar = [photonic.stack_t_r(skc_stack, w) for w in grid.omegas]
        for ts, rs in ((resp.t, resp.r), (t_s, r_s)):
            assert list(zip(ts, rs)) == scalar

    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_entry_points_reject_nonpositive_frequency(self, skc_stack, omega):
        with pytest.raises(ValueError):
            photonic.stack_t_r(skc_stack, omega)
        with pytest.raises(ValueError):
            photonic.stack_t_r_samples(skc_stack, [1.0, omega])
        with pytest.raises(ValueError):
            photonic.group_delay(skc_stack, omega)
        grid = spectral.FrequencyGrid(1.0, np.linspace(omega - 1.0, 0.0, 5))
        with pytest.raises(ValueError):
            photonic.stack_response(skc_stack, grid)

    def test_unitarity_over_random_stacks(self):
        rng = np.random.default_rng(23)
        grid = spectral.FrequencyGrid.centered(6.0, 2.0, 41)
        for _ in range(1000):
            resp = photonic.stack_response(random_stack(rng), grid)
            assert spectral.unitarity_defect(resp.t, resp.r, 1.0) < 1e-12

    def test_reversal_leaves_transmission_magnitude(self):
        rng = np.random.default_rng(29)
        grid = spectral.FrequencyGrid.centered(6.0, 2.0, 33)
        for _ in range(50):
            stack = random_stack(rng)
            fwd = photonic.stack_response(stack, grid)
            rev = photonic.stack_response(stack.reversed(), grid)
            np.testing.assert_allclose(np.abs(fwd.t), np.abs(rev.t), atol=1e-12)


RECURRING_CELL = ((2.3, 0.11), (1.4, 0.37), (3.1, 0.05))
MARCH_CASES = ["front", "grating", "random", "rescaled", "single", "recurring", "palindrome"]

# an optical thickness n d that layers of several indices share exactly, and
# a layer of another thickness to set between them
SHARED_THICKNESS = 0.21
SPACER = (1.7, 0.37)


def shared_thickness_stack(periodic):
    """Layers of three indices and one optical thickness, each followed by SPACER.

    Aperiodic, the three follow a fixed random draw; periodic, a cell of all
    three with their spacers repeats seven times, and two layers follow.
    """
    types = [(n, SHARED_THICKNESS / n) for n in (1.3, 2.2, 3.1)]
    assert len({n * d for n, d in types}) == 1
    if periodic:
        layers = ([layer for t in types for layer in (t, SPACER)] * 8)[: 7 * 6 + 2]
    else:
        draw = np.random.default_rng(29).integers(0, 3, 40)
        layers = [layer for j in draw for layer in (types[j], SPACER)]
    return photonic.LayeredStack(tuple(layers), n_in=1.2, n_out=1.5)


def march_case(case, front_stack):
    """A stack and frequencies that exercise one path of the backward march."""
    if case == "front":
        return front_stack, np.linspace(0.5 * OMEGA0, 1.5 * OMEGA0, 8192)
    if case == "single":
        # the one-frequency march behind the layer wave amplitudes
        return front_stack, np.array([OMEGA0])
    if case == "recurring":
        # A B C A B C ...: each type is held across the others, then released
        stack = photonic.LayeredStack(RECURRING_CELL * 40, n_in=1.2, n_out=1.5)
        return stack, np.linspace(4.0, 9.0, 129)
    if case == "palindrome":
        # distinct layers mirrored: half the layers are held at the middle
        rng = np.random.default_rng(17)
        half = tuple(zip(rng.uniform(1.05, 3.2, 60), rng.uniform(0.02, 0.6, 60)))
        return photonic.LayeredStack(half + half[::-1]), np.linspace(4.0, 9.0, 129)
    if case == "grating":
        grating = photonic.UniformGrating(0.3, 20.0, 1.4, 2.0 * np.pi)
        return grating.as_layered_stack(), grating.omega_b * np.linspace(0.9, 1.1, 257)
    if case == "random":
        return random_stack(np.random.default_rng(13)), np.linspace(4.0, 9.0, 513)
    if case == "opaque":
        # rescales about 1578 bits by the front face
        stack = photonic.LayeredStack.quarter_wave(3.0, 1.0, 2001, LAMBDA0)
        return stack, np.linspace(0.9 * OMEGA0, 1.1 * OMEGA0, 65)
    stack = photonic.LayeredStack.quarter_wave(3.0, 1.0, 601, LAMBDA0, n_in=1.3, n_out=1.7)
    return stack, np.linspace(0.8 * OMEGA0, 1.2 * OMEGA0, 513)


def layer_march_front_face(stack, omegas, slope=False):
    """a, b and k at the front face from the march that steps every layer."""
    for e, h, k in photonic._backward_march(stack, omegas, slope):
        pass
    return (*photonic._split_waves(e, h, stack.n_in), k)


def reference_slope_front_face(stack, omegas):
    """a, b and k at the front face from the slope march by cells, one array at a time.

    Each step is held as eight arrays (A, P, Q, D, dA, dP, dQ, dD), and each
    step, cell product and squaring forms them one by one, in the order of
    operations that the stacked pairs of :func:`photonic._backward_march`
    keep: the march's powers, rescale rule and leftover layers, with none of
    its stacking or buffer reuse.
    """

    def coefficients(n, d):
        phase = (n * d) * omegas
        cos_p = np.zeros(omegas.shape, dtype=complex)
        cos_p.real = np.cos(phase)
        sin_p = np.sin(phase)
        da = (-n * d) * sin_p
        return [1.0 + max(n, 1.0 / n), cos_p, 1j * (sin_p / n), 1j * (n * sin_p), cos_p,
                da, (1j * d) * cos_p, (1j * n * n * d) * cos_p, da]

    def product(x, y):
        xa, xp, xq, xd = x
        ya, yp, yq, yd = y
        return [xa * ya + xp * yq, xa * yp + xp * yd, xq * ya + xd * yq, xq * yp + xd * yd]

    def square(m):
        growth, a, p, q, d, da, dp, dq, dd = m
        t, dt, s, pq = a + d, da + dd, dp * q + p * dq, p * q
        return [growth ** 2, a * a + pq, p * t, q * t, d * d + pq,
                (da * a) * 2.0 + s, dp * t + p * dt, dq * t + q * dt, (dd * d) * 2.0 + s]

    zero = np.zeros(omegas.shape, dtype=complex)
    e = np.stack((np.ones(omegas.shape, dtype=complex), zero))
    h = np.stack((np.full(omegas.shape, complex(stack.n_out)), zero))
    k = np.zeros(omegas.shape, dtype=int)
    bound = max(1.0, stack.n_out)

    def step(m):
        nonlocal e, h, k, bound
        if bound * m[0] > photonic._RESCALE_BOUND:
            _, shift = np.frexp(np.maximum(np.abs(e), np.abs(h)).max(axis=0))
            scale = np.ldexp(1.0, -shift)
            e, h, k, bound = e * scale, h * scale, k + shift, 1.0
        bound *= m[0]
        _, a, p, q, d, da, dp, dq, dd = m
        de, dh = da * e[0] - dp * h[0], dd * h[0] - dq * e[0]
        e, h = a * e - p * h, d * h - q * e
        e[1] += de
        h[1] += dh

    layers = stack.layers
    types = {layer: coefficients(*layer) for layer in set(layers)}
    period = photonic._period(layers)
    count, rest = divmod(len(layers), period)
    growth = math.prod(types[layer][0] for layer in layers[:period])
    if period < 2 or count < 2 or growth > photonic._RESCALE_BOUND:
        for layer in layers[::-1]:
            step(types[layer])
    else:
        for layer in layers[len(layers) - rest:][::-1]:
            step(types[layer])
        cell = types[layers[period - 1]][1:]
        for layer in layers[: period - 1][::-1]:
            x = types[layer][1:]
            cell = product(x[:4], cell[:4]) + [
                u + v for u, v in zip(product(x[:4], cell[4:]), product(x[4:], cell[:4]))
            ]
        power = [growth, *cell]
        while count:
            if power[0] ** 2 > photonic._RESCALE_BOUND:
                for _ in range(count):
                    step(power)
                break
            if count & 1:
                step(power)
            count >>= 1
            if count:
                power = square(power)
    return (*photonic._split_waves(e, h, stack.n_in), k)


class TestMarchCache:
    @pytest.mark.parametrize("case", MARCH_CASES)
    def test_bit_identical_to_uncached_march(self, case, front_stack):
        stack, omegas = march_case(case, front_stack)
        steps = 0
        for got, want in zip(photonic._backward_march(stack, omegas), uncached_march(stack, omegas)):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            steps += 1
        assert steps == len(stack.layers) + 1
        _, _, k = got
        if case == "rescaled":
            assert np.all(k > 0)
        if case in ("grating", "recurring", "palindrome"):
            assert len(set(stack.layers)) < len(stack.layers)

    @pytest.mark.parametrize("case", ["rescaled", "recurring"])
    def test_wave_coefficients_match_uncached_march(self, case, monkeypatch):
        # the march rewrites its arrays at every step, so the amplitudes of
        # each layer must come from a copy of the face they are read off
        if case == "rescaled":
            stack = photonic.LayeredStack.quarter_wave(3.0, 1.0, 601, LAMBDA0, n_in=1.3, n_out=1.7)
            omega = OMEGA0
        else:
            stack = photonic.LayeredStack(RECURRING_CELL * 40, n_in=1.2, n_out=1.5)
            omega = 6.0
        got = photonic._layer_wave_coefficients(stack, omega)
        monkeypatch.setattr(photonic, "_backward_march", uncached_march)
        want = photonic._layer_wave_coefficients(stack, omega)
        assert got.shape == (len(stack.layers), 2)
        assert np.array_equal(got, want)

    def test_trig_once_per_layer_type(self, front_stack, monkeypatch):
        # once per optical thickness n d, a float key: the front stack's two
        # types share theirs, and 2.4/1.38 at the same design wavelength has
        # n d = 0.1755 and 0.17550000000000002, so it keeps two
        calls = {"cos": 0, "sin": 0}
        for name in calls:
            def counted(x, _name=name, _f=getattr(np, name)):
                calls[_name] += 1
                return _f(x)
            monkeypatch.setattr(np, name, counted)
        omegas = np.linspace(0.5 * OMEGA0, 1.5 * OMEGA0, 257)
        one_ulp_apart = photonic.LayeredStack.quarter_wave(2.4, 1.38, 373, LAMBDA0)
        for stack, keys in ((front_stack, 1), (one_ulp_apart, 2)):
            assert len(set(stack.layers)) == 2
            assert len({n * d for n, d in stack.layers}) == keys
            calls.update(cos=0, sin=0)
            for _ in photonic._backward_march(stack, omegas):
                pass
            assert calls == {"cos": keys, "sin": keys}

    def test_distinct_layers_allocate_no_table(self):
        rng = np.random.default_rng(41)
        layers = tuple(zip(rng.uniform(1.05, 3.2, 1001), rng.uniform(0.02, 0.6, 1001)))
        stack = photonic.LayeredStack(layers)
        assert len(set(stack.layers)) == len(stack.layers)
        omegas = np.linspace(4.0, 9.0, 4096)
        peaks = []
        for march in (uncached_march, photonic._backward_march):
            tracemalloc.start()
            try:
                for _ in march(stack, omegas):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]

    def test_types_of_one_thickness_hold_one_phase(self):
        # 200 distinct types, one n d: the shared cos and sin are held until
        # the last type is formed, at the front face
        rng = np.random.default_rng(43)
        indices = [n for n in rng.uniform(1.05, 3.2, 400)
                   if n * (SHARED_THICKNESS / n) == SHARED_THICKNESS][:200]
        stack = photonic.LayeredStack(tuple((n, SHARED_THICKNESS / n) for n in indices))
        assert len(set(stack.layers)) == 200
        assert {n * d for n, d in stack.layers} == {SHARED_THICKNESS}
        omegas = np.linspace(4.0, 9.0, 4096)
        peaks = []
        for march in (uncached_march, photonic._backward_march):
            tracemalloc.start()
            try:
                for _ in march(stack, omegas):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]

    @pytest.mark.parametrize("width", [1, 65])
    @pytest.mark.parametrize("periodic", [False, True], ids=["aperiodic", "periodic"])
    def test_types_of_one_thickness_keep_every_bit(self, periodic, width):
        # the references evaluate each type's trig afresh; the march shares
        # one cos array as A and D between types of different index
        stack = shared_thickness_stack(periodic)
        omegas = np.linspace(4.0, 9.0, width) if width > 1 else np.array([6.3])
        (a, da), b, k = photonic._front_face(stack, omegas, slope=True)
        (a_ref, da_ref), b_ref, k_ref = reference_slope_front_face(stack, omegas)
        for got, want in ((a, a_ref), (da, da_ref), (b, b_ref), (k, k_ref)):
            assert np.array_equal(got, want)
        if periodic:
            # the plain march by cells has no exact reference; its layer
            # march is checked at every face
            assert photonic._period(stack.layers) == 6
            for got, want in zip(photonic._backward_march(stack, omegas),
                                 uncached_march(stack, omegas)):
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
        else:
            assert photonic._period(stack.layers) > len(stack.layers) // 2
            for e, h, k in uncached_march(stack, omegas):
                pass
            want = (*photonic._split_waves(e, h, stack.n_in), k)
            for got, w in zip(photonic._front_face(stack, omegas), want):
                assert np.array_equal(got, w)


class TestCellMarch:
    def test_period_of_the_march_cases(self, front_stack):
        periods = {}
        for case in ("front", "recurring", "random", "palindrome"):
            stack, _ = march_case(case, front_stack)
            periods[case] = photonic._period(stack.layers), len(stack.layers)
        assert periods["front"] == (2, 373)
        assert periods["recurring"] == (3, 120)
        assert periods["random"][0] == periods["random"][1]
        # a palindrome's first layer is its last, so it repeats after N - 1 layers
        assert periods["palindrome"] == (119, 120)

    def test_period_of_short_sequences(self):
        assert photonic._period(()) == 1
        assert photonic._period(((2.0, 0.1),)) == 1
        assert photonic._period(((2.0, 0.1),) * 5) == 1
        assert photonic._period(((2.0, 0.1), (1.5, 0.2), (2.0, 0.1))) == 2
        assert photonic._period(((2.0, 0.1), (2.0, 0.1), (1.5, 0.2))) == 3

    @pytest.mark.parametrize("case", MARCH_CASES + ["opaque"])
    def test_front_face_matches_the_layer_march(self, case, front_stack):
        stack, omegas = march_case(case, front_stack)
        a, b, k = photonic._front_face(stack, omegas)
        a_ref, b_ref, k_ref = layer_march_front_face(stack, omegas)
        # the two marches rescale at different steps: compare 2^k a
        scaled = a * np.ldexp(1.0, k - k_ref)
        np.testing.assert_array_less(np.abs(scaled - a_ref), 1e-12 * np.abs(a_ref))
        np.testing.assert_array_less(np.abs(b / a - b_ref / a_ref), 1e-12)
        if case == "opaque":
            assert np.all(k_ref > 1500)
        # the slope march by cells gives the layer march's delay
        omega = omegas[len(omegas) // 2 : len(omegas) // 2 + 1]
        (a, da), _, _ = photonic._front_face(stack, omega, slope=True)
        (a_ref, da_ref), _, _ = layer_march_front_face(stack, omega, slope=True)
        assert (da / a).imag[0] == pytest.approx((da_ref / a_ref).imag[0], rel=1e-12)

    @pytest.mark.parametrize("width", [1, 65])
    @pytest.mark.parametrize("case", MARCH_CASES + ["opaque"])
    def test_slope_march_is_the_reference_march_bit_for_bit(self, case, width, front_stack):
        stack, omegas = march_case(case, front_stack)
        if width == 1:
            omegas = omegas[len(omegas) // 2 :][:1]
        elif omegas[-1] > omegas[0]:
            omegas = np.linspace(omegas[0], omegas[-1], width)
        else:
            omegas = omegas[0] * np.linspace(0.9, 1.1, width)
        (a, da), b, k = photonic._front_face(stack, omegas, slope=True)
        (a_ref, da_ref), b_ref, k_ref = reference_slope_front_face(stack, omegas)
        for got, want in ((a, a_ref), (da, da_ref), (b, b_ref), (k, k_ref)):
            assert np.array_equal(got, want)
        if case == "opaque":  # the powers are rescaled by over a thousand bits
            assert np.all(k > 1000)

    def test_cell_march_steps_by_binary_powers_of_the_cell(self, front_stack):
        omegas = np.linspace(0.9 * OMEGA0, 1.1 * OMEGA0, 5)
        faces = sum(1 for _ in photonic._backward_march(front_stack, omegas, cells=True))
        # 373 layers: the exit face, one leftover layer, then five power steps
        # for the 186 = 128 + 32 + 16 + 8 + 2 whole cells
        assert faces == 1 + 1 + 5

    def test_cell_whose_square_passes_the_rescale_bound_is_repeated(self):
        # each layer's growth bound is about 1e40, the cell's about 1e80 and
        # its square's about 1e160
        cell = ((1e40, 1e-41), (1e-40, 1e39))
        stack = photonic.LayeredStack(cell * 6 + cell[:1])
        growth = photonic._growth(1e40) * photonic._growth(1e-40)
        assert growth <= photonic._RESCALE_BOUND < growth ** 2
        omegas = np.linspace(1.0, 2.0, 17)
        faces = sum(1 for _ in photonic._backward_march(stack, omegas, cells=True))
        assert faces == 1 + 1 + 6
        a, b, k = photonic._front_face(stack, omegas)
        a_ref, b_ref, k_ref = layer_march_front_face(stack, omegas)
        scaled = a * np.ldexp(1.0, k - k_ref)
        np.testing.assert_array_less(np.abs(scaled - a_ref), 1e-12 * np.abs(a_ref))
        np.testing.assert_array_less(np.abs(b / a - b_ref / a_ref), 1e-12)

    def test_cell_past_the_rescale_bound_is_stepped_by_layers(self):
        # each layer's growth bound is about 1e80, the cell's about 1e160
        cell = ((1e80, 1e-81), (1e-80, 1e79))
        stack = photonic.LayeredStack(cell * 3)
        assert photonic._period(stack.layers) == 2
        assert photonic._growth(1e80) * photonic._growth(1e-80) > photonic._RESCALE_BOUND
        omegas = np.linspace(1.0, 2.0, 17)
        by_cells = photonic._backward_march(stack, omegas, cells=True)
        steps = 0
        for got, want in zip(by_cells, uncached_march(stack, omegas)):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            steps += 1
        assert steps == len(stack.layers) + 1

    def test_cell_march_holds_no_more_than_the_layer_march(self, front_stack):
        # a layer type with no steps left is freed while the cells are stepped
        omegas = np.linspace(0.5 * OMEGA0, 1.5 * OMEGA0, 4096)
        peaks = []
        for cells in (False, True):
            tracemalloc.start()
            try:
                for _ in photonic._backward_march(front_stack, omegas, cells=cells):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    def test_opaque_powered_march_holds_no_more_than_the_layer_march(self, front_stack):
        # 1000 cells: M^128's square could pass the rescale bound, so the
        # march steps M^8, M^32 and M^64, then repeats M^128 seven times,
        # rescaling before most steps; the leftover layer's type is freed
        # before the powers are stepped
        stack, _ = march_case("opaque", front_stack)
        omegas = np.linspace(0.9 * OMEGA0, 1.1 * OMEGA0, 4096)
        assert sum(1 for _ in photonic._backward_march(stack, omegas, cells=True)) == 1 + 1 + 3 + 7
        peaks = []
        for cells in (False, True):
            tracemalloc.start()
            try:
                for _ in photonic._backward_march(stack, omegas, cells=cells):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        cell=st.lists(st.tuples(st.floats(1.0, 3.5), st.floats(0.02, 0.6)), min_size=1, max_size=4),
        count=st.one_of(
            st.integers(2, 600),
            st.integers(1, 9).flatmap(lambda j: st.sampled_from([2 ** j - 1, 2 ** j + 1])),
        ),
        leftover=st.integers(0, 3),
    )
    def test_powered_front_face_matches_the_layer_march(self, cell, count, leftover):
        # The composed cell's rounding recurs in every cell, so on random
        # stacks the march by cells, powered or one cell per step, departs
        # from the layer march by up to about 3e-12 over 1000 random stacks,
        # past the 1e-12 that the fixed cases above hold.  A delay near zero
        # has no relative accuracy: its error is taken against the optical
        # length
        layers = (tuple(cell) * (count + 1))[: count * len(cell) + leftover]
        stack = photonic.LayeredStack(layers, n_in=1.2, n_out=1.5)
        omegas = np.linspace(4.0, 9.0, 33)
        a, b, k = photonic._front_face(stack, omegas)
        a_ref, b_ref, k_ref = layer_march_front_face(stack, omegas)
        scaled = a * np.ldexp(1.0, k - k_ref)
        np.testing.assert_array_less(np.abs(scaled - a_ref), 1e-11 * np.abs(a_ref))
        np.testing.assert_array_less(np.abs(b / a - b_ref / a_ref), 1e-11)
        (a, da), _, _ = photonic._front_face(stack, omegas, slope=True)
        (a_ref, da_ref), _, _ = layer_march_front_face(stack, omegas, slope=True)
        delay, delay_ref = (da / a).imag, (da_ref / a_ref).imag
        optical = sum(n * d for n, d in layers)
        np.testing.assert_array_less(np.abs(delay - delay_ref),
                                     1e-11 * np.maximum(np.abs(delay_ref), optical))

    @pytest.mark.parametrize("slope", [False, True])
    @pytest.mark.parametrize("leftover", [1, 2])
    def test_trig_once_per_layer_type(self, monkeypatch, slope, leftover):
        # the leftover layers at the front face reuse the cell's coefficients
        layers = (RECURRING_CELL * 41)[3 - leftover:]
        stack = photonic.LayeredStack(layers)
        assert len(layers) % 3 == leftover
        calls = {"cos": 0, "sin": 0}
        for name in calls:
            def counted(x, _name=name, _f=getattr(np, name)):
                calls[_name] += 1
                return _f(x)
            monkeypatch.setattr(np, name, counted)
        photonic._front_face(stack, np.linspace(4.0, 9.0, 33), slope=slope)
        assert calls == {"cos": 3, "sin": 3}

    def test_one_frequency_slope_march_array_call_count(self, front_stack, monkeypatch):
        # the march and the front-face split are written as explicit ufunc
        # calls, so this counts every array product, sum and difference of
        # one exact group delay on the front stack: two layer types of one
        # phase, one cell product, one leftover layer, five power steps and
        # seven squarings.  Pinned, so that a change that regrows the
        # per-call cost shows here
        calls = {"multiply": 0, "add": 0, "subtract": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(np, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        photonic.group_delay(front_stack, OMEGA0)
        assert calls == {"multiply": 114, "add": 57, "subtract": 13}

    @pytest.mark.parametrize("slope", [False, True])
    def test_a_frequency_gets_the_same_bits_in_any_company(self, front_stack, slope):
        # find_stopband marches a window and then only its new points
        omegas = np.linspace(0.9 * OMEGA0, 1.1 * OMEGA0, 131)
        whole = photonic._front_face(front_stack, omegas, slope)
        for part in (omegas[:1], omegas[57:60], omegas[::-7], np.append(omegas[3:40], OMEGA0)):
            got = photonic._front_face(front_stack, part, slope)
            for g, w in zip(got, whole):
                for j, omega in enumerate(part):
                    hit = np.flatnonzero(omegas == omega)
                    if hit.size:
                        assert np.array_equal(g[..., j], w[..., hit[0]])


class TestGratingResponse:
    def test_zero_coupling_is_transparent(self):
        grating = photonic.UniformGrating(0.0, 5.0, 1.0, 2.0 * np.pi)
        grid = spectral.FrequencyGrid.centered(grating.omega_b, 0.05, 21)
        t, r = photonic.grating_response(grating, grid.omegas)
        np.testing.assert_allclose(np.abs(t), 1.0, atol=1e-14)
        np.testing.assert_allclose(r, 0.0, atol=1e-14)

    def test_bragg_transmission_against_sliced_stack_oracle(self):
        # kappa L = 3; the 1e4-slice piecewise-constant profile must agree
        # with sech(3) at the coupled-mode level of validity
        grating = photonic.UniformGrating(0.05, 60.0, 1.0, 2.0 * np.pi)
        grid = spectral.FrequencyGrid.centered(grating.omega_b, 1e-5, 9)
        t, _ = photonic.grating_response(grating, grid.omegas)
        assert abs(t[grid.count // 2]) == pytest.approx(1.0 / np.cosh(3.0), rel=1e-12)
        sliced = grating.as_layered_stack(slices_per_period=83)  # ~1e4 slices
        assert len(sliced.layers) == pytest.approx(10000, abs=100)
        t_sliced, _ = photonic.stack_t_r(sliced, grating.omega_b)
        assert abs(t_sliced) == pytest.approx(1.0 / np.cosh(3.0), rel=2e-3)

    def test_unitary_at_every_detuning(self):
        grating = photonic.UniformGrating(0.3, 20.0, 1.4, 2.0 * np.pi)
        window = 0.15 * grating.omega_b / grating.n_bar
        grid = spectral.FrequencyGrid.centered(grating.omega_b, window, 101)
        t, r = photonic.grating_response(grating, grid.omegas)
        assert spectral.unitarity_defect(t, r, 1.0) < 1e-12

    def test_detuning_validity_enforced(self):
        grating = photonic.UniformGrating(0.3, 20.0, 1.0, 2.0 * np.pi)
        grid = spectral.FrequencyGrid.centered(grating.omega_b, 0.5 * grating.omega_b, 9)
        with pytest.raises(DetuningOutOfRangeError):
            photonic.grating_response(grating, grid.omegas)
        # the field quantities and the group delay share the window
        omega = 1.5 * grating.omega_b
        with pytest.raises(DetuningOutOfRangeError):
            photonic.grating_group_delay(grating, omega)
        with pytest.raises(DetuningOutOfRangeError):
            photonic.grating_stored_energy(grating, omega)
        with pytest.raises(DetuningOutOfRangeError):
            photonic.grating_envelopes(grating, omega, np.linspace(0.0, grating.length, 5))

    def test_group_delay_analytic_value(self):
        grating = photonic.UniformGrating(0.2, 25.0, 1.3, 2.0 * np.pi)
        tau = photonic.grating_group_delay(grating, grating.omega_b)
        assert tau == pytest.approx(1.3 * np.tanh(5.0) / 0.2, rel=1e-9)

    @pytest.mark.parametrize("kappa_l", [0.5, 5.0, 30.0, 300.0, 1e4])
    def test_bragg_delay_up_to_the_opaque_limit(self, kappa_l):
        # |t| underflows past kappa L ~ 690; the delay tends to n_bar/kappa
        grating = photonic.UniformGrating(0.2, kappa_l / 0.2, 1.3, 2.0 * np.pi)
        tau = photonic.grating_group_delay(grating, grating.omega_b)
        assert tau == pytest.approx(1.3 * np.tanh(kappa_l) / 0.2, rel=1e-13)

    @pytest.mark.parametrize("length", [1e103, 1e200, 1e300])
    def test_grating_too_long_to_cube_kappa_l_keeps_the_opaque_values(self, length):
        # (kappa L)^3 and L^2 overflow past kappa L ~ 5.6e102; the delay and
        # the stored energy per input power are those at L = 1e102: n_bar/kappa
        for size in (length, 1e102):
            grating = photonic.UniformGrating(0.2, size, 1.0, 2.0 * np.pi)
            tau = photonic.grating_group_delay(grating, grating.omega_b)
            stored = photonic.grating_stored_energy(grating, grating.omega_b)
            assert tau == pytest.approx(5.0, rel=1e-15)
            assert stored == pytest.approx(5.0, rel=1e-15)

    def test_zero_coupling_is_the_transit_time(self):
        grating = photonic.UniformGrating(0.0, 7.0, 1.3, 2.0 * np.pi)
        for omega in (grating.omega_b, 1.1 * grating.omega_b):
            assert photonic.grating_group_delay(grating, omega) == pytest.approx(1.3 * 7.0, rel=1e-14)

    @pytest.mark.parametrize("delta", [0.05, 0.25, 0.3, -0.4])
    def test_off_bragg_matches_sampled_phase_slope(self, delta):
        # inside, at the edge of (delta = kappa) and outside the stopband
        grating = photonic.UniformGrating(0.25, 20.0, 1.0, 4.0)
        omega = grating.omega_b + delta
        sampled = sampled_phase_slope(
            lambda omegas: photonic._grating_closed_form(grating, omegas)[0], omega, 1e-6 * omega
        )
        assert photonic.grating_group_delay(grating, omega) == pytest.approx(sampled, rel=2e-9)

    def test_vanishing_coupling_recovers_vacuum_slab_delay(self):
        length = 5.0
        grating = photonic.UniformGrating(1e-9, length, 1.0, 2.0 * np.pi)
        tau = photonic.grating_group_delay(grating, grating.omega_b)
        slab_tau = photonic.group_delay(photonic.LayeredStack.vacuum_slab(length), 2.0 * np.pi)
        assert tau == pytest.approx(slab_tau, rel=1e-8)

    @pytest.mark.parametrize("quantity", [photonic.grating_group_delay, photonic.grating_stored_energy],
                             ids=lambda f: f.__name__)
    def test_coupling_too_large_to_square_raises_named(self, quantity):
        # kappa^2 overflows a Python float: a named failure, not an OverflowError
        grating = photonic.UniformGrating(2e171, 5.0, 1.0, 2.0 * np.pi)
        with pytest.raises(NonFiniteResultError, match="OverflowError"):
            quantity(grating, grating.omega_b)


class TestFields:
    def test_vacuum_slab_traveling_wave(self):
        profile = photonic.reconstruct_fields(photonic.LayeredStack.vacuum_slab(2.0), 5.0)
        np.testing.assert_allclose(np.abs(profile.e), np.sqrt(2.0), atol=1e-12)
        np.testing.assert_allclose(profile.density(), 1.0, atol=1e-12)

    def test_fields_match_linear_system_oracle(self, skc_stack):
        profile = photonic.reconstruct_fields(skc_stack, OMEGA0)
        _, _, e_ref = stack_matching_oracle(skc_stack, OMEGA0)
        scale = np.sqrt(2.0 / skc_stack.n_in)  # oracle uses unit incident amplitude
        for idx in range(0, profile.z.size, 37):
            assert profile.e[idx] == pytest.approx(
                scale * e_ref(profile.z[idx]), rel=1e-10, abs=1e-12
            )

    def test_interface_continuity(self, skc_stack):
        profile = photonic.reconstruct_fields(skc_stack, OMEGA0)
        per_layer = profile.z.size // len(skc_stack.layers)
        for j in range(1, len(skc_stack.layers)):
            left_e = profile.e[j * per_layer - 1]
            right_e = profile.e[j * per_layer]
            left_h = profile.h[j * per_layer - 1]
            right_h = profile.h[j * per_layer]
            assert abs(left_e - right_e) < 1e-10
            assert abs(left_h - right_h) < 1e-10

    def test_field_density_is_the_stored_energy_density(self):
        # links the sampled fields to the closed-form per-layer energy route,
        # down to the back of an opaque stack where the envelope is ~1e-20
        stack = photonic.LayeredStack.quarter_wave(2.22, 1.41, 201, LAMBDA0)
        profile = photonic.reconstruct_fields(stack, OMEGA0)
        per_layer = profile.density().reshape(len(stack.layers), -1)
        expected = photonic.stored_energy(stack, OMEGA0).density[:, None]
        np.testing.assert_allclose(per_layer / expected, 1.0, rtol=0.0, atol=1e-12)

    def test_midgap_envelope_decays_front_to_back(self, skc_stack):
        report = photonic.stored_energy(skc_stack, OMEGA0)
        # per-pair averages of the layer densities decay monotonically
        pairs = [
            (report.density[i] + report.density[i + 1]) / 2.0
            for i in range(0, len(report.density) - 1, 2)
        ]
        assert all(a > b for a, b in zip(pairs, pairs[1:]))


class TestStoredEnergy:
    def test_vacuum_slab_transport_time(self):
        report = photonic.stored_energy(photonic.LayeredStack.vacuum_slab(2.0), 5.0)
        assert report.u_per_pin == pytest.approx(2.0, rel=1e-12)
        assert report.penetration_depth is None  # flat profile, nothing decays

    def test_midgap_energy_below_free_space(self, skc_stack):
        report = photonic.stored_energy(skc_stack, OMEGA0)
        assert report.u_per_pin < skc_stack.total_length
        assert np.all(report.density >= 0.0)

    def test_passband_resonance_exceeds_free_space(self):
        # resonant buildup at a transmission peak stores more than the
        # equal-length vacuum transit
        weak = photonic.LayeredStack.quarter_wave(1.6, 1.2, 11, LAMBDA0)
        band = photonic.find_stopband(weak, OMEGA0)
        omegas = np.linspace(band.upper * 1.002, band.upper * 1.35, 3000)
        t, _ = photonic.stack_t_r_samples(weak, omegas)
        power = np.abs(t) ** 2
        peak = int(np.argmax(power))
        assert power[peak] >= 0.5
        assert photonic.stored_energy(weak, float(omegas[peak])).u_per_pin > weak.total_length

    def test_doubling_opaque_length_changes_nothing(self):
        base = photonic.LayeredStack.quarter_wave(2.22, 1.41, 43, LAMBDA0)
        double = photonic.LayeredStack.quarter_wave(2.22, 1.41, 87, LAMBDA0)
        u1 = photonic.stored_energy(base, OMEGA0).u_per_pin
        u2 = photonic.stored_energy(double, OMEGA0).u_per_pin
        assert abs(u2 - u1) / u1 < 1e-4

    def test_stack_too_opaque_for_floating_point(self):
        # |t| ~ 1e-477 at midgap of the 2001-layer stack: the stored energy
        # saturates at the 401-layer value, and the exact group delay,
        # though t itself is 0, is that same lifetime
        shallow = photonic.LayeredStack.quarter_wave(3.0, 1.0, 401, LAMBDA0)
        deep = photonic.LayeredStack.quarter_wave(3.0, 1.0, 2001, LAMBDA0)
        report = photonic.stored_energy(deep, OMEGA0)
        expected = photonic.stored_energy(shallow, OMEGA0)
        assert report.u_per_pin == pytest.approx(expected.u_per_pin, rel=1e-12)
        assert report.penetration_depth == pytest.approx(expected.penetration_depth, rel=1e-12)
        t, r = photonic.stack_t_r(deep, OMEGA0)
        assert t == 0.0
        assert abs(r) == pytest.approx(1.0, rel=1e-15)
        assert photonic.group_delay(deep, OMEGA0) == pytest.approx(report.u_per_pin, rel=1e-12)

    def test_middle_bin_on_half_length_is_not_a_coin_toss(self):
        # the first stack from default_rng(5) has 21 layers, and at 2 pi its
        # middle phase bin is centred on the half length up to roundoff; a
        # one-ulp move of the half length must not move the fitted depth
        stack = random_symmetric_stack(np.random.default_rng(5))
        omega = 2.0 * np.pi
        report = photonic.stored_energy(stack, omega)
        assert len(stack.layers) == 21
        depths = []
        for toward in (0.0, np.inf):
            nudged = SimpleNamespace(
                layers=stack.layers,
                total_length=np.nextafter(stack.total_length, toward),
            )
            depths.append(photonic._fit_penetration_depth(nudged, omega, report.density))
        assert depths == [report.penetration_depth] * 2

    def test_no_depth_for_a_field_that_barely_decays(self):
        # the seventh stack from default_rng(5) is in a passband at 2 pi
        # (|t|^2 = 0.88); its density profile still fits a tiny negative
        # slope, whose 1/e depth of about 77 is 45 times the stack
        rng = np.random.default_rng(5)
        for _ in range(7):
            stack = random_symmetric_stack(rng)
        omega = 2.0 * np.pi
        t, _ = photonic.stack_t_r(stack, omega)
        assert len(stack.layers) == 21
        assert abs(t) ** 2 == pytest.approx(0.877, abs=1e-3)
        assert photonic.stored_energy(stack, omega).penetration_depth is None

    def test_grating_density_decay_rate_is_twice_kappa(self):
        kappa = 0.1
        grating = photonic.UniformGrating(kappa, 100.0, 1.0, 2.0 * np.pi)
        report = photonic.stored_energy(
            grating.as_layered_stack(slices_per_period=30), grating.omega_b
        )
        assert report.penetration_depth == pytest.approx(1.0 / kappa, rel=0.02)

    def test_lifetime_identity_for_symmetric_stacks(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            stack = random_symmetric_stack(rng)
            try:
                band = photonic.find_stopband(stack, 2.0 * np.pi / 1.0)
            except NotInStopbandError:
                omega = 2.0 * np.pi
            else:
                omega = band.center
            tau = photonic.group_delay(stack, omega)
            u = photonic.stored_energy(stack, omega).u_per_pin
            assert tau == pytest.approx(u, rel=1e-6)

    def test_weighted_identity_for_arbitrary_stacks(self):
        # general lossless identity: |t|^2 tau_t + |r|^2 tau_r = U / P_in, one
        # field integral against two exact phase derivatives
        rng = np.random.default_rng(57)
        for _ in range(20):
            stack = random_stack(rng)
            omega = float(rng.uniform(4.0, 9.0))
            tau_t, tau_r = exact_delays(stack, omega)
            t, r = photonic.stack_t_r(stack, omega)
            weighted = abs(t) ** 2 * tau_t + abs(r) ** 2 * tau_r
            u = photonic.stored_energy(stack, omega).u_per_pin
            assert weighted == pytest.approx(u, rel=1e-12)

    def test_weighted_identity_between_unequal_media(self):
        # with n_in != n_out the transmitted power is (n_out/n_in) |t|^2
        rng = np.random.default_rng(58)
        for _ in range(20):
            n_in, n_out = rng.uniform(1.0, 3.0, 2)
            stack = photonic.LayeredStack(random_stack(rng).layers, n_in=n_in, n_out=n_out)
            omega = float(rng.uniform(4.0, 9.0))
            tau_t, tau_r = exact_delays(stack, omega)
            t, r = photonic.stack_t_r(stack, omega)
            weighted = n_out / n_in * abs(t) ** 2 * tau_t + abs(r) ** 2 * tau_r
            u = photonic.stored_energy(stack, omega).u_per_pin
            assert weighted == pytest.approx(u, rel=1e-12)


def exact_delays(stack, omega):
    """tau_t = -Im(a'/a) and tau_r = Im(b'/b - a'/a) from one slope march."""
    a, b, _ = photonic._front_face(stack, np.asarray([omega]), slope=True)
    return float(-(a[1] / a[0]).imag[0]), float((b[1] / b[0] - a[1] / a[0]).imag[0])


class TestExactGroupDelay:
    @pytest.mark.parametrize("case", ["front", "skc", "random"])
    def test_matches_sampled_phase_slope(self, case, front_stack, skc_stack):
        if case == "random":
            rng = np.random.default_rng(31)
            cases = [(random_stack(rng), float(rng.uniform(0.5, 10.0))) for _ in range(50)]
        else:
            cases = [(front_stack if case == "front" else skc_stack, OMEGA0)]
        for stack, omega in cases:
            sampled = sampled_phase_slope(
                lambda omegas: photonic.stack_t_r_samples(stack, omegas)[0], omega, 1e-6 * omega
            )
            assert photonic.group_delay(stack, omega) == pytest.approx(sampled, rel=2e-9)

    def test_value_row_is_the_plain_march(self):
        # the 2001-layer stack rescales many times; the slope march may pick
        # other shifts, but 2^k (E, H) of its row 0 is the plain march's, bit
        # for bit, at every face
        stack = photonic.LayeredStack.quarter_wave(3.0, 1.0, 2001, LAMBDA0)
        omegas = np.array([0.9, 1.0, 1.1]) * OMEGA0
        plain = photonic._backward_march(stack, omegas)
        sloped = photonic._backward_march(stack, omegas, slope=True)
        for (e, h, k), (e2, h2, k2) in zip(plain, sloped):
            assert np.array_equal(np.ldexp(1.0, k - k2) * e, e2[0])
            assert np.array_equal(np.ldexp(1.0, k - k2) * h, h2[0])

    def test_vacuum_slab_and_empty_stack(self):
        assert photonic.group_delay(photonic.LayeredStack.vacuum_slab(2.5), 3.0) == pytest.approx(
            2.5, rel=1e-15
        )
        assert repr(photonic.group_delay(photonic.LayeredStack(()), 3.0)) == "0.0"


# the cells of two quarter-wave stacks, for explicit examples of the lifetime identity
FRONT_CELL = photonic.LayeredStack.quarter_wave(1.02, 1.0, 2, LAMBDA0).layers
OPAQUE_CELL = photonic.LayeredStack.quarter_wave(3.0, 1.0, 2, 1.0).layers


class TestLifetimeIdentity:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        cell=st.lists(st.tuples(st.floats(1.0, 3.5), st.floats(0.02, 0.6)), min_size=1, max_size=4),
        count=st.integers(2, 600),
        leftover=st.integers(0, 3),
        n_in=st.floats(1.0, 3.0),
        n_out=st.floats(1.0, 3.0),
        omega=st.floats(0.3, 12.0),
    )
    # the `front` stack, 186 cells and one layer, at midgap; and 3.0/1.0 x 2001
    # at midgap, where |t|^2 underflows to zero while U and tau_r stay finite
    @example(cell=FRONT_CELL, count=186, leftover=1, n_in=1.0, n_out=1.0, omega=OMEGA0)
    @example(cell=OPAQUE_CELL, count=1000, leftover=1, n_in=1.0, n_out=1.0, omega=2.0 * np.pi)
    def test_stored_energy_is_the_flux_weighted_delay(
        self, cell, count, leftover, n_in, n_out, omega
    ):
        # U/P_in = (n_out/n_in)|t|^2 tau_t + |r|^2 tau_r for a lossless stack
        # (Smith, Phys. Rev. 118, 349 (1960)), tau_t = -Im(a'/a) and tau_r =
        # Im(b'/b - a'/a) as in `exact_delays`; |r|^2 Im(b'/b) is taken as
        # Im(b' conj(b))/|a|^2, finite where a stack reflects nothing.  The
        # worst of 1500 stacks drawn like these was 9.4e-13 relative
        layers = (tuple(cell) * (count + 1))[: count * len(cell) + leftover]
        stack = photonic.LayeredStack(layers, n_in=n_in, n_out=n_out)
        (a, da), (b, db), _ = photonic._front_face(stack, np.asarray([omega]), slope=True)
        t, r = photonic.stack_t_r(stack, omega)
        tau_t = float(-(da / a).imag[0])
        reflected = float((db * np.conj(b)).imag[0] / abs(a[0]) ** 2) + abs(r) ** 2 * tau_t
        u = photonic.stored_energy(stack, omega).u_per_pin
        weighted = n_out / n_in * abs(t) ** 2 * tau_t + reflected
        assert abs(weighted - u) < 1e-11 * u


class TestGratingStoredEnergy:
    @pytest.mark.parametrize(
        "kappa, n_bar, delta",
        [(0.25, 1.0, 0.0), (0.25, 1.0, 0.125), (0.25, 1.0, 0.25), (0.25, 1.0, 0.5),
         (0.25, 1.4, 0.1), (0.0, 1.0, 0.125)],
        ids=["bragg", "inside", "edge", "outside", "n_bar", "no-coupling"],
    )
    def test_against_midpoint_rule_of_envelopes(self, kappa, n_bar, delta):
        grating = photonic.UniformGrating(kappa, 20.0, n_bar, 4.0)
        omega = grating.omega_b + delta / n_bar
        if n_bar == 1.0:
            assert grating.detuning(omega) == delta  # the band edge is hit exactly
        count = 200_000
        z = (np.arange(count) + 0.5) * (grating.length / count)
        forward, backward = photonic.grating_envelopes(grating, omega, z)
        brute = n_bar * np.sum(np.abs(forward) ** 2 + np.abs(backward) ** 2)
        brute *= grating.length / count
        assert photonic.grating_stored_energy(grating, omega) == pytest.approx(brute, rel=1e-8)

    @pytest.mark.parametrize(
        "kappa, length, n_bar",
        [(1e-6, 5.0, 1.0), (0.05, 10.0, 1.0), (0.2, 25.0, 1.3), (0.3, 100.0, 1.4),
         (0.2, 600.0, 1.0), (0.2, 4000.0, 1.0)],
        # the last two are opaque: |t|^2 alone underflows at kappa L = 120, and
        # cosh(kappa L) overflows at 800
    )
    def test_bragg_identity(self, kappa, length, n_bar):
        grating = photonic.UniformGrating(kappa, length, n_bar, 2.0 * np.pi)
        expected = n_bar * np.tanh(kappa * length) / kappa
        assert photonic.grating_stored_energy(grating, grating.omega_b) == pytest.approx(
            expected, rel=1e-12
        )


class TestStopbandAndPhaseEnergy:
    def test_quarter_wave_stopband_convention(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        assert band.center == pytest.approx(OMEGA0, rel=0.01)
        for edge in (band.lower, band.upper):
            t_edge, _ = photonic.stack_t_r(skc_stack, edge)
            assert abs(t_edge) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_stopband_width_approaches_analytic_gap(self):
        # the half-transmission band tightens onto the true photonic gap as
        # the stack deepens
        analytic = (4.0 / np.pi) * np.arcsin(0.5 / 3.5) * OMEGA0
        widths = []
        for layers in (11, 43, 81):
            stack = photonic.LayeredStack.quarter_wave(2.0, 1.5, layers, LAMBDA0)
            widths.append(photonic.find_stopband(stack, OMEGA0).width)
        assert widths[0] > widths[1] > widths[2] > analytic
        assert widths[2] == pytest.approx(analytic, rel=0.05)

    def test_k_section_finds_the_bisection_edges(self, skc_stack, front_stack):
        # bisection is an oracle only where an edge crosses 0.5 once inside its
        # scan step: it may keep any crossing, the k-section the nearest one
        checked = 0
        for stack, omega in stopband_oracle_cases(skc_stack, front_stack):
            try:
                band = photonic.find_stopband(stack, omega)
            except NotInStopbandError:
                continue
            lower, upper = bisection_stopband(stack, omega)
            assert band.lower == pytest.approx(lower, rel=1e-14, abs=0.0)
            assert band.upper == pytest.approx(upper, rel=1e-14, abs=0.0)
            checked += 1
        assert checked >= 10

    def test_predicted_crossings_keep_the_plain_k_section_edges(self, skc_stack, front_stack):
        # the 3.0/1.0 stack is so opaque that |t|^2 - 0.5 reads close to -0.5
        # at every inside sample of its first round, and the 10/1 stack's band
        # runs past a scan end from either side
        cases = stopband_oracle_cases(skc_stack, front_stack)
        cases.append((photonic.LayeredStack.quarter_wave(3.0, 1.0, 2001, 1.0), 2.0 * np.pi))
        boundary = photonic.LayeredStack.quarter_wave(10.0, 1.0, 21, 1.0)
        cases += [(boundary, np.pi), (boundary, 9.0)]
        checked = 0
        for stack, omega in cases:
            try:
                band = photonic.find_stopband(stack, omega)
            except NotInStopbandError:
                continue
            lower, upper = plain_k_section(stack, omega)
            assert band.lower == pytest.approx(lower, rel=1e-14, abs=0.0)
            assert band.upper == pytest.approx(upper, rel=1e-14, abs=0.0)
            checked += 1
        assert checked >= 13

    def test_k_section_keeps_the_argsort_walk(self, skc_stack, front_stack, monkeypatch):
        # round 1's sections are marched in walk order, so it takes no sort;
        # every round must march the reference's frequencies
        cases = stopband_oracle_cases(skc_stack, front_stack)
        cases.append((photonic.LayeredStack.quarter_wave(3.0, 1.0, 2001, 1.0), 2.0 * np.pi))
        boundary = photonic.LayeredStack.quarter_wave(10.0, 1.0, 21, 1.0)
        cases += [(boundary, np.pi), (boundary, 9.0)]
        marched, transmittance = [], photonic._transmittance

        def recorded(stack, omegas):
            marched.append(omegas)
            return transmittance(stack, omegas)

        monkeypatch.setattr(photonic, "_transmittance", recorded)
        checked = rounds = 0
        for stack, omega in cases:
            try:
                brackets = full_scan_brackets(stack, omega)
            except NotInStopbandError:
                continue
            marched.clear()
            want = argsort_k_section(stack, *brackets)
            want_marched = list(marched)
            marched.clear()
            assert np.array_equal(photonic._k_section(stack, *brackets), want)
            assert len(marched) == len(want_marched)
            assert all(np.array_equal(g, w) for g, w in zip(marched, want_marched))
            checked += 1
            rounds = max(rounds, len(marched))
        assert checked >= 13
        assert rounds >= 3

    def test_edge_is_the_crossing_nearest_the_band(self):
        # |t|^2 crosses 0.5 three times in the scan step below this band;
        # bisection keeps the outermost crossing, 2.9e-4 further out
        cell = ((2.4916070933903036, 0.19824535079232136), (3.3416078916308773, 0.11980862237203016))
        stack = photonic.LayeredStack(cell * 184)
        omega = 10.774860416209682
        lower = photonic.find_stopband(stack, omega).lower
        assert lower == pytest.approx(10.24636696851287, rel=1e-14, abs=0.0)
        assert bisection_stopband(stack, omega)[0] == pytest.approx(10.2433970729214, rel=1e-14)
        _, inside = full_scan_brackets(stack, omega)
        power = photonic._transmittance(stack, np.linspace(lower, inside[0], 20001))
        assert power[0] == pytest.approx(0.5, abs=1e-9)
        assert np.all(power[1:] < 0.5)

    def test_k_section_samples_only_inside_its_brackets(self, monkeypatch):
        # on the opaque 3.0/1.0 stack the first round's predictors read |t|^2
        # under 0.1 but at one narrow peak, and the crossings they predict
        # lie 1e8 sections and more outside the brackets; the second round
        # straddles each bracket's midpoint instead
        stack = photonic.LayeredStack.quarter_wave(3.0, 1.0, 2001, 1.0)
        outside, inside = full_scan_brackets(stack, 2.0 * np.pi)
        sampled, transmittance = [], photonic._transmittance

        def recorded(stack, omegas):
            sampled.append(np.ravel(omegas))
            return transmittance(stack, omegas)

        monkeypatch.setattr(photonic, "_transmittance", recorded)
        photonic._k_section(stack, outside, inside)
        lo, hi = np.minimum(outside, inside), np.maximum(outside, inside)
        omegas = np.concatenate(sampled)[:, None]
        assert len(sampled) > 2
        assert np.all(np.any((lo <= omegas) & (omegas <= hi), axis=1))

    def test_inverse_interpolation_is_exact_for_a_polynomial_inverse(self):
        y = np.linspace(-0.3, 0.4, 8)[None, :] ** np.array([[1.0], [3.0]])
        x = 0.25 + y - 2.0 * y**3 + y**7
        assert photonic._inverse_interpolation(x, y) == pytest.approx([0.25, 0.25], abs=1e-14)
        flat = photonic._inverse_interpolation(np.arange(8.0)[None, :], np.full((1, 8), -0.5))
        assert not np.isfinite(flat[0])

    def test_edge_on_scan_boundary_keeps_the_scan_end(self):
        # the 10/1 stack's band spans 2.42..10.14 around its design frequency
        # 2 pi: from omega_ref = pi it runs past the scan's upper end,
        # 1.7 omega_ref, and from omega_ref = 9 past its lower end, 0.3 omega_ref
        stack = photonic.LayeredStack.quarter_wave(10.0, 1.0, 21, 1.0)
        for omega, end in ((np.pi, 1), (9.0, 0)):
            found = photonic.find_stopband(stack, omega)
            band = (found.lower, found.upper)
            bisected = bisection_stopband(stack, omega)
            scan_end = omega * (1.0 + (2 * end - 1) * photonic._SCAN_FACTOR)
            assert band[end] == bisected[end] == scan_end
            assert band[1 - end] == pytest.approx(bisected[1 - end], rel=1e-14, abs=0.0)
            assert omega * 0.3 < band[1 - end] < omega * 1.7

    def test_edges_refined_in_few_marches(self, front_stack, skc_stack, monkeypatch):
        # one march for the scan window, which omega_ref rides along, and two
        # k-section rounds, the second ended by the predicted crossings;
        # refining one frequency at a time took 74 and plain 64-section 7.
        # The pulse and skc configs' wider band widens the window twice
        marches = []
        stack_t_r = photonic._stack_t_r

        def counted(stack, omegas):
            marches.append(omegas)
            return stack_t_r(stack, omegas)

        monkeypatch.setattr(photonic, "_stack_t_r", counted)
        photonic.find_stopband(front_stack, OMEGA0)
        assert len(marches) == 3
        marches.clear()
        photonic.find_stopband(skc_stack, OMEGA0)
        assert len(marches) == 5

    @pytest.mark.parametrize("case", ["front", "skc-and-pulse", "rescaled", "scan-boundary"])
    def test_windowed_scan_matches_the_full_scan(self, case, skc_stack, front_stack):
        # the skc and pulse configs share one stack and carrier; the 3.0/1.0
        # stack rescales in its march and widens the window twice, and the
        # 10/1 stack's band at half its design frequency runs past the
        # scan's upper end
        if case == "front":
            stack, omega = front_stack, OMEGA0
        elif case == "skc-and-pulse":
            stack, omega = skc_stack, OMEGA0
        elif case == "rescaled":
            stack, omega = photonic.LayeredStack.quarter_wave(3.0, 1.0, 2001, 1.0), 2.0 * np.pi
        else:
            stack, omega = photonic.LayeredStack.quarter_wave(10.0, 1.0, 21, 1.0), np.pi
        band = photonic.find_stopband(stack, omega)
        assert band == full_scan_stopband(stack, omega)
        if case == "scan-boundary":
            assert band.upper == omega * 1.7

    def test_narrow_band_marches_one_window(self, front_stack, monkeypatch):
        # a march of the whole scan would take 4002 frequencies
        sizes = []
        transmittance = photonic._transmittance

        def recorded(stack, omegas):
            sizes.append(np.size(omegas))
            return transmittance(stack, omegas)

        monkeypatch.setattr(photonic, "_transmittance", recorded)
        photonic.find_stopband(front_stack, OMEGA0)
        # 63 sections of both edges, then 63 sections and a straddling pair
        assert sizes == [130, 126, 130]
        sizes.clear()
        with pytest.raises(NotInStopbandError):
            photonic.find_stopband(photonic.LayeredStack.vacuum_slab(1.0), 5.0)
        assert sizes == [130]

    def test_passband_reference_raises_like_the_full_scan(self, skc_stack):
        omega = 1.5 * OMEGA0
        with pytest.raises(NotInStopbandError):
            full_scan_stopband(skc_stack, omega)
        with pytest.raises(NotInStopbandError):
            photonic.find_stopband(skc_stack, omega)

    def test_not_in_stopband_for_transparent_structure(self):
        with pytest.raises(NotInStopbandError):
            photonic.find_stopband(photonic.LayeredStack.vacuum_slab(1.0), 5.0)

    def test_vacuum_slab_phase_energy(self):
        grid = spectral.FrequencyGrid.centered(5.0, 0.01, 33)
        report = photonic.phase_energy_check(photonic.LayeredStack.vacuum_slab(2.0), grid)
        assert report.slope == pytest.approx(2.0, rel=1e-12)
        assert report.u_per_pin == pytest.approx(2.0, rel=1e-12)
        assert report.relative_difference < 1e-12

    def test_midgap_slope_equals_stored_energy(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        grid = spectral.FrequencyGrid.centered(OMEGA0, 0.001 * band.width, 33)
        report = photonic.phase_energy_check(skc_stack, grid)
        assert report.relative_difference < 1e-6

    def test_linearity_residual_over_one_percent_band(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        grid = spectral.FrequencyGrid.centered(OMEGA0, 0.005 * band.width, 33)
        report = photonic.phase_energy_check(skc_stack, grid)
        assert report.max_residual < 1e-3

    def test_undersampled_phase_rejected(self):
        # a 2.0 slab turns arg t by 0.8 rad per sample at spacing 0.4, and by
        # 2.0 rad, past the pi/2 guard, at spacing 1.0
        slab = photonic.LayeredStack.vacuum_slab(2.0)
        fine = photonic.phase_energy_check(slab, spectral.FrequencyGrid.centered(5.0, 0.8, 5))
        assert fine.slope == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(UndersampledPhaseError):
            photonic.phase_energy_check(slab, spectral.FrequencyGrid.centered(5.0, 2.0, 5))

    def test_band_wider_than_two_percent_rejected(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        grid = spectral.FrequencyGrid.centered(OMEGA0, 0.05 * band.width, 33)
        with pytest.raises(ValueError):
            photonic.phase_energy_check(skc_stack, grid)
