"""Layered stacks, uniform gratings, field reconstruction, stored energy."""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    LAMBDA0,
    OMEGA0,
    random_stack,
    random_symmetric_stack,
    sampled_phase_slope,
    stack_matching_oracle,
)
from tunneltime import photonic, spectral
from tunneltime.errors import DetuningOutOfRangeError, NotInStopbandError


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


def full_scan_brackets(stack, omega_ref, scan_factor=0.7, scan_points=4001):
    """find_stopband's scan and walk, marching the whole scan at once.

    Returns the (outside, inside) brackets of the lower and upper edge; an
    edge on the scan boundary gets the empty bracket of its scan end.
    """
    lo = max(omega_ref * (1.0 - scan_factor), 1e-12 * omega_ref)
    omegas = np.linspace(lo, omega_ref * (1.0 + scan_factor), scan_points)
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


def full_scan_stopband(stack, omega_ref, **scan):
    """find_stopband with the whole scan marched before the walk."""
    lower, upper = photonic._k_section(stack, *full_scan_brackets(stack, omega_ref, **scan))
    return photonic.Stopband(lower=float(lower), upper=float(upper))


def bisection_stopband(stack, omega_ref, **scan):
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

    return tuple(map(bisect, *full_scan_brackets(stack, omega_ref, **scan)))


class TestTypes:
    def test_layer_validation(self):
        with pytest.raises(ValueError):
            photonic.LayeredStack(((1.5, -0.1),))
        with pytest.raises(ValueError):
            photonic.LayeredStack(((0.0, 0.1),))

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
            assert resp.unitarity_defect() < 1e-12

    def test_reversal_leaves_transmission_magnitude(self):
        rng = np.random.default_rng(29)
        grid = spectral.FrequencyGrid.centered(6.0, 2.0, 33)
        for _ in range(50):
            stack = random_stack(rng)
            fwd = photonic.stack_response(stack, grid)
            rev = photonic.stack_response(stack.reversed(), grid)
            np.testing.assert_allclose(np.abs(fwd.t), np.abs(rev.t), atol=1e-12)


class TestMarchCache:
    @pytest.mark.parametrize(
        "case", ["front", "grating", "random", "rescaled", "single", "recurring", "palindrome"]
    )
    def test_bit_identical_to_uncached_march(self, case, front_stack):
        if case == "front":
            stack = front_stack
            omegas = np.linspace(0.5 * OMEGA0, 1.5 * OMEGA0, 8192)
        elif case == "single":
            # the one-frequency march behind the layer wave amplitudes
            stack = front_stack
            omegas = np.array([OMEGA0])
        elif case == "recurring":
            # A B C A B C ...: each type is held across the others, then released
            cell = ((2.3, 0.11), (1.4, 0.37), (3.1, 0.05))
            stack = photonic.LayeredStack(cell * 40, n_in=1.2, n_out=1.5)
            omegas = np.linspace(4.0, 9.0, 129)
        elif case == "palindrome":
            # distinct layers mirrored: half the layers are held at the middle
            rng = np.random.default_rng(17)
            half = tuple(zip(rng.uniform(1.05, 3.2, 60), rng.uniform(0.02, 0.6, 60)))
            stack = photonic.LayeredStack(half + half[::-1])
            omegas = np.linspace(4.0, 9.0, 129)
        elif case == "grating":
            grating = photonic.UniformGrating(0.3, 20.0, 1.4, 2.0 * np.pi)
            stack = grating.as_layered_stack()
            omegas = grating.omega_b * np.linspace(0.9, 1.1, 257)
        elif case == "random":
            stack = random_stack(np.random.default_rng(13))
            omegas = np.linspace(4.0, 9.0, 513)
        else:
            stack = photonic.LayeredStack.quarter_wave(3.0, 1.0, 601, LAMBDA0, n_in=1.3, n_out=1.7)
            omegas = np.linspace(0.8 * OMEGA0, 1.2 * OMEGA0, 513)
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
            cell = ((2.3, 0.11), (1.4, 0.37), (3.1, 0.05))
            stack = photonic.LayeredStack(cell * 40, n_in=1.2, n_out=1.5)
            omega = 6.0
        got = photonic._layer_wave_coefficients(stack, omega)
        monkeypatch.setattr(photonic, "_backward_march", uncached_march)
        want = photonic._layer_wave_coefficients(stack, omega)
        assert got.shape == (len(stack.layers), 2)
        assert np.array_equal(got, want)

    def test_trig_once_per_layer_type(self, front_stack, monkeypatch):
        calls = {"cos": 0, "sin": 0}
        for name in calls:
            def counted(x, _name=name, _f=getattr(np, name)):
                calls[_name] += 1
                return _f(x)
            monkeypatch.setattr(np, name, counted)
        omegas = np.linspace(0.5 * OMEGA0, 1.5 * OMEGA0, 257)
        for _ in photonic._backward_march(front_stack, omegas):
            pass
        types = len(set(front_stack.layers))
        assert types == 2
        assert calls == {"cos": types, "sin": types}

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


class TestGratingResponse:
    def test_zero_coupling_is_transparent(self):
        grating = photonic.UniformGrating(0.0, 5.0, 1.0, 2.0 * np.pi)
        grid = spectral.FrequencyGrid.centered(grating.omega_b, 0.05, 21)
        resp = photonic.grating_response(grating, grid)
        np.testing.assert_allclose(np.abs(resp.t), 1.0, atol=1e-14)
        np.testing.assert_allclose(resp.r, 0.0, atol=1e-14)

    def test_bragg_transmission_against_sliced_stack_oracle(self):
        # kappa L = 3; the 1e4-slice piecewise-constant profile must agree
        # with sech(3) at the coupled-mode level of validity
        grating = photonic.UniformGrating(0.05, 60.0, 1.0, 2.0 * np.pi)
        grid = spectral.FrequencyGrid.centered(grating.omega_b, 1e-5, 9)
        resp = photonic.grating_response(grating, grid)
        assert abs(resp.t[grid.count // 2]) == pytest.approx(1.0 / np.cosh(3.0), rel=1e-12)
        sliced = grating.as_layered_stack(slices_per_period=83)  # ~1e4 slices
        assert len(sliced.layers) == pytest.approx(10000, abs=100)
        t_sliced, _ = photonic.stack_t_r(sliced, grating.omega_b)
        assert abs(t_sliced) == pytest.approx(1.0 / np.cosh(3.0), rel=2e-3)

    def test_unitary_at_every_detuning(self):
        grating = photonic.UniformGrating(0.3, 20.0, 1.4, 2.0 * np.pi)
        window = 0.15 * grating.omega_b / grating.n_bar
        grid = spectral.FrequencyGrid.centered(grating.omega_b, window, 101)
        resp = photonic.grating_response(grating, grid)
        assert resp.unitarity_defect() < 1e-12

    def test_detuning_validity_enforced(self):
        grating = photonic.UniformGrating(0.3, 20.0, 1.0, 2.0 * np.pi)
        grid = spectral.FrequencyGrid.centered(grating.omega_b, 0.5 * grating.omega_b, 9)
        with pytest.raises(DetuningOutOfRangeError):
            photonic.grating_response(grating, grid)
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
        assert report.free_space_u_per_pin == 2.0
        assert report.penetration_depth is None  # flat profile, nothing decays

    def test_midgap_energy_below_free_space(self, skc_stack):
        report = photonic.stored_energy(skc_stack, OMEGA0)
        assert report.u_per_pin < report.free_space_u_per_pin
        assert np.all(report.density >= 0.0)

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
        cases = [(skc_stack, OMEGA0), (front_stack, OMEGA0)]
        cases += [
            (photonic.LayeredStack.quarter_wave(2.0, 1.5, layers, LAMBDA0), OMEGA0)
            for layers in (11, 43, 81)
        ]
        rng = np.random.default_rng(101)  # the draws of the lifetime-identity test
        for _ in range(25):
            cases.append((random_symmetric_stack(rng), 2.0 * np.pi))
        checked = 0
        for stack, omega in cases:
            try:
                band = photonic.find_stopband(stack, omega)
            except NotInStopbandError:
                continue
            lower, upper = bisection_stopband(stack, omega)
            assert band.lower == pytest.approx(lower, rel=1e-14, abs=0.0)
            assert band.upper == pytest.approx(upper, rel=1e-14, abs=0.0)
            checked += 1
        assert checked >= 10

    def test_edge_on_scan_boundary_keeps_the_scan_end(self, front_stack):
        # the scan is centred near the upper edge and half a band wide, so
        # the band runs past the scan's lower end but not past its upper one
        band = photonic.find_stopband(front_stack, OMEGA0)
        omega = band.upper - 0.2 * band.width
        factor = 0.5 * band.width / omega
        near = photonic.find_stopband(front_stack, omega, scan_factor=factor)
        lower, upper = bisection_stopband(front_stack, omega, scan_factor=factor)
        assert near.lower == lower == omega * (1.0 - factor)
        assert near.upper == pytest.approx(upper, rel=1e-14, abs=0.0)
        assert near.upper == pytest.approx(band.upper, rel=1e-14, abs=0.0)

    def test_edges_refined_in_few_marches(self, front_stack, monkeypatch):
        # one march for omega_ref, one for the scan and one per k-section
        # round; refining one frequency at a time took 74
        marches = []
        stack_t_r = photonic._stack_t_r

        def counted(stack, omegas):
            marches.append(omegas)
            return stack_t_r(stack, omegas)

        monkeypatch.setattr(photonic, "_stack_t_r", counted)
        photonic.find_stopband(front_stack, OMEGA0)
        assert len(marches) <= 10

    @pytest.mark.parametrize("case", ["front", "skc-and-pulse", "rescaled", "scan-boundary"])
    def test_windowed_scan_matches_the_full_scan(self, case, skc_stack, front_stack):
        # the skc and pulse configs share one stack and carrier; the 3.0/1.0
        # stack rescales in its march and widens the window twice, and the
        # short scan puts the lower edge on the scan's end
        scan = {}
        if case == "front":
            stack, omega = front_stack, OMEGA0
        elif case == "skc-and-pulse":
            stack, omega = skc_stack, OMEGA0
        elif case == "rescaled":
            stack, omega = photonic.LayeredStack.quarter_wave(3.0, 1.0, 2001, 1.0), 2.0 * np.pi
        else:
            stack, omega, scan = skc_stack, 1.1 * OMEGA0, {"scan_factor": 0.05}
        band = photonic.find_stopband(stack, omega, **scan)
        assert band == full_scan_stopband(stack, omega, **scan)
        if case == "scan-boundary":
            assert band.lower == omega * 0.95

    def test_narrow_band_marches_one_window(self, front_stack, monkeypatch):
        # a march of the whole scan would take 4002 frequencies
        sizes = []
        transmittance = photonic._transmittance

        def recorded(stack, omegas):
            sizes.append(np.size(omegas))
            return transmittance(stack, omegas)

        monkeypatch.setattr(photonic, "_transmittance", recorded)
        photonic.find_stopband(front_stack, OMEGA0)
        assert sizes[0] == 130
        assert sum(sizes) <= 130 + 6 * 126
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

    def test_band_wider_than_two_percent_rejected(self, skc_stack):
        band = photonic.find_stopband(skc_stack, OMEGA0)
        grid = spectral.FrequencyGrid.centered(OMEGA0, 0.05 * band.width, 33)
        with pytest.raises(ValueError):
            photonic.phase_energy_check(skc_stack, grid)
