"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all
together) and then asserts, so the suite both reports and gates.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import OMEGA0, random_symmetric_stack
from tunneltime import analysis, cli, photonic, quantum, spectral, timedomain

KAPPA = np.sqrt(2.0)  # v0 = 2, E = 1


def report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {name} ({detail})")
    assert ok, f"criterion {number} failed: {name}: {detail}"


def test_criterion_01_hartman_effect_quantum():
    tau_10 = quantum.group_delay(quantum.QuantumBarrier(2.0, 10.0 / KAPPA), 1.0)
    tau_20 = quantum.group_delay(quantum.QuantumBarrier(2.0, 20.0 / KAPPA), 1.0)
    rel = abs(tau_10 - tau_20) / abs(tau_20)
    speed_10 = (10.0 / KAPPA) / tau_10
    speed_20 = (20.0 / KAPPA) / tau_20
    linear = abs(speed_20 / speed_10 - 2.0)
    ok = rel < 1e-6 and linear < 1e-5
    report(
        1,
        "quantum delay saturates while length/delay grows linearly",
        ok,
        f"delay rel change {rel:.2e}, speed-ratio deviation {linear:.2e}",
    )


def test_criterion_02_hartman_effect_photonic():
    family = analysis.GratingFamily(kappa=0.2)
    tau_10 = family.delay(10.0 / 0.2)
    tau_20 = family.delay(20.0 / 0.2)
    rel = abs(tau_10 - tau_20) / abs(tau_20)
    ok = rel < 1e-6
    report(2, "grating delay saturates at the Bragg frequency", ok, f"rel change {rel:.2e}")


def test_criterion_03_lifetime_identity_random_stacks():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        stack = random_symmetric_stack(rng)
        try:
            omega = photonic.find_stopband(stack, 2.0 * np.pi).center
        except Exception:
            omega = 2.0 * np.pi
        tau = photonic.group_delay(stack, omega)
        u = photonic.stored_energy(stack, omega)
        worst = max(worst, abs(tau - u) / abs(u))
    ok = worst < 1e-6
    report(
        3,
        "group delay equals stored energy per input power (100 random stacks)",
        ok,
        f"worst relative difference {worst:.2e}",
    )


def test_criterion_04_phase_linearity(skc_stack):
    band = photonic.find_stopband(skc_stack, OMEGA0)
    grid = spectral.FrequencyGrid.centered(OMEGA0, 0.005 * band.width, 65)
    check = photonic.phase_energy_check(skc_stack, grid)
    ok = check.max_residual < 1e-3
    report(
        4,
        "transmission phase is linear over a 1% midgap band",
        ok,
        f"max residual {check.max_residual:.2e} rad",
    )


def test_criterion_05_quasistatic_law(skc_stack):
    band = photonic.find_stopband(skc_stack, OMEGA0)
    result = timedomain.propagate_spectral(skc_stack, OMEGA0, 0.01 * band.width, 1024)
    tau_g = photonic.group_delay(skc_stack, OMEGA0)
    peak_rel = abs(result.peak_delay - tau_g) / tau_g
    ok = (
        result.quasistatic_deviation < 0.01
        and abs(result.width_ratio - 1.0) < 0.01
        and peak_rel < 0.01
    )
    report(
        5,
        "narrowband pulse transits undistorted with the group delay",
        ok,
        f"deviation {result.quasistatic_deviation:.2e}, width ratio "
        f"{result.width_ratio:.6f}, peak vs tau_g {peak_rel:.2e}",
    )


def test_criterion_06_front_causality(front_stack):
    run = timedomain.front_causality(front_stack, OMEGA0)
    tau_g = photonic.group_delay(front_stack, OMEGA0)
    ok = (
        run.pre_front_fraction < 1e-4
        and run.vacuum_floor < 1e-8
        and tau_g < front_stack.total_length
    )
    report(
        6,
        "no transmitted energy precedes the front while tau_g < L",
        ok,
        f"pre-front {run.pre_front_fraction:.2e}, vacuum floor "
        f"{run.vacuum_floor:.2e}, tau_g/L "
        f"{tau_g / front_stack.total_length:.3f}",
    )


def test_criterion_07_skc_regime(skc_stack):
    rep = analysis.skc_report(skc_stack, OMEGA0)
    energy_route = rep.u_free - rep.u_barrier
    rel = abs(rep.advance - energy_route) / abs(energy_route)
    ok = 1.4 <= rep.apparent_speed <= 2.0 and rel < 1e-6
    report(
        7,
        "documented 11-layer stack lands at the measured mirror-shift regime",
        ok,
        f"apparent speed {rep.apparent_speed:.3f}, advance-vs-energy rel {rel:.2e}",
    )


def test_criterion_08_energy_saturation():
    kappa = 0.2
    family = analysis.GratingFamily(kappa=kappa)
    u_l = family.stored(10.0 / kappa)
    u_2l = family.stored(20.0 / kappa)
    sat = abs(u_2l - u_l) / u_l
    lengths = [kl / kappa for kl in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)]
    curve = analysis.energy_saturation(family, lengths)
    depth_rel = abs(curve.fitted_depth - curve.field_depth) / curve.field_depth
    ok = sat < 1e-4 and depth_rel < 0.05
    report(
        8,
        "stored energy saturates with the field penetration depth",
        ok,
        f"doubling change {sat:.2e}, fitted vs Bloch depth rel {depth_rel:.2e}",
    )


@pytest.mark.slow
def test_criterion_09_tdse_oracle_agreement():
    barrier = quantum.QuantumBarrier(2.0, 5.0 / KAPPA)
    packet = timedomain.GaussianPacket(
        k0=KAPPA, delta_k=0.02 * KAPPA, x0=-8.0 / (2.0 * 0.02 * KAPPA)
    )
    result = timedomain.tdse_oracle(barrier, packet)
    tau_g = quantum.analytic_group_delay(barrier, 1.0)
    tau_hat = result.delay + barrier.length / KAPPA
    rel = abs(tau_hat - tau_g) / tau_g
    ok = rel < 0.05 and result.norm_error < 1e-8
    report(
        9,
        "wave-packet integration reproduces the analytic group delay",
        ok,
        f"tau_g rel err {rel:.2e}, norm error {result.norm_error:.2e}",
    )


def test_criterion_10_conservation_suites(skc_stack):
    rng = np.random.default_rng(77)
    worst_quantum = 0.0
    for _ in range(1000):
        v0 = rng.uniform(0.2, 10.0)
        energy = rng.uniform(0.01, 0.99) * v0
        length = rng.uniform(0.0, 15.0 / np.sqrt(2.0 * (v0 - energy)))
        t, r = quantum.scatter(quantum.QuantumBarrier(v0, length), energy)
        worst_quantum = max(worst_quantum, abs(abs(t) ** 2 + abs(r) ** 2 - 1.0))

    from conftest import random_stack

    grid = spectral.FrequencyGrid.centered(6.0, 2.0, 21)
    worst_stack = 0.0
    for _ in range(1000):
        resp = photonic.stack_response(random_stack(rng), grid)
        worst_stack = max(worst_stack, spectral.unitarity_defect(resp.t, resp.r, 1.0))

    band = photonic.find_stopband(skc_stack, OMEGA0)
    run = timedomain.propagate_spectral(skc_stack, OMEGA0, 0.02 * band.width, 1024)
    energy_err = abs(run.energy_balance - 1.0)
    ok = worst_quantum < 1e-12 and worst_stack < 1e-12 and energy_err < 1e-8
    report(
        10,
        "flux/unitarity to 1e-12 and pulse-energy bookkeeping to 1e-8",
        ok,
        f"quantum {worst_quantum:.2e}, stacks {worst_stack:.2e}, pulse {energy_err:.2e}",
    )


def test_criterion_11_determinism(tmp_path):
    config = {
        "kind": "hartman",
        "family": "grating",
        "kappa": 0.2,
        "lengths": [5.0, 10.0, 20.0, 30.0, 50.0, 70.0, 100.0],
    }
    cfg = tmp_path / "hartman.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    dir_one = tmp_path / "one"
    dir_many = tmp_path / "many"
    assert cli.run(str(cfg), output_dir=str(dir_one), threads=1) == 0
    assert cli.run(str(cfg), output_dir=str(dir_many), threads=8) == 0
    same = (dir_one / "hartman.csv").read_bytes() == (dir_many / "hartman.csv").read_bytes()
    report(11, "identical configs give byte-identical CSVs at any thread count",
           same, "1 thread vs 8 threads")
