"""CLI surface: config validation, outputs, determinism, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import LAMBDA0, OMEGA0
import tunneltime
from tunneltime import analysis, cli, quantum


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SKC_CONFIG = {
    "kind": "skc",
    "stack": {
        "quarter_wave": {"n_hi": 2.0, "n_lo": 1.5, "layer_count": 11, "lambda0": LAMBDA0}
    },
    "omega_mid": OMEGA0,
    "report_units": {"length_scale_m": 1e-6},
}

HARTMAN_CONFIG = {
    "kind": "hartman",
    "family": "grating",
    "kappa": 0.2,
    "lengths": [5.0, 10.0, 20.0, 30.0, 50.0, 70.0, 100.0],
}


class TestListExperiments:
    def test_contains_all_seven_kinds(self):
        text = cli.list_experiments()
        for kind in ("quantum", "stack", "grating", "hartman", "pulse", "front", "skc"):
            assert kind in text

    def test_output_is_stable(self):
        assert cli.list_experiments() == cli.list_experiments()

    def test_main_list_exit_code(self, capsys):
        assert cli.main(["list"]) == 0
        assert "available experiments" in capsys.readouterr().out


class TestRunHartman:
    def test_csv_columns_and_values(self, tmp_path):
        cfg = write_config(tmp_path / "hartman.json", HARTMAN_CONFIG)
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
        lines = (tmp_path / "hartman.csv").read_text().splitlines()
        assert lines[0] == "length,tau_g,u_per_pin,apparent_speed"
        assert len(lines) == 1 + len(HARTMAN_CONFIG["lengths"])
        first = lines[1].split(",")
        assert float(first[0]) == 5.0
        # 17-significant-digit floats survive the round trip exactly
        assert float(first[1]) == pytest.approx(np.tanh(0.2 * 5.0) / 0.2, rel=1e-9)

    def test_determinism_across_thread_counts(self, tmp_path):
        cfg = write_config(tmp_path / "hartman.json", HARTMAN_CONFIG)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert cli.run(cfg, output_dir=str(dir_a), threads=1) == 0
        assert cli.run(cfg, output_dir=str(dir_b), threads=4) == 0
        assert (dir_a / "hartman.csv").read_bytes() == (dir_b / "hartman.csv").read_bytes()

    def test_rows_and_summary_are_the_library_sweep(self, tmp_path):
        cfg = write_config(tmp_path / "hartman.json", HARTMAN_CONFIG)
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
        sweep = analysis.hartman_sweep(analysis.GratingFamily(0.2), HARTMAN_CONFIG["lengths"])
        rows = [
            [float(cell) for cell in line.split(",")]
            for line in (tmp_path / "hartman.csv").read_text().splitlines()[1:]
        ]
        expected = np.column_stack(
            (sweep.lengths, sweep.tau_g, sweep.u_per_pin, sweep.apparent_speed)
        )
        assert np.array_equal(np.array(rows), expected)
        results = json.loads((tmp_path / "hartman.json").read_text())["results"]
        assert results["tail_relative_change"] == sweep.tail_relative_change
        assert results["proportionality_ratio_last"] == sweep.proportionality_ratio[-1]

    def test_json_summary_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "hartman.json", HARTMAN_CONFIG)
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
        report = json.loads((tmp_path / "hartman.json").read_text())
        assert report["config"] == HARTMAN_CONFIG
        assert report["determinism_seed"] == 0
        assert report["version"]
        # serializable round trip: emit -> parse -> emit is stable
        assert json.loads(json.dumps(report)) == report


class TestConfigErrors:
    def test_missing_key_exits_2_and_writes_nothing(self, tmp_path):
        bad = dict(HARTMAN_CONFIG)
        del bad["lengths"]
        cfg = write_config(tmp_path / "bad.json", bad)
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out)) == 2
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(HARTMAN_CONFIG)
        bad["velocity"] = 3.0
        cfg = write_config(tmp_path / "bad.json", bad)
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 2

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", {"kind": "warp"})
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 2

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.run(str(path), output_dir=str(tmp_path / "out")) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert cli.run(str(tmp_path / "absent.json")) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {
                "kind": "grating",
                "grating": {"kappa": float("nan"), "length": 10.0, "omega_b": 6.0},
                "delta_min": -0.1,
                "delta_max": 0.1,
            },
            {
                "kind": "stack",
                "stack": {"layers": [[2.0, 0.1]], "n_in": float("inf")},
                "omega_min": 1.0,
                "omega_max": 2.0,
            },
        ],
        ids=["nan-kappa", "infinite-n_in"],
    )
    def test_non_finite_number_exits_2_and_writes_nothing(self, tmp_path, payload):
        cfg = write_config(tmp_path / "bad.json", payload)  # json.dumps emits NaN/Infinity
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out)) == 2
        assert not out.exists()


class TestNumericalFailure:
    def test_exit_3_names_module_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "gr.json",
            {
                "kind": "grating",
                "grating": {"kappa": 0.3, "length": 10.0, "omega_b": 6.0},
                "delta_min": -3.0,
                "delta_max": 3.0,  # far outside coupled-mode validity
            },
        )
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out)) == 3
        summary = json.loads((out / "gr.json").read_text())
        assert summary["error"] == "DetuningOutOfRangeError"
        assert not (out / "gr.csv").exists()

    def test_opaque_quantum_barrier_names_zero_amplitude(self, tmp_path):
        # kappa L = 1414: tau_d is exact, but |t| underflows, so tau_g has no phase
        cfg = write_config(
            tmp_path / "q.json", {"kind": "quantum", "v0": 2, "length": 1000, "energy": 1}
        )
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out)) == 3
        summary = json.loads((out / "q.json").read_text(), parse_constant=pytest.fail)
        assert summary["error"] == "ZeroAmplitudeError"
        assert not (out / "q.csv").exists()

    def test_non_finite_result_exits_3_without_csv(self, tmp_path, monkeypatch):
        real = quantum.delay_report

        def nan_delay(barrier, energy):
            report = real(barrier, energy)
            return quantum.DelayReport(
                tau_g=float("nan"),
                tau_d=report.tau_d,
                tau_i=report.tau_i,
                front_time=report.front_time,
                apparent_speed=None,
                apparent_superluminal=False,
            )

        monkeypatch.setattr(quantum, "delay_report", nan_delay)
        cfg = write_config(
            tmp_path / "q.json", {"kind": "quantum", "v0": 2.0, "length": 3.0, "energy": 1.0}
        )
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out)) == 3
        # strict JSON: a bare NaN or Infinity fails the parse
        summary = json.loads((out / "q.json").read_text(), parse_constant=pytest.fail)
        assert summary["error"] == "NonFiniteResultError"
        assert "tau_g" in summary["message"]
        assert not (out / "q.csv").exists()


class TestSkcExperiment:
    def test_summary_reports_regime(self, tmp_path):
        cfg = write_config(tmp_path / "skc.json", SKC_CONFIG)
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0
        summary = json.loads((tmp_path / "out" / "skc.json").read_text())
        results = summary["results"]
        assert 1.4 <= results["apparent_speed"] <= 2.0
        assert results["advance"] == pytest.approx(
            results["u_free"] - results["u_barrier"], rel=1e-6
        )
        # femtosecond conversions from the declared micron scale
        assert results["barrier_delay_fs"] == pytest.approx(
            results["barrier_delay"] * 1e-6 / 299792458.0 * 1e15, rel=1e-12
        )
        assert "interpretation" in results

    def test_csv_format_option(self, tmp_path):
        cfg = write_config(tmp_path / "skc.json", SKC_CONFIG)
        out = tmp_path / "csv_only"
        assert cli.run(cfg, output_dir=str(out), out_format="csv") == 0
        assert (out / "skc.csv").exists()
        assert not (out / "skc.json").exists()


class TestQuantumExperiment:
    def test_row_matches_library_report(self, tmp_path):
        cfg = write_config(
            tmp_path / "q.json",
            {"kind": "quantum", "v0": 2.0, "length": 3.0, "energy": 1.0},
        )
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0
        lines = (tmp_path / "out" / "q.csv").read_text().splitlines()
        assert lines[0] == "tau_g,tau_d,tau_i,front_time,apparent_speed"
        values = [float(x) for x in lines[1].split(",")]
        report = quantum.delay_report(quantum.QuantumBarrier(2.0, 3.0), 1.0)
        assert values[0] == report.tau_g  # 17 significant digits are exact
        assert values[1] == report.tau_d
        assert values[4] == report.apparent_speed


class TestGratingExperiment:
    @pytest.mark.parametrize("length", [10.0, 1000.0, 2500.0])  # kappa L = 3, 300, 750
    def test_midgap_transmission_is_sech_squared(self, tmp_path, length):
        cfg = write_config(
            tmp_path / "gr.json",
            {
                "kind": "grating",
                "grating": {"kappa": 0.3, "length": length, "omega_b": 6.0},
                "delta_min": -0.5,
                "delta_max": 0.5,
                "points": 11,
            },
        )
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out)) == 0
        summary = json.loads((out / "gr.json").read_text())
        kappa_l = 0.3 * length
        # past kappa L ~ 710 cosh overflows and sech^2 underflows to zero
        expected = 1.0 / np.cosh(kappa_l) ** 2 if kappa_l < 700.0 else 0.0
        assert summary["results"]["midgap_transmission"] == pytest.approx(
            expected, rel=1e-14, abs=0.0
        )


class TestStackExperiment:
    def test_response_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path / "stack.json",
            {
                "kind": "stack",
                "stack": {
                    "quarter_wave": {
                        "n_hi": 2.0, "n_lo": 1.5, "layer_count": 11, "lambda0": LAMBDA0
                    }
                },
                "omega_min": 0.8 * OMEGA0,
                "omega_max": 1.2 * OMEGA0,
                "points": 101,
            },
        )
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out)) == 0
        lines = (out / "stack.csv").read_text().splitlines()
        assert lines[0] == "omega,t_re,t_im,r_re,r_im,transmission"
        assert len(lines) == 102
        summary = json.loads((out / "stack.json").read_text())
        assert summary["results"]["unitarity_defect"] < 1e-12


def test_import_does_not_load_scipy_integrate():
    # the field integrals are closed forms, pulse responses are sampled on
    # the FFT grid and only the wave-packet oracle imports scipy's tridiagonal
    # solver, when it runs; every CLI call pays for what the package imports
    src = str(Path(tunneltime.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, tunneltime, tunneltime.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
