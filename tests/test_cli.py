"""CLI surface: config validation, outputs, determinism, exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import LAMBDA0, OMEGA0
import tunneltime
from tunneltime import analysis, cli, photonic, quantum, spectral
from tunneltime.errors import NonFiniteResultError


CONFIG_DIR = Path(__file__).parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def key_paths(cfg, prefix=()):
    """Every key path of a config, nested objects included."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def replaced(cfg, path, value):
    """Deep copy of a config with the value at a key path replaced."""
    cfg = json.loads(json.dumps(cfg))
    inner = cfg
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return cfg


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

QUANTUM_CONFIG = {"kind": "quantum", "v0": 2.0, "length": 3.0, "energy": 1.0}


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


    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_names_every_key_of_the_shipped_configs(self, tmp_path, config):
        cfg = json.loads(config.read_text(encoding="utf-8"))
        assert cli.run(str(config), output_dir=str(tmp_path)) == 0
        lines = cli.list_experiments().splitlines()
        keys_line = dict(zip((line.split()[0] for line in lines[1::2]), lines[2::2]))
        line = keys_line[cfg["kind"]]
        assert "config keys:" in line
        listed = set(re.findall(r"\w+", line))
        assert {path[-1] for path in key_paths(cfg)} <= listed


class TestNoSampledPhaseDelay:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_configs_never_reach_the_sampled_phase_tools(
        self, tmp_path, config, monkeypatch
    ):
        # every reported delay has an exact route; the sampled-phase oracle
        # is for tests and the phase-energy check only
        def unreachable(*args, **kwargs):
            raise AssertionError("a shipped config reached the sampled-phase oracle")

        monkeypatch.setattr(spectral, "phase_derivative", unreachable)
        monkeypatch.setattr(spectral, "unwrap_phase", unreachable)
        assert cli.run(str(config), output_dir=str(tmp_path)) == 0
        cfg = json.loads(config.read_text(encoding="utf-8"))
        if cfg["kind"] == "pulse":
            qw = cfg["stack"]["quarter_wave"]
            stack = photonic.LayeredStack.quarter_wave(
                qw["n_hi"], qw["n_lo"], qw["layer_count"], qw["lambda0"]
            )
            results = json.loads((tmp_path / f"{config.stem}.json").read_text())["results"]
            assert results["tau_g"] == photonic.group_delay(stack, cfg["omega_mid"])


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


    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "quantum", "v0": 2.0, "length": -1, "energy": 1.0},
            {
                "kind": "grating",
                "grating": {"kappa": -0.1, "length": 10.0, "omega_b": 6.0},
                "delta_min": -0.1,
                "delta_max": 0.1,
            },
            {
                "kind": "stack",
                "stack": {"layers": [[2.0, 0.1], [1.5, 0.0]]},
                "omega_min": 1.0,
                "omega_max": 2.0,
            },
            {"kind": "hartman", "family": "grating", "kappa": -0.1, "lengths": [5.0, 10.0]},
        ],
        ids=[
            "quantum-negative-length",
            "grating-negative-kappa",
            "zero-thickness-layer",
            "hartman-negative-kappa",
        ],
    )
    def test_library_constructor_error_exits_2_and_writes_nothing(self, tmp_path, payload):
        cfg = write_config(tmp_path / "bad.json", payload)
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, options, message",
        [
            ({"kind": "quantum", "v0": 0, "length": 1.0, "energy": 1.0}, {},
             "'v0' must be positive"),
            ({"kind": "stack", "stack": {"layers": [[1.5]]}, "omega_min": 1.0, "omega_max": 2.0},
             {}, "'stack.layers' must be"),
            ({"kind": "stack", "stack": {"layers": [[1.5, 0.1]]}, "omega_min": 2.0,
              "omega_max": 2.0}, {}, "omega_max > omega_min"),
            ({"kind": "stack", "stack": {"layers": [[1.5, 0.1]]}, "omega_min": 1.0,
              "omega_max": 2.0, "points": 3}, {}, "points >= 5"),
            ({"kind": "grating", "grating": {"kappa": 0.3, "length": 10.0, "omega_b": 6.0},
              "delta_min": 0.1, "delta_max": -0.1}, {}, "delta_max > delta_min"),
            (QUANTUM_CONFIG, {"threads": 0}, "threads must be >= 1"),
            (QUANTUM_CONFIG, {"out_format": "xml"}, "format must be"),
        ],
        ids=["zero-v0", "one-number-layer", "empty-omega-range", "three-points",
             "reversed-delta-range", "zero-threads", "xml-format"],
    )
    def test_out_of_range_input_exits_2_and_writes_nothing(
        self, tmp_path, capsys, payload, options, message
    ):
        cfg = write_config(tmp_path / "bad.json", payload)
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out), **options) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_boolean_layer_entry_exits_2(self, tmp_path):
        payload = {
            "kind": "stack",
            "stack": {"layers": [[True, 0.1]]},
            "omega_min": 1.0,
            "omega_max": 2.0,
        }
        out = tmp_path / "out"
        assert cli.run(write_config(tmp_path / "bad.json", payload), output_dir=str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_wrong_typed_values_exit_2_and_write_nothing(self, tmp_path, config):
        # every key path, nested ones and "kind" included, holding a value of
        # each JSON type that no key accepts there; a JSON boolean is not a number
        cfg = json.loads(config.read_text(encoding="utf-8"))
        path = tmp_path / config.name
        failed = []
        for keys in key_paths(cfg):
            for value in (True, "x", None, [], {}):
                write_config(path, replaced(cfg, keys, value))
                out = tmp_path / f"out-{'.'.join(keys)}-{json.dumps(value)}"
                code = cli.run(str(path), output_dir=str(out))
                if code != 2 or out.exists():
                    failed.append((".".join(keys), value, code))
        assert failed == []


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

    def test_pulse_band_reaching_nonpositive_frequencies_exits_3(self, tmp_path):
        # 8192 samples widen the shipped pulse's FFT band past omega = 0
        cfg = json.loads((CONFIG_DIR / "pulse.json").read_text(encoding="utf-8"))
        path = write_config(tmp_path / "pulse.json", {**cfg, "samples": 8192})
        out = tmp_path / "out"
        assert cli.run(path, output_dir=str(out)) == 3
        summary = json.loads((out / "pulse.json").read_text())
        assert summary["error"] == "BandTooNarrowError"
        assert not (out / "pulse.csv").exists()

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

    def test_empty_stack_leaves_apparent_speed_empty(self, tmp_path):
        # no layers, no delay: the apparent speed is undefined, as for a
        # zero-length quantum barrier
        cfg = write_config(
            tmp_path / "skc.json", {"kind": "skc", "stack": {"layers": []}, "omega_mid": 6}
        )
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0
        assert (tmp_path / "out" / "skc.csv").read_text().splitlines()[1] == "0,0,0,0,"
        results = json.loads((tmp_path / "out" / "skc.json").read_text())["results"]
        assert results["apparent_speed"] is None
        assert results["advance"] == 0.0

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

    def test_zero_length_barrier_leaves_apparent_speed_empty(self, tmp_path):
        # with no delay the apparent speed is undefined: None in the report,
        # null in the JSON and an empty cell in the CSV
        cfg = write_config(
            tmp_path / "q.json", {"kind": "quantum", "v0": 2.0, "length": 0.0, "energy": 1.0}
        )
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0
        assert (tmp_path / "out" / "q.csv").read_text().splitlines()[1] == "0,0,0,0,"
        summary = json.loads((tmp_path / "out" / "q.json").read_text())
        assert summary["results"]["apparent_speed"] is None


    def test_opaque_barrier_gives_the_saturated_delay(self, tmp_path):
        # kappa L = 1414: |t| underflows, yet tau_g is the opaque limit
        # 2/(k kappa) = 1 and tau_d = 1/(k kappa) = 0.5
        cfg = write_config(
            tmp_path / "q.json", {"kind": "quantum", "v0": 2, "length": 1000, "energy": 1}
        )
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0
        results = json.loads((tmp_path / "out" / "q.json").read_text())["results"]
        assert results["tau_g"] == pytest.approx(1.0, rel=1e-12)
        assert results["tau_d"] == pytest.approx(0.5, rel=1e-12)


class TestHartmanLimit:
    """The paper's opaque limit through the CLI: finite delays where |t| underflows."""

    @pytest.mark.parametrize(
        "config, saturated",
        [
            ({"kind": "quantum", "v0": 2, "length": 1000, "energy": 1}, 1.0),
            ({"kind": "hartman", "family": "quantum", "v0": 2, "energy": 1,
              "lengths": [10, 100, 300, 1000]}, 1.0),
            ({"kind": "hartman", "family": "grating", "kappa": 0.2,
              "lengths": [50, 500, 5000]}, 5.0),
        ],
        ids=["quantum", "hartman-quantum", "hartman-grating"],
    )
    def test_delay_saturates_and_apparent_speed_grows_with_length(
        self, tmp_path, config, saturated
    ):
        cfg = write_config(tmp_path / "opaque.json", config)
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
        lines = (tmp_path / "opaque.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        lengths = rows[:, 0] if "length" in header else np.array([config["length"]])
        tau_g = rows[:, header.index("tau_g")]
        speed = rows[:, header.index("apparent_speed")]
        # every length has kappa L >= 10, so each delay sits at the limit
        np.testing.assert_allclose(tau_g, saturated, rtol=1e-8)
        np.testing.assert_allclose(speed, lengths / saturated, rtol=1e-8)


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


def modules_loaded_by_cli_import(package):
    """Modules of ``package`` that a fresh ``import tunneltime, tunneltime.cli`` loads."""
    src = str(Path(tunneltime.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, tunneltime, tunneltime.cli; "
        f"print([m for m in sys.modules if m == {package!r} or m.startswith({package!r} + '.')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_import_does_not_load_scipy_integrate():
    # the field integrals are closed forms, pulse responses are sampled on
    # the FFT grid and only the wave-packet oracle imports scipy's tridiagonal
    # solver, when it runs; every CLI call pays for what the package imports
    assert modules_loaded_by_cli_import("scipy") == "[]"


def test_import_does_not_load_concurrent_futures():
    # only the wave-packet oracle runs a worker thread, and it imports the
    # executor when it runs (about 8 ms that no CLI experiment needs)
    assert modules_loaded_by_cli_import("concurrent") == "[]"


def test_csv_text_matches_per_cell_rendering():
    # the CSV bytes of every config rest on this rendering: each value
    # through float() and format(..., ".17g"), None as an empty cell, one
    # row per line
    columns = {
        "list": [-0.0, 5e-324, 1e300, 1, 0.1],
        "array": np.array([1.0 / 3.0, -2.5e-308, 123456789012345678.0, 7.0, -1e-17]),
        "scalars": [np.float64(0.2), np.float64(-0.0), 2**60, np.float64(5e-324), 3.0],
        "with_none": [None, 2.5, -0.0, None, 1e-300],
    }
    expected = ",".join(columns) + "\n" + "".join(
        ",".join("" if value is None else format(float(value), ".17g") for value in row) + "\n"
        for row in zip(*columns.values())
    )
    assert cli._csv_text(columns, float_arrays(columns)) == expected


def float_arrays(columns):
    """Each column as the float array `cli.run` converts it to once."""
    return {key: np.asarray(values, dtype=float) for key, values in columns.items()}


def check_finite(columns, summary):
    cli._check_finite(columns, float_arrays(columns), summary)


def test_check_finite_names_the_first_non_finite_value():
    good = [0.5, -0.0, 1e300]
    with pytest.raises(NonFiniteResultError, match="result 'b' is nan"):
        check_finite({"a": good, "b": [1.0, float("nan"), 2.0], "c": [float("inf")] * 3}, {})
    with pytest.raises(NonFiniteResultError, match="result 'array' is -inf"):
        check_finite({"a": good, "array": np.array([1.0, 2.0, -np.inf])}, {})
    with pytest.raises(NonFiniteResultError, match="result 'mixed' is nan"):
        check_finite({"mixed": [None, float("nan"), 1.0]}, {})
    with pytest.raises(NonFiniteResultError, match="result 'tau_g' is nan"):
        check_finite({"a": good}, {"kind": "skc", "tau_g": float("nan")})
    # None is an empty cell, not a failure, in a column and in the summary alike
    check_finite({"a": good, "speed": [None, 2.0, None]}, {"speed": None, "ok": True})
