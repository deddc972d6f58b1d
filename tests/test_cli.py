"""CLI surface: config validation, outputs, determinism, exit codes."""

from __future__ import annotations

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAMBDA0, OMEGA0
import tunneltime
from tunneltime import analysis, cli, errors, photonic, quantum, spectral, timedomain
from tunneltime.errors import NonFiniteResultError


CONFIG_DIR = Path(__file__).parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def csv_rows(path):
    """The numeric rows of a written CSV, one array row per line after the header."""
    lines = Path(path).read_text().splitlines()[1:]
    return np.array([[float(x) for x in line.split(",")] for line in lines])


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


GOLDEN_DIR = Path(__file__).parent / "golden"


def assert_matches_golden_json(got, want, path="results"):
    """Floats agree to relative 1e-10 or absolute 1e-15; every other value exactly."""
    if isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-10, abs=1e-15), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches_golden_json(got[key], want[key], f"{path}.{key}")
    else:
        assert type(got) is type(want) and got == want, path


def csv_columns(path):
    """Header and the cells of a written CSV, one list of strings per column."""
    header, *rows = Path(path).read_text().splitlines()
    return header.split(","), list(zip(*(row.split(",") for row in rows)))


class TestGoldenOutputs:
    """Every shipped config against its pinned JSON results and CSV columns.

    A CSV column agrees to relative 1e-10 or absolute 1e-13 of its largest
    magnitude: the absolute floor covers tail samples, such as the pulse
    envelope's, that are FFT roundoff of the peak.  Empty cells match exactly.
    """

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_outputs_match_the_pinned_copies(self, tmp_path, config):
        assert cli.run(str(config), output_dir=str(tmp_path)) == 0
        got = json.loads((tmp_path / f"{config.stem}.json").read_text())["results"]
        want = json.loads((GOLDEN_DIR / f"{config.stem}.json").read_text())
        assert_matches_golden_json(got, want)

        header, columns = csv_columns(tmp_path / f"{config.stem}.csv")
        want_header, want_columns = csv_columns(GOLDEN_DIR / f"{config.stem}.csv")
        assert header == want_header
        assert len(columns) == len(want_columns)
        for name, cells, want_cells in zip(header, columns, want_columns):
            assert len(cells) == len(want_cells), name
            assert [c == "" for c in cells] == [c == "" for c in want_cells], name
            values = np.array([float(c) for c in cells if c])
            expected = np.array([float(c) for c in want_cells if c])
            floor = 1e-13 * np.max(np.abs(expected), initial=0.0)
            np.testing.assert_allclose(values, expected, rtol=1e-10, atol=floor, err_msg=name)


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


SOURCES = sorted((Path(__file__).parents[1] / "src" / "tunneltime").glob("*.py"))
ORACLE_PHASE_NAMES = {"unwrap_phase", "phase_derivative", "UnwrappedPhase"}


def named(node):
    """Every name, attribute and imported name under an AST node."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


class TestNoSampledPhaseDelay:
    @pytest.fixture
    def oracle_unreachable(self, monkeypatch):
        # every reported delay has an exact route and criterion 4 unwraps the
        # march's own phase, so the sampled-phase oracle is for tests only
        def unreachable(*args, **kwargs):
            raise AssertionError("the runtime reached the sampled-phase oracle")

        for name in ("phase_derivative", "unwrap_phase", "ComplexResponse"):
            monkeypatch.setattr(spectral, name, unreachable)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_configs_never_reach_the_sampled_phase_tools(
        self, tmp_path, config, oracle_unreachable
    ):
        assert cli.run(str(config), output_dir=str(tmp_path)) == 0
        cfg = json.loads(config.read_text(encoding="utf-8"))
        if cfg["kind"] == "pulse":
            qw = cfg["stack"]["quarter_wave"]
            stack = photonic.LayeredStack.quarter_wave(
                qw["n_hi"], qw["n_lo"], qw["layer_count"], qw["lambda0"]
            )
            results = json.loads((tmp_path / f"{config.stem}.json").read_text())["results"]
            assert results["tau_g"] == photonic.group_delay(stack, cfg["omega_mid"])

    def test_grating_run_never_reaches_the_sampled_phase_tools(self, tmp_path, oracle_unreachable):
        cfg = write_config(
            tmp_path / "gr.json",
            {"kind": "grating", "grating": {"kappa": 0.3, "length": 10.0, "omega_b": 6.0},
             "delta_min": -0.5, "delta_max": 0.5, "points": 31},
        )
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0

    def test_phase_energy_check_fits_an_opaque_stack(self, oracle_unreachable):
        # |t| underflows to zero at midgap, while the march's incident
        # amplitude, rescaled by 2^-k, keeps its phase
        stack = photonic.LayeredStack.quarter_wave(3.0, 1.0, 2001, 1.0)
        omega = 2.0 * np.pi
        assert photonic.stack_t_r(stack, omega)[0] == 0.0
        band = photonic.find_stopband(stack, omega)
        grid = spectral.FrequencyGrid.centered(omega, 0.005 * band.width, 65)
        check = photonic.phase_energy_check(stack, grid)
        assert check.slope == pytest.approx(photonic.group_delay(stack, omega), rel=1e-4)
        assert check.max_residual < 1e-3

    def test_only_spectral_names_the_oracle(self):
        # and only the benchmark-traced `photonic.stack_response` builds a
        # ComplexResponse
        for path in SOURCES:
            if path.name == "spectral.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert not ORACLE_PHASE_NAMES & set(named(tree)), path.name
            holders = [node.name for node in tree.body if "ComplexResponse" in named(node)]
            assert holders == (["stack_response"] if path.name == "photonic.py" else []), path.name

    def test_cli_takes_no_private_attribute(self):
        # the CLI is a shell over the library's public names; dunders such as
        # ``__name__`` are not private
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        private = [
            f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
        ]
        assert private == []

    def test_cli_reaches_timedomain_only_through_its_two_runs(self):
        # the pulse and front runners are one library call each and build no
        # timedomain object; the sample floor is the one other name, read so
        # that a bad count is a config error before the stopband search
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        attributes = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "timedomain"
        ]
        called = {
            node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and node.func in attributes
        }
        assert called == {"propagate_spectral", "front_causality"}
        assert {node.attr for node in attributes} == called | {"MIN_PULSE_SAMPLES"}
        assert not [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("timedomain")
        ]


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
            {
                "kind": "stack",
                "stack": {"layers": [[2.0, 0.1], [1.5, 0.0]] * 4 + [[2.0, 0.1]]},
                "omega_min": 1.0,
                "omega_max": 2.0,
            },
            # a detuning range one ulp wide: no grid of positive spacing at omega_b
            {"kind": "grating", "grating": {"kappa": 6.3, "length": 11.0, "omega_b": 6.8},
             "delta_min": 0.05, "delta_max": 0.05000000000000001, "points": 39},
            {"kind": "hartman", "family": "grating", "kappa": -0.1, "lengths": [5.0, 10.0]},
            {"kind": "pulse", "stack": SKC_CONFIG["stack"], "omega_mid": OMEGA0, "samples": 7},
            # a passband carrier: the sample count is checked before the stopband search
            {"kind": "pulse", "stack": SKC_CONFIG["stack"], "omega_mid": 4.0, "samples": 4},
        ],
        ids=[
            "quantum-negative-length",
            "grating-negative-kappa",
            "zero-thickness-layer",
            "repeated-zero-thickness-layer",
            "grating-one-ulp-detuning-range",
            "hartman-negative-kappa",
            "pulse-too-few-samples",
            "pulse-too-few-samples-at-a-passband-carrier",
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

    def test_front_at_a_passband_carrier_exits_3(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "front.json").read_text(encoding="utf-8"))
        path = write_config(tmp_path / "front.json", {**cfg, "omega_mid": 0.95 * OMEGA0})
        out = tmp_path / "out"
        assert cli.run(path, output_dir=str(out)) == 3
        summary = json.loads((out / "front.json").read_text())
        assert summary["error"] == "NotInStopbandError"
        assert not (out / "front.csv").exists()

    def test_front_record_past_the_cap_exits_3(self, tmp_path, monkeypatch):
        # 1.05/1.0 x 373 resolves its band-edge ring-out only past 8192 samples
        monkeypatch.setattr(timedomain, "_RECORD_CAP", 8192)
        cfg = json.loads((CONFIG_DIR / "front.json").read_text(encoding="utf-8"))
        cfg["stack"]["quarter_wave"]["n_hi"] = 1.05
        path = write_config(tmp_path / "front.json", cfg)
        out = tmp_path / "out"
        assert cli.run(path, output_dir=str(out)) == 3
        summary = json.loads((out / "front.json").read_text())
        assert summary["error"] == "WraparoundDetectedError"
        assert "at the cap of 8192 samples" in summary["message"]
        assert not (out / "front.csv").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "hartman", "family": "grating", "kappa": 2e171, "lengths": [5.0, 10.0]},
            {"kind": "grating", "grating": {"kappa": 1e200, "length": 10.0, "omega_b": 6.0},
             "delta_min": -0.1, "delta_max": 0.1},
            {"kind": "hartman", "family": "grating", "kappa": 1e200, "omega_b": 1e250,
             "lengths": [5.0, 10.0]},
        ],
        ids=["hartman-grating", "grating", "hartman-grating-huge-omega_b"],
    )
    def test_coupling_too_large_to_square_exits_0(self, tmp_path, payload):
        # kappa^2 overflows a Python float, but no square is formed: the run
        # reads the opaque limit, tau_g = U/P_in = tanh(kappa L)/kappa at Bragg
        cfg = write_config(tmp_path / "k.json", payload)
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out)) == 0
        summary = json.loads((out / "k.json").read_text(), parse_constant=pytest.fail)
        if payload["kind"] == "grating":
            assert summary["results"]["midgap_transmission"] == 0.0
            return
        kappa = payload["kappa"]
        for length, tau_g, u_per_pin, _ in csv_rows(out / "k.csv"):
            limit = math.tanh(kappa * length) / kappa
            assert tau_g == pytest.approx(limit, rel=1e-15, abs=0.0)
            assert u_per_pin == pytest.approx(limit, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"kind": "hartman", "family": "quantum", "v0": 1e242, "energy": 0.05,
              "lengths": [0.05]}, "FloatingPointError: divide by zero"),
            # kappa L overflows, the opaque limit: tau_g is 2.28e-126, and
            # L/tau_g leaves the float range
            ({"kind": "quantum", "v0": 9.6e250, "length": 9.6e250, "energy": 2.0},
             "L/tau_g at E = 2.0 is not finite"),
            ({"kind": "pulse", "omega_mid": 1e-108,
              "stack": {"layers": [[3.56, 533.1], [4.07e135, 2.66e205]], "n_in": 1e-283}},
             "FloatingPointError: invalid value encountered in cos"),
            # above the barrier, k L overflows: the wave's phase has no value
            ({"kind": "quantum", "v0": 16.0, "length": 8.4e274, "energy": 1.3e255},
             "of rate x length is not finite"),
            # the detuning grid overflows in the runner, outside any library
            # guard: the run's own guard names the experiment
            ({"kind": "grating", "grating": {"kappa": 1.0, "length": 1.0, "n_bar": 1e-10,
                                             "omega_b": 1.0},
              "delta_min": -1e300, "delta_max": 1e300},
             "grating: FloatingPointError: overflow"),
        ],
        ids=["stored-energy-underflows", "apparent-speed-overflows", "layer-phase-overflows",
             "two-wave-phase-overflows", "runner-grid-overflows"],
    )
    def test_non_finite_intermediate_exits_3_named(self, tmp_path, payload, message):
        # a numpy overflow, invalid operation or division by zero anywhere in
        # the run is raised where it arises, not carried on as a warning
        cfg = write_config(tmp_path / "fp.json", payload)
        out = tmp_path / "out"
        assert cli.run(cfg, output_dir=str(out)) == 3
        summary = json.loads((out / "fp.json").read_text(), parse_constant=pytest.fail)
        assert summary["error"] == "NonFiniteResultError"
        assert message in summary["message"]
        assert not (out / "fp.csv").exists()

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


class TestPulseExperiment:
    def test_energy_balance_weighs_the_exit_medium(self, tmp_path):
        # this lossless stack's balance reads 0.973 if the transmitted energy
        # is not weighed by n_out/n_in
        stack = {**SKC_CONFIG["stack"], "n_out": 1.5}
        cfg = write_config(
            tmp_path / "pulse.json", {"kind": "pulse", "stack": stack, "omega_mid": OMEGA0}
        )
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0
        results = json.loads((tmp_path / "out" / "pulse.json").read_text())["results"]
        assert abs(results["energy_balance"] - 1.0) < 1e-12


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


    def test_t_is_evaluated_at_each_printed_omega(self, tmp_path):
        grating = {"kappa": 0.3, "length": 10.0, "omega_b": 6.0, "n_bar": 1.3}
        cfg = write_config(
            tmp_path / "gr.json",
            {"kind": "grating", "grating": grating, "delta_min": -0.5, "delta_max": 0.5,
             "points": 501},
        )
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0
        rows = csv_rows(tmp_path / "out" / "gr.csv")
        omegas = 6.0 + np.linspace(-0.5, 0.5, 501) / 1.3
        assert np.array_equal(rows[:, 0], omegas)
        t, r = np.array([photonic.grating_response(photonic.UniformGrating(**grating), omega)
                         for omega in omegas]).T
        assert np.array_equal(rows[:, 1:5], np.column_stack([t.real, t.imag, r.real, r.imag]))


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

    def test_unitarity_defect_weighs_transmission_between_unequal_media(self, tmp_path):
        # lossless between n_in = 1 and n_out = 1.5: (n_out/n_in)|t|^2 + |r|^2 = 1,
        # while |t|^2 + |r|^2 falls to about 0.67
        qw = {"n_hi": 2.0, "n_lo": 1.5, "layer_count": 11, "lambda0": LAMBDA0}
        cfg = write_config(
            tmp_path / "stack.json",
            {"kind": "stack", "stack": {"quarter_wave": qw, "n_in": 1.0, "n_out": 1.5},
             "omega_min": 0.8 * OMEGA0, "omega_max": 1.2 * OMEGA0, "points": 101},
        )
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0
        summary = json.loads((tmp_path / "out" / "stack.json").read_text())
        assert summary["results"]["unitarity_defect"] < 1e-12

    def test_t_is_evaluated_at_each_printed_omega(self, tmp_path):
        # on 1..10 at 501 points, 26 of the midpoint-relative frequencies
        # center + (omega - center) are one ulp off omega; every row's t and
        # r must be those at its own printed omega
        qw = {"n_hi": 2.0, "n_lo": 1.5, "layer_count": 11, "lambda0": LAMBDA0}
        cfg = write_config(
            tmp_path / "stack.json",
            {"kind": "stack", "stack": {"quarter_wave": qw}, "omega_min": 1.0,
             "omega_max": 10.0, "points": 501},
        )
        assert cli.run(cfg, output_dir=str(tmp_path / "out")) == 0
        rows = csv_rows(tmp_path / "out" / "stack.csv")
        omegas = np.linspace(1.0, 10.0, 501)
        assert np.array_equal(rows[:, 0], omegas)
        stack = photonic.LayeredStack.quarter_wave(2.0, 1.5, 11, LAMBDA0)
        t, r = photonic.stack_t_r_samples(stack, omegas)
        assert np.array_equal(rows[:, 1:5], np.column_stack([t.real, t.imag, r.real, r.imag]))


def test_front_run_marches_its_stack_by_powers_of_the_cell(tmp_path, monkeypatch):
    # a march by cells takes a step per set bit of the cell count and at most
    # one squaring between, not a step per cell
    march, faces = photonic._backward_march, []

    def counted(stack, omegas, slope=False, cells=False):
        yielded = 0
        for face in march(stack, omegas, slope, cells):
            yielded += 1
            yield face
        if cells and len(stack.layers) == 373:
            faces.append((yielded, stack))

    monkeypatch.setattr(photonic, "_backward_march", counted)
    assert cli.run(str(CONFIG_DIR / "front.json"), output_dir=str(tmp_path)) == 0
    assert faces
    for yielded, stack in faces:
        count, rest = divmod(len(stack.layers), photonic._period(stack.layers))
        assert count == 186
        assert yielded <= 2 * math.ceil(math.log2(count)) + rest + 1


def test_shipped_quarter_wave_stacks_share_one_phase():
    # the march forms one cos and one sin for both layer types of a
    # quarter-wave stack only while their n d are equal floats, so a change
    # to quarter_wave's float formula that loses the sharing fails here
    built = 0
    for path in CONFIGS:
        config = json.loads(path.read_text())
        if "quarter_wave" not in config.get("stack", {}):
            continue
        stack = cli._stack(cli._read(config["stack"], cli._STACK, "stack"))
        (n_hi, d_hi), (n_lo, d_lo) = stack.layers[:2]
        assert n_hi != n_lo
        assert n_hi * d_hi == n_lo * d_lo
        built += 1
    assert built == 4


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


def test_vectorised_magnitudes_match_python_scalars():
    # |t|^2 and |a| in the CSVs are np.float_power(np.hypot(re, im), 2.0) and
    # np.hypot(re, im), which call the libm hypot and pow that Python's
    # abs(complex) and ** 2 call; np.abs and h * h round differently in the
    # last bit, so a numpy change that breaks this moves the CSV bytes
    rng, count = np.random.default_rng(37), 200_000
    z = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * np.exp(
        rng.uniform(-30.0, 30.0, count))
    scalars = z.tolist()
    columns = cli._response_columns(np.zeros(z.size), z, z)
    assert columns["transmission"].tolist() == [abs(x) ** 2 for x in scalars]
    assert np.hypot(z.real, z.imag).tolist() == [abs(x) for x in scalars]


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


# largest value the contract gate draws for an integer key whose cost grows
# with it; every other integer key draws up to 64
CONTRACT_SIZES = {"layer_count": 2001, "samples": 8192, "points": 501}


def draw_number(data, wild):
    """A float for a config key: moderate, or with ``wild`` any magnitude or sign, or non-finite."""
    moderate = st.floats(0.05, 20.0)
    if not wild:
        return data.draw(moderate)
    return data.draw(st.one_of(
        moderate,
        st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-300, 300)),
        st.sampled_from([0.0, -1.0, float("nan"), float("inf"), float("-inf")]),
    ))


def draw_value(data, name, key, wild):
    """A value of the key's type; an integer past 64 only in one draw of four."""
    kind = key.type
    if isinstance(kind, (dict, cli._Variants)):
        return draw_table(data, kind, wild)
    if kind is float:
        return draw_number(data, wild)
    if kind is int:
        top = CONTRACT_SIZES.get(name, 64)
        small = st.integers(1, min(top, 64))
        return data.draw(st.one_of(small, small, small, st.integers(-1 if wild else 1, top)))
    if kind is str:
        return data.draw(st.text("abc_-", min_size=1, max_size=6))
    if kind is cli._layers:
        count = data.draw(st.integers(0, 8))
        return [[draw_number(data, wild), draw_number(data, wild)] for _ in range(count)]
    if kind is cli._lengths:
        return [draw_number(data, wild) for _ in range(data.draw(st.integers(1, 6)))]
    raise AssertionError(f"no contract strategy for key '{name}' of type {kind!r}")


def draw_table(data, table, wild):
    """A config object by its key table.

    Each _Variants picks one of its tables, a one-of group gets exactly one
    of its keys, and each optional key is given or left out.
    """
    cfg, keys = {}, {}
    while isinstance(table, cli._Variants):
        choice = cfg[table.key] = data.draw(st.sampled_from(list(table.tables)))
        keys.update(table.shared)
        table = table.tables[choice]
    keys.update(table)
    group = [name for name, key in keys.items() if key.default is cli._ONE_OF]
    chosen = data.draw(st.sampled_from(group)) if group else None
    for name, key in keys.items():
        if key.default is cli._ONE_OF and name != chosen:
            continue
        if key.default not in (cli._REQUIRED, cli._ONE_OF) and not data.draw(st.booleans()):
            continue
        cfg[name] = draw_value(data, name, key, wild)
    return cfg


class TestCliContract:
    # every config the key tables admit, well or badly valued, either runs to
    # finite outputs (exit 0), is a config error that writes nothing (exit 2),
    # or fails with a named TunnelTimeError in a failure JSON (exit 3)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_codes_and_outputs(self, data, tmp_path_factory):
        cfg = draw_table(data, cli._CONFIG, wild=data.draw(st.integers(0, 3)) == 0)
        root = tmp_path_factory.mktemp("contract")
        out = root / "out"
        code = cli.run(write_config(root / "cfg.json", cfg), output_dir=str(out))
        name = cfg.get("basename", "cfg")
        if code == 2:
            assert not out.exists()
            return
        written = sorted(p.name for p in out.iterdir())
        summary = json.loads((out / f"{name}.json").read_text(), parse_constant=pytest.fail)
        if code == 3:
            assert written == [f"{name}.json"]
            error = getattr(errors, summary["error"], None)
            assert isinstance(error, type) and issubclass(error, errors.TunnelTimeError), summary
            return
        assert code == 0
        assert written == sorted([f"{name}.csv", f"{name}.json"])
        cells = [cell for line in (out / f"{name}.csv").read_text().splitlines()[1:]
                 for cell in line.split(",") if cell]
        assert all(math.isfinite(float(cell)) for cell in cells)
