"""Command-line surface: validated JSON configs in, CSV + JSON summaries out.

The core modules work in natural units (hbar = m = 1 for matter waves,
c = 1 for light); configs carry values in those units.  A config may declare
``report_units.length_scale_m`` (meters per length unit), in which case the
JSON summary also echoes femtosecond conversions of every reported time --
unit conversion lives here and nowhere else.

Each experiment declares its config keys once, in a key table giving each
key's type, default and positivity, nested objects included.  That table
drives validation of the whole config before any computation, the
unknown-key errors and the ``tunneltime list`` text.

Exit codes: 0 success, 2 config error (a missing, unknown or wrongly typed
key -- a JSON boolean is not a number --, a NaN or infinite number, or a
value a library constructor rejects; nothing is written), 3 numerical
failure (the failing error class is named in the JSON summary; a NaN or
infinite result is one, and so is a Python ``ArithmeticError`` such as an
overflowing float power, or a numpy overflow, invalid operation or division
by zero anywhere in the run, reported as ``NonFiniteResultError``).  Outputs
are deterministic: identical configs produce byte-identical CSVs, with
floats printed at 17 significant digits.
``threads`` is validated but sweeps run serially, so every thread count
gives the same bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__, analysis, photonic, quantum, spectral, timedomain
from .errors import NonFiniteResultError, TunnelTimeError

_SPEED_OF_LIGHT_M_PER_S = 299792458.0


class ConfigError(Exception):
    """Invalid, unreadable, or unknown configuration."""


# -- key tables ---------------------------------------------------------------
#
# A key table maps each key of one JSON object to a _Key.  A nested object
# is a _Key whose type is its own table; _Variants picks the table by the
# string value of one key (``kind``, hartman's ``family``).

_REQUIRED = object()  # default of a key that must be given
_ONE_OF = object()  # default of each key of a group that takes exactly one


class _Key(NamedTuple):
    """Type (float, int, str, a list reader or a nested table), default and
    positivity of one config key; an optional key without a value reads None."""

    type: Any
    default: Any = _REQUIRED
    positive: bool = False


class _Variants(NamedTuple):
    """Key tables picked by the string value of ``key``, plus shared keys."""

    key: str
    tables: Dict[str, Any]
    shared: Dict[str, _Key]


def _scalar(value, key: _Key, path: str):
    kind = key.type
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"key '{path}' must be {kind.__name__}")
    if kind is float:
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"key '{path}' must be finite")
    if key.positive and not value > 0:
        raise ConfigError(f"key '{path}' must be positive")
    return value


def _layers(value, path: str):
    if not isinstance(value, list) or not all(isinstance(p, list) and len(p) == 2 for p in value):
        raise ConfigError(f"'{path}' must be a list of [index, thickness] pairs")
    return tuple(
        tuple(_scalar(x, _Key(float), f"{path}[{i}]") for x in pair) for i, pair in enumerate(value)
    )


def _lengths(value, path: str):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{path}' must be a non-empty list of positive finite numbers")
    return [_scalar(x, _POSITIVE, f"{path}[{i}]") for i, x in enumerate(value)]


def _value(cfg: dict, name: str, key: _Key, where: str):
    path = f"{where}.{name}" if where else name
    if name not in cfg:
        if key.default is _REQUIRED:
            raise ConfigError(f"missing required key '{path}'")
        return None if key.default is _ONE_OF else key.default
    if isinstance(key.type, dict):
        return _read(cfg[name], key.type, path)
    if key.type in (float, int, str):
        return _scalar(cfg[name], key, path)
    return key.type(cfg[name], path)


def _read(cfg, table, where: str = "") -> dict:
    """Validated values of one JSON object by its table, defaults filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object")
    keys: Dict[str, _Key] = {}
    values = {}
    while isinstance(table, _Variants):
        choice = values[table.key] = _value(cfg, table.key, _Key(str), where)
        if choice not in table.tables:
            raise ConfigError(f"'{table.key}' must be one of: {', '.join(table.tables)}")
        keys.update(table.shared)
        table = table.tables[choice]
    keys.update(table)
    unknown = sorted(set(cfg) - set(keys) - set(values))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where or 'config'}: {', '.join(unknown)}")
    one_of = [name for name, key in keys.items() if key.default is _ONE_OF]
    if one_of and sum(name in cfg for name in one_of) != 1:
        raise ConfigError(f"'{where}' needs exactly one of: {', '.join(one_of)}")
    for name, key in keys.items():
        values[name] = _value(cfg, name, key, where)
    return values


def _render(table) -> str:
    """The keys of a table as ``tunneltime list`` prints them."""
    if isinstance(table, _Variants):
        choices = "|".join(f"{value}({_render(keys)})" for value, keys in table.tables.items())
        return f"{table.key}={choices}, {_render(table.shared)}"
    parts, previous = [], None
    for name, key in table.items():
        text = f"{name}{{{_render(key.type)}}}" if isinstance(key.type, dict) else name
        if key.default is _ONE_OF and previous is _ONE_OF:
            parts[-1] += f"|{text}"
        elif key.default is _REQUIRED or key.default is _ONE_OF:
            parts.append(text)
        else:
            parts.append(f"[{text}]" if key.default is None else f"[{text}={key.default}]")
        previous = key.default
    return ", ".join(parts)


_POSITIVE = _Key(float, positive=True)
_STACK = {
    "layers": _Key(_layers, _ONE_OF),
    "quarter_wave": _Key(
        {"n_hi": _POSITIVE, "n_lo": _POSITIVE, "layer_count": _Key(int, positive=True),
         "lambda0": _POSITIVE},
        _ONE_OF,
    ),
    "n_in": _Key(float, 1.0, True),
    "n_out": _Key(float, 1.0, True),
}
_COMMON = {"basename": _Key(str, None), "report_units": _Key({"length_scale_m": _POSITIVE}, None)}


def _build(make: Callable, *args, **kwargs):
    """A library object from config values; its ValueError is a config error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _stack(v: dict) -> photonic.LayeredStack:
    sides, qw = {"n_in": v["n_in"], "n_out": v["n_out"]}, v["quarter_wave"]
    if qw is None:
        return _build(photonic.LayeredStack, v["layers"], **sides)
    return _build(photonic.LayeredStack.quarter_wave,
                  qw["n_hi"], qw["n_lo"], qw["layer_count"], qw["lambda0"], **sides)


# -- experiment runners ------------------------------------------------------
#
# A runner takes the validated values of its table and returns the CSV
# columns (name -> one value per row) and the JSON summary.

def _row(values: dict, *names: str) -> dict:
    return {name: [values[name]] for name in names}


def _run_quantum(v: dict):
    barrier = _build(quantum.QuantumBarrier, v["v0"], v["length"])
    summary = dataclasses.asdict(quantum.delay_report(barrier, v["energy"]))
    return _row(summary, "tau_g", "tau_d", "tau_i", "front_time", "apparent_speed"), summary


# |t|, |a| are taken per element, as Python scalars: numpy's vectorised complex
# abs rounds differently in the last bit, which would move the CSV bytes
def _response_columns(omegas, t, r) -> dict:
    return {"omega": omegas, "t_re": t.real, "t_im": t.imag, "r_re": r.real, "r_im": r.imag,
            "transmission": [abs(x) ** 2 for x in t.tolist()]}


def _run_stack(v: dict):
    stack, lo, hi = _stack(v["stack"]), v["omega_min"], v["omega_max"]
    if hi <= lo or v["points"] < 5:
        raise ConfigError("need omega_max > omega_min and points >= 5")
    omegas = np.linspace(lo, hi, v["points"])
    t, r = photonic.stack_t_r_samples(stack, omegas)
    defect = spectral.unitarity_defect(t, r, stack.n_out / stack.n_in)
    summary = {"total_length": stack.total_length, "unitarity_defect": defect}
    return _response_columns(omegas, t, r), summary


def _run_grating(v: dict):
    grating = _build(photonic.UniformGrating, **v["grating"])
    lo, hi = v["delta_min"], v["delta_max"]
    if hi <= lo or v["points"] < 5:
        raise ConfigError("need delta_max > delta_min and points >= 5")
    omegas = grating.omega_b + np.linspace(lo, hi, v["points"]) / grating.n_bar
    if not np.all(np.diff(omegas) > 0.0):
        raise ConfigError("detuning range too narrow for distinct frequencies")
    t, r = photonic.grating_response(grating, omegas)
    t_midgap, _ = photonic.grating_response(grating, grating.omega_b)
    summary = {"midgap_transmission": float(abs(t_midgap) ** 2),
               "unitarity_defect": spectral.unitarity_defect(t, r, 1.0)}
    return _response_columns(omegas, t, r), summary


def _run_hartman(v: dict):
    if v["family"] == "quantum":
        family = analysis.QuantumBarrierFamily(v["v0"], v["energy"])
    else:
        family = analysis.GratingFamily(v["kappa"], v["n_bar"], v["omega_b"])
        # a bad kappa is a config error
        _build(photonic.UniformGrating, v["kappa"], v["lengths"][0], v["n_bar"], v["omega_b"])
    sweep = analysis.hartman_sweep(family, v["lengths"])
    columns = {"length": sweep.lengths, "tau_g": sweep.tau_g, "u_per_pin": sweep.u_per_pin,
               "apparent_speed": sweep.apparent_speed}
    summary = {"tail_relative_change": sweep.tail_relative_change,
               "proportionality_ratio_last": float(sweep.proportionality_ratio[-1])}
    return columns, summary


def _run_pulse(v: dict):
    stack = _stack(v["stack"])
    # a bad sample count is a config error before any stack is marched
    if v["samples"] < timedomain.MIN_PULSE_SAMPLES:
        raise ConfigError(f"key 'samples' must be at least {timedomain.MIN_PULSE_SAMPLES}")
    band = photonic.find_stopband(stack, v["omega_mid"])
    result = timedomain.propagate_spectral(
        stack, v["omega_mid"], v["bandwidth_fraction"] * band.width, v["samples"])
    columns = {"time": result.times, "abs_a_in": [abs(a) for a in result.a_in.tolist()],
               "abs_a_out": [abs(a) for a in result.a_out.tolist()]}
    summary = {
        "peak_delay": result.peak_delay,
        "tau_g": result.tau_g,
        "width_ratio": result.width_ratio,
        "quasistatic_deviation": result.quasistatic_deviation,
        "stopband_width": band.width,
        "energy_balance": result.energy_balance,
    }
    return columns, summary


def _run_front(v: dict):
    stack, omega_mid = _stack(v["stack"]), v["omega_mid"]
    result = timedomain.front_causality(
        stack, omega_mid, v["n_cycles"], v["hold_cycles"], v["band_factor"])
    tau_g = photonic.group_delay(stack, omega_mid)
    columns = {"front_time": [result.front_time],
               "pre_front_fraction": [result.pre_front_fraction],
               "vacuum_floor": [result.vacuum_floor], "tau_g": [tau_g]}
    summary = {
        "front_time": result.front_time,
        "pre_front_fraction": result.pre_front_fraction,
        "vacuum_control_floor": result.vacuum_floor,
        "tau_g": tau_g,
        "tau_g_below_front_time": bool(tau_g < result.front_time),
        "synthesis_band": result.band,
        "synthesis_samples": result.samples,
    }
    return columns, summary


def _run_skc(v: dict):
    report = analysis.skc_report(_stack(v["stack"]), v["omega_mid"])
    summary = {**dataclasses.asdict(report), "interpretation": report.interpretation}
    names = ("barrier_delay", "vacuum_delay", "advance", "mirror_shift", "apparent_speed")
    return _row(summary, *names), summary


class _Experiment(NamedTuple):
    run: Callable
    keys: Any  # key table or _Variants
    demonstrates: str


_EXPERIMENTS: Dict[str, _Experiment] = {
    "quantum": _Experiment(
        _run_quantum, {"v0": _POSITIVE, "length": _Key(float), "energy": _POSITIVE},
        "group delay, dwell time and their split for one rectangular barrier"),
    "stack": _Experiment(
        _run_stack,
        {"stack": _Key(_STACK), "omega_min": _POSITIVE, "omega_max": _POSITIVE,
         "points": _Key(int, 501, True)},
        "complex transmission/reflection spectrum of a layered stack"),
    "grating": _Experiment(
        _run_grating,
        {"grating": _Key({"kappa": _Key(float), "length": _POSITIVE,
                          "n_bar": _Key(float, 1.0, True), "omega_b": _POSITIVE}),
         "delta_min": _Key(float), "delta_max": _Key(float), "points": _Key(int, 501, True)},
        "coupled-mode response of a uniform grating across detuning"),
    "hartman": _Experiment(
        _run_hartman,
        _Variants("family", {
            "quantum": {"v0": _POSITIVE, "energy": _POSITIVE},
            "grating": {"kappa": _Key(float), "n_bar": _Key(float, 1.0, True),
                        "omega_b": _Key(float, 2.0 * np.pi, True)},
        }, {"lengths": _Key(_lengths)}),
        "delay saturation with barrier length while length/delay keeps growing"),
    "pulse": _Experiment(
        _run_pulse,
        {"stack": _Key(_STACK), "omega_mid": _POSITIVE,
         "bandwidth_fraction": _Key(float, 0.01, True), "samples": _Key(int, 1024, True)},
        "narrowband pulse transits undistorted with the group delay"),
    "front": _Experiment(
        _run_front,
        {"stack": _Key(_STACK), "omega_mid": _POSITIVE, "n_cycles": _Key(float, 24.0, True),
         "hold_cycles": _Key(float, 60.0, True), "band_factor": _Key(float, 50.0, True)},
        "no transmitted energy precedes the vacuum light front"),
    "skc": _Experiment(
        _run_skc, {"stack": _Key(_STACK), "omega_mid": _POSITIVE},
        "mirror-shift reading of the delay as a stored-energy difference"),
}
_CONFIG = _Variants("kind", {kind: e.keys for kind, e in _EXPERIMENTS.items()}, _COMMON)


def list_experiments() -> str:
    """Stable text listing of every experiment kind and its config keys."""
    lines = ["available experiments:"]
    for kind in sorted(_EXPERIMENTS):
        experiment = _EXPERIMENTS[kind]
        keys = ", ".join(["kind", _render(experiment.keys), _render(_COMMON)])
        lines.append(f"  {kind:<8} demonstrates: {experiment.demonstrates}")
        lines.append(f"  {'':<8} config keys: {keys}")
    lines.append(
        "[key] and [key=default] are optional; a{...} holds a nested object; a|b takes"
        " exactly one; key=v(...) adds the keys in parentheses when key is v"
    )
    return "\n".join(lines)


def _csv_text(columns: Dict[str, Sequence], arrays: Dict[str, np.ndarray]) -> str:
    """Header and one line per row: ``%.17g`` of each value's float, None an empty cell.

    ``arrays`` holds each column as a float array, a None as nan.
    """
    cells, specs = [], []
    for values, floats in zip(columns.values(), arrays.values()):
        if np.isnan(floats).any():
            cells.append(["" if v is None else "%.17g" % float(v) for v in values])
            specs.append("%s")
        else:
            cells.append(floats.tolist())
            specs.append("%.17g")
    line = ",".join(specs)
    return "\n".join([",".join(columns), *(line % row for row in zip(*cells))]) + "\n"


def _write(output_dir: str, name: str, text: str):
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8", newline="\n")


_TIME_KEYS = ("tau_g", "tau_d", "tau_i", "barrier_delay", "vacuum_delay", "advance",
              "front_time", "peak_delay")


def _fs_conversions(summary: dict, scale_m: float) -> dict:
    fs_per_unit = scale_m / _SPEED_OF_LIGHT_M_PER_S * 1e15
    return {
        f"{key}_fs": summary[key] * fs_per_unit
        for key in _TIME_KEYS
        if isinstance(summary.get(key), (int, float))
    }


def _check_finite(columns: dict, arrays: Dict[str, np.ndarray], summary: dict):
    """NonFiniteResultError naming the first NaN or infinite output value.

    A column is checked whole, on its float array in ``arrays``; only one
    holding a NaN or infinity, as a None also reads, is walked value by
    value, so None stays exempt.
    """
    suspect = [(key, values) for key, values in columns.items()
               if not np.isfinite(arrays[key]).all()]
    for key, values in [*suspect, *((k, [v]) for k, v in summary.items())]:
        for value in values:
            if isinstance(value, float) and not math.isfinite(value):
                raise NonFiniteResultError(f"result '{key}' is {value}")


def run(config_path: str, output_dir: str = ".", threads: int = 1,
        out_format: str = "both") -> int:
    """Execute the experiment named in a JSON config; exit-code semantics."""
    started = time.monotonic()
    try:
        cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        values = _read(cfg, _CONFIG)
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        if out_format not in ("csv", "json", "both"):
            raise ConfigError("format must be csv, json or both")
        kind, basename, units = (values.pop(k) for k in ("kind", "basename", "report_units"))
        if basename is None:
            basename = Path(config_path).stem
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    def report(**fields) -> str:
        header = {"tool": "tunneltime", "version": __version__, "kind": kind, "config": cfg,
                  "determinism_seed": 0, "wall_clock_seconds": time.monotonic() - started}
        return json.dumps({**header, **fields}, indent=2, sort_keys=True) + "\n"

    try:
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                columns, summary = _EXPERIMENTS[kind].run(values)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except ArithmeticError as exc:
            # a Python float or complex operation overflowed or divided by
            # zero, or numpy met an overflow, an invalid operation or a
            # division by zero (FloatingPointError): a non-finite
            # intermediate, named where it arose
            raise NonFiniteResultError(f"{type(exc).__name__}: {exc}") from exc
        if units is not None:
            summary.update(_fs_conversions(summary, units["length_scale_m"]))
        arrays = {key: np.asarray(values, dtype=float) for key, values in columns.items()}
        _check_finite(columns, arrays, summary)
    except (TunnelTimeError, ValueError) as exc:
        failure = report(status="numerical failure", error=type(exc).__name__, message=str(exc))
        _write(output_dir, f"{basename}.json", failure)
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if out_format in ("csv", "both"):
        _write(output_dir, f"{basename}.csv", _csv_text(columns, arrays))
    if out_format in ("json", "both"):
        _write(output_dir, f"{basename}.json", report(results=summary))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tunneltime",
        description="barrier tunneling delays, stored energy, and front causality",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute an experiment config")
    run_parser.add_argument("config", help="path to a JSON experiment config")
    run_parser.add_argument("--output-dir", default=".", help="directory for outputs")
    run_parser.add_argument(
        "--threads", type=int, default=1, help="accepted and validated; sweeps run serially"
    )
    run_parser.add_argument(
        "--format", choices=("csv", "json", "both"), default="both", dest="out_format"
    )
    sub.add_parser("list", help="list experiment kinds and their config keys")
    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    return run(args.config, args.output_dir, args.threads, args.out_format)


if __name__ == "__main__":
    sys.exit(main())
