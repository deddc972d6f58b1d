"""Command-line surface: validated JSON configs in, CSV + JSON summaries out.

The core modules work in natural units (hbar = m = 1 for matter waves,
c = 1 for light); configs carry values in those units.  A config may declare
``report_units.length_scale_m`` (meters per length unit), in which case the
JSON summary also echoes femtosecond conversions of every reported time --
unit conversion lives here and nowhere else.

Exit codes: 0 success, 2 config error (including NaN or infinite numbers),
3 numerical failure (the failing error class is named in the JSON summary;
a NaN or infinite result is one).  Outputs are deterministic: identical
configs produce byte-identical CSVs, with floats printed at 17 significant
digits.  ``threads`` is validated but sweeps run serially, so every thread
count gives the same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, analysis, photonic, quantum, spectral, timedomain
from .errors import NonFiniteResultError, TunnelTimeError

_SPEED_OF_LIGHT_M_PER_S = 299792458.0


class ConfigError(Exception):
    """Invalid, unreadable, or unknown configuration."""


# -- config plumbing --------------------------------------------------------

def _require(cfg: dict, key: str, kind, positive: bool = False):
    if key not in cfg:
        raise ConfigError(f"missing required key '{key}'")
    value = cfg[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"key '{key}' must be {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite")
    if positive and not value > 0:
        raise ConfigError(f"key '{key}' must be positive")
    return value


def _optional(cfg: dict, key: str, kind, default, positive: bool = False):
    if key not in cfg:
        return default
    return _require(cfg, key, kind, positive)


def _check_keys(cfg: dict, allowed: set, where: str):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _lengths(cfg: dict) -> List[float]:
    lengths = _require(cfg, "lengths", list)
    if not lengths or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and 0 < x < math.inf
        for x in lengths
    ):
        raise ConfigError("'lengths' must be a non-empty list of positive finite numbers")
    return [float(x) for x in lengths]


def _stack_from_config(cfg: dict) -> photonic.LayeredStack:
    _check_keys(cfg, {"layers", "quarter_wave", "n_in", "n_out"}, "stack")
    n_in = _optional(cfg, "n_in", float, 1.0, positive=True)
    n_out = _optional(cfg, "n_out", float, 1.0, positive=True)
    if "quarter_wave" in cfg:
        qw = _require(cfg, "quarter_wave", dict)
        _check_keys(qw, {"n_hi", "n_lo", "layer_count", "lambda0"}, "quarter_wave")
        return photonic.LayeredStack.quarter_wave(
            _require(qw, "n_hi", float, positive=True),
            _require(qw, "n_lo", float, positive=True),
            _require(qw, "layer_count", int, positive=True),
            _require(qw, "lambda0", float, positive=True),
            n_in=n_in,
            n_out=n_out,
        )
    layers = _require(cfg, "layers", list)
    try:
        pairs = tuple((float(n), float(d)) for n, d in layers)
    except (TypeError, ValueError) as exc:
        raise ConfigError("'layers' must be a list of [index, thickness] pairs") from exc
    try:
        return photonic.LayeredStack(pairs, n_in=n_in, n_out=n_out)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _grating_from_config(cfg: dict) -> photonic.UniformGrating:
    _check_keys(cfg, {"kappa", "length", "n_bar", "omega_b"}, "grating")
    try:
        return photonic.UniformGrating(
            kappa=_require(cfg, "kappa", float),
            length=_require(cfg, "length", float, positive=True),
            n_bar=_optional(cfg, "n_bar", float, 1.0, positive=True),
            omega_b=_require(cfg, "omega_b", float, positive=True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- experiment runners ------------------------------------------------------

def _run_quantum(cfg: dict):
    _check_keys(cfg, {"v0", "length", "energy"}, "quantum experiment")
    try:
        barrier = quantum.QuantumBarrier(
            _require(cfg, "v0", float, positive=True),
            _require(cfg, "length", float),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = quantum.delay_report(barrier, _require(cfg, "energy", float, positive=True))
    row = {
        "tau_g": report.tau_g,
        "tau_d": report.tau_d,
        "tau_i": report.tau_i,
        "front_time": report.front_time,
        "apparent_speed": report.apparent_speed,
    }
    summary = dict(row)
    summary["apparent_superluminal"] = report.apparent_superluminal
    return ["tau_g", "tau_d", "tau_i", "front_time", "apparent_speed"], [row], summary


def _run_stack(cfg: dict):
    allowed = {"stack", "omega_min", "omega_max", "points"}
    _check_keys(cfg, allowed, "stack experiment")
    stack = _stack_from_config(_require(cfg, "stack", dict))
    lo = _require(cfg, "omega_min", float, positive=True)
    hi = _require(cfg, "omega_max", float, positive=True)
    points = _optional(cfg, "points", int, 501, positive=True)
    if hi <= lo or points < 5:
        raise ConfigError("need omega_max > omega_min and points >= 5")
    omegas = np.linspace(lo, hi, points)
    center = 0.5 * (lo + hi)
    grid = spectral.FrequencyGrid(center, omegas - center)
    resp = photonic.stack_response(stack, grid)
    rows = _response_rows(omegas, resp)
    summary = {
        "total_length": stack.total_length,
        "unitarity_defect": resp.unitarity_defect(),
    }
    return _RESPONSE_COLUMNS, rows, summary


def _run_grating(cfg: dict):
    allowed = {"grating", "delta_min", "delta_max", "points"}
    _check_keys(cfg, allowed, "grating experiment")
    grating = _grating_from_config(_require(cfg, "grating", dict))
    lo = _require(cfg, "delta_min", float)
    hi = _require(cfg, "delta_max", float)
    points = _optional(cfg, "points", int, 501, positive=True)
    if hi <= lo or points < 5:
        raise ConfigError("need delta_max > delta_min and points >= 5")
    deltas = np.linspace(lo, hi, points)
    omegas = grating.omega_b + deltas / grating.n_bar
    center = float(np.median(omegas))
    grid = spectral.FrequencyGrid(center, omegas - center)
    resp = photonic.grating_response(grating, grid)
    rows = _response_rows(omegas, resp)
    summary = {
        "midgap_transmission": float(
            np.cosh(grating.kappa * grating.length) ** -2
        ),
        "unitarity_defect": resp.unitarity_defect(),
    }
    return _RESPONSE_COLUMNS, rows, summary


_RESPONSE_COLUMNS = ["omega", "t_re", "t_im", "r_re", "r_im", "transmission"]


def _response_rows(omegas, resp):
    return [
        {
            "omega": w,
            "t_re": t.real,
            "t_im": t.imag,
            "r_re": r.real,
            "r_im": r.imag,
            "transmission": abs(t) ** 2,
        }
        for w, t, r in zip(omegas, resp.t, resp.r)
    ]


def _family_from_config(cfg: dict):
    kind = _require(cfg, "family", str)
    if kind == "quantum":
        _check_keys(cfg, {"family", "v0", "energy", "lengths"}, "hartman experiment")
        return analysis.QuantumBarrierFamily(
            _require(cfg, "v0", float, positive=True),
            _require(cfg, "energy", float, positive=True),
        )
    if kind == "grating":
        _check_keys(cfg, {"family", "kappa", "n_bar", "omega_b", "lengths"}, "hartman experiment")
        return analysis.GratingFamily(
            kappa=_require(cfg, "kappa", float),
            n_bar=_optional(cfg, "n_bar", float, 1.0, positive=True),
            omega_b=_optional(cfg, "omega_b", float, 2.0 * np.pi, positive=True),
        )
    raise ConfigError("'family' must be 'quantum' or 'grating'")


def _run_hartman(cfg: dict):
    family = _family_from_config(cfg)
    sweep = analysis.hartman_sweep(family, _lengths(cfg))
    rows = [
        {"length": length, "tau_g": tau, "u_per_pin": stored, "apparent_speed": speed}
        for length, tau, stored, speed in zip(
            sweep.lengths, sweep.tau_g, sweep.u_per_pin, sweep.apparent_speed
        )
    ]
    summary = {
        "tail_relative_change": sweep.tail_relative_change,
        "proportionality_ratio_last": float(sweep.proportionality_ratio[-1]),
    }
    return ["length", "tau_g", "u_per_pin", "apparent_speed"], rows, summary


def _run_pulse(cfg: dict):
    allowed = {"stack", "omega_mid", "bandwidth_fraction", "samples"}
    _check_keys(cfg, allowed, "pulse experiment")
    stack = _stack_from_config(_require(cfg, "stack", dict))
    omega_mid = _require(cfg, "omega_mid", float, positive=True)
    fraction = _optional(cfg, "bandwidth_fraction", float, 0.01, positive=True)
    samples = _optional(cfg, "samples", int, 1024, positive=True)
    band = photonic.find_stopband(stack, omega_mid)
    pulse = timedomain.PulseEnvelope.gaussian_with_bandwidth(
        omega_mid, fraction * band.width, samples=samples
    )
    resp = photonic.stack_response(stack, pulse.fft_grid())
    result = timedomain.propagate_spectral(resp, pulse)
    rows = [
        {"time": t, "abs_a_in": abs(ai), "abs_a_out": abs(ao)}
        for t, ai, ao in zip(pulse.times, pulse.a, result.a_out)
    ]
    summary = {
        "peak_delay": result.peak_delay,
        "tau_g": result.tau_g,
        "width_ratio": result.width_ratio,
        "quasistatic_deviation": result.quasistatic_deviation,
        "stopband_width": band.width,
        "energy_balance": (result.energy_transmitted + result.energy_reflected)
        / result.energy_in,
    }
    return ["time", "abs_a_in", "abs_a_out"], rows, summary


def _run_front(cfg: dict):
    allowed = {"stack", "omega_mid", "n_cycles", "hold_cycles", "band_factor"}
    _check_keys(cfg, allowed, "front experiment")
    stack = _stack_from_config(_require(cfg, "stack", dict))
    omega_mid = _require(cfg, "omega_mid", float, positive=True)
    ramp = timedomain.TurnOnRamp(
        n_cycles=_optional(cfg, "n_cycles", float, 24.0, positive=True),
        hold_cycles=_optional(cfg, "hold_cycles", float, 60.0, positive=True),
    )
    factor = _optional(cfg, "band_factor", float, 50.0, positive=True)
    band = photonic.find_stopband(stack, omega_mid)
    result = timedomain.front_causality(
        stack, omega_mid, ramp, band_factor=factor, stopband_width=band.width
    )
    control = timedomain.front_causality(
        photonic.LayeredStack.vacuum_slab(stack.total_length),
        omega_mid,
        ramp,
        band_factor=factor,
        stopband_width=band.width,
    )
    tau_g = photonic.group_delay(stack, omega_mid)
    rows = [
        {
            "front_time": result.front_time,
            "pre_front_fraction": result.pre_front_fraction,
            "vacuum_floor": control.pre_front_fraction,
            "tau_g": tau_g,
        }
    ]
    summary = {
        "front_time": result.front_time,
        "pre_front_fraction": result.pre_front_fraction,
        "vacuum_control_floor": control.pre_front_fraction,
        "tau_g": tau_g,
        "tau_g_below_front_time": bool(tau_g < result.front_time),
        "synthesis_band": result.band,
    }
    return ["front_time", "pre_front_fraction", "vacuum_floor", "tau_g"], rows, summary


def _run_skc(cfg: dict):
    allowed = {"stack", "omega_mid"}
    _check_keys(cfg, allowed, "skc experiment")
    stack = _stack_from_config(_require(cfg, "stack", dict))
    omega_mid = _require(cfg, "omega_mid", float, positive=True)
    report = analysis.skc_report(stack, omega_mid)
    row = {
        "barrier_delay": report.barrier_delay,
        "vacuum_delay": report.vacuum_delay,
        "advance": report.advance,
        "mirror_shift": report.mirror_shift,
        "apparent_speed": report.apparent_speed,
    }
    summary = dict(row)
    summary.update(
        {
            "u_barrier": report.u_barrier,
            "u_free": report.u_free,
            "backward_escape_fraction": report.backward_escape_fraction,
            "interpretation": report.interpretation,
        }
    )
    return list(row.keys()), [row], summary


_EXPERIMENTS: Dict[str, Tuple[Callable, str, str]] = {
    "quantum": (
        _run_quantum,
        "v0, length, energy",
        "group delay, dwell time and their split for one rectangular barrier",
    ),
    "stack": (
        _run_stack,
        "stack{layers|quarter_wave,n_in,n_out}, omega_min, omega_max, points",
        "complex transmission/reflection spectrum of a layered stack",
    ),
    "grating": (
        _run_grating,
        "grating{kappa,length,n_bar,omega_b}, delta_min, delta_max, points",
        "coupled-mode response of a uniform grating across detuning",
    ),
    "hartman": (
        _run_hartman,
        "family=quantum{v0,energy}|grating{kappa,n_bar,omega_b}, lengths",
        "delay saturation with barrier length while length/delay keeps growing",
    ),
    "pulse": (
        _run_pulse,
        "stack{...}, omega_mid, bandwidth_fraction, samples",
        "narrowband pulse transits undistorted with the group delay",
    ),
    "front": (
        _run_front,
        "stack{...}, omega_mid, n_cycles, hold_cycles, band_factor",
        "no transmitted energy precedes the vacuum light front",
    ),
    "skc": (
        _run_skc,
        "stack{...}, omega_mid",
        "mirror-shift reading of the delay as a stored-energy difference",
    ),
}

_CONFIG_KEYS = {"kind", "basename", "report_units"}


def list_experiments() -> str:
    """Stable text listing of every experiment kind and its config keys."""
    lines = ["available experiments:"]
    for kind in sorted(_EXPERIMENTS):
        _, keys, what = _EXPERIMENTS[kind]
        lines.append(f"  {kind:<8} demonstrates: {what}")
        lines.append(f"  {'':<8} config keys: kind, {keys}")
    lines.append("common optional keys: basename, report_units{length_scale_m}")
    return "\n".join(lines)


def _format_float(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv_escape(text: str) -> str:
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, columns: Sequence[str], rows: Sequence[dict]):
    lines = [",".join(_csv_escape(c) for c in columns)]
    for row in rows:
        lines.append(",".join(_csv_escape(_cell(row[c])) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    return _format_float(value)


def _fs_conversions(summary: dict, scale_m: float) -> dict:
    fs_per_unit = scale_m / _SPEED_OF_LIGHT_M_PER_S * 1e15
    out = {}
    for key in ("tau_g", "tau_d", "tau_i", "barrier_delay", "vacuum_delay", "advance",
                "front_time", "peak_delay"):
        if key in summary and isinstance(summary[key], (int, float)) and summary[key] is not None:
            out[key + "_fs"] = summary[key] * fs_per_unit
    return out


def _check_finite(rows: Sequence[dict], summary: dict):
    """NonFiniteResultError naming the first NaN or infinite output value."""
    for values in [*rows, summary]:
        for key, value in values.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise NonFiniteResultError(f"result '{key}' is {value}")


def run(config_path: str, output_dir: str = ".", threads: int = 1,
        out_format: str = "both") -> int:
    """Execute the experiment named in a JSON config; exit-code semantics."""
    started = time.monotonic()
    try:
        raw = Path(config_path).read_text(encoding="utf-8")
        cfg = json.loads(raw)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        kind = _require(cfg, "kind", str)
        if kind not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment kind '{kind}'")
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        if out_format not in ("csv", "json", "both"):
            raise ConfigError("format must be csv, json or both")
        runner, _, _ = _EXPERIMENTS[kind]
        basename = _optional(cfg, "basename", str, Path(config_path).stem)
        report_units = _optional(cfg, "report_units", dict, None)
        if report_units is not None:
            _check_keys(report_units, {"length_scale_m"}, "report_units")
            _require(report_units, "length_scale_m", float, positive=True)
        payload = {k: v for k, v in cfg.items() if k not in _CONFIG_KEYS}
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{basename}.csv"
    json_path = out_dir / f"{basename}.json"
    written: List[Path] = []
    try:
        try:
            columns, rows, summary = runner(payload)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if report_units is not None:
            summary.update(_fs_conversions(summary, report_units["length_scale_m"]))
        _check_finite(rows, summary)
        report = {
            "tool": "tunneltime",
            "version": __version__,
            "kind": kind,
            "config": cfg,
            "results": summary,
            "determinism_seed": 0,
            "wall_clock_seconds": time.monotonic() - started,
        }
        if out_format in ("csv", "both"):
            _write_csv(csv_path, columns, rows)
            written.append(csv_path)
        if out_format in ("json", "both"):
            json_path.write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            written.append(json_path)
        return 0
    except (TunnelTimeError, ValueError) as exc:
        for path in written:
            path.unlink(missing_ok=True)
        failure = {
            "tool": "tunneltime",
            "version": __version__,
            "kind": kind,
            "config": cfg,
            "status": "numerical failure",
            "error": type(exc).__name__,
            "message": str(exc),
            "determinism_seed": 0,
            "wall_clock_seconds": time.monotonic() - started,
        }
        json_path.write_text(
            json.dumps(failure, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


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
