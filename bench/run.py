"""tunneltime benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload front --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see bench/README.md):
``front``, ``config-mix`` and ``tdse``.  ``--trace 0`` reports the
end-to-end metrics: set-up time (the median of three fresh interpreters
that import tunneltime, load the inputs and run one warm-up op), the median
of each op's time divided by the mean time of a fixed reference kernel run
just before and just after it, and the measuring process's peak RSS.  The
raw median op time is printed beside them.
``--trace 1`` reports per-layer calls, self time and errors from a traced
run, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, goes to ``.bench_out/``.  Exits 2 without a result if
the checkout lacks the tunneltime sources or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("front", "config-mix", "tdse")
SETUP_REPEATS = 3
# every run, set-up included, must end well inside three minutes
RUN_DEADLINE_S = 170.0
LAYER_FIELDS = (("calls", "count"), ("self_s", "s"), ("errors", "count"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_worker(args, role: str, deadline: float):
    """Start a worker, return (seconds to READY, READY payload, RESULT payload)."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready_s = ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                ready_s = time.perf_counter() - start
                ready = json.loads(line[6:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or ready is None or (role == "measure" and result is None):
        raise BenchError(f"{role} worker exited with code {code}")
    return ready_s, ready, result


def median_of(values):
    return statistics.median(values) if values else 0.0


def op_per_ref(ops, gaps) -> list:
    """Each op's time over the mean reference time in the gaps around it."""
    return [op["s"] / statistics.fmean(gaps[i] + gaps[i + 1]) for i, op in enumerate(ops)]


def end_to_end_metrics(setups, result) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_per_ref.p50": (statistics.median(op_per_ref(result["ops"], result["reference_s"])),
                           "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer_metrics(result) -> dict:
    ops = result["ops"]
    traced = [op for op in ops if op["traced"]]
    plain = [op["s"] for op in ops if not op["traced"]]
    metrics = {}
    for layer in result["layers"]:
        rows = [op["layers"].get(layer, {}) for op in traced]
        for field, unit in LAYER_FIELDS:
            metrics[f"{layer}.{field}"] = (median_of([r.get(field, 0) for r in rows]), unit)
    transfer = [op["layers"].get("photonic.transfer") for op in traced]
    transfer = [t for t in transfer if t and t["work"]]
    metrics["photonic.transfer.layer_freqs"] = (median_of([t["work"] for t in transfer]), "count")
    metrics["photonic.transfer.ns_per_layer_freq"] = (
        median_of([1e9 * t["self_s"] / t["work"] for t in transfer]), "ns")
    metrics["cli.csv_bytes"] = (median_of([op["csv_bytes"] for op in ops]), "count")
    overhead = median_of([op["s"] for op in traced]) / median_of(plain) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.missing_targets"] = (len(result["missing_targets"]), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tunneltime benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "tunneltime" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: no tunneltime sources and configs under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = []
    problems = []
    try:
        for k in range(repeats):
            role = "measure" if k == repeats - 1 else "setup"
            ready_s, ready, result = run_worker(args, role, deadline)
            setups.append(ready_s)
            problems += ["warm-up " + p for p in ready["warmup_problems"]]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    metrics = per_layer_metrics(result) if args.trace else end_to_end_metrics(setups, result)
    ops = result["ops"]
    failed = sum(1 for op in ops if op["problems"])
    for op in ops:
        problems += op["problems"]
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    env = dict(result["env"], commit=git_commit())
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "order": result["order"],
        "setup_s": setups,
        "op_s": [op["s"] for op in ops],
        "reference_s": result.get("reference_s", []),
        "missing_targets": result["missing_targets"],
        "problems": sorted(set(problems)),
        "result": summary,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  order {' '.join(result['order'])}")
    print("env " + json.dumps(env, sort_keys=True))
    for path in result["missing_targets"]:
        print(f"trace target missing: {path}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"ops {len(ops)}  failed {failed}  failed_fraction {failed / len(ops):.6g}")
    if not args.trace:
        print(f"{'op_s.p50':<44} {statistics.median(record['op_s']):.6g} s")
        ref_s = statistics.median(t for gap in result["reference_s"] for t in gap)
        print(f"{'reference_s.p50':<44} {ref_s:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
