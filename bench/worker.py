"""One benchmark process: import tunneltime, warm up, then measure ops.

Started by ``run.py`` as a fresh interpreter.  It prints ``READY`` after the
import, the input load and one untimed warm-up op, which is the set-up that
``run.py`` times.  With ``--role setup`` it stops there.  With
``--role measure`` it runs ops back to back for ``--seconds`` and prints a
``RESULT`` line holding every op's time and check outcome.  With
``--trace 0`` it also times the workload's fixed reference kernel before the
first op and after every op, which gauges how fast the shared host runs at
that moment.
With ``--trace 1`` it alternates untraced and traced ops, so that tracing
overhead is measured in the same process, and writes the spans to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def import_package():
    """Import tunneltime from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tunneltime

    if src.resolve() not in Path(tunneltime.__file__).resolve().parents:
        raise ImportError(f"tunneltime imported from {tunneltime.__file__}, not {src}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from workloads import nproc

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "seed": seed,
    }


def reference_repeats(reference, op_seconds: float) -> int:
    """Reference calls per gap between ops: about a tenth of an op's time."""
    one = min(reference() for _ in range(3))
    return max(1, min(400, round(0.1 * op_seconds / one)))


def measure(workload, seconds: float, trace: bool, recorder, reference=None, repeats=1):
    """Closed loop of ops for about ``seconds``; odd ops are traced when tracing.

    No op starts that would, at the mean pace so far, end past ``seconds``,
    but at least one op runs, or two when tracing.  With a ``reference``,
    ``repeats`` reference calls run before the first op and after each op.
    Returns the op records and, per gap between ops, the reference times.
    """
    from spans import layer_totals

    ops = []
    gaps = []

    def gauge():
        if reference is not None:
            gaps.append([reference() for _ in range(repeats)])

    start = time.perf_counter()
    gauge()
    while True:
        index = len(ops)
        traced = trace and index % 2 == 1
        first_span = len(recorder.spans) if traced else 0
        op_start = time.perf_counter()
        record = {"traced": traced}
        try:
            if traced:
                recorder.op = index
                with recorder:
                    record["s"], out = workload.op()
            else:
                record["s"], out = workload.op()
            record["problems"] = workload.problems(out)
            record["csv_bytes"] = workload.csv_bytes(out)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            record["s"] = time.perf_counter() - op_start
            record["problems"] = [f"raised {type(exc).__name__}: {exc}"]
            record["csv_bytes"] = 0
        if traced:
            record["layers"] = layer_totals(recorder.spans[first_span:])
        ops.append(record)
        gauge()
        elapsed = time.perf_counter() - start
        done = elapsed + elapsed / len(ops) > seconds
        both_kinds = len(ops) >= 2 or not trace
        if done and both_kinds:
            return ops, gaps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    args = parser.parse_args(argv)

    import_package()
    from spans import Recorder
    from workloads import LAYERS, TRACE_TARGETS, make_workload

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        workload = make_workload(args.workload, args.seed, work_dir)
        workload.load()
        warmup_s, warmup = workload.op()
        warmup_problems = workload.problems(warmup)
        print("READY " + json.dumps({"warmup_problems": warmup_problems}), flush=True)
        if args.role == "setup":
            return 0

        workload.set_references(warmup)
        recorder = Recorder(TRACE_TARGETS)
        reference = None if args.trace else workload.reference
        repeats = reference_repeats(reference, warmup_s) if reference else 0
        ops, gaps = measure(workload, args.seconds, bool(args.trace), recorder,
                            reference, repeats)
        result = {
            "order": workload.names,
            "ops": ops,
            "reference_s": gaps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": list(LAYERS),
            "missing_targets": recorder.missing,
            "env": environment(args.seed),
        }
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            recorder.dump(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
