"""Tests of the benchmark itself: span arithmetic and output checks.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import Recorder, Span, layer_totals, union_length  # noqa: E402
from run import op_per_ref  # noqa: E402
from worker import measure  # noqa: E402


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 9)], 0, 10) == pytest.approx(6.0)
    assert union_length([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_on_synthetic_nested_spans():
    # root [0, 10] has two children that overlap, as pool threads do; child
    # b has a grandchild d.  Root self time counts the overlap once.
    synthetic = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "b", 1.0, 4.0, 0, 0),
        Span(2, "c", 3.0, 6.0, 0, 0, error=True),
        Span(3, "d", 2.0, 3.0, 1, 0, work=7),
        Span(4, "d", 7.0, 7.5, 0, 0, work=5),
    ]
    totals = layer_totals(synthetic)
    assert totals["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 0.5)
    assert totals["b"]["self_s"] == pytest.approx(2.0)
    assert totals["c"]["self_s"] == pytest.approx(3.0)
    assert totals["c"]["errors"] == 1
    assert totals["d"]["calls"] == 2
    assert totals["d"]["self_s"] == pytest.approx(1.5)
    assert totals["d"]["work"] == 12


class _Toy:
    def outer(self, n):
        return _inner(n) + _inner(n)


def _inner(n):
    if n < 0:
        raise ValueError("negative")
    return n


def test_recorder_nests_spans_counts_errors_and_restores():
    module = sys.modules[__name__]
    targets = [
        ("toy.outer", f"{__name__}:_Toy.outer", None),
        ("toy.inner", f"{__name__}:_inner", lambda n: n),
        ("toy.gone", f"{__name__}:no_such_function", None),
    ]
    original = module._inner
    rec = Recorder(targets)
    with rec:
        assert rec.missing == [f"{__name__}:no_such_function"]
        assert _Toy().outer(3) == 6
        with pytest.raises(ValueError):
            _inner(-1)
    assert module._inner is original
    assert "outer" in vars(_Toy) and not hasattr(_Toy.outer, "__wrapped__")

    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["toy.outer"]
    inners = by_name["toy.inner"]
    assert [s.parent for s in inners] == [outer.id, outer.id, None]
    totals = layer_totals(rec.spans)
    assert totals["toy.inner"] == pytest.approx(
        {"calls": 3, "errors": 1, "work": 5, "self_s": totals["toy.inner"]["self_s"]}
    )


def test_pool_thread_spans_parent_to_the_op_thread():
    rec = Recorder([("toy.inner", f"{__name__}:_inner", None)])

    def from_thread():
        _inner(1)

    with rec:
        worker = threading.Thread(target=from_thread)
        # the op thread's open span is the parent of spans on a fresh thread
        stack = rec._stack()
        stack.append(99)
        worker.start()
        worker.join(timeout=10)
        stack.pop()
    assert not worker.is_alive()
    (span,) = rec.spans
    assert span.parent == 99


def test_trace_targets_all_resolve():
    rec = Recorder(workloads.TRACE_TARGETS)
    with rec:
        pass
    assert rec.missing == []
    assert {name for name, _, _ in workloads.TRACE_TARGETS} == set(workloads.LAYERS)


class _Corrupting:
    """Wraps a workload and tampers with the output of its second op."""

    def __init__(self, inner, tamper):
        self.inner, self.tamper, self.count = inner, tamper, 0

    def op(self):
        seconds, runs = self.inner.op()
        self.count += 1
        if self.count == 2:
            self.tamper(runs)
        return seconds, runs

    def problems(self, runs):
        return self.inner.problems(runs)

    def csv_bytes(self, runs):
        return self.inner.csv_bytes(runs)


def test_altered_csv_counts_as_failed_op(tmp_path):
    def tamper(runs):
        data = bytearray(runs["skc"].csv)
        data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
        runs["skc"].csv = bytes(data)

    wl = workloads.ConfigWorkload(["skc"], {}, tmp_path)
    wl.load()
    _, warmup = wl.op()
    wl.set_references(warmup)
    bad = _Corrupting(wl, tamper)
    ops = measure(bad, 0.0, False, Recorder([]))[0] + measure(bad, 0.0, False, Recorder([]))[0]
    assert ops[0]["problems"] == []
    assert ops[1]["problems"] == ["skc: CSV bytes differ from the reference runs"]


@pytest.mark.parametrize(
    "name, key, value, message",
    [
        ("skc", "apparent_speed", 2.5, "apparent speed outside [1.4, 2.0]"),
        ("pulse", "energy_balance", 1.0 + 1e-6, "energy balance off 1 by >= 1e-8"),
        ("stack_spectrum", "unitarity_defect", 1e-9, "unitarity defect >= 1e-12"),
        ("hartman_grating", "proportionality_ratio_last", 1.001, "tau_g / stored energy off 1"),
        ("quantum", "tau_g", float("nan"), "non-finite summary value"),
    ],
)
def test_out_of_gate_summary_counts_as_failed_op(tmp_path, name, key, value, message):
    def tamper(runs):
        runs[name].summary[key] = value

    wl = workloads.ConfigWorkload([name], {}, tmp_path)
    wl.load()
    _, warmup = wl.op()
    assert wl.problems(warmup) == []
    wl.set_references(warmup)
    bad = _Corrupting(wl, tamper)
    ops = measure(bad, 0.0, False, Recorder([]))[0] + measure(bad, 0.0, False, Recorder([]))[0]
    assert ops[1]["problems"] == [f"{name}: {message}"]


def test_failed_exit_code_and_raising_op_count_as_failed(tmp_path, monkeypatch):
    wl = workloads.ConfigWorkload(["quantum"], {}, tmp_path)
    wl.load()
    _, warmup = wl.op()
    wl.set_references(warmup)
    monkeypatch.setattr(workloads.cli, "run", lambda *a, **k: 3)
    (op,), _ = measure(wl, 0.0, False, Recorder([]))
    assert op["problems"] == ["quantum: exit code 3"]

    def boom(*a, **k):
        raise RuntimeError("kaput")

    monkeypatch.setattr(workloads.cli, "run", boom)
    (op,), _ = measure(wl, 0.0, False, Recorder([]))
    assert op["problems"] == ["raised RuntimeError: kaput"]


class _Sleeper:
    """A workload whose op sleeps for a fixed time and never fails."""

    def __init__(self, seconds):
        self.seconds = seconds

    def op(self):
        time.sleep(self.seconds)
        return self.seconds, None

    def problems(self, out):
        return []

    def csv_bytes(self, out):
        return 0


def test_measure_gauges_reference_around_every_op_and_stops_in_time():
    start = time.perf_counter()
    ops, refs = measure(_Sleeper(0.02), 0.15, False, Recorder([]), lambda: 0.5, 3)
    assert time.perf_counter() - start < 0.3
    assert 3 <= len(ops) <= 7
    assert refs == [[0.5] * 3] * (len(ops) + 1)
    ops, refs = measure(_Sleeper(0.0), 0.0, True, Recorder([]))
    assert [op["traced"] for op in ops] == [False, True] and refs == []


def test_op_per_ref_divides_each_op_by_the_gaps_around_it():
    ops = [{"s": 2.0}, {"s": 6.0}]
    gaps = [[1.0, 1.0], [1.0, 3.0], [2.0]]
    assert op_per_ref(ops, gaps) == [pytest.approx(2.0 / 1.5), pytest.approx(3.0)]


def test_tdse_checks_norm_leak_delay_and_repeatability():
    wl = workloads.TdseWorkload()
    wl.load()
    exact = wl.tau_g - wl.barrier.length / wl.packet.k0
    good = workloads.timedomain.TdseResult(exact, 0.0, 0.0, 1e-12, 1e-14)
    assert wl.problems(good) == []
    wl.set_references(good)
    off = workloads.timedomain.TdseResult(exact * 1.5, 0.0, 0.0, 1e-12, 1e-14)
    assert wl.problems(off) == [
        f"tdse: delay off the analytic value by {abs(exact * 0.5) / wl.tau_g:.3e}",
        "tdse: delay differs from the warm-up op",
    ]
    leaky = workloads.timedomain.TdseResult(exact, 0.0, 0.0, 1e-6, 1e-9)
    assert wl.problems(leaky) == [
        "tdse: norm error 1.000e-06 >= 1e-8",
        "tdse: boundary leak 1.000e-09 >= 1e-10",
    ]
