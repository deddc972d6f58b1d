"""In-memory span recorder that traces tunneltime from the outside.

The recorder wraps module-level functions and class methods by dotted name
(``"tunneltime.photonic:stack_response"``,
``"tunneltime.analysis:GratingFamily.delay"``) and records one span per call:
name, start, end, parent span and op id.  Nested calls become parent and
child spans because each thread keeps a stack of its open spans; calls made
from a worker thread whose stack is empty get the op thread's innermost open
span as their parent, so a thread pool inside ``cli.run`` still counts as
work done on behalf of ``cli.run``.

Spans live in a list until :meth:`Recorder.dump` writes them out.  A target
that no longer exists is listed in :attr:`Recorder.missing`, never raised, so
a refactor that renames or merges a traced function shows up as a missing
target instead of a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (span name, "module:attribute.path", optional work counter).  A counter is
# called with the traced function's arguments and returns a work count that
# is summed per span name.
Target = Tuple[str, str, Optional[Callable[..., int]]]

# marks a wrapped attribute that the owner inherited rather than defined
_INHERITED = object()


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    error: bool = False
    work: int = 0


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s``, ``errors`` and ``work``.

    Self time is a span's duration minus the part of it that its children
    cover; children running concurrently on several threads are counted once
    through the union of their intervals.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    totals: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = totals.setdefault(s.name, {"calls": 0, "self_s": 0.0, "errors": 0, "work": 0})
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - union_length(children[s.id], s.start, s.end)
        row["errors"] += int(s.error)
        row["work"] += s.work
    return totals


def _resolve(path: str):
    """(owner, attribute, current value) for ``"module:Attr.path"``."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Recorder:
    """Wraps the targets while installed and collects their spans."""

    def __init__(self, targets: Sequence[Target]):
        self.targets = list(targets)
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counter):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            else:
                op_stack = recorder._op_stack
                parent = op_stack[-1] if op_stack else None
            span_id = next(recorder._ids)
            work = counter(*args, **kwargs) if counter is not None else 0
            stack.append(span_id)
            error = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                # list.append is atomic under the interpreter lock, so pool
                # threads may record concurrently
                recorder.spans.append(
                    Span(span_id, name, start, end, parent, recorder.op, error, work)
                )

        return traced

    def install(self) -> None:
        """Wrap every target that exists and list the missing ones."""
        if self._originals:
            raise RuntimeError("recorder already installed")
        self._op_stack = self._stack()
        self.missing = []
        for name, path, counter in self.targets:
            try:
                owner, attr, fn = _resolve(path)
            except (ImportError, AttributeError):
                self.missing.append(path)
                continue
            if not callable(fn):
                self.missing.append(path)
                continue
            self._originals.append((owner, attr, vars(owner).get(attr, _INHERITED)))
            setattr(owner, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._originals = []

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
