"""In-memory span recorder, layer wrappers and a cProfile grouping pass.

Traced runs install these around the public functions of each layer from
the benchmark's own files, so no program file gains instrumentation.  A
span records a name, start, end, its parent span and a run id shared by
the spans of one request; spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import itertools
import os
import pstats
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe span sink; each thread keeps its own parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def run(self, run_id: str):
        """Tag every span opened on this thread with ``run_id``."""
        previous = getattr(self._local, "run", None)
        self._local.run = run_id
        try:
            yield
        finally:
            self._local.run = previous

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(Span(span_id, parent, name, start, end,
                          getattr(self._local, "run", None)))

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               run: Optional[str] = None) -> None:
        """Add a span measured elsewhere (e.g. between two events)."""
        self.add(Span(next(self._ids), None, name, start, end, run))

    def named(self, name: str) -> List[Span]:
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    out = {}
    for span in spans:
        clipped = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(span.id, ())
                   if min(e, span.end) > max(s, span.start)]
        out[span.id] = span.seconds - union_length(clipped)
    return out


def coverage(spans: Iterable[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the given (top-level) spans."""
    if end <= start:
        return 0.0
    clipped = [(max(s.start, start), min(s.end, end)) for s in spans
               if min(s.end, end) > max(s.start, start)]
    return union_length(clipped) / (end - start)


class Wrappers:
    """Install span wrappers on layer functions; ``remove()`` undoes them.

    Module-level functions are often imported by name into other
    modules, so a wrapped function is replaced everywhere a loaded
    ``repro`` module refers to it, not only where it is defined.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []
        #: Named amounts reported by ``amounts_of`` hooks (bytes moved,
        #: instructions skipped, hits).
        self.amounts: Dict[str, float] = {}

    def _wrapper(self, original: Callable, name: str,
                 amounts_of: Optional[Callable] = None) -> Callable:
        recorder = self.recorder
        amounts = self.amounts

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            with recorder.span(name):
                result = original(*args, **kwargs)
            if amounts_of is not None:
                counted = amounts_of(args, result)
                with recorder._lock:
                    for key, amount in counted.items():
                        amounts[key] = amounts.get(key, 0) + amount
            return result

        return wrapped

    def method(self, cls: type, attr: str, name: str,
               amounts_of: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr``; ``amounts_of(args, result)`` may return a
        mapping of named amounts to accumulate per call."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, amounts_of))
        self._undo.append(lambda: setattr(cls, attr, original))

    def hook(self, undo: Callable[[], None]) -> None:
        """Register the undo step of a wrapper installed by hand."""
        self._undo.append(undo)

    def function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if (namespace is None
                    or not getattr(loaded, "__name__", "").startswith(
                        "repro")
                    or namespace.get(attr) is not original):
                continue
            setattr(loaded, attr, wrapped)
            self._undo.append(
                lambda mod=loaded: setattr(mod, attr, original))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


#: Package directories of the timed loop, in report order.
LOOP_PACKAGES = ("core", "frontend", "memory", "backend", "simulator",
                 "workloads")


@contextlib.contextmanager
def profiled_calls(module, attr: str):
    """Profile every call of ``module.attr``, on whichever thread makes
    it (a profiler only sees the thread that enabled it, and sessions
    run their tasks on a background thread); yields the profiler."""
    profiler = cProfile.Profile()
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        profiler.enable()
        try:
            return original(*args, **kwargs)
        finally:
            profiler.disable()

    setattr(module, attr, wrapped)
    try:
        yield profiler
    finally:
        setattr(module, attr, original)


def profile_shares(profiler: cProfile.Profile) -> Dict[str, float]:
    """Self-time share of each timed-loop package in a cProfile capture.

    Shares are of all profiled self time; time outside the listed
    packages (other ``repro`` modules, the standard library, builtins)
    makes up the remainder.
    """
    stats = pstats.Stats(profiler)
    totals = {package: 0.0 for package in LOOP_PACKAGES}
    overall = 0.0
    marker = os.sep + "repro" + os.sep
    for (filename, _line, _func), row in stats.stats.items():
        tottime = row[2]
        overall += tottime
        if marker not in filename:
            continue
        package = filename.split(marker, 1)[1].split(os.sep, 1)[0]
        if package in totals:
            totals[package] += tottime
    return {package: (value / overall if overall else 0.0)
            for package, value in totals.items()}
