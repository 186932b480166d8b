"""Spans and memory peaks recorded around calls into mdcl's public functions.

The benchmark never edits the package: it replaces a public function, in
every ``mdcl`` module that holds a reference to it, with a wrapper that
records a span (or a ``tracemalloc`` peak), and puts the original back when
the traced pass ends.  A name that a commit no longer defines is reported as
absent instead of failing the run.

Self time follows one rule for both threads and nesting: a span's children
are the spans its own thread opened inside it, plus the top-level spans of
worker threads that started while it was the innermost open span of the
main thread (work it dispatched and waited for).  Self time is the span's
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

MIB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Target:
    """A public function to wrap: ``mdcl.<module>.<function>``."""

    module: str
    function: str
    stage: bool = False          # stage-level: also gets a tracemalloc peak

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


@dataclass(eq=False)
class Span:
    name: str
    thread: int
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    activity: str | None = None
    children: list["Span"] = field(default_factory=list, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
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


def link_children(spans: list[Span], main_thread: int) -> None:
    """Fill ``children``: same-thread nesting plus adopted worker spans."""
    for s in spans:
        s.children = []
    main_spans = [s for s in spans if s.thread == main_thread]
    for s in spans:
        if s.parent is not None:
            s.parent.children.append(s)
        elif s.thread != main_thread:
            host = None
            for m in main_spans:
                if m.start <= s.start < m.end and (
                        host is None or m.start >= host.start):
                    host = m
            if host is not None:
                host.children.append(s)


def self_time(span: Span) -> float:
    return span.duration - union_length(
        [(c.start, c.end) for c in span.children], span.start, span.end)


def uncovered_by_thread(spans: list[Span], main_thread: int,
                        window: tuple[float, float]) -> dict[int, float]:
    """Time on each thread not inside any of its own spans.

    The main thread is measured over the whole traced pass; a worker thread
    over the stretch from its first span's start to its last span's end.
    """
    by_thread: dict[int, list[Span]] = {}
    for s in spans:
        by_thread.setdefault(s.thread, []).append(s)
    by_thread.setdefault(main_thread, [])
    out = {}
    for thread, group in by_thread.items():
        top = [(s.start, s.end) for s in group if s.parent is None]
        if thread == main_thread:
            lo, hi = window
        else:
            lo, hi = min(a for a, _ in top), max(b for _, b in top)
        out[thread] = (hi - lo) - union_length(top, lo, hi)
    return out


# ---------------------------------------------------------------------------
# installing wrappers
# ---------------------------------------------------------------------------

class Patches:
    """Module attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def mdcl_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mdcl" or name.startswith("mdcl."))]


def wrap_everywhere(patches: Patches, target: Target,
                    make_wrapper: Callable[[Callable], Callable]) -> bool:
    """Wrap ``target`` in every mdcl module that refers to it.

    Returns False, changing nothing, when the module or function is absent.
    """
    try:
        home = importlib.import_module(f"mdcl.{target.module}")
    except ImportError:
        return False
    original = getattr(home, target.function, None)
    if not callable(original):
        return False
    wrapper = make_wrapper(original)
    for module in mdcl_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.replace(module, attr, wrapper)
    return True


# ---------------------------------------------------------------------------
# span tracer
# ---------------------------------------------------------------------------

Observer = Callable[["Tracer", tuple, dict, object], None]
Namer = Callable[[tuple, dict], str]
ActivityOf = Callable[[tuple, dict], "str | None"]


class Tracer:
    """Records one span per wrapped call, on whichever thread makes it."""

    def __init__(self):
        self.main_thread = threading.get_ident()
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._per_thread: list[list[Span]] = []
        self._local = threading.local()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list[Span] = []
            state = self._local.state = (spans, [])
            with self._lock:
                self._per_thread.append(spans)
        return state

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def spans(self) -> list[Span]:
        with self._lock:
            out = [s for group in self._per_thread for s in group]
        link_children(out, self.main_thread)
        return out

    def wrap(self, name: str, fn: Callable, *, namer: Namer | None = None,
             activity_of: ActivityOf | None = None,
             observer: Observer | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._state()
            parent = stack[-1] if stack else None
            activity = activity_of(args, kwargs) if activity_of else None
            if activity is None and parent is not None:
                activity = parent.activity
            span = Span((namer(args, kwargs) if namer else None) or name,
                        threading.get_ident(), 0.0, parent=parent,
                        activity=activity)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if observer is not None:
                observer(tracer, args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# tracemalloc peaks
# ---------------------------------------------------------------------------

class PeakTracker:
    """Peak traced allocation of each wrapped call, nested calls included.

    ``tracemalloc`` keeps one process-wide peak, so this is only meaningful
    when the wrapped calls run on a single thread.
    """

    def __init__(self):
        self.peaks_mib: dict[str, float] = {}
        self._stack: list[list[float]] = []    # [start_current, peak_seen]

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracker = self

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            stack = tracker._stack
            if stack:
                stack[-1][1] = max(stack[-1][1], tracemalloc.get_traced_memory()[1])
            current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            stack.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                start, seen = stack.pop()
                peak = max(seen, tracemalloc.get_traced_memory()[1])
                if stack:
                    stack[-1][1] = max(stack[-1][1], peak)
                mib = (peak - start) / MIB
                tracker.peaks_mib[name] = max(tracker.peaks_mib.get(name, 0.0), mib)

        return measured


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)

    def p50(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0

    def max(self) -> float:
        return max(self.durations, default=0.0)


def aggregate(spans: list[Span]) -> dict[str, SpanStats]:
    stats: dict[str, SpanStats] = {}
    for s in spans:
        st = stats.setdefault(s.name, SpanStats())
        st.calls += 1
        st.self_s += self_time(s)
        st.durations.append(s.duration)
    return stats
