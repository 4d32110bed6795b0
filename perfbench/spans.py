"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark around calls into the program's
layers; nothing inside the program is instrumented.  A span has a name,
a start and end (``time.perf_counter`` seconds), the index of the span
that was open when it started (its parent) and a request id shared by
every span of one operation.  Spans stay in memory until the run ends
and are then written out as JSON lines.

A disabled recorder hands out one shared no-op context manager, so an
untraced run pays one attribute lookup and one call per span site.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


_NULL = contextlib.nullcontext()


class Recorder:
    """Collects spans of one thread; nesting follows the call stack."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, rid: Any = None):
        if not self.enabled:
            return _NULL
        return self._record(name, rid)

    @contextlib.contextmanager
    def _record(self, name: str, rid: Any) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent].rid
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, rid))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float, rid: Any = None) -> None:
        """Record a finished root span (for interleaved asyncio requests,
        whose spans cannot follow one call stack)."""
        if self.enabled:
            self.spans.append(Span(name, start, end, None, rid))

    @contextlib.contextmanager
    def wrapping(
        self, owner: Any, attr: str, name: Union[str, Callable[..., str]]
    ) -> Iterator[None]:
        """Replace ``owner.attr`` by a wrapper that records spans around it.

        The wrapper is installed on the module or class attribute that
        the program looks up at call time, so the span surrounds the
        call into that layer; the original is restored on exit.  A
        callable ``name`` receives the call's arguments and returns the
        span name.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "rid": s.rid,
                        }
                    )
                    + "\n"
                )


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent never overlap (a single thread records them
    in call order), so the covered time is the sum of their durations,
    clipped to the parent's own interval.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                covered[s.parent] += hi - lo
    return [max(0.0, s.duration - c) for s, c in zip(spans, covered)]


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time of every span name, in seconds."""
    totals: Dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals


def in_span_share(spans: Sequence[Span], begin: float, end: float) -> float:
    """Share of ``[begin, end)`` covered by the union of all root spans."""
    wall = end - begin
    if wall <= 0:
        return 0.0
    intervals = sorted(
        (max(s.start, begin), min(s.end, end))
        for s in spans
        if s.parent is None
    )
    covered = 0.0
    cursor = begin
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered / wall


def per_parent_child_time(
    spans: Sequence[Span], parent_name: str, child_name: str
) -> List[float]:
    """For each ``parent_name`` span, the summed duration of its
    ``child_name`` descendants (at any depth)."""
    index = {i: s for i, s in enumerate(spans)}
    sums: Dict[int, float] = {
        i: 0.0 for i, s in index.items() if s.name == parent_name
    }
    for s in spans:
        if s.name != child_name:
            continue
        p = s.parent
        while p is not None and p not in sums:
            p = index[p].parent
        if p is not None:
            sums[p] += s.duration
    return [sums[i] for i in sorted(sums)]


def durations(
    spans: Sequence[Span], name: str, own: bool = False
) -> List[float]:
    """Durations (or self times, with ``own``) of every span called ``name``."""
    values = self_times(spans) if own else [s.duration for s in spans]
    return [v for s, v in zip(spans, values) if s.name == name]


def timed(fn: Callable[[], Any]) -> float:
    """Seconds one call of ``fn`` takes."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
