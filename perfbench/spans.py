"""In-memory span recording around library calls, and per-layer self times.

A span is ``(id, name, start, end, parent)``; the layer is the part of the
name before the first dot.  Spans are kept in memory and written out when the
run ends.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext

_NULL = nullcontext()


class NullTracer:
    """Records nothing; the untraced run uses it to measure tracing overhead."""

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans = []  # [id, name, start, end, parent]
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def as_dicts(self):
        keys = ("id", "name", "start", "end", "parent")
        return [dict(zip(keys, s), trace=self.trace_id) for s in self.spans]


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        parent = tracer._stack[-1][0] if tracer._stack else None
        self.record = [len(tracer.spans), name, 0.0, 0.0, parent]

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._stack.append(self.record)
        self.record[2] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def totals_by_name(spans) -> dict:
    out = defaultdict(float)
    for _, name, start, end, _ in spans:
        out[name] += end - start
    return out


def self_times_by_layer(spans) -> dict:
    """Span duration minus the time its children cover, summed per layer.

    Spans come from one thread, so children of a span never overlap and the
    part they cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out = defaultdict(float)
    for sid, name, start, end, _ in spans:
        out[name.split(".", 1)[0]] += end - start - covered[sid]
    return out


def library_time(spans) -> dict:
    """Time inside library calls under each command span, keyed by command name."""
    names = {sid: name for sid, name, *_ in spans}
    out = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent is not None:
            out[names[parent]] += end - start
    return out


def nested_time(spans, parent_name: str, child_name: str) -> float:
    """Total time of ``child_name`` spans whose parent is a ``parent_name`` span."""
    names = {sid: name for sid, name, *_ in spans}
    return sum(end - start for _, name, start, end, parent in spans
               if name == child_name and parent is not None and names[parent] == parent_name)
