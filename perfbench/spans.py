"""In-memory span recording for the traced benchmark run.

A :class:`Tracer` records one span per call into a layer: its name, start,
end, parent span and the id of the operation it belongs to.  Spans stay in
memory; :meth:`Tracer.write_chrome` writes them out once, at the end of the
run, as Chrome trace-event JSON (load it in ``chrome://tracing`` or
Perfetto).  From the spans the tracer derives each layer's self time (its
duration minus the part covered by its child spans) and, per operation,
the share of the operation's wall time that layer spans cover.
"""

from __future__ import annotations

import json
import time


class _Span:
    """One span's context manager.  The clock is read first on entry and
    last on exit, so the tracer's own bookkeeping lands inside the span
    rather than in the gaps between spans."""

    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, -1, tracer.op_id]

    def __enter__(self):
        record = self.record
        record[1] = time.perf_counter()
        stack = self.tracer.stack
        record[3] = stack[-1] if stack else -1
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(record)
        return self

    def __exit__(self, *exc):
        self.tracer.stack.pop()
        self.record[2] = time.perf_counter()


class Tracer:
    def __init__(self):
        #: ``[name, start, end, parent_index, op_id]`` per span; the parent
        #: index is ``-1`` for an operation's root span.
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = 0

    def operation(self, name: str) -> _Span:
        """The root span of one benchmark operation."""
        self.op_id += 1
        return _Span(self, name)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> "dict[str, list[float]]":
        """Self time (seconds) of every non-root span, grouped by name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for index, (name, start, end, parent, _op) in enumerate(self.spans):
            if parent >= 0:
                out.setdefault(name, []).append(end - start - child_time[index])
        return out

    def coverage(self) -> "list[float]":
        """Per operation: the share of its root span's wall time covered
        by its direct child spans (layer calls)."""
        covered: dict[int, float] = {}
        for name, start, end, parent, _op in self.spans:
            if parent >= 0 and self.spans[parent][3] < 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        shares = []
        for index, (name, start, end, parent, _op) in enumerate(self.spans):
            if parent < 0 and end > start:
                shares.append(covered.get(index, 0.0) / (end - start))
        return shares

    def write_chrome(self, path) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event;
        the operation id is the event's ``tid`` so each operation renders
        as its own track."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": "op" if parent < 0 else "layer",
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": op,
                "args": {"parent": parent},
            }
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
