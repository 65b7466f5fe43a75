"""In-memory spans for the traced (``--trace 1``) ledger run.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``None`` for an operation's root) and ``op`` the
index of that root, so all spans of one operation share an identifier.
Spans are appended to a list while the workload runs and written out
once, as Chrome trace-event JSON, when the run ends.

Only the benchmark's own files record spans, around the calls *into*
each layer's public functions; nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "op", "args")

    def __init__(self, index: int, name: str, start: float,
                 parent: Optional[int], op: int, args: Dict[str, Any]) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans on one thread of control.

    ``span()`` nests by a stack (the pipeline and sweep workloads are
    single-threaded); ``add()`` records a span with explicit times, for
    intervals the program reports itself (``protocol_wall_time``) and
    for concurrent requests, which do not nest.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(
            index, name, time.perf_counter(),
            None if parent is None else parent.index,
            index if parent is None else parent.op, args,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[Span] = None, **args: Any) -> Span:
        index = len(self.spans)
        record = Span(
            index, name, start,
            None if parent is None else parent.index,
            index if parent is None else parent.op, args,
        )
        record.end = end
        self.spans.append(record)
        return record

    def children(self, parent: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == parent.index]

    def roots(self, prefix: str = "") -> List[Span]:
        return [
            s for s in self.spans
            if s.parent is None and s.name.startswith(prefix)
        ]

    def self_times(self) -> List[float]:
        """Per span: its duration minus what its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [s.duration - covered[s.index] for s in self.spans]

    def chrome_trace(self) -> Dict[str, Any]:
        """Complete ("X") trace events, one thread lane per operation
        kind; load the file at ui.perfetto.dev or chrome://tracing."""
        origin = min((s.start for s in self.spans), default=0.0)
        lanes: Dict[str, int] = {}
        events = []
        for span in self.spans:
            root = self.spans[span.op]
            lane = lanes.setdefault(str(root.args.get("lane", root.name)),
                                    len(lanes) + 1)
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": lane,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"op": span.op, "parent": span.parent, **span.args},
            })
        meta = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": name}}
            for name, tid in lanes.items()
        ]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")
