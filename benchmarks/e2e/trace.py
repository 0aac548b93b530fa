"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code around its calls into
each layer's public functions; nothing is added under ``src/``.  Each
span keeps its name, start, end, parent span id and op id (``None`` for
set-up).  The span name's first dotted component is its layer:
``data.eval.memory_ucq`` belongs to ``data``.  Root spans are ``op`` (one
benchmark operation) and ``setup``; their self time is benchmark
harness time that no layer accounts for.

Self time is a span's duration minus the union of its children's
intervals, so layer self times add up to at most the op wall time; the
share they cover is reported as ``trace.coverage_frac``.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from typing import Iterable, NamedTuple


class SpanRecord(NamedTuple):
    span_id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Span:
    __slots__ = ("_tracer", "_name", "_id", "_parent", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tracer._next_id += 1
        self._id = tracer._next_id
        self._parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self._id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        tracer.spans.append(
            SpanRecord(
                self._id, self._parent, tracer.op_id, self._name,
                self._start, end,
            )
        )


class Tracer:
    """Records nested spans of one thread; not thread-safe."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str) -> _Span:
        """A context manager timing one call into a layer."""
        return _Span(self, name)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        op: int | None = None,
    ) -> int:
        """Add a span timed elsewhere (by another thread, or by the
        server itself) and return its id."""
        self._next_id += 1
        self.spans.append(
            SpanRecord(self._next_id, parent, op, name, start, end)
        )
        return self._next_id


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced run's tracer: every call is a no-op."""

    enabled = False
    spans: tuple[SpanRecord, ...] = ()
    op_id: int | None = None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: Iterable[SpanRecord]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
            if end > span.start and start < span.end
        ]
        result[span.span_id] = span.duration - _union_length(clipped)
    return result


class LayerSummary(NamedTuple):
    """Per-layer aggregates of one traced run.

    ``busy`` and ``durations`` cover the spans of ops, ``setup_busy``
    and ``setup_durations`` those of set-up; durations are per span
    name, self times per layer.
    """

    op_wall: float
    setup_wall: float
    calls: dict[str, int]
    busy: dict[str, float]
    setup_busy: dict[str, float]
    durations: dict[str, list[float]]
    setup_durations: dict[str, list[float]]

    def busy_frac(self, layer: str) -> float:
        return _share(self.busy.get(layer, 0.0), self.op_wall)

    def setup_frac(self, layer: str) -> float:
        return _share(self.setup_busy.get(layer, 0.0), self.setup_wall)

    def coverage(self) -> float:
        """Share of op wall time that layer self times account for."""
        return _share(sum(self.busy.values()), self.op_wall)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(spans: Iterable[SpanRecord]) -> LayerSummary:
    """Aggregate spans into per-layer calls, self time and durations.

    Root spans are wall time, not a layer.  A call into a layer is a
    span whose parent belongs to another layer.
    """
    spans = list(spans)
    own = self_times(spans)
    names = {span.span_id: span.name for span in spans}
    summary = LayerSummary(0.0, 0.0, {}, {}, {}, {}, {})
    op_wall = setup_wall = 0.0
    for span in spans:
        if span.name == "op":
            op_wall += span.duration
            continue
        if span.name == "setup":
            setup_wall += span.duration
            continue
        layer = layer_of(span.name)
        in_setup = span.op is None
        busy = summary.setup_busy if in_setup else summary.busy
        durations = summary.setup_durations if in_setup else summary.durations
        busy[layer] = busy.get(layer, 0.0) + own[span.span_id]
        durations.setdefault(span.name, []).append(span.duration)
        if not in_setup and layer_of(names.get(span.parent, "op")) != layer:
            summary.calls[layer] = summary.calls.get(layer, 0) + 1
    return summary._replace(op_wall=op_wall, setup_wall=setup_wall)


def merge(summaries: Iterable[LayerSummary]) -> LayerSummary:
    """Combine the summaries of several processes' traces."""
    total = LayerSummary(0.0, 0.0, {}, {}, {}, {}, {})
    for summary in summaries:
        for field, value in summary._asdict().items():
            target = getattr(total, field)
            if not isinstance(value, dict):
                total = total._replace(**{field: target + value})
                continue
            for key, item in value.items():
                if isinstance(item, list):
                    target.setdefault(key, []).extend(item)
                else:
                    target[key] = target.get(key, 0) + item
    return total


def trace_overhead_frac(traced_wall: float, untraced_wall: float) -> float:
    """Traced op wall time over untraced op wall time, minus one."""
    return traced_wall / untraced_wall - 1.0
