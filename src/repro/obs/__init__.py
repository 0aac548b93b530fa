"""Zero-dependency observability for the rewriting/chase pipeline.

The library's hot paths (:mod:`repro.rewriting`, :mod:`repro.chase`,
:mod:`repro.data.sql`, :mod:`repro.api`) are instrumented against the
module-level functions here -- :func:`span`, :func:`count`,
:func:`observe`, :func:`event`.  By default these route to a *disabled*
tracer and cost almost nothing (one attribute check); callers opt in by
installing sinks::

    from repro import obs
    from repro.obs import InMemorySink

    with obs.use(InMemorySink()) as tracer:
        session.answer(query)
        print(tracer.counter("engine.cache_misses"))

or, for tests, the one-liner::

    with obs.capture() as cap:
        session.answer(query)
    assert cap.counters()["rewrite.cqs_generated"] > 0

The CLI exposes the same machinery as ``repro trace`` (span tree on
stdout) and the global ``repro --metrics out.jsonl`` flag (JSONL event
stream).  Record schema and sink API are documented in
``docs/observability.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.sinks import InMemorySink, JSONLSink, NullSink, TreeSink
from repro.obs.tracer import NOOP_SPAN, SCHEMA_VERSION, Span, Tracer

__all__ = [
    "SCHEMA_VERSION",
    "Tracer",
    "Span",
    "NullSink",
    "InMemorySink",
    "TreeSink",
    "JSONLSink",
    "Capture",
    "span",
    "count",
    "observe",
    "event",
    "enabled",
    "get_tracer",
    "use",
    "capture",
]

_DISABLED = Tracer()
_current: Tracer = _DISABLED


def get_tracer() -> Tracer:
    """The currently installed tracer (disabled unless :func:`use` ran)."""
    return _current


def enabled() -> bool:
    """True iff instrumentation currently records anywhere."""
    return _current.enabled


def span(name: str, **attrs: Any):
    """Open a span on the current tracer (no-op handle when disabled)."""
    tracer = _current
    if not tracer.enabled:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def count(name: str, value: int | float = 1) -> None:
    """Bump a counter on the current tracer (no-op when disabled)."""
    tracer = _current
    if tracer.enabled:
        tracer.count(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op when disabled)."""
    tracer = _current
    if tracer.enabled:
        tracer.observe(name, value)


def event(name: str, **attrs: Any) -> None:
    """Emit a point-in-time event (no-op when disabled)."""
    tracer = _current
    if tracer.enabled:
        tracer.event(name, **attrs)


@contextmanager
def use(*sinks: Any, inherit: bool = True) -> Iterator[Tracer]:
    """Install a tracer routing to *sinks* for the duration of the block.

    With ``inherit=True`` (default) the new tracer also forwards to the
    previously installed tracer's sinks, so e.g. ``repro trace`` can
    stack a :class:`TreeSink` on top of a ``--metrics`` JSONL stream.
    Counters restart at zero either way; they are flushed (emitted as
    summary records) when the block exits, and sinks passed here are
    closed.
    """
    global _current
    previous = _current
    base = previous.sinks if inherit else ()
    tracer = Tracer(*base, *sinks)
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous
        tracer.flush()
        for sink in sinks:
            sink.close()


@dataclass
class Capture:
    """An installed tracer plus its in-memory sink, for assertions."""

    tracer: Tracer
    sink: InMemorySink

    def counters(self) -> dict[str, int | float]:
        """Live counter snapshot (no flush required)."""
        return self.tracer.counters()

    def counter(self, name: str) -> int | float:
        """One live counter value (0 if never bumped)."""
        return self.tracer.counter(name)

    def spans(self, name: str | None = None) -> list[dict[str, Any]]:
        """Recorded span records, optionally filtered by name."""
        return self.sink.spans(name)

    def span(self, name: str) -> dict[str, Any]:
        """First recorded span with *name* (KeyError if absent)."""
        return self.sink.span(name)

    def events(self, name: str | None = None) -> list[dict[str, Any]]:
        """Recorded event records, optionally filtered by name."""
        return self.sink.events(name)


@contextmanager
def capture(inherit: bool = False) -> Iterator[Capture]:
    """Record into a fresh :class:`InMemorySink`; yields a :class:`Capture`.

    Isolated from any outer tracer by default (``inherit=False``) so
    tests see only their own activity.
    """
    sink = InMemorySink()
    with use(sink, inherit=inherit) as tracer:
        yield Capture(tracer, sink)
