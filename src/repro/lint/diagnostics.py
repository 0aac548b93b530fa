"""Diagnostic records, reports and pipelines of the static-analysis layer.

A :class:`Diagnostic` is one finding: a stable code (``RL001``), a
severity, a human-readable message, an optional source span, the label
of the rule it concerns, an optional fix hint and free-form notes
(e.g. the edges of a witness cycle).  A :class:`LintReport` is an
ordered collection with severity gating for CI.

A :class:`Pipeline` is one front end -- ``repro lint``, ``repro check``
or ``repro audit`` -- as a value: its :class:`Pass` records, the codes
it emits besides theirs, its SARIF driver name, and the one run loop
and ``disabled`` check all three share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Collection,
    Generic,
    Iterable,
    Iterator,
    Mapping,
    TypeVar,
)

from repro.lang.spans import Span


class Severity(enum.Enum):
    """Severity of a diagnostic; orderable via :attr:`rank`."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """ERROR=2 > WARNING=1 > INFO=0."""
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Attributes:
        code: stable identifier (``RL001`` ... ); see ``docs/lint.md``.
        severity: error / warning / info.
        message: one-line human-readable description.
        span: source location (None when the finding is program-wide or
            the input was built programmatically without provenance).
        rule: label of the rule the finding concerns, if any.
        hint: optional suggested fix.
        notes: additional detail lines (witness-cycle edges, conflicting
            use sites, ...), rendered indented under the message.
        file: the file the finding is in, for multi-file runs (the
            audit pipeline); None means "the report's path" and keeps
            single-file lint/check output unchanged.
    """

    code: str
    severity: Severity
    message: str
    span: Span | None = None
    rule: str | None = None
    hint: str | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)
    file: str | None = None

    def sort_key(self) -> tuple[str, int, str, str]:
        """Deterministic report order: file, position, code, text."""
        start = self.span.start if self.span is not None else -1
        return (self.file or "", start, self.code, self.message)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (used by ``--format json``)."""
        out: dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.span is not None:
            out["span"] = {
                "start": self.span.start,
                "end": self.span.end,
                "line": self.span.line,
                "column": self.span.column,
                "endLine": self.span.end_line,
                "endColumn": self.span.end_column,
            }
        if self.file is not None:
            out["file"] = self.file
        if self.rule is not None:
            out["rule"] = self.rule
        if self.hint is not None:
            out["hint"] = self.hint
        if self.notes:
            out["notes"] = list(self.notes)
        return out


C = TypeVar("C")


@dataclass(frozen=True)
class Pass(Generic[C]):
    """One registered pass: its primary code, name, stage and callable.

    Attributes:
        code: the code the pass is registered under (stable public API).
        name: short kebab-case name, the SARIF rule name.
        stage: the pipeline stage the pass belongs to.
        run: the pass itself, from the pipeline's context to findings.
    """

    code: str
    name: str
    stage: str
    run: Callable[[C], Iterable[Diagnostic]]


@dataclass(frozen=True, eq=False)
class Pipeline(Generic[C]):
    """One diagnostic front end: its passes and its code catalogue.

    Attributes:
        tool: the SARIF driver name of its reports.
        passes: every pass, in pipeline order.
        secondary: code -> name for the codes no pass is registered
            under: those a pass emits beside its own code (RL004 beside
            RL003) and those the driver emits itself (RL000, RL313).
        unparsed: the code the driver reports for input that did not
            parse, if any.  It cannot be disabled: the input behind it
            was never analysed.
    """

    tool: str
    passes: tuple[Pass[C], ...]
    secondary: Mapping[str, str] = field(default_factory=dict)
    unparsed: str | None = None

    def names(self) -> dict[str, str]:
        """code -> name of every code the pipeline emits, sorted."""
        out = {spec.code: spec.name for spec in self.passes}
        out.update(self.secondary)
        return dict(sorted(out.items()))

    def codes(self) -> tuple[str, ...]:
        """Every code the pipeline emits, sorted."""
        return tuple(self.names())

    def check_disabled(self, disabled: Iterable[str]) -> frozenset[str]:
        """*disabled* as a set; ValueError on a code it cannot disable."""
        codes = frozenset(disabled)
        known = self.names()
        for code in sorted(codes):
            if code == self.unparsed:
                raise ValueError(
                    f"{code} cannot be disabled: it reports input that "
                    "was never analysed"
                )
            if code not in known:
                hint = (
                    f" (did you mean {code.upper()}?)"
                    if code.upper() in known
                    else ""
                )
                raise ValueError(
                    f"{self.tool} has no diagnostic code {code!r}{hint}"
                )
        return codes

    def run(
        self,
        context: C,
        disabled: Collection[str] = frozenset(),
        stages: Collection[str] | None = None,
    ) -> Iterator[Diagnostic]:
        """Every pass's findings in pipeline order, minus *disabled*.

        *stages*, when given, keeps only the passes of those stages.
        """
        for spec in self.passes:
            if stages is None or spec.stage in stages:
                for diagnostic in spec.run(context):
                    if diagnostic.code not in disabled:
                        yield diagnostic


@dataclass(frozen=True)
class LintReport:
    """All diagnostics of one lint run, in deterministic order.

    Attributes:
        diagnostics: the findings, sorted by source position and code.
        path: the program file the run analyzed (``<stdin>``/``<string>``
            for non-file input); used by the renderers.
        source: the program text, when available (lets renderers quote
            the offending line).
        pipeline: the front end that produced the report; SARIF takes
            its driver and rule names from it.
    """

    diagnostics: tuple[Diagnostic, ...]
    path: str = "<string>"
    source: str | None = None
    pipeline: Pipeline[Any] | None = field(default=None, compare=False)

    @classmethod
    def of(
        cls,
        diagnostics: Iterable[Diagnostic],
        path: str = "<string>",
        source: str | None = None,
        pipeline: Pipeline[Any] | None = None,
    ) -> "LintReport":
        """Build a report with the canonical ordering applied."""
        ordered = tuple(sorted(diagnostics, key=Diagnostic.sort_key))
        return cls(
            diagnostics=ordered, path=path, source=source, pipeline=pipeline
        )

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> tuple[Diagnostic, ...]:
        """All findings of exactly *severity*."""
        return tuple(d for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return self.by_severity(Severity.INFO)

    def counts(self) -> dict[str, int]:
        """``{"error": n, "warning": n, "info": n}``."""
        return {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len(self.infos),
        }

    def exit_code(self, strict: bool = False) -> int:
        """CI gating: 1 on errors (also on warnings when *strict*)."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0
