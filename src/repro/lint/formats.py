"""Render a :class:`~repro.lint.diagnostics.LintReport`.

Three formats, selected by ``repro lint --format``:

* **text** -- compiler-style ``path:line:col: severity[CODE]: message``
  lines, with the offending source line quoted and a caret underline
  when the report carries the program text;
* **json** -- a stable machine-readable document;
* **sarif** -- SARIF 2.1.0, consumable by GitHub code scanning and
  every SARIF-aware CI viewer.
"""

from __future__ import annotations

import json

from repro.lint.diagnostics import Diagnostic, LintReport, Severity

#: SARIF levels for each severity.
_SARIF_LEVEL = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(report: LintReport) -> str:
    """Compiler-style text rendering, one finding per block."""
    lines: list[str] = []
    source_lines = (
        report.source.splitlines() if report.source is not None else None
    )
    for diagnostic in report:
        location = diagnostic.file or report.path
        if diagnostic.span is not None:
            location += f":{diagnostic.span.line}:{diagnostic.span.column}"
        lines.append(
            f"{location}: {diagnostic.severity}[{diagnostic.code}]: "
            f"{diagnostic.message}"
        )
        if (
            source_lines is not None
            and diagnostic.span is not None
            and 1 <= diagnostic.span.line <= len(source_lines)
        ):
            quoted = source_lines[diagnostic.span.line - 1]
            lines.append(f"    | {quoted}")
            width = max(1, _caret_width(diagnostic, quoted))
            lines.append(
                "    | " + " " * (diagnostic.span.column - 1) + "^" * width
            )
        for note in diagnostic.notes:
            lines.append(f"    note: {note}")
        if diagnostic.hint is not None:
            lines.append(f"    hint: {diagnostic.hint}")
    counts = report.counts()
    summary = ", ".join(
        f"{count} {name}{'s' if count != 1 else ''}"
        for name, count in counts.items()
        if count
    )
    lines.append(summary if summary else "no findings")
    return "\n".join(lines)


def _caret_width(diagnostic: Diagnostic, quoted: str) -> int:
    span = diagnostic.span
    assert span is not None
    if span.end_line == span.line:
        return span.end_column - span.column
    return len(quoted) - (span.column - 1)


def render_json(report: LintReport) -> str:
    """Stable JSON document with findings and a severity summary."""
    document = {
        "version": 1,
        "path": report.path,
        "summary": report.counts(),
        "diagnostics": [d.to_dict() for d in report],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 document for CI code-scanning upload.

    The driver name and the rule names come from the pipeline that
    produced the report (``repro-lint``, ``repro-check`` or
    ``repro-audit``); a report built without one names its rules by
    code under the driver ``repro``.
    """
    pipeline = report.pipeline
    names = pipeline.names() if pipeline is not None else {}
    tool = pipeline.tool if pipeline is not None else "repro"
    seen_codes = sorted({d.code for d in report})
    rules = [
        {
            "id": code,
            "name": names.get(code, code),
            "shortDescription": {"text": names.get(code, code)},
            "helpUri": "https://example.invalid/repro/docs/lint.md",
        }
        for code in seen_codes
    ]
    rule_index = {code: i for i, code in enumerate(seen_codes)}
    results = [_sarif_result(d, report, rule_index) for d in report]
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "informationUri": (
                            "https://example.invalid/repro/docs/lint.md"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def _sarif_result(
    diagnostic: Diagnostic, report: LintReport, rule_index: dict[str, int]
) -> dict[str, object]:
    message = diagnostic.message
    if diagnostic.notes:
        message += "\n" + "\n".join(diagnostic.notes)
    result: dict[str, object] = {
        "ruleId": diagnostic.code,
        "ruleIndex": rule_index[diagnostic.code],
        "level": _SARIF_LEVEL[diagnostic.severity],
        "message": {"text": message},
    }
    if diagnostic.span is not None:
        result["locations"] = [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": diagnostic.file or report.path
                    },
                    "region": {
                        "startLine": diagnostic.span.line,
                        "startColumn": diagnostic.span.column,
                        "endLine": diagnostic.span.end_line,
                        "endColumn": diagnostic.span.end_column,
                    },
                }
            }
        ]
    if diagnostic.hint is not None:
        result["fixes"] = [
            {"description": {"text": diagnostic.hint}}
        ]
    return result


def render(report: LintReport, fmt: str) -> str:
    """Dispatch on ``text`` / ``json`` / ``sarif``."""
    if fmt == "text":
        return render_text(report)
    if fmt == "json":
        return render_json(report)
    if fmt == "sarif":
        return render_sarif(report)
    raise ValueError(f"unknown lint output format: {fmt!r}")
