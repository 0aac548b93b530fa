"""Static analysis (lint) for TGD programs and queries.

A pass-pipeline analyzer that turns the paper's graph conditions --
and a layer of everyday well-formedness checks -- into structured
:class:`~repro.lint.diagnostics.Diagnostic` records with stable codes,
severities, source spans and fix hints, renderable as text, JSON or
SARIF.  See ``docs/lint.md`` for the full code catalogue.

Typical usage::

    from repro.lint import lint_source, render
    report = lint_source(open("ontology.dlp").read(), path="ontology.dlp")
    print(render(report, "text"))
    raise SystemExit(report.exit_code(strict=True))
"""

from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Pass,
    Pipeline,
    Severity,
)
from repro.lint.engine import (
    LINT,
    LintConfig,
    lint_program,
    lint_source,
    preflight,
)
from repro.lint.formats import render, render_json, render_sarif, render_text
from repro.lint.passes import LintContext, rule_subsumes

__all__ = [
    "Diagnostic",
    "LINT",
    "LintConfig",
    "LintContext",
    "LintReport",
    "Pass",
    "Pipeline",
    "Severity",
    "lint_program",
    "lint_source",
    "preflight",
    "render",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_subsumes",
]
