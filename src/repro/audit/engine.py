"""The audit pass pipeline: ``repro audit`` over Python source trees.

:data:`AUDIT` is a :class:`~repro.lint.diagnostics.Pipeline` like
``repro lint``'s and ``repro check``'s -- passes with stable public
codes, one run loop, one ``disabled`` check -- and a
:class:`~repro.lint.diagnostics.LintReport` comes out the other end, so
the shared renderers, ``--strict`` gating and exit-code contract apply
unchanged.  The unit of analysis is a set of *Python files* (the
project's own source, or user extension code) instead of a TGD
program.

Suppressions are inline: ``# audit: ok[RL303] justification`` on the
finding's line (or the line above) drops it.  The justification text
is mandatory -- a bare marker suppresses nothing and is itself
reported (RL313 family), so every silenced finding carries its
rationale in the diff.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro import obs
from repro.audit.asyncpasses import (
    pass_blocking_db_in_async,
    pass_blocking_io_in_async,
    pass_sleep_in_async,
    pass_sync_lock_in_async,
)
from repro.audit.executors import (
    pass_done_callback_swallows,
    pass_future_dropped,
    pass_spawn_unpicklable,
)
from repro.audit.lifecycle import (
    pass_loop_not_closed,
    pass_run_forever_no_join,
    pass_unbounded_wait,
)
from repro.audit.locks import (
    pass_lock_order,
    pass_manual_acquire,
    pass_unguarded_shared_write,
)
from repro.audit.model import AuditFile, iter_python_files
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Pass,
    Pipeline,
    Severity,
)

#: The ``repro audit`` front end.  Codes are stable public API.
AUDIT: Pipeline[Sequence[AuditFile]] = Pipeline(
    tool="repro-audit",
    passes=(
        Pass("RL300", "lock-order-cycle", "locks", pass_lock_order),
        Pass("RL301", "manual-acquire", "locks", pass_manual_acquire),
        Pass("RL302", "unguarded-shared-write", "locks", pass_unguarded_shared_write),
        Pass("RL303", "sleep-in-async", "async", pass_sleep_in_async),
        Pass("RL304", "blocking-db-in-async", "async", pass_blocking_db_in_async),
        Pass("RL305", "blocking-io-in-async", "async", pass_blocking_io_in_async),
        Pass("RL306", "sync-lock-in-async", "async", pass_sync_lock_in_async),
        Pass("RL307", "future-dropped", "executors", pass_future_dropped),
        Pass("RL308", "done-callback-swallows", "executors", pass_done_callback_swallows),
        Pass("RL309", "spawn-unpicklable", "executors", pass_spawn_unpicklable),
        Pass("RL310", "loop-not-closed", "lifecycle", pass_loop_not_closed),
        Pass("RL311", "run-forever-no-join", "lifecycle", pass_run_forever_no_join),
        Pass("RL312", "unbounded-wait", "lifecycle", pass_unbounded_wait),
    ),
    secondary={
        "RL313": "unparsable-file",
        "RL314": "unjustified-suppression",
    },
    unparsed="RL313",
)


def audit_files(
    files: Sequence[AuditFile],
    *,
    disabled: Iterable[str] = frozenset(),
    path: str = "<audit>",
) -> LintReport:
    """Run every audit pass over parsed *files*.

    *disabled* codes are suppressed globally; :data:`AUDIT` must know
    each one (ValueError otherwise), and RL313 cannot be disabled.
    """
    muted = AUDIT.check_disabled(disabled)
    diagnostics = [d for d in _file_findings(files) if d.code not in muted]
    parsed = [file for file in files if file.tree is not None]
    by_path = {file.path: file for file in files}
    with obs.span("audit.run", files=len(files)):
        for diagnostic in AUDIT.run(parsed, muted):
            if _suppressed(diagnostic, by_path):
                obs.count("audit.suppressed")
                continue
            diagnostics.append(diagnostic)
    report = LintReport.of(diagnostics, path=path, pipeline=AUDIT)
    obs.count("audit.files", len(files))
    obs.count("audit.findings", len(report))
    return report


def _file_findings(files: Sequence[AuditFile]) -> Iterator[Diagnostic]:
    """The driver's own codes: unparsable files and bare suppressions."""
    for file in files:
        if file.error is not None:
            yield Diagnostic(
                code="RL313",
                severity=Severity.ERROR,
                message=f"cannot parse: {file.error.msg}",
                span=file.span_at_line(file.error.lineno or 1),
                file=file.path,
            )
        for lineno in file.bare_suppressions():
            yield Diagnostic(
                code="RL314",
                severity=Severity.WARNING,
                message=(
                    "suppression marker without a justification: "
                    "`# audit: ok[...]` must say why"
                ),
                span=file.span_at_line(lineno),
                file=file.path,
                hint="append the reason after the bracket, e.g. "
                "`# audit: ok[RL312] future is done (as_completed)`",
            )


def _suppressed(diagnostic: Diagnostic, by_path: dict[str, AuditFile]) -> bool:
    if diagnostic.file is None or diagnostic.span is None:
        return False
    file = by_path.get(diagnostic.file)
    if file is None:
        return False
    return file.suppressed(diagnostic.code, diagnostic.span.line)


def audit_paths(
    paths: Sequence[str | Path],
    *,
    disabled: Iterable[str] = frozenset(),
) -> LintReport:
    """Audit every ``.py`` file under *paths* (files or directories).

    Unreadable paths raise (:class:`FileNotFoundError`/:class:`OSError`)
    -- the CLI maps them to exit 2; syntax errors in readable files
    become RL313 diagnostics instead.
    """
    resolved = iter_python_files([str(p) for p in paths])
    files = [AuditFile(str(p), Path(p).read_text()) for p in resolved]
    display = ", ".join(str(p) for p in paths)
    return audit_files(files, disabled=disabled, path=display)
