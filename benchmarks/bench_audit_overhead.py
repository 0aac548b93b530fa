"""Concurrency-audit wall-time budget over the repo's own source.

CI dogfoods ``repro audit --strict src/repro`` as a blocking job, so
the analyzer's end-to-end cost on the real tree is a latency budget,
not a curiosity.  This bench runs the full pipeline (file discovery,
parsing, all RL3xx passes, suppression handling) over ``src/repro``
and gates the wall time under 10 seconds -- far above today's cost, so
only a pathological regression (e.g. an accidentally quadratic pass)
trips it, never runner noise.

The JSON artifact also pins the *deterministic* shape of the dogfood
run: file count and finding counts.  Those are compared against the
committed baseline by ``compare_baselines.py`` (the ``seconds`` key is
timing-exempt as everywhere), so a new finding sneaking into the tree
-- or a pass silently dying and reporting nothing -- shows up as
baseline drift even though the strict CI job is a separate gate.
"""

import time
from pathlib import Path

from _harness import write_artifact, write_json_artifact

from repro.audit import audit_paths
from repro.lint.diagnostics import Severity

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BUDGET_SECONDS = 10.0


def test_audit_overhead_on_own_source(benchmark):
    report = benchmark(lambda: audit_paths([REPO_SRC]))

    start = time.perf_counter()
    report = audit_paths([REPO_SRC])
    seconds = time.perf_counter() - start

    files = {d.file for d in report.diagnostics if d.file}
    errors = sum(1 for d in report.diagnostics if d.severity is Severity.ERROR)
    warnings = sum(
        1 for d in report.diagnostics if d.severity is Severity.WARNING
    )
    infos = sum(1 for d in report.diagnostics if d.severity is Severity.INFO)
    source_files = sorted(REPO_SRC.rglob("*.py"))

    payload = {
        "seconds": round(seconds, 4),
        "budget_seconds": BUDGET_SECONDS,
        "source_files": len(source_files),
        "errors": errors,
        "warnings": warnings,
        "infos": infos,
    }
    write_json_artifact("audit_overhead.json", payload)
    write_artifact(
        "audit_overhead.txt",
        "\n".join(
            [
                f"repro audit over src/repro ({len(source_files)} files)",
                "",
                f"wall time    {seconds:.3f}s (budget {BUDGET_SECONDS:.0f}s)",
                f"findings     {errors} errors, {warnings} warnings, "
                f"{infos} infos in {len(files)} files",
            ]
        ),
    )

    assert seconds < BUDGET_SECONDS, (
        f"audit of src/repro took {seconds:.2f}s (budget {BUDGET_SECONDS}s)"
    )
    # The dogfood gate in CI runs strict: errors and warnings must be
    # zero here too, or the audit job is already red.
    assert errors == 0 and warnings == 0
