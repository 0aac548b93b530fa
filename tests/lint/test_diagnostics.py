"""Diagnostic records, report ordering, exit-code gating and the
code catalogue of the three pipelines."""

from pathlib import Path

from repro.audit import AUDIT
from repro.checkers import CHECK
from repro.lang.spans import Span
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.engine import LINT

PIPELINES = (LINT, CHECK, AUDIT)
DOCS = Path(__file__).resolve().parents[2] / "docs" / "lint.md"


def _diag(code="RL001", severity=Severity.WARNING, start=None, message="m"):
    span = None
    if start is not None:
        span = Span(
            start=start,
            end=start + 1,
            line=1,
            column=start + 1,
            end_line=1,
            end_column=start + 2,
        )
    return Diagnostic(code=code, severity=severity, message=message, span=span)


class TestSeverity:
    def test_ranks_are_ordered(self):
        assert Severity.ERROR.rank > Severity.WARNING.rank > Severity.INFO.rank

    def test_str_is_the_value(self):
        assert str(Severity.WARNING) == "warning"

    def test_constructible_from_value(self):
        assert Severity("error") is Severity.ERROR


class TestDiagnostic:
    def test_to_dict_minimal(self):
        d = _diag()
        assert d.to_dict() == {
            "code": "RL001",
            "severity": "warning",
            "message": "m",
        }

    def test_to_dict_with_span_and_extras(self):
        d = Diagnostic(
            code="RL010",
            severity=Severity.WARNING,
            message="m",
            span=Span(0, 4, 1, 1, 1, 5),
            rule="R1",
            hint="fix it",
            notes=("edge",),
        )
        out = d.to_dict()
        assert out["span"] == {
            "start": 0,
            "end": 4,
            "line": 1,
            "column": 1,
            "endLine": 1,
            "endColumn": 5,
        }
        assert out["rule"] == "R1"
        assert out["hint"] == "fix it"
        assert out["notes"] == ["edge"]

    def test_sort_key_position_before_code(self):
        late = _diag(code="RL001", start=10)
        early = _diag(code="RL020", start=2)
        assert early.sort_key() < late.sort_key()

    def test_spanless_sorts_first(self):
        spanless = _diag(code="RL022")
        spanned = _diag(code="RL001", start=0)
        assert spanless.sort_key() < spanned.sort_key()


class TestLintReport:
    def test_of_sorts(self):
        report = LintReport.of(
            [_diag(code="RL020", start=9), _diag(code="RL001", start=1)]
        )
        assert [d.code for d in report] == ["RL001", "RL020"]

    def test_counts(self):
        report = LintReport.of(
            [
                _diag(severity=Severity.ERROR),
                _diag(severity=Severity.WARNING),
                _diag(severity=Severity.WARNING, message="other"),
                _diag(severity=Severity.INFO),
            ]
        )
        assert report.counts() == {"error": 1, "warning": 2, "info": 1}
        assert len(report.errors) == 1
        assert len(report.warnings) == 2
        assert len(report.infos) == 1

    def test_exit_code_errors(self):
        report = LintReport.of([_diag(severity=Severity.ERROR)])
        assert report.exit_code() == 1
        assert report.exit_code(strict=True) == 1

    def test_exit_code_warnings_gated_by_strict(self):
        report = LintReport.of([_diag(severity=Severity.WARNING)])
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_exit_code_infos_always_clean(self):
        report = LintReport.of([_diag(severity=Severity.INFO)])
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 0

    def test_len_and_iter(self):
        report = LintReport.of([_diag(), _diag(message="n")])
        assert len(report) == 2
        assert all(isinstance(d, Diagnostic) for d in report)

    def test_pipeline_recorded_outside_equality(self):
        report = LintReport.of([_diag()], pipeline=LINT)
        assert report.pipeline is LINT
        assert report == LintReport.of([_diag()])


class TestCodeCatalogue:
    """One catalogue test over the three pipelines."""

    def test_all_codes_sorted_and_stable(self):
        for pipeline in PIPELINES:
            codes = pipeline.codes()
            assert codes == tuple(sorted(codes))
            assert len({spec.code for spec in pipeline.passes}) == len(
                pipeline.passes
            )
            assert set(pipeline.secondary) <= set(codes)
        codes = LINT.codes()
        assert "RL001" in codes and "RL010" in codes and "RL011" in codes

    def test_every_code_has_a_name(self):
        for pipeline in PIPELINES:
            names = pipeline.names()
            assert set(names) == set(pipeline.codes())
            for name in names.values():
                assert name and name == name.lower() and " " not in name

    def test_codes_disjoint_across_pipelines(self):
        seen: dict[str, str] = {}
        for pipeline in PIPELINES:
            for code in pipeline.codes():
                assert code not in seen, (code, seen.get(code), pipeline.tool)
                seen[code] = pipeline.tool
        assert len(seen) == 42

    def test_every_code_documented_under_its_name(self):
        text = DOCS.read_text()
        for pipeline in PIPELINES:
            for code, name in pipeline.names().items():
                assert f"**{code} `{name}`**" in text, code

    def test_driver_names(self):
        assert [p.tool for p in PIPELINES] == [
            "repro-lint",
            "repro-check",
            "repro-audit",
        ]

    def test_unparsed_codes(self):
        assert LINT.unparsed == "RL000"
        assert CHECK.unparsed is None
        assert AUDIT.unparsed == "RL313"
