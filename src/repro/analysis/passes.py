"""The constraint-interaction check passes (RL2xx) of ``repro check``.

These passes surface the whole-ruleset analyzer -- the termination
lattice of :mod:`repro.analysis.termination` and the separability
partition of :mod:`repro.analysis.separability` -- through the shared
lint diagnostic stack, as a fourth ``interaction`` stage next to the
RL1xx workload/coverage/estimate stages:

* **RL200** (info): the set is *not* weakly acyclic but a higher
  lattice member certifies chase termination; the weak-acyclicity
  witness cycle is attached so the user sees why the classical test
  fails.  (Weakly-acyclic sets emit nothing: that is the quiet,
  expected case.)
* **RL201** (warning): no lattice member certifies termination; the
  witness of the most general criterion (SWA) is attached, each edge
  with rule provenance.
* **RL202** (info): the non-terminating set admits a proper stratified
  partition into a chase-safe core and a rewriting residual, with the
  static rewriting-size bounds of the residual vs the full set.
* **RL203** (warning): the non-terminating set admits no chase-safe
  core at all -- every strategy beyond approximation is off the table.

Certificates and partitions are digest-cached, so the four passes
share one computation per rule set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.depgraph import rules_by_name
from repro.analysis.separability import SeparabilityReport, separate
from repro.analysis.termination import (
    TerminationCertificate,
    TerminationCriterion,
    termination_certificate,
)
from repro.lang.spans import Span
from repro.lang.tgd import TGD
from repro.lint.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # imported lazily to avoid a package cycle
    from repro.checkers.passes import CheckContext


def _anchor(
    certificate: TerminationCertificate, rules: tuple[TGD, ...]
) -> tuple[Span | None, str | None]:
    """Span and label of the first rule implicated in the witness."""
    implicated = set(certificate.implicated_rules)
    for name, rule in rules_by_name(rules).items():
        if name in implicated:
            return rule.span, name
    return None, None


def _verdict_lines(certificate: TerminationCertificate) -> tuple[str, ...]:
    lines = []
    for verdict in certificate.verdicts:
        if verdict.holds:
            how = (
                f"implied by {verdict.implied_by.value}"
                if verdict.implied_by
                else "holds"
            )
        else:
            how = "fails"
        lines.append(f"{verdict.criterion.value}: {how}")
    return tuple(lines)


def _project_separability(ctx: CheckContext) -> SeparabilityReport:
    rules = tuple(ctx.project.rules)
    return separate(
        rules,
        queries=ctx.project.queries,
        budget=ctx.config.budget,
        default_depth=ctx.config.default_depth,
        certificate=termination_certificate(rules),
    )


def pass_lattice_admitted(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL200: terminating, but only above weak acyclicity."""
    rules = tuple(ctx.project.rules)
    if not rules:
        return
    certificate = termination_certificate(rules)
    wa = certificate.verdict(TerminationCriterion.WEAK_ACYCLICITY)
    if not certificate.terminating or wa.holds:
        return
    level = certificate.level
    assert level is not None
    span, label = _anchor(certificate, rules)
    yield Diagnostic(
        code="RL200",
        severity=Severity.INFO,
        message=(
            "ontology is not weakly acyclic but its chase still "
            f"terminates: certified by {level.value}"
        ),
        span=span,
        rule=label,
        notes=_verdict_lines(certificate)
        + tuple(f"weak-acyclicity witness: {line}" for line in wa.witness),
        hint=(
            "nothing to fix: the chase strategy remains available; "
            "this records why the classical test rejects the set"
        ),
    )


def pass_non_terminating(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL201: no lattice member certifies chase termination."""
    rules = tuple(ctx.project.rules)
    if not rules:
        return
    certificate = termination_certificate(rules)
    if certificate.terminating:
        return
    span, label = _anchor(certificate, rules)
    yield Diagnostic(
        code="RL201",
        severity=Severity.WARNING,
        message=(
            "no termination criterion (weak, joint or super-weak "
            "acyclicity) certifies that the chase terminates"
        ),
        span=span,
        rule=label,
        notes=_verdict_lines(certificate)
        + tuple(f"witness: {line}" for line in certificate.witness),
        hint=(
            "break the value-inventing cycle, or rely on rewriting / "
            "approximation for the affected queries"
        ),
    )


def pass_separable_core(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL202: the non-terminating set has a chase-safe core."""
    rules = tuple(ctx.project.rules)
    if not rules or termination_certificate(rules).terminating:
        return
    report = _project_separability(ctx)
    if not report.proper:
        return
    core_level = report.core_certificate.level
    assert core_level is not None
    bounds = ""
    if report.residual_bound is not None and report.full_bound is not None:
        bounds = (
            f"; workload disjunct bound {report.residual_bound} on the "
            f"residual vs {report.full_bound} on the full set"
        )
    names = {
        id(rule): name for name, rule in rules_by_name(rules).items()
    }
    yield Diagnostic(
        code="RL202",
        severity=Severity.INFO,
        message=(
            f"non-terminating set is separable: a chase-safe core of "
            f"{len(report.core)} rule(s) ({core_level.value}) and a "
            f"rewriting residual of {len(report.residual)} rule(s)"
        ),
        notes=(
            "core: "
            + ", ".join(names.get(id(rule), "?") for rule in report.core),
            "residual: "
            + ", ".join(names.get(id(rule), "?") for rule in report.residual)
            + bounds,
        ),
        hint=(
            "the SPLIT strategy can chase the core once and rewrite "
            "queries over the residual only"
        ),
    )


def pass_inseparable(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL203: non-terminating and no chase-safe core exists."""
    rules = tuple(ctx.project.rules)
    if not rules:
        return
    certificate = termination_certificate(rules)
    if certificate.terminating:
        return
    report = _project_separability(ctx)
    if report.proper:
        return
    span, label = _anchor(certificate, rules)
    yield Diagnostic(
        code="RL203",
        severity=Severity.WARNING,
        message=(
            "non-terminating set is inseparable: no stratified "
            "chase-safe core found"
        ),
        span=span,
        rule=label,
        notes=(
            "every rule is entangled with a value-inventing cycle or "
            "reads a relation derived by one",
        ),
        hint=(
            "answers for affected queries fall back to depth-bounded "
            "approximation; consider restructuring the recursion"
        ),
    )
