"""The lint pass pipeline.

:func:`lint_program` runs the registered passes over parsed rules (and
an optional query); :func:`lint_source` starts from program text,
converting parse failures into ``RL000`` diagnostics instead of
exceptions; :func:`preflight` is the cheap error-level subset that
``repro classify`` and ``repro rewrite`` run before their real work.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.lang.errors import ParseError
from repro.lang.parser import parse_program, parse_query
from repro.lang.queries import ConjunctiveQuery
from repro.lang.tgd import TGD
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.passes import (
    LintContext,
    pass_arity_consistency,
    pass_duplicate_and_subsumed_rules,
    pass_existential_head_variables,
    pass_high_branching,
    pass_no_fo_guarantee,
    pass_pnode_graph_recursion,
    pass_position_graph_recursion,
    pass_rewriting_blowup,
    pass_simplicity,
    pass_underivable_predicates,
    pass_unused_predicates,
)
from repro.rewriting.budget import RewritingBudget

LintPass = Callable[[LintContext], Iterator[Diagnostic]]


@dataclass(frozen=True)
class PassSpec:
    """One registered pass: its primary code, stage and callable."""

    code: str
    name: str
    stage: str  # "wellformed" | "recursion" | "risk"
    run: LintPass
    preflight: bool = False  # cheap + error-capable: runs before classify/rewrite


#: Every pass, in pipeline order.  Codes are stable public API.
PASS_REGISTRY: tuple[PassSpec, ...] = (
    PassSpec("RL001", "arity-mismatch", "wellformed", pass_arity_consistency, preflight=True),
    PassSpec("RL002", "existential-head-variable", "wellformed", pass_existential_head_variables),
    PassSpec("RL003", "duplicate-rule", "wellformed", pass_duplicate_and_subsumed_rules),
    PassSpec("RL005", "unused-predicate", "wellformed", pass_unused_predicates),
    PassSpec("RL006", "underivable-predicate", "wellformed", pass_underivable_predicates),
    PassSpec("RL007", "simplicity-violation", "wellformed", pass_simplicity),
    PassSpec("RL010", "dangerous-position-cycle", "recursion", pass_position_graph_recursion),
    PassSpec("RL011", "dangerous-pnode-cycle", "recursion", pass_pnode_graph_recursion),
    PassSpec("RL020", "high-branching-relation", "risk", pass_high_branching),
    PassSpec("RL021", "rewriting-blowup-risk", "risk", pass_rewriting_blowup),
    PassSpec("RL022", "no-fo-guarantee", "risk", pass_no_fo_guarantee),
)

#: Codes emitted by passes registered under a sibling code.
SECONDARY_CODES: dict[str, str] = {
    "RL000": "parse-error",
    "RL004": "subsumed-rule",
    "RL012": "pnode-budget-exceeded",
    "RL013": "position-graph-undefined",
}


def all_codes() -> tuple[str, ...]:
    """Every diagnostic code the linter can emit, sorted."""
    return tuple(
        sorted({spec.code for spec in PASS_REGISTRY} | set(SECONDARY_CODES))
    )


def code_names() -> dict[str, str]:
    """code -> short kebab-case name, for SARIF rule metadata."""
    out = {spec.code: spec.name for spec in PASS_REGISTRY}
    out.update(SECONDARY_CODES)
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class LintConfig:
    """Knobs of one lint run.

    Attributes:
        budget: the rewriting budget the risk passes warn against.
        branching_threshold: RL020 fires at this many deriving rules.
        default_depth: assumed rounds for RL021 on cyclic programs.
        wr_max_nodes: P-node graph budget for the WR check.
        stages: which pipeline stages run.
        disabled: diagnostic codes to suppress.
    """

    budget: RewritingBudget = field(default_factory=RewritingBudget.default)
    branching_threshold: int = 8
    default_depth: int = 10
    wr_max_nodes: int = 20_000
    stages: tuple[str, ...] = ("wellformed", "recursion", "risk")
    disabled: frozenset[str] = frozenset()


def lint_program(
    rules: Sequence[TGD],
    query: ConjunctiveQuery | None = None,
    config: LintConfig | None = None,
    path: str = "<string>",
    source: str | None = None,
) -> LintReport:
    """Run the lint pipeline over parsed *rules* (and *query*)."""
    config = config or LintConfig()
    ctx = LintContext(
        rules=tuple(rules),
        query=query,
        budget=config.budget,
        branching_threshold=config.branching_threshold,
        default_depth=config.default_depth,
        wr_max_nodes=config.wr_max_nodes,
    )
    diagnostics: list[Diagnostic] = []
    for spec in PASS_REGISTRY:
        if spec.stage not in config.stages:
            continue
        diagnostics.extend(
            d for d in spec.run(ctx) if d.code not in config.disabled
        )
    return LintReport.of(diagnostics, path=path, source=source)


def lint_source(
    text: str,
    query_text: str | None = None,
    config: LintConfig | None = None,
    path: str = "<string>",
) -> LintReport:
    """Lint program *text*; parse failures become RL000 diagnostics."""
    try:
        rules = parse_program(text)
    except ParseError as error:
        return LintReport.of(
            [_parse_diagnostic(error)], path=path, source=text
        )
    query = None
    if query_text is not None:
        try:
            query = parse_query(query_text)
        except ParseError as error:
            diagnostic = dataclasses.replace(
                _parse_diagnostic(error, prefix="query: "), span=None
            )
            return LintReport.of([diagnostic], path=path, source=text)
    report = lint_program(rules, query, config, path=path, source=text)
    return LintReport.of(
        (_strip_query_span(d) for d in report), path=path, source=text
    )


def _strip_query_span(diagnostic: Diagnostic) -> Diagnostic:
    """Drop spans that index the separate query text, not the program.

    Query-attributed diagnostics carry spans into ``query_text``; the
    report's source is the *program* text, so rendering them would
    underline the wrong characters.
    """
    if diagnostic.rule is not None and diagnostic.rule.startswith("query "):
        return dataclasses.replace(diagnostic, span=None)
    return diagnostic


def _parse_diagnostic(error: ParseError, prefix: str = "") -> Diagnostic:
    return Diagnostic(
        code="RL000",
        severity=Severity.ERROR,
        message=f"{prefix}{error}",
        span=error.span,
    )


def preflight(
    rules: Sequence[TGD],
    query: ConjunctiveQuery | None = None,
    config: LintConfig | None = None,
) -> tuple[Diagnostic, ...]:
    """Error-level well-formedness findings only, as fast as possible.

    This is the subset ``repro classify`` and ``repro rewrite`` run
    before doing real work: only passes marked ``preflight`` execute,
    and only error-severity findings are returned, so a clean program
    pays a single pass over its atoms.
    """
    config = config or LintConfig()
    ctx = LintContext(rules=tuple(rules), query=query, budget=config.budget)
    findings: list[Diagnostic] = []
    for spec in PASS_REGISTRY:
        if not spec.preflight:
            continue
        findings.extend(
            d
            for d in spec.run(ctx)
            if d.severity is Severity.ERROR and d.code not in config.disabled
        )
    return tuple(findings)
