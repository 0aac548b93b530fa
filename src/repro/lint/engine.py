"""The lint pass pipeline.

:data:`LINT` lists the passes; :func:`lint_program` runs them over
parsed rules (and an optional query); :func:`lint_source` starts from
program text, converting parse failures into ``RL000`` diagnostics
instead of exceptions; :func:`preflight` is the RL001 pass alone, which
every command that reads a program runs before its real work.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

from repro.lang.errors import ParseError
from repro.lang.parser import parse_program, parse_query
from repro.lang.queries import ConjunctiveQuery
from repro.lang.tgd import TGD
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Pass,
    Pipeline,
    Severity,
)
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

#: The ``repro lint`` front end.  Codes are stable public API.
LINT: Pipeline[LintContext] = Pipeline(
    tool="repro-lint",
    passes=(
        Pass("RL001", "arity-mismatch", "wellformed", pass_arity_consistency),
        Pass("RL002", "existential-head-variable", "wellformed", pass_existential_head_variables),
        Pass("RL003", "duplicate-rule", "wellformed", pass_duplicate_and_subsumed_rules),
        Pass("RL005", "unused-predicate", "wellformed", pass_unused_predicates),
        Pass("RL006", "underivable-predicate", "wellformed", pass_underivable_predicates),
        Pass("RL007", "simplicity-violation", "wellformed", pass_simplicity),
        Pass("RL010", "dangerous-position-cycle", "recursion", pass_position_graph_recursion),
        Pass("RL011", "dangerous-pnode-cycle", "recursion", pass_pnode_graph_recursion),
        Pass("RL020", "high-branching-relation", "risk", pass_high_branching),
        Pass("RL021", "rewriting-blowup-risk", "risk", pass_rewriting_blowup),
        Pass("RL022", "no-fo-guarantee", "risk", pass_no_fo_guarantee),
    ),
    secondary={
        "RL000": "parse-error",
        "RL004": "subsumed-rule",
        "RL012": "pnode-budget-exceeded",
        "RL013": "position-graph-undefined",
    },
    unparsed="RL000",
)


@dataclass(frozen=True)
class LintConfig:
    """Knobs of one lint run.

    Attributes:
        budget: the rewriting budget the risk passes warn against.
        branching_threshold: RL020 fires at this many deriving rules.
        wr_max_nodes: P-node graph budget for the WR check.
        stages: which pipeline stages run.
        disabled: diagnostic codes to suppress; :data:`LINT` must know
            each one (ValueError otherwise), and RL000 cannot be
            disabled.
    """

    budget: RewritingBudget = field(default_factory=RewritingBudget.default)
    branching_threshold: int = 8
    wr_max_nodes: int = 20_000
    stages: tuple[str, ...] = ("wellformed", "recursion", "risk")
    disabled: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        LINT.check_disabled(self.disabled)


def lint_program(
    rules: Sequence[TGD],
    query: ConjunctiveQuery | None = None,
    config: LintConfig | None = None,
    path: str = "<string>",
    source: str | None = None,
) -> LintReport:
    """Run the lint pipeline over parsed *rules* (and *query*)."""
    config = config or LintConfig()
    ctx = LintContext(tuple(rules), config, query)
    return LintReport.of(
        LINT.run(ctx, config.disabled, config.stages),
        path=path,
        source=source,
        pipeline=LINT,
    )


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
            [_parse_diagnostic(error)], path=path, source=text, pipeline=LINT
        )
    query = None
    if query_text is not None:
        try:
            query = parse_query(query_text)
        except ParseError as error:
            diagnostic = dataclasses.replace(
                _parse_diagnostic(error, prefix="query: "), span=None
            )
            return LintReport.of(
                [diagnostic], path=path, source=text, pipeline=LINT
            )
    report = lint_program(rules, query, config, path=path, source=text)
    return LintReport.of(
        (_strip_query_span(d) for d in report),
        path=path,
        source=text,
        pipeline=LINT,
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
    rules: Sequence[TGD], query: ConjunctiveQuery | None = None
) -> tuple[Diagnostic, ...]:
    """The RL001 arity findings of *rules* (and *query*), and only those.

    Every command that reads a program runs this before its real work;
    a clean program pays a single pass over its atoms.
    """
    ctx = LintContext(tuple(rules), LintConfig(), query)
    return tuple(pass_arity_consistency(ctx))
