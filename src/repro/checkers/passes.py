"""The cross-artifact analysis passes behind ``repro check``.

Where ``repro lint`` (RL0xx) validates one TGD program in isolation,
these passes (RL1xx) validate a whole :class:`~repro.checkers.project.
Project` -- ontology, query workload, mappings and source data --
*against each other*:

* **workload** (``RL100``/``RL101``/``RL107``): rules unreachable from
  any workload query via position-graph reachability (dead rules) and
  relations produced but never consumed;
* **coverage** (``RL102``-``RL104``, ``RL106``): relations with no
  mapping and no backing facts (statically-empty disjuncts), arity
  mismatches between mapping assertions and the ontology / source
  schema, mappings whose source relations do not exist;
* **estimate** (``RL105``): the static rewriting-size bound of
  :mod:`repro.checkers.estimator`, flagged when it exceeds the budget;
* **interaction** (``RL200``-``RL203``, :mod:`repro.analysis.passes`):
  whole-ruleset constraint interaction -- where the ontology sits in
  the chase-termination lattice and whether a non-terminating set
  separates into a chase-safe core plus a rewriting residual.

Diagnostics, reports, severities and renderers are shared with the
lint subsystem (:mod:`repro.lint`); the code catalogue lives in
``docs/lint.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.depgraph import derivers, rule_name
from repro.analysis.passes import (
    pass_inseparable,
    pass_lattice_admitted,
    pass_non_terminating,
    pass_separable_core,
)
from repro.checkers.estimator import estimate_disjunct_bound
from repro.checkers.project import Project
from repro.data.database import Database
from repro.graphs.analysis import reachable
from repro.graphs.position_graph import build_position_graph
from repro.lang.atoms import Position
from repro.lang.errors import NotSupportedError
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Pass,
    Pipeline,
    Severity,
)
from repro.obda.mappings import MappingAssertion
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.relevance import relevant_rules


@dataclass(frozen=True)
class CheckConfig:
    """Knobs of one check run.

    Attributes:
        budget: the rewriting budget RL105 estimates against.
        default_depth: assumed rounds for RL105 on cyclic programs.
        disabled: diagnostic codes to suppress; :data:`CHECK` must know
            each one (ValueError otherwise).
    """

    budget: RewritingBudget = field(default_factory=RewritingBudget.default)
    default_depth: int = 10
    disabled: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        CHECK.check_disabled(self.disabled)


def supported_relations(
    mappings: Sequence[MappingAssertion] | None,
    source: Database | None,
) -> frozenset[str]:
    """Relations the virtual ABox can hold facts over.

    Mirrors :meth:`repro.api.Session.abox`: with mappings, the ABox is
    the mappings' output (targets of assertions whose source relations
    all exist non-empty, when the source is known); without mappings the
    source database *is* the ABox, so its non-empty relations count.
    An atom over any other relation matches nothing, which is what
    RL102 and RL106 report.
    """
    nonempty: frozenset[str] | None = None
    if source is not None:
        nonempty = frozenset(
            relation
            for relation in source.relations()
            if source.count(relation) > 0
        )
    if mappings is not None:
        out: set[str] = set()
        for mapping in mappings:
            if nonempty is not None and any(
                atom.relation not in nonempty
                for atom in mapping.source_body
            ):
                continue
            out.add(mapping.target.relation)
        return frozenset(out)
    if nonempty is not None:
        return nonempty
    raise ValueError(
        "supported_relations needs mappings and/or a source database"
    )


@dataclass
class CheckContext:
    """Shared (memoized) state of one ``repro check`` run."""

    project: Project
    config: CheckConfig = field(default_factory=CheckConfig)
    _reachable: frozenset[str] | None = field(default=None, repr=False)
    _supported: frozenset[str] | None = field(default=None, repr=False)

    def consumed_relations(self) -> frozenset[str]:
        """Relations read by rule bodies or workload queries."""
        out: set[str] = set()
        for rule in self.project.rules:
            out.update(atom.relation for atom in rule.body)
        for query in self.project.queries:
            out.update(atom.relation for atom in query.body)
        return frozenset(out)

    def queried_relations(self) -> frozenset[str]:
        return frozenset(
            atom.relation
            for query in self.project.queries
            for atom in query.body
        )

    def ontology_arities(self) -> dict[str, int]:
        """relation -> arity at first use in the ontology/workload."""
        out: dict[str, int] = {}
        for rule in self.project.rules:
            for atom in rule.body + rule.head:
                out.setdefault(atom.relation, atom.arity)
        for query in self.project.queries:
            for atom in query.body:
                out.setdefault(atom.relation, atom.arity)
        return out

    def reachable_relations(self) -> frozenset[str] | None:
        """Relations a rewriting of the workload can mention.

        Computed by forward reachability in the position graph
        ``AG(P)`` from the workload's (generic) query positions; on
        ontologies outside the position graph's fragment (multi-atom
        heads) it falls back to per-query backward-reachability
        filtering.  None when the project has no workload.
        """
        if not self.project.queries:
            return None
        if self._reachable is None:
            roots = self.queried_relations()
            try:
                pg = build_position_graph(self.project.rules)
            except NotSupportedError:
                relations = set(roots)
                for query in self.project.queries:
                    relations |= relevant_rules(
                        query, self.project.rules
                    ).reachable_relations
                self._reachable = frozenset(relations)
            else:
                nodes = reachable(
                    pg.graph, [Position(r) for r in sorted(roots)]
                )
                self._reachable = frozenset(
                    node.relation
                    for node in nodes
                    if isinstance(node, Position)
                ) | roots
        return self._reachable

    def supported(self) -> frozenset[str] | None:
        """Relations the virtual ABox can hold facts over, or None
        when the project declares neither mappings nor data."""
        if self.project.mappings is None and self.project.data is None:
            return None
        if self._supported is None:
            self._supported = supported_relations(
                self.project.mappings, self.project.data
            )
        return self._supported


# --------------------------------------------------------------------- #
# Workload passes (RL100, RL101, RL107)                                  #
# --------------------------------------------------------------------- #


def pass_no_workload(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL107: the project declares no queries; workload passes skip."""
    if ctx.project.queries:
        return
    yield Diagnostic(
        code="RL107",
        severity=Severity.INFO,
        message=(
            "project declares no query workload; dead-rule and "
            "blowup analysis are skipped"
        ),
        hint='add a "queries" entry to project.json',
    )


def pass_dead_rules(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL100: a rule unreachable from every workload query is dead.

    A rewriting step can only apply a rule whose head relation the
    (rewritten) query mentions; if no position reachable from the
    workload's query positions carries the head relation, the rule can
    never fire for this workload.
    """
    relations = ctx.reachable_relations()
    if relations is None:
        return
    for index, rule in enumerate(ctx.project.rules, start=1):
        head_relations = {atom.relation for atom in rule.head}
        if head_relations & relations:
            continue
        label = rule_name(rule, index)
        heads = ", ".join(sorted(head_relations))
        yield Diagnostic(
            code="RL100",
            severity=Severity.WARNING,
            message=(
                f"rule {label} is dead for this workload: head "
                f"relation(s) {heads} unreachable from any query"
            ),
            span=rule.span,
            rule=label,
            hint="drop the rule or add the query that needs it",
        )


def pass_unconsumed_relations(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL101: a relation produced by rules but consumed by nothing."""
    if not ctx.project.queries:
        return
    consumed = ctx.consumed_relations()
    seen: set[str] = set()
    for index, rule in enumerate(ctx.project.rules, start=1):
        label = rule_name(rule, index)
        for atom in rule.head:
            relation = atom.relation
            if relation in consumed or relation in seen:
                continue
            seen.add(relation)
            yield Diagnostic(
                code="RL101",
                severity=Severity.WARNING,
                message=(
                    f"relation {relation} is produced (by {label}) but "
                    "never consumed by any rule body or workload query"
                ),
                span=rule.span,
                rule=label,
                hint="dead derivation output; drop it or query it",
            )


# --------------------------------------------------------------------- #
# Coverage passes (RL102-RL104, RL106)                                   #
# --------------------------------------------------------------------- #


def pass_unmapped_relations(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL102: an underivable relation with no mapping and no facts.

    Atoms over such a relation can match nothing: the ABox cannot hold
    facts for it and no rule can rewrite it away.  Every rewritten
    disjunct mentioning it is statically empty.
    """
    supported = ctx.supported()
    if supported is None:
        return
    deriving = derivers(ctx.project.rules)
    for relation in sorted(ctx.consumed_relations()):
        if relation in deriving or relation in supported:
            continue
        yield Diagnostic(
            code="RL102",
            severity=Severity.WARNING,
            message=(
                f"relation {relation} has no deriving rule, no mapping "
                "and no source facts; disjuncts mentioning it are "
                "statically empty"
            ),
            hint=f"add a mapping with target {relation} or load facts",
        )


def pass_mapping_arity(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL103: a mapping's arities disagree with the schemas around it.

    Checked on both sides of each assertion: the target atom against
    the ontology's use of the relation, and the source atoms against
    the source database's columns.
    """
    mappings = ctx.project.mappings
    if mappings is None:
        return
    arities = ctx.ontology_arities()
    data = ctx.project.data
    target_arity: dict[str, tuple[int, str]] = {}
    for mapping in mappings:
        target = mapping.target
        declared = arities.get(target.relation)
        if declared is not None and declared != target.arity:
            yield Diagnostic(
                code="RL103",
                severity=Severity.ERROR,
                message=(
                    f"mapping target {target} has arity {target.arity} "
                    f"but the ontology uses {target.relation}/{declared}"
                ),
                notes=(f"mapping: {mapping}",),
                hint="align the mapping target with the ontology arity",
            )
        previous = target_arity.setdefault(
            target.relation, (target.arity, str(mapping))
        )
        if previous[0] != target.arity:
            yield Diagnostic(
                code="RL103",
                severity=Severity.ERROR,
                message=(
                    f"mappings disagree on the arity of "
                    f"{target.relation}: {previous[0]} vs {target.arity}"
                ),
                notes=(f"first: {previous[1]}", f"then: {mapping}"),
            )
        if data is None:
            continue
        for atom in mapping.source_body:
            if atom.relation not in data.relations():
                continue  # RL104's finding
            declared_source = data.signature[atom.relation]
            if declared_source != atom.arity:
                yield Diagnostic(
                    code="RL103",
                    severity=Severity.ERROR,
                    message=(
                        f"mapping source atom {atom} has arity "
                        f"{atom.arity} but source relation "
                        f"{atom.relation} has {declared_source} columns"
                    ),
                    notes=(f"mapping: {mapping}",),
                )


def pass_mapping_sources(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL104: a mapping over a source relation that does not exist."""
    mappings = ctx.project.mappings
    data = ctx.project.data
    if mappings is None or data is None:
        return
    present = set(data.relations())
    for mapping in mappings:
        missing = sorted(
            {
                atom.relation
                for atom in mapping.source_body
                if atom.relation not in present
            }
        )
        if not missing:
            continue
        yield Diagnostic(
            code="RL104",
            severity=Severity.WARNING,
            message=(
                f"mapping for {mapping.target.relation} can never fire: "
                f"source relation(s) {', '.join(missing)} absent from "
                "the source database"
            ),
            notes=(f"mapping: {mapping}",),
            hint="fix the source relation name or load the table",
        )


def pass_statically_empty(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL106: derivable relations whose own atoms are statically empty.

    Unlike RL102 these relations *are* rewritten away by rules, so the
    query still has answers -- but every rewritten disjunct that keeps
    an atom over them evaluates to nothing.  The in-memory evaluator
    skips such a disjunct as soon as it sees the empty relation; on SQL
    it still costs one ``SELECT`` block.
    """
    supported = ctx.supported()
    if supported is None:
        return
    deriving = derivers(ctx.project.rules)
    interesting = ctx.reachable_relations()
    candidates = (
        interesting
        if interesting is not None
        else ctx.consumed_relations() | frozenset(deriving)
    )
    for relation in sorted(candidates):
        if relation in supported or relation not in deriving:
            continue
        rules = ", ".join(deriving[relation])
        yield Diagnostic(
            code="RL106",
            severity=Severity.INFO,
            message=(
                f"relation {relation} has no mapping and no source "
                "facts; rewritten disjuncts keeping an atom over it "
                "are statically empty (prunable)"
            ),
            notes=(f"derived by: {rules}",),
            hint=(
                "map the relation or load its facts if these disjuncts "
                "should match"
            ),
        )


# --------------------------------------------------------------------- #
# Estimate pass (RL105)                                                  #
# --------------------------------------------------------------------- #


def pass_rewriting_blowup(ctx: CheckContext) -> Iterator[Diagnostic]:
    """RL105: the static disjunct bound exceeds the rewriting budget."""
    budget = ctx.config.budget
    for query in ctx.project.queries:
        estimate = estimate_disjunct_bound(
            query,
            ctx.project.rules,
            budget=budget,
            default_depth=ctx.config.default_depth,
        )
        if estimate.bound <= budget.max_cqs:
            continue
        chain = " -> ".join(estimate.chain) if estimate.chain else "(none)"
        depth_kind = "assumed" if estimate.cyclic else "derivation"
        yield Diagnostic(
            code="RL105",
            severity=Severity.WARNING,
            message=(
                f"rewriting of query {query.name} may blow up: "
                f"estimated {estimate.render_bound()} disjuncts "
                f"exceeds the budget of {budget.max_cqs}"
            ),
            rule=f"query {query.name}",
            notes=(
                f"per-round fan-out: x{estimate.per_round}, "
                f"{depth_kind} depth: {estimate.depth}",
                f"offending rule chain: {chain}",
                "datalog target available: target='datalog' (or "
                "'auto') compiles to a nonrecursive rule program "
                "whose size grows per atom, not per disjunct "
                "combination",
            ),
            hint=(
                "restructure the chain, shrink the workload query, "
                "switch the rewriting target to 'datalog'/'auto', or "
                "raise the budget"
            ),
        )


# --------------------------------------------------------------------- #
# The pipeline and its driver                                            #
# --------------------------------------------------------------------- #

#: The ``repro check`` front end.  Codes are stable public API.
CHECK: Pipeline[CheckContext] = Pipeline(
    tool="repro-check",
    passes=(
        Pass("RL100", "dead-rule", "workload", pass_dead_rules),
        Pass("RL101", "unconsumed-relation", "workload", pass_unconsumed_relations),
        Pass("RL102", "unmapped-relation", "coverage", pass_unmapped_relations),
        Pass("RL103", "mapping-arity-mismatch", "coverage", pass_mapping_arity),
        Pass("RL104", "mapping-source-missing", "coverage", pass_mapping_sources),
        Pass("RL105", "rewriting-blowup", "estimate", pass_rewriting_blowup),
        Pass("RL106", "statically-empty-relation", "coverage", pass_statically_empty),
        Pass("RL107", "no-workload", "workload", pass_no_workload),
        Pass("RL200", "lattice-admitted-termination", "interaction", pass_lattice_admitted),
        Pass("RL201", "chase-non-terminating", "interaction", pass_non_terminating),
        Pass("RL202", "separable-core", "interaction", pass_separable_core),
        Pass("RL203", "inseparable-interaction", "interaction", pass_inseparable),
    ),
)


def check_project(
    project: Project, config: CheckConfig | None = None
) -> LintReport:
    """Run every check pass over *project*."""
    config = config or CheckConfig()
    return LintReport.of(
        CHECK.run(CheckContext(project, config), config.disabled),
        path=project.path,
        source=project.source_text,
        pipeline=CHECK,
    )
