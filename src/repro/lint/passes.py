"""The analysis passes behind ``repro lint``.

Each pass is a generator ``(LintContext) -> Iterator[Diagnostic]``;
the pipeline in :mod:`repro.lint.engine` decides which passes run.
Three families:

* **well-formedness** (``RL001``-``RL007``): inconsistent arities,
  suspicious existential head variables, duplicate/subsumed rules,
  unused and underivable predicates, simplicity violations;
* **recursion** (``RL010``-``RL013``): the paper's position-graph and
  P-node-graph conditions, reported as *minimal witness cycles* with
  their ``m``/``s``/``d``/``i`` edge labels attributed back to the
  offending rules;
* **rewriting risk** (``RL020``-``RL022``): branching factors and a
  UCQ-growth estimate against a :class:`~repro.rewriting.budget.
  RewritingBudget` -- the blowups documented by Gottlob & Schwentick
  (*Rewriting Ontological Queries into Small Nonrecursive Datalog
  Programs*) are exactly what these warn about before ``rewrite`` is
  attempted.

The full code catalogue with examples lives in ``docs/lint.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.analysis.depgraph import derivers, rule_name
from repro.core.swr import SWRResult, is_swr
from repro.core.wr import WRResult, is_wr
from repro.graphs.cycles import LabeledEdge, LabeledGraph
from repro.graphs.pnode_graph import PNodeGraphBudgetExceeded
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery
from repro.lang.spans import Span
from repro.lang.terms import Term, Variable
from repro.lang.tgd import TGD
from repro.lint.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # imported lazily to avoid a module cycle
    from repro.lint.engine import LintConfig


@dataclass
class LintContext:
    """Shared state of one lint run.

    The SWR/WR results are computed lazily and memoized so the
    recursion passes and the rewriting-risk passes share one graph
    construction.
    """

    rules: tuple[TGD, ...]
    config: LintConfig
    query: ConjunctiveQuery | None = None
    _swr: SWRResult | None = field(default=None, repr=False)
    _wr: "WRResult | None | str" = field(default=None, repr=False)

    def swr(self) -> SWRResult:
        if self._swr is None:
            self._swr = is_swr(self.rules)
        return self._swr

    def wr(self) -> WRResult | None:
        """The WR check result, or None when its budget was exceeded."""
        if self._wr is None:
            try:
                self._wr = is_wr(
                    self.rules, max_nodes=self.config.wr_max_nodes
                )
            except PNodeGraphBudgetExceeded:
                self._wr = "budget"
        return self._wr if isinstance(self._wr, WRResult) else None


def _first_span(*objects: object) -> Span | None:
    for obj in objects:
        span = getattr(obj, "span", None)
        if span is not None:
            return span
    return None


# --------------------------------------------------------------------- #
# Well-formedness (RL001-RL007)                                          #
# --------------------------------------------------------------------- #


def pass_arity_consistency(ctx: LintContext) -> Iterator[Diagnostic]:
    """RL001: a relation used with two different arities is an error."""
    first_use: dict[str, tuple[int, Atom, str]] = {}

    def sites() -> Iterator[tuple[Atom, str]]:
        for index, rule in enumerate(ctx.rules, start=1):
            name = rule_name(rule, index)
            for atom in rule.body + rule.head:
                yield atom, name
        if ctx.query is not None:
            for atom in ctx.query.body:
                yield atom, f"query {ctx.query.name}"

    for atom, where in sites():
        known = first_use.get(atom.relation)
        if known is None:
            first_use[atom.relation] = (atom.arity, atom, where)
            continue
        arity, first_atom, first_where = known
        if atom.arity != arity:
            yield Diagnostic(
                code="RL001",
                severity=Severity.ERROR,
                message=(
                    f"relation {atom.relation} used with arity "
                    f"{atom.arity} here but with arity {arity} in "
                    f"{first_where}"
                ),
                span=atom.span,
                rule=where,
                hint=(
                    f"make every use of {atom.relation} take the same "
                    "number of arguments"
                ),
                notes=(
                    f"first use: {first_atom} in {first_where}"
                    + (
                        f" (at {first_atom.span})"
                        if first_atom.span is not None
                        else ""
                    ),
                ),
            )


def _near_miss(left: str, right: str) -> bool:
    """A plausible-typo pair: same up to case, or one *letter* edit away.

    Edits that only touch digits (``Y1`` vs ``Y3``) are conventional
    naming, not typos, and single-character names carry too little
    signal; neither counts.
    """
    if left == right or min(len(left), len(right)) < 2:
        return False
    if left.lower() == right.lower():
        return True
    if len(left) == len(right):
        diffs = [(a, b) for a, b in zip(left, right) if a != b]
        return len(diffs) == 1 and not (
            diffs[0][0].isdigit() and diffs[0][1].isdigit()
        )
    if abs(len(left) - len(right)) != 1:
        return False
    shorter, longer = sorted((left, right), key=len)
    for i in range(len(longer)):
        if longer[:i] + longer[i + 1:] == shorter:
            return not longer[i].isdigit()
    return False


def pass_existential_head_variables(ctx: LintContext) -> Iterator[Diagnostic]:
    """RL002: existential head variables, flagged harder on near-typos.

    Value invention is the point of existential rules, so a plain
    existential head variable is only an *info*; it becomes a *warning*
    when its name is one edit away from a body variable -- the classic
    symptom of a typo silently turning a join into value invention.
    """
    for index, rule in enumerate(ctx.rules, start=1):
        body_names = [v.name for v in rule.body_variables()]
        for var in rule.existential_head_variables():
            near = next(
                (name for name in body_names if _near_miss(var.name, name)),
                None,
            )
            atom = next(
                (a for a in rule.head if var in a.variables()), rule.head[0]
            )
            if near is not None:
                yield Diagnostic(
                    code="RL002",
                    severity=Severity.WARNING,
                    message=(
                        f"head variable {var} is existential but is one "
                        f"edit away from body variable {near}; possible typo"
                    ),
                    span=_first_span(atom, rule),
                    rule=rule_name(rule, index),
                    hint=(
                        f"rename {var} to {near} if a join was intended; "
                        "keep it if value invention was intended"
                    ),
                )
            else:
                yield Diagnostic(
                    code="RL002",
                    severity=Severity.INFO,
                    message=(
                        f"head variable {var} is existential "
                        "(value invention)"
                    ),
                    span=_first_span(atom, rule),
                    rule=rule_name(rule, index),
                )


def _match_atom(
    pattern: Atom, target: Atom, theta: Mapping[Variable, Term]
) -> dict[Variable, Term] | None:
    """Extend *theta* so that θ(pattern) == target, or None."""
    if pattern.relation != target.relation or pattern.arity != target.arity:
        return None
    extended = dict(theta)
    for p, t in zip(pattern.terms, target.terms):
        if isinstance(p, Variable):
            bound = extended.get(p)
            if bound is None:
                extended[p] = t
            elif bound != t:
                return None
        elif p != t:
            return None
    return extended


def _embeds(
    atoms: Sequence[Atom], into: Sequence[Atom], theta: Mapping[Variable, Term]
) -> bool:
    """Backtracking search for θ' ⊇ θ with θ'(atoms) ⊆ into."""
    if not atoms:
        return True
    head_atom, rest = atoms[0], atoms[1:]
    for candidate in into:
        extended = _match_atom(head_atom, candidate, theta)
        if extended is not None and _embeds(rest, into, extended):
            return True
    return False


def rule_subsumes(general: TGD, specific: TGD) -> bool:
    """True iff *general* makes *specific* redundant.

    Both single-head: there must be a substitution θ with
    θ(head(general)) == head(specific) and θ(body(general)) a subset of
    body(specific) -- whenever the specific rule fires, the general one
    already derives the same head atom.  Multi-head rules only subsume
    via structural equality.
    """
    if len(general.head) != 1 or len(specific.head) != 1:
        return general == specific
    theta = _match_atom(general.head[0], specific.head[0], {})
    if theta is None:
        return False
    return _embeds(list(general.body), list(specific.body), theta)


def pass_duplicate_and_subsumed_rules(
    ctx: LintContext,
) -> Iterator[Diagnostic]:
    """RL003 (duplicate) / RL004 (subsumed): redundant rules."""
    for j, later in enumerate(ctx.rules):
        for i, earlier in enumerate(ctx.rules[:j]):
            earlier_name = rule_name(earlier, i + 1)
            later_name = rule_name(later, j + 1)
            forward = rule_subsumes(earlier, later)
            backward = rule_subsumes(later, earlier)
            if forward and backward:
                yield Diagnostic(
                    code="RL003",
                    severity=Severity.WARNING,
                    message=(
                        f"rule {later_name} duplicates rule {earlier_name}"
                    ),
                    span=later.span,
                    rule=later_name,
                    hint=f"delete rule {later_name}",
                )
                break
            if forward:
                yield Diagnostic(
                    code="RL004",
                    severity=Severity.WARNING,
                    message=(
                        f"rule {later_name} is subsumed by the more "
                        f"general rule {earlier_name}"
                    ),
                    span=later.span,
                    rule=later_name,
                    hint=f"delete rule {later_name}",
                )
                break
            if backward:
                yield Diagnostic(
                    code="RL004",
                    severity=Severity.WARNING,
                    message=(
                        f"rule {earlier_name} is subsumed by the more "
                        f"general rule {later_name}"
                    ),
                    span=earlier.span,
                    rule=earlier_name,
                    hint=f"delete rule {earlier_name}",
                )
                break


def pass_unused_predicates(ctx: LintContext) -> Iterator[Diagnostic]:
    """RL005: derived relations nothing consumes (query-aware).

    Only meaningful when a query closes the program: without one, any
    head relation may be the user's output.  The pass is skipped when
    ``ctx.query`` is None.
    """
    if ctx.query is None:
        return
    consumed = {atom.relation for atom in ctx.query.body}
    for rule in ctx.rules:
        for atom in rule.body:
            consumed.add(atom.relation)
    for index, rule in enumerate(ctx.rules, start=1):
        for atom in rule.head:
            if atom.relation not in consumed:
                yield Diagnostic(
                    code="RL005",
                    severity=Severity.WARNING,
                    message=(
                        f"relation {atom.relation} is derived by rule "
                        f"{rule_name(rule, index)} but never used by any "
                        "rule body or by the query"
                    ),
                    span=_first_span(atom, rule),
                    rule=rule_name(rule, index),
                    hint=(
                        f"delete the rule or reference {atom.relation} "
                        "somewhere"
                    ),
                )


def pass_underivable_predicates(ctx: LintContext) -> Iterator[Diagnostic]:
    """RL006: consumed-but-never-derived relations (assumed EDB).

    Info by default (reading base relations is normal); upgraded to a
    warning when the name is one edit away from a *derived* relation,
    which usually means a typo quietly emptied the query.
    """
    derived = {atom.relation for rule in ctx.rules for atom in rule.head}
    reported: set[str] = set()

    def sites() -> Iterator[tuple[Atom, str]]:
        for index, rule in enumerate(ctx.rules, start=1):
            for atom in rule.body:
                yield atom, rule_name(rule, index)
        if ctx.query is not None:
            for atom in ctx.query.body:
                yield atom, f"query {ctx.query.name}"

    for atom, where in sites():
        if atom.relation in derived or atom.relation in reported:
            continue
        reported.add(atom.relation)
        near = next(
            (
                name
                for name in sorted(derived)
                if _near_miss(atom.relation, name)
            ),
            None,
        )
        if near is not None:
            yield Diagnostic(
                code="RL006",
                severity=Severity.WARNING,
                message=(
                    f"relation {atom.relation} is never derived by any "
                    f"rule but is one edit away from derived relation "
                    f"{near}; possible typo"
                ),
                span=atom.span,
                rule=where,
                hint=f"did you mean {near}?",
            )
        else:
            yield Diagnostic(
                code="RL006",
                severity=Severity.INFO,
                message=(
                    f"relation {atom.relation} is never derived by any "
                    "rule; it must come from the database (EDB)"
                ),
                span=atom.span,
                rule=where,
            )


def pass_simplicity(ctx: LintContext) -> Iterator[Diagnostic]:
    """RL007: per-rule simplicity violations (Section 5), with spans."""
    for index, rule in enumerate(ctx.rules, start=1):
        for reason, atom in rule.simplicity_violation_atoms():
            yield Diagnostic(
                code="RL007",
                severity=Severity.WARNING,
                message=f"rule is not simple: {reason}",
                span=_first_span(atom, rule) if atom is not None else rule.span,
                rule=rule_name(rule, index),
                hint=(
                    "SWR (Definition 5) only applies to simple TGDs; "
                    "the WR check still covers this rule"
                ),
            )


# --------------------------------------------------------------------- #
# Recursion diagnostics (RL010-RL013)                                    #
# --------------------------------------------------------------------- #


def _cycle_notes(
    cycle: Sequence[LabeledEdge], graph: LabeledGraph
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(rendered edge lines, rule labels on the cycle, program order)."""
    notes: list[str] = []
    rule_names: list[str] = []
    for edge in cycle:
        rules = sorted(graph.rules_of(edge.source, edge.target))
        via = f" (via {', '.join(rules)})" if rules else ""
        notes.append(f"{edge}{via}")
        for name in rules:
            if name not in rule_names:
                rule_names.append(name)
    return tuple(notes), tuple(rule_names)


def _anchor_rule(
    ctx: LintContext, rule_names: Sequence[str]
) -> tuple[Span | None, str | None]:
    """Span and label of the first program rule implicated in a cycle."""
    names = set(rule_names)
    for index, rule in enumerate(ctx.rules, start=1):
        if rule_name(rule, index) in names:
            return rule.span, rule_name(rule, index)
    return None, None


def pass_position_graph_recursion(ctx: LintContext) -> Iterator[Diagnostic]:
    """RL010/RL013: the SWR condition on the position graph AG(P).

    RL010 fires when AG(P) has a cycle with both an ``m``- and an
    ``s``-edge (Definition 5 fails); the diagnostic carries the minimal
    witness cycle found, each edge with its labels and the rule whose
    expansion created it.  RL013 (info) notes when the graph is
    undefined because some head has several atoms.
    """
    result = ctx.swr()
    if result.graph is None:
        yield Diagnostic(
            code="RL013",
            severity=Severity.INFO,
            message=(
                "position graph undefined (some rule has a multi-atom "
                "head); the SWR check does not apply"
            ),
            hint="the WR check on the P-node graph still applies",
        )
        return
    if result.dangerous_cycle is None:
        return
    graph = result.graph.graph
    cycle = (
        graph.find_minimal_labeled_cycle(("m", "s"))
        or result.dangerous_cycle
    )
    notes, rule_names = _cycle_notes(cycle, graph)
    span, rule = _anchor_rule(ctx, rule_names)
    named = f" (rules {', '.join(rule_names)})" if rule_names else ""
    yield Diagnostic(
        code="RL010",
        severity=Severity.WARNING,
        message=(
            "not SWR: the position graph has a cycle carrying both an "
            f"m-edge and an s-edge{named}; Theorem 1 does not guarantee "
            "FO-rewritability"
        ),
        span=span,
        rule=rule,
        hint=(
            "break the recursion among the cycle rules, or rely on the "
            "WR check / run rewrite with an explicit budget"
        ),
        notes=notes,
    )


def pass_pnode_graph_recursion(ctx: LintContext) -> Iterator[Diagnostic]:
    """RL011/RL012: the WR condition on the P-node graph.

    RL011 fires when the P-node graph has a cycle with ``d``, ``m`` and
    ``s`` edges and no ``i``-edge (Definition 8 fails): the set is
    outside WR and the rewriting is conjectured non-FO.  RL012 (info)
    reports an exceeded node budget (WR membership undecided).
    """
    result = ctx.wr()
    if result is None:
        yield Diagnostic(
            code="RL012",
            severity=Severity.INFO,
            message=(
                f"P-node graph exceeded its {ctx.config.wr_max_nodes}-node "
                "budget; WR membership is undecided"
            ),
            hint="raise wr_max_nodes, or bound rewrite explicitly",
        )
        return
    if result.dangerous_cycle is None:
        return
    graph = result.graph.graph
    cycle = (
        graph.find_minimal_labeled_cycle(("d", "m", "s"), forbidden=("i",))
        or result.dangerous_cycle
    )
    notes, rule_names = _cycle_notes(cycle, graph)
    span, rule = _anchor_rule(ctx, rule_names)
    named = f" (rules {', '.join(rule_names)})" if rule_names else ""
    yield Diagnostic(
        code="RL011",
        severity=Severity.WARNING,
        message=(
            "not WR: the P-node graph has a cycle carrying d, m and s "
            f"edges and no i-edge{named}; the rewriting of some query "
            "has an unbounded chain"
        ),
        span=span,
        rule=rule,
        hint=(
            "answer via the chase instead, or run rewrite with a tight "
            "budget (--max-depth, --max-seconds)"
        ),
        notes=notes,
    )


# --------------------------------------------------------------------- #
# Rewriting risk (RL020-RL022)                                           #
# --------------------------------------------------------------------- #


def pass_high_branching(ctx: LintContext) -> Iterator[Diagnostic]:
    """RL020: relations derived by many rules branch the rewriting."""
    for relation, rules in sorted(derivers(ctx.rules).items()):
        if len(rules) < ctx.config.branching_threshold:
            continue
        yield Diagnostic(
            code="RL020",
            severity=Severity.WARNING,
            message=(
                f"relation {relation} is derived by {len(rules)} "
                "rules; every rewriting step on it branches that many "
                "ways"
            ),
            hint=(
                "consider factoring the shared structure into an "
                "intermediate relation"
            ),
            notes=("derived by: " + ", ".join(rules),),
        )


def pass_rewriting_blowup(ctx: LintContext) -> Iterator[Diagnostic]:
    """RL021: estimated UCQ growth exceeds the rewriting budget.

    The estimate is :func:`repro.checkers.estimator.estimate_disjunct_bound`.
    On a cyclic derivation chain it assumes the budget's ``max_depth``
    rounds, unless SWR or WR guarantees the rewriting terminates:
    assuming the full ``max_depth`` would flag every FO-rewritable
    recursive set, so the estimator's default depth is assumed instead.
    """
    if ctx.query is None:
        return
    from repro.checkers.estimator import estimate_disjunct_bound

    budget = ctx.config.budget
    if ctx.swr().is_swr or (ctx.wr() is not None and ctx.wr().is_wr):
        budget = dataclasses.replace(budget, max_depth=None)
    estimate = estimate_disjunct_bound(ctx.query, ctx.rules, budget=budget)
    if estimate.bound <= budget.max_cqs:
        return
    yield Diagnostic(
        code="RL021",
        severity=Severity.WARNING,
        message=(
            f"estimated rewriting size {estimate.render_bound()} "
            f"(branching over {estimate.depth} rounds) exceeds the "
            f"budget's max_cqs={budget.max_cqs}; rewrite may exhaust "
            "its budget"
        ),
        span=ctx.query.span,
        rule=f"query {ctx.query.name}",
        hint=(
            "raise the budget, narrow the query, or reduce the number "
            "of rules deriving its relations"
        ),
    )


def pass_no_fo_guarantee(ctx: LintContext) -> Iterator[Diagnostic]:
    """RL022: no implemented sufficient condition covers the program.

    Fires when the set is neither SWR nor WR (or WR is undecided) and
    no FO-rewritable baseline class accepts it either: ``rewrite`` may
    then diverge, so an explicit budget (or the chase) is advised.
    """
    if ctx.swr().is_swr:
        return
    wr = ctx.wr()
    if wr is not None and wr.is_wr:
        return
    from repro.classes.registry import BASELINE_RECOGNIZERS

    accepting = [
        name
        for name, recognizer in BASELINE_RECOGNIZERS
        if recognizer(ctx.rules).member
    ]
    if accepting:
        return
    undecided = " (WR membership undecided)" if wr is None else ""
    yield Diagnostic(
        code="RL022",
        severity=Severity.WARNING,
        message=(
            "no implemented sufficient condition guarantees "
            f"FO-rewritability{undecided}: the set is outside SWR, WR "
            "and every baseline class; rewrite may not terminate"
        ),
        hint=(
            "run rewrite with a tight budget (--max-depth, "
            "--max-seconds), or answer via the chase"
        ),
    )
