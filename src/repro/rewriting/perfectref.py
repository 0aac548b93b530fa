"""A PerfectRef-style baseline rewriter for linear TGDs.

PerfectRef (Calvanese et al., the DL-Lite rewriting algorithm) is the
classical baseline every rewriting engine is measured against.  This
module implements its natural generalisation to *linear* TGDs
(single-atom bodies): repeatedly

1. **atom rewriting** -- replace one query atom that unifies with a
   rule head (under the usual existential-variable applicability
   conditions) by the rule's body atom, and
2. **reduce** -- unify two query atoms with each other (PerfectRef's
   factorisation step),

until no new CQ (up to canonical form) appears.  Subsumed CQs are
removed from the final result only, as in the original algorithm.

On linear inputs this produces the same UCQ (up to equivalence) as the
general piece engine (:mod:`repro.rewriting.rewriter`) -- asserted by
tests and the comparison bench -- while being considerably simpler;
it exists as the baseline, not as a replacement: it cannot handle
multi-atom bodies or heads.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.lang.atoms import Atom
from repro.lang.errors import NotSupportedError
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.substitution import Substitution
from repro.lang.terms import Variable
from repro.lang.tgd import TGD
from repro.lang.unify import class_substitution, null_clash, term_classes
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.minimize import remove_subsumed
from repro.rewriting.pieces import factorizations
from repro.rewriting.subsume import SubsumptionFrontier
from repro.rewriting.rewriter import RewritingResult


def perfectref_rewrite(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries,
    rules: Sequence[TGD],
    budget: RewritingBudget | None = None,
) -> RewritingResult:
    """PerfectRef-style saturation over linear TGDs.

    Raises :class:`NotSupportedError` on non-linear or multi-head
    rules -- the baseline's scope is exactly the DL-Lite-shaped
    fragment.
    """
    budget = budget or RewritingBudget.default()
    rules = list(rules)
    for rule in rules:
        if len(rule.body) != 1 or len(rule.head) != 1:
            raise NotSupportedError(
                f"PerfectRef baseline requires linear single-head rules; "
                f"got {rule.label or rule}"
            )

    with obs.span("perfectref", rules=len(rules)) as span:
        seen: dict[tuple, ConjunctiveQuery] = {}
        # Incrementally minimal result set: every new CQ is admitted
        # against the current antichain (exact batch remove_subsumed
        # semantics: strictly subsumed CQs are rejected, equivalents
        # keep the smaller-body/earlier one), so the final pass only
        # revisits the survivors.  Exploration still covers every
        # generated CQ, as in the original algorithm.
        minimal = SubsumptionFrontier()
        frontier: list[ConjunctiveQuery] = []
        for cq in UnionOfConjunctiveQueries.of(query):
            cq = cq.dedupe_body()
            key = cq.canonical()
            if key not in seen:
                seen[key] = cq
                minimal.admit(cq)
                frontier.append(cq)

        per_depth = [len(frontier)]
        depth = 0
        explored = 0
        complete = True
        while frontier:
            if budget.max_depth is not None and depth >= budget.max_depth:
                complete = False
                break
            depth += 1
            with obs.span(
                "perfectref.step", depth=depth, frontier=len(frontier)
            ) as step_span:
                next_frontier: list[ConjunctiveQuery] = []
                for cq in frontier:
                    explored += 1
                    candidates = list(_atom_rewritings(cq, rules))
                    candidates.extend(factorizations(cq))
                    for candidate in candidates:
                        candidate = candidate.dedupe_body()
                        key = candidate.canonical()
                        if key in seen:
                            continue
                        seen[key] = candidate
                        minimal.admit(candidate)
                        next_frontier.append(candidate)
                    if len(seen) > budget.max_cqs:
                        complete = False
                        next_frontier = []
                        break
                step_span.set(new=len(next_frontier))
            per_depth.append(len(next_frontier))
            frontier = next_frontier
            if not complete:
                break

        obs.count("perfectref.cqs_generated", len(seen))
        obs.count("perfectref.cqs_explored", explored)
        # The frontier is already an antichain equal to batch
        # remove_subsumed over every generated CQ; the final pass is a
        # cheap safety net over the survivors (and flushes the
        # kernel's counters).
        final = remove_subsumed(minimal.queries(), kernel=minimal.kernel)
        span.set(complete=complete, depth=depth, size=len(final))
        return RewritingResult(
            ucq=UnionOfConjunctiveQueries(list(final)),
            complete=complete,
            depth_reached=depth,
            generated=len(seen),
            explored=explored,
            per_depth=tuple(per_depth),
        )


def _atom_rewritings(cq: ConjunctiveQuery, rules: Sequence[TGD]):
    """All single-atom rewriting steps of *cq* (PerfectRef step 1)."""
    answer_vars = set(cq.answer_variables)
    for index, atom in enumerate(cq.body):
        shared = _shared_variables(cq, index)
        for rule in rules:
            fresh = rule.rename_apart(
                set(cq.body_variables()) | answer_vars
            )
            head = fresh.head[0]
            unifier = _applicable_unifier(
                atom, head, fresh, shared, answer_vars
            )
            if unifier is None:
                continue
            new_body = [
                unifier.apply_atom(a)
                for i, a in enumerate(cq.body)
                if i != index
            ]
            new_body.append(unifier.apply_atom(fresh.body[0]))
            answers = [unifier.apply_term(t) for t in cq.answer_terms]
            yield ConjunctiveQuery(answers, new_body, name=cq.name)


def _shared_variables(cq: ConjunctiveQuery, index: int) -> set[Variable]:
    """Variables of atom *index* occurring elsewhere in the query."""
    mine = set(cq.body[index].variables())
    others: set[Variable] = set()
    for i, atom in enumerate(cq.body):
        if i != index:
            others.update(atom.variables())
    return mine & others


def _applicable_unifier(
    atom: Atom,
    head: Atom,
    rule: TGD,
    shared: set[Variable],
    answer_vars: set[Variable],
) -> Substitution | None:
    """PerfectRef applicability: bound positions need frontier partners."""
    if atom.relation != head.relation or atom.arity != head.arity:
        return None
    classes = term_classes(zip(atom.terms, head.terms))
    if classes is None:
        return None
    existential = set(rule.existential_head_variables())
    frontier = set(rule.distinguished_variables())
    for group in classes:
        if not existential.intersection(group):
            continue
        if null_clash(group, existential, frontier):
            return None
        if any(t in shared or t in answer_vars for t in group):
            return None  # a bound argument cannot become a null
    return class_substitution(classes, prefer=answer_vars, avoid=existential)
