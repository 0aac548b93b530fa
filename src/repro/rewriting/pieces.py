"""Piece unification: the rewriting step over existential rules.

A rewriting step resolves a subset of the query atoms (a *piece*)
against the head of a TGD and replaces it with the rule body.  The
piece cannot be chosen freely: a query variable unified with an
*existential head variable* of the rule corresponds to a labeled null
in the canonical model, so it must not be unified with a constant, a
frontier variable or another existential variable (the null rule,
:func:`repro.lang.unify.null_clash`).  It also must not be an answer
variable, and every other atom in which it occurs must belong to the
piece as well (otherwise the step would claim knowledge about a null
that the rest of the query still constrains).  When a shared variable
blocks a unification, the piece is *aggregated*: the blocking atoms are
pulled into the piece and unified against head atoms too, recursively.
The term classes and the unifier come from :mod:`repro.lang.unify`;
this module adds the aggregation and the answer-variable condition.

This is the classical sound-and-complete rewriting operator for
existential rules; the paper's position graph and P-node graph are
precisely abstractions of the possible sequences of these steps
("every edge from an atom σ to an atom σ' represents the possible
transformation of σ into σ' through a query rewriting step", Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery
from repro.lang.terms import Term, Variable
from repro.lang.tgd import TGD
from repro.lang.unify import class_substitution, null_clash, term_classes


@dataclass(frozen=True)
class PieceRewriting:
    """One successful rewriting step.

    Attributes:
        query: the rewritten conjunctive query.
        rule: the (renamed-apart) rule instance that was applied.
        piece: indexes of the query body atoms consumed by the step.
    """

    query: ConjunctiveQuery
    rule: TGD
    piece: frozenset[int]


def piece_rewritings(
    query: ConjunctiveQuery, rule: TGD
) -> Iterator[PieceRewriting]:
    """All piece rewritings of *query* with *rule* (deduplicated).

    The rule is standardized apart from the query first.  Pieces are
    enumerated starting from every single (query atom, head atom) pair
    and closed under the aggregation forced by existential-variable
    sharing; each distinct closed piece yields at most one rewriting
    (the most general unifier of its pairs).
    """
    fresh_rule = rule.rename_apart(
        set(query.body_variables()) | set(query.answer_variables)
    )
    produced: set[frozenset[tuple[int, int]]] = set()
    results: list[PieceRewriting] = []
    for query_index in range(len(query.body)):
        for head_index in range(len(fresh_rule.head)):
            _close(
                frozenset([(query_index, head_index)]),
                query,
                fresh_rule,
                produced,
                results,
            )
    yield from results


def _close(
    pairs: frozenset[tuple[int, int]],
    query: ConjunctiveQuery,
    rule: TGD,
    produced: set[frozenset[tuple[int, int]]],
    results: list[PieceRewriting],
) -> None:
    """Try to complete *pairs* into a valid piece unifier.

    Appends a :class:`PieceRewriting` to *results* when the unifier is
    valid; recurses with aggregated pieces when an existential class
    leaks into atoms outside the piece; gives up silently when the
    unifier is structurally impossible.
    """
    if pairs in produced:
        return
    produced.add(pairs)

    # Position-wise classes of each (query atom, head atom) pair.
    term_pairs: list[tuple[Term, Term]] = []
    for query_index, head_index in pairs:
        query_atom = query.body[query_index]
        head_atom = rule.head[head_index]
        if (
            query_atom.relation != head_atom.relation
            or query_atom.arity != head_atom.arity
        ):
            return
        term_pairs.extend(zip(query_atom.terms, head_atom.terms))
    classes = term_classes(term_pairs)
    if classes is None:
        return  # two distinct constants can never be equal (UNA)

    existential = set(rule.existential_head_variables())
    frontier = set(rule.distinguished_variables())
    answer_vars = set(query.answer_variables)
    piece = {query_index for query_index, _ in pairs}
    outside_occurrences = _variable_sites(query, piece)

    aggregation_needed: list[int] = []
    for group in classes:
        if not existential.intersection(group):
            continue
        if null_clash(group, existential, frontier):
            return
        for term in group:
            if term in existential:
                continue
            if term in answer_vars:
                return  # answers are never nulls
            aggregation_needed.extend(outside_occurrences.get(term, ()))

    if aggregation_needed:
        # The unifier claims some query variable denotes a null, but the
        # variable also occurs outside the piece: pull each outside atom
        # into the piece, trying every head atom as its partner.
        blocking = aggregation_needed[0]
        for head_index in range(len(rule.head)):
            _close(
                pairs | {(blocking, head_index)},
                query,
                rule,
                produced,
                results,
            )
        return

    # Classes of an existential head variable plus piece-local query
    # variables map onto the existential variable; those variables
    # vanish with the piece, so the choice is invisible in the result.
    substitution = class_substitution(
        classes, prefer=answer_vars, avoid=existential
    )
    new_body: list[Atom] = [
        substitution.apply_atom(atom)
        for index, atom in enumerate(query.body)
        if index not in piece
    ]
    new_body.extend(substitution.apply_atom(atom) for atom in rule.body)
    deduped = list(dict.fromkeys(new_body))
    new_answers = [substitution.apply_term(t) for t in query.answer_terms]
    rewritten = ConjunctiveQuery(new_answers, deduped, name=query.name)
    results.append(
        PieceRewriting(query=rewritten, rule=rule, piece=frozenset(piece))
    )


def _variable_sites(
    query: ConjunctiveQuery, piece: set[int]
) -> dict[Variable, tuple[int, ...]]:
    """Map each variable to the body-atom indexes outside *piece* using it."""
    sites: dict[Variable, list[int]] = {}
    for index, atom in enumerate(query.body):
        if index in piece:
            continue
        for var in atom.variables():
            sites.setdefault(var, []).append(index)
    return {var: tuple(indexes) for var, indexes in sites.items()}


def factorizations(query: ConjunctiveQuery) -> Iterator[ConjunctiveQuery]:
    """All single-step factorizations of *query*.

    A factorization unifies two body atoms of the query, producing a
    more specific query.  Factorized queries are sound (specialisations)
    and are required as *intermediate* rewriting states: a rule head
    with a repeated or shared existential variable may only become
    applicable after two query atoms have been merged.  Unifications
    that would equate two distinct constants are skipped.
    """
    body = query.body
    answer_vars = set(query.answer_variables)
    for i in range(len(body)):
        for j in range(i + 1, len(body)):
            first, second = body[i], body[j]
            if first.relation != second.relation or first.arity != second.arity:
                continue
            classes = term_classes(zip(first.terms, second.terms))
            if classes is None:
                continue
            unifier = class_substitution(classes, prefer=answer_vars)
            new_body = list(
                dict.fromkeys(unifier.apply_atom(a) for a in body)
            )
            if len(new_body) >= len(body):
                continue  # nothing merged; the step did no work
            new_answers = [unifier.apply_term(t) for t in query.answer_terms]
            yield ConjunctiveQuery(new_answers, new_body, name=query.name)
