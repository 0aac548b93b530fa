"""CQ subsumption and minimization.

``q1`` is *subsumed by* ``q2`` (``q1 ⊑ q2``) when every answer of
``q1`` is an answer of ``q2`` over every database.  By the
homomorphism theorem this holds iff there is a homomorphism from the
body of ``q2`` to the body of ``q1`` mapping the answer tuple of
``q2`` position-wise onto the answer tuple of ``q1``.

The check is implemented with the canonical-database ("freezing")
method: the variables of ``q1`` are frozen into private constants, the
frozen body becomes a database, and the evaluator searches for a
homomorphic match of ``q2``'s body.

This module is the stable public API; the heavy lifting -- the
necessary-condition filters, per-CQ profile/freeze cache and bucketed
candidate index -- lives in :mod:`repro.rewriting.subsume`.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.lang.queries import ConjunctiveQuery
from repro.rewriting.subsume import (
    SubsumptionKernel,
    _Frozen,
    freeze_body,
    freeze_term,
    kernel_remove_subsumed,
    shared_is_subsumed,
)

__all__ = [
    "equivalent",
    "is_subsumed",
    "minimize_cq",
    "remove_subsumed",
]

# Backwards-compatible aliases for the pre-kernel private helpers.
_freeze_term = freeze_term
_freeze_body = freeze_body
assert _Frozen is not None  # re-exported for existing callers


def is_subsumed(subsumee: ConjunctiveQuery, subsumer: ConjunctiveQuery) -> bool:
    """True iff ``subsumee ⊑ subsumer`` (the subsumer is more general).

    Queries of different arity are never comparable.

    Served by the process-wide shared :class:`SubsumptionKernel`, so a
    caller looping over a fixed subsumee (lint passes, the checkers
    estimator) reuses its cached canonical database instead of
    re-freezing it on every call, and pairs rejected by the
    necessary-condition filters never pay for a homomorphism search.
    """
    return shared_is_subsumed(subsumee, subsumer)


def equivalent(first: ConjunctiveQuery, second: ConjunctiveQuery) -> bool:
    """True iff the two CQs are logically equivalent (mutual subsumption)."""
    return is_subsumed(first, second) and is_subsumed(second, first)


def remove_subsumed(
    queries: Sequence[ConjunctiveQuery],
    *,
    kernel: SubsumptionKernel | None = None,
) -> tuple[ConjunctiveQuery, ...]:
    """Keep only subsumption-maximal CQs (the minimal equivalent UCQ).

    A query is dropped when another input query strictly subsumes it;
    among mutually equivalent queries the one with the smallest body
    (earliest on ties) survives, so output is deterministic.

    Callers that already hold a :class:`SubsumptionKernel` (the
    rewriting loops) pass it via *kernel* so the profile/freeze cache
    carries over; its tallies are flushed here.
    """
    queries = list(queries)
    with obs.span("minimize.remove_subsumed", disjuncts=len(queries)) as span:
        kernel = kernel or SubsumptionKernel()
        kept = kernel_remove_subsumed(queries, kernel)
        span.set(kept=len(kept))
        kernel.flush_counters()
        obs.count("minimize.disjuncts_removed", len(queries) - len(kept))
        return kept


def minimize_cq(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Remove redundant body atoms (compute a core of the query).

    Repeatedly drops an atom when the remaining body still admits a
    homomorphism from the full query fixing the answer tuple -- i.e.
    the shortened query is equivalent to the original.
    """
    body = list(dict.fromkeys(query.body))
    kernel = SubsumptionKernel()
    changed = True
    while changed and len(body) > 1:
        changed = False
        for i in range(len(body)):
            candidate_body = body[:i] + body[i + 1:]
            answer_vars = set(query.answer_variables)
            remaining_vars = {
                v for atom in candidate_body for v in atom.variables()
            }
            if not answer_vars <= remaining_vars:
                continue
            candidate = ConjunctiveQuery(
                query.answer_terms, candidate_body, name=query.name
            )
            if kernel.is_subsumed(candidate, query):
                body = candidate_body
                changed = True
                break
    kernel.flush_counters()
    dropped = len(query.body) - len(body)
    if dropped:
        obs.count("minimize.atoms_dropped", dropped)
    return ConjunctiveQuery(query.answer_terms, body, name=query.name)
