"""Safe pruning of statically-empty UCQ disjuncts.

A rewriting is evaluated over the virtual ABox, and the ABox can only
ever hold facts over *supported* relations: the targets of the mapping
assertions (in a mapped OBDA setting) or the relations actually present
in the source database (identity mapping).  A disjunct mentioning any
other relation is statically empty -- no database reachable through the
mappings can satisfy it -- so dropping it cannot change the certain
answers.  That is the soundness argument; the differential harness
(in-memory == SQL == chase, pruned vs unpruned) enforces it end to end.

Used by ``Session(..., options=EngineOptions(prune_empty=True))`` and
reported (as ``RL106``) by ``repro check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.data.database import Database
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.obda.mappings import MappingAssertion


@dataclass(frozen=True)
class PruneResult:
    """Outcome of pruning one UCQ.

    Attributes:
        ucq: the pruned UCQ, or None when *every* disjunct was
            statically empty (the query then has no certain answers
            over the session's data).
        kept: number of disjuncts retained.
        dropped: number of disjuncts removed.
        empty_relations: the unsupported relations that caused drops.
    """

    ucq: UnionOfConjunctiveQueries | None
    kept: int
    dropped: int
    empty_relations: frozenset[str]


def supported_relations(
    mappings: Sequence[MappingAssertion] | None,
    source: Database | None,
) -> frozenset[str]:
    """Relations the virtual ABox can hold facts over.

    Mirrors :meth:`repro.api.Session.abox`: with mappings, the ABox is
    the mappings' output (targets of assertions whose source relations
    all exist non-empty, when the source is known); without mappings the
    source database *is* the ABox, so its non-empty relations count.
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


def prune_statically_empty(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    supported: frozenset[str],
) -> PruneResult:
    """Drop disjuncts containing an atom over an unsupported relation."""
    ucq = UnionOfConjunctiveQueries.of(query)
    kept: list[ConjunctiveQuery] = []
    empty: set[str] = set()
    for cq in ucq:
        missing = {
            atom.relation
            for atom in cq.body
            if atom.relation not in supported
        }
        if missing:
            empty |= missing
        else:
            kept.append(cq)
    dropped = len(ucq) - len(kept)
    if dropped:
        obs.count("session.pruned_disjuncts", dropped)
    pruned = (
        UnionOfConjunctiveQueries(kept, name=ucq.name) if kept else None
    )
    return PruneResult(
        ucq=pruned,
        kept=len(kept),
        dropped=dropped,
        empty_relations=frozenset(empty),
    )
