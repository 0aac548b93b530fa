"""Canonical content digests of queries, ontologies and budgets.

The persistent compilation cache (:mod:`repro.api.cache`, behind
``Session(cache_dir=...)``) and the materialized-core snapshots
(:mod:`repro.hybrid.store`) address their entries by these digests.
"Rewrite once, answer forever" runs through that cache: compile a
workload with ``Session(rules, cache_dir=DIR).prepare(q)``, then boot a
deployment with ``Session(rules, data, cache_dir=DIR).warm_up()``,
which loads every stored rewriting without running the rewriter.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries

# The cache keys compiled rewritings by *content*, not identity: a
# query digest that is stable under variable renaming and body
# reordering (it hashes the canonical form of each disjunct), and an
# ontology digest that is stable under rule reordering.  Both are hex
# SHA-256 strings, safe to embed in file names and SQLite keys and
# comparable across processes.


def _sha256(parts: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def query_digest(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries,
) -> str:
    """A renaming/reordering-insensitive content hash of a (U)CQ.

    Two queries that the engine's in-memory cache would treat as the
    same entry (equal canonical forms) receive the same digest; the
    digest is deterministic across processes and runs.
    """
    ucq = UnionOfConjunctiveQueries.of(query)
    return _sha256(sorted(repr(cq.canonical()) for cq in ucq))


def ontology_digest(rules) -> str:
    """A rule-order-insensitive content hash of a TGD program.

    Any textual change to any rule (including its label) changes the
    digest, which is exactly the conservative invalidation the
    persistent rewriting cache needs: edited ontology => recompile.
    """
    return _sha256(sorted(str(rule) for rule in rules))


def budget_digest(budget) -> str:
    """A content hash of the rewriting budget's limit fields.

    ``strict`` is excluded: it changes how budget exhaustion is
    *reported*, never which UCQ a completed run produces.
    """
    return _sha256(
        [
            f"max_depth={budget.max_depth}",
            f"max_cqs={budget.max_cqs}",
            f"max_seconds={budget.max_seconds}",
        ]
    )
