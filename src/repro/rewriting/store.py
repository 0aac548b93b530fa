"""Persisted rewritings: content digests and a JSON codec.

The persistent compilation cache (:mod:`repro.api.cache`, behind
``Session(cache_dir=...)``) and the materialized-core snapshots
(:mod:`repro.hybrid.store`) address their entries by these digests,
and the cache stores both rewriting targets' artifacts as the payloads
of :func:`encode_rewriting`.  "Rewrite once, answer forever" runs
through that cache: compile a workload with
``Session(rules, cache_dir=DIR).prepare(q)``, then boot a deployment
with ``Session(rules, data, cache_dir=DIR).warm_up()``, which loads
every stored rewriting without running the rewriter.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from repro.lang.parser import parse_program, parse_ucq
from repro.lang.printer import format_program, format_ucq
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.tgd import TGD
from repro.rewriting.datalog_target import DatalogRewriting
from repro.rewriting.rewriter import RewritingResult

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

    Two queries that a session's handle table would treat as the
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
    """A content hash of the rewriting budget's three limit fields."""
    return _sha256(
        [
            f"max_depth={budget.max_depth}",
            f"max_cqs={budget.max_cqs}",
            f"max_seconds={budget.max_seconds}",
        ]
    )


def encode_rewriting(result: RewritingResult | DatalogRewriting) -> str:
    """Serialise a compiled rewriting of either target to a JSON payload.

    The UCQ and the rules round-trip through the textual syntax.
    Derivation lineage and rule labels are not persisted: a disk-served
    artifact answers queries, compiles to SQL and prints exactly like a
    fresh one, but cannot explain its disjuncts.
    """
    payload: dict[str, object] = {
        "complete": result.complete,
        "depth_reached": result.depth_reached,
        "generated": result.generated,
    }
    if isinstance(result, DatalogRewriting):
        payload.update(
            target="datalog",
            goal=result.goal,
            arity=result.arity,
            fallback_disjuncts=result.fallback_disjuncts,
            aux_rules=format_program(result.aux_rules),
            goal_rules=format_program(result.goal_rules),
        )
    else:
        payload.update(
            target="ucq",
            explored=result.explored,
            per_depth=list(result.per_depth),
            ucq=format_ucq(result.ucq),
        )
    return json.dumps(payload)


def decode_rewriting(payload: str) -> RewritingResult | DatalogRewriting:
    """The artifact :func:`encode_rewriting` stored in *payload*.

    Raises on a malformed payload; the cache counts that as an error
    and a miss.
    """
    data = json.loads(payload)
    common = {
        "complete": bool(data["complete"]),
        "depth_reached": int(data["depth_reached"]),
        "generated": int(data["generated"]),
    }
    if data["target"] == "datalog":
        return DatalogRewriting(
            goal=str(data["goal"]),
            arity=int(data["arity"]),
            aux_rules=_parse_rules(data["aux_rules"]),
            goal_rules=_parse_rules(data["goal_rules"]),
            fallback_disjuncts=int(data["fallback_disjuncts"]),
            **common,
        )
    return RewritingResult(
        ucq=parse_ucq(data["ucq"]),
        explored=int(data["explored"]),
        per_depth=tuple(data["per_depth"]),
        **common,
    )


def _parse_rules(text: str) -> tuple[TGD, ...]:
    # parse_program labels unlabelled rules R1, R2, ...; the emitter
    # leaves rules unlabelled, so strip the synthetic labels to make
    # disk-served programs print byte-identically to fresh ones.
    return tuple(TGD(rule.body, rule.head) for rule in parse_program(text))
