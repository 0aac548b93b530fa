"""Materialized-core snapshots: digests and a JSON codec.

A :class:`repro.hybrid.maintain.MaterializedCore` is expensive to
build (a full restricted chase) but cheap to serialize: its state is
the base facts, the closed instance, and the live firing provenance.
This module turns a core into a JSON payload and back, so the
persistent :class:`repro.api.cache.RewritingCache` can hand a warm
core to the next process the way it already hands out rewritings.

Snapshots are keyed by ``(snapshot version, core-rules digest, ABox
digest, max_steps)`` — any change to the rules or the data produces a
different key — while each row is owned by the *full* ontology's
digest, so ``evict_ontologies`` retires core snapshots together with
the rewritings of a replaced ontology.

Term encoding reuses the SQL backend's tagged-text codec
(``s:``/``i:``/``n:``), so null labels survive the round trip and the
restored :class:`~repro.chase.nulls.NullFactory` resumes counting past
every label already issued.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from repro import obs
from repro.api.cache import CacheKey, RewritingCache
from repro.data.database import Database
from repro.data.sql import _decode, _encode
from repro.hybrid.maintain import Firing, MaterializedCore
from repro.lang.atoms import Atom
from repro.lang.tgd import TGD
from repro.rewriting.store import ontology_digest

#: Bump when the snapshot layout changes; stale payloads are ignored
#: (the core is rebuilt and re-stored), never misread.
SNAPSHOT_VERSION = 1


def abox_digest(database: Database) -> str:
    """Order-independent digest of a fact set."""
    rows = sorted(
        "".join([fact.relation, *(_encode(t) for t in fact.terms)])
        for fact in database.facts()
    )
    digest = hashlib.sha256()
    for row in rows:
        digest.update(row.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def core_key(
    rules: Sequence[TGD], data_digest: str, max_steps: int
) -> CacheKey:
    """Cache key for one (core rules, ABox, budget) combination."""
    return CacheKey(
        ontology_digest=ontology_digest(tuple(rules)),
        query_digest=data_digest,
        budget_digest=str(max_steps),
        engine_version=f"v{SNAPSHOT_VERSION}",
        target="core",
    )


def encode_core(core: MaterializedCore) -> str:
    """Serialize a core's state (its live provenance) to JSON."""
    facts = list(core.instance.facts())
    index = {fact: i for i, fact in enumerate(facts)}
    encoded_facts = [
        [fact.relation, [_encode(term) for term in fact.terms]]
        for fact in facts
    ]
    firings = [
        [
            firing.rule_index,
            [index[fact] for fact in firing.body_facts],
            [index[fact] for fact in firing.produced if fact in index],
            [index[fact] for fact in supported],
        ]
        for firing, supported in core.live_firings()
    ]
    payload = {
        "version": SNAPSHOT_VERSION,
        "facts": encoded_facts,
        "base": sorted(index[fact] for fact in core.base.facts()),
        "firings": firings,
        "nulls": core.nulls_issued,
    }
    return json.dumps(payload, separators=(",", ":"))


def decode_core(
    payload: str,
    rules: Sequence[TGD],
    *,
    max_steps: int,
) -> MaterializedCore | None:
    """Restore a core from :func:`encode_core` output.

    Returns None on any malformed or version-mismatched payload; the
    cache's read then counts an error and a miss and deletes the row,
    and the caller falls back to a fresh chase.
    """
    try:
        data = json.loads(payload)
        if data.get("version") != SNAPSHOT_VERSION:
            return None
        facts = [
            Atom(relation, [_decode(text) for text in terms])
            for relation, terms in data["facts"]
        ]
        core = MaterializedCore.restore(
            rules,
            Database(facts[i] for i in data["base"]),
            Database(facts),
            max_steps=max_steps,
            nulls_issued=int(data["nulls"]),
        )
        for rule_index, body_idx, produced_idx, supported_idx in (
            data["firings"]
        ):
            core.restore_firing(
                Firing(
                    rule_index,
                    tuple(facts[i] for i in body_idx),
                    tuple(facts[i] for i in produced_idx),
                ),
                [facts[i] for i in supported_idx],
            )
        return core
    except (KeyError, TypeError, ValueError, IndexError):
        return None


def load_or_build(
    cache: RewritingCache | None,
    full_digest: str,
    rules: Sequence[TGD],
    base: Database,
    *,
    max_steps: int,
) -> MaterializedCore:
    """Fetch a warm core from *cache* or chase and store a fresh one.

    *full_digest* is the complete ontology's digest used for eviction
    grouping.  Pass ``cache=None`` to always build; the snapshot key
    (which hashes every base fact) is then never computed.
    """
    if cache is not None:
        key = core_key(rules, abox_digest(base), max_steps)
        core = cache.get(
            key, lambda payload: decode_core(payload, rules, max_steps=max_steps)
        )
        if core is not None:
            obs.count("hybrid.core_cache.hits")
            return core
    obs.count("hybrid.core_cache.misses")
    core = MaterializedCore(rules, base, max_steps=max_steps)
    if cache is not None:
        cache.put(key, encode_core(core), owner=full_digest)
    return core
