"""Snapshot codec and cache-loading tests for repro.hybrid.store."""

from __future__ import annotations

import json

from repro import obs
from repro.api.cache import RewritingCache
from repro.data.database import Database
from repro.hybrid import (
    MaterializedCore,
    abox_digest,
    core_key,
    decode_core,
    encode_core,
    load_or_build,
)
from repro.lang.atoms import Atom
from repro.lang.parser import parse_program
from repro.lang.terms import Constant
from repro.obs import InMemorySink
from repro.workloads.ontologies import university_data, university_ontology

RULES = parse_program(
    """
    E: emp(X) -> person(X).
    P: person(X) -> hasId(X, Y).
    """
)


def fact(relation: str, *names: str) -> Atom:
    return Atom(relation, tuple(Constant(name) for name in names))


def base() -> Database:
    return Database([fact("emp", "a"), fact("emp", "b")])


def test_roundtrip_preserves_state():
    core = MaterializedCore(RULES, base())
    restored = decode_core(encode_core(core), RULES, max_steps=core.max_steps)
    assert restored is not None
    assert set(restored.instance.facts()) == set(core.instance.facts())
    assert set(restored.base.facts()) == set(core.base.facts())
    assert restored.firing_count() == core.firing_count()
    assert restored.check_consistency() == []


def test_snapshot_after_deletes_restores_live_provenance():
    rules = university_ontology()
    core = MaterializedCore(rules, university_data(40))
    victims = sorted(
        (f for f in core.base.facts() if f.relation in ("teaches", "takes")),
        key=str,
    )[:6]
    core.apply_delete(victims)
    restored = decode_core(encode_core(core), rules, max_steps=core.max_steps)
    assert restored is not None
    assert restored.firing_count() == core.firing_count()
    assert set(restored.instance.facts()) == set(core.instance.facts())
    assert restored.check_consistency() == []
    # The restored provenance drives the next delete's cascade.
    restored.apply_delete([min(restored.base.facts(), key=str)])
    assert restored.check_consistency() == []


def test_restored_core_maintains_correctly():
    core = MaterializedCore(RULES, base())
    restored = decode_core(encode_core(core), RULES, max_steps=core.max_steps)
    assert restored is not None
    restored.apply_insert([fact("emp", "c")])
    restored.apply_delete([fact("emp", "a")])
    assert fact("person", "c") in restored.instance
    assert fact("person", "a") not in restored.instance
    assert restored.check_consistency() == []


def test_restored_null_factory_resumes_past_issued_labels():
    core = MaterializedCore(RULES, base())
    restored = decode_core(encode_core(core), RULES, max_steps=core.max_steps)
    assert restored is not None
    before = set(restored.instance.facts())
    restored.apply_insert([fact("emp", "fresh")])
    invented = set(restored.instance.facts()) - before
    # The fresh null must not collide with any label already present.
    assert invented.isdisjoint(before)
    assert restored.check_consistency() == []


def test_decode_rejects_malformed_payloads():
    core = MaterializedCore(RULES, base())
    good = encode_core(core)
    kwargs = {"max_steps": core.max_steps}
    assert decode_core("not json", RULES, **kwargs) is None
    assert decode_core("{}", RULES, **kwargs) is None
    stale = json.loads(good)
    stale["version"] = 999
    assert decode_core(json.dumps(stale), RULES, **kwargs) is None
    truncated = json.loads(good)
    del truncated["firings"]
    assert decode_core(json.dumps(truncated), RULES, **kwargs) is None
    out_of_range = json.loads(good)
    if out_of_range["firings"]:
        out_of_range["firings"][0][0] = 99
        assert decode_core(json.dumps(out_of_range), RULES, **kwargs) is None


def test_abox_digest_is_order_independent_and_content_sensitive():
    one = Database([fact("emp", "a"), fact("emp", "b")])
    two = Database([fact("emp", "b"), fact("emp", "a")])
    assert abox_digest(one) == abox_digest(two)
    three = Database([fact("emp", "a"), fact("emp", "c")])
    assert abox_digest(one) != abox_digest(three)


def test_core_key_varies_with_every_component():
    digest = abox_digest(base())
    key = core_key(RULES, digest, 1000)
    assert key != core_key(RULES, digest, 2000)
    assert key != core_key(RULES[:1], digest, 1000)
    assert key != core_key(RULES, abox_digest(Database()), 1000)


def test_load_or_build_round_trips_through_the_cache(tmp_path):
    sink = InMemorySink()
    kwargs = {"max_steps": 1000}
    with RewritingCache(tmp_path) as cache:
        with obs.use(sink, inherit=False):
            first = load_or_build(cache, "digest-full", RULES, base(), **kwargs)
            second = load_or_build(cache, "digest-full", RULES, base(), **kwargs)
    counters = sink.counters()
    assert counters["hybrid.core_cache.misses"] == 1
    assert counters["hybrid.core_cache.hits"] == 1
    assert set(second.instance.facts()) == set(first.instance.facts())
    assert second.check_consistency() == []


def test_load_or_build_without_cache_always_builds(monkeypatch):
    import repro.hybrid.store as store

    def no_digest(database):
        raise AssertionError("snapshot key computed without a cache")

    monkeypatch.setattr(store, "abox_digest", no_digest)
    sink = InMemorySink()
    with obs.use(sink, inherit=False):
        core = load_or_build(None, "digest-full", RULES, base(), max_steps=1000)
    assert sink.counters()["hybrid.core_cache.misses"] == 1
    assert core.check_consistency() == []
