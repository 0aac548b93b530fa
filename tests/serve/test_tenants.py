"""Tenant isolation: registry lifecycle, LRU, cache eviction."""

import pytest

from repro.api import EngineOptions, RewritingCache
from repro.data.database import Database
from repro.lang.errors import ReproError
from repro.lang.parser import parse_database, parse_program
from repro.serve import TenantRegistry

PROGRAM_A = "R1: professor(X) -> teaches(X, Y)."
PROGRAM_B = "S1: a(X) -> b(X)."
QUERY_A = "q(X) :- teaches(X, Y)"
QUERY_B = "q(X) :- b(X)"


@pytest.fixture
def rules_a():
    return parse_program(PROGRAM_A)


@pytest.fixture
def rules_b():
    return parse_program(PROGRAM_B)


class TestRegistry:
    def test_register_and_answer(self, rules_a):
        with TenantRegistry() as registry:
            registry.register(
                "t1", rules_a, Database(parse_database("professor(ada)."))
            )
            answers = registry.session("t1").answer(QUERY_A)
        assert answers

    def test_unknown_tenant_raises(self):
        with TenantRegistry() as registry:
            with pytest.raises(ReproError, match="unknown tenant"):
                registry.session("ghost")
            with pytest.raises(ReproError, match="unknown tenant"):
                registry.remove("ghost")

    def test_sessions_are_isolated(self, rules_a, rules_b):
        with TenantRegistry() as registry:
            registry.register("a", rules_a)
            registry.register("b", rules_b)
            assert registry.session("a") is not registry.session("b")
            assert (
                registry.session("a").ontology_digest
                != registry.session("b").ontology_digest
            )

    def test_reregister_replaces_session(self, rules_a, rules_b):
        with TenantRegistry() as registry:
            registry.register("t", rules_a)
            first = registry.session("t")
            registry.register("t", rules_b)
            second = registry.session("t")
        assert first is not second
        assert second.ontology == tuple(rules_b)


class TestLru:
    def test_live_sessions_bounded_and_reopened(self, rules_a, rules_b):
        with TenantRegistry(max_live=1) as registry:
            registry.register("a", rules_a)
            registry.register("b", rules_b)
            session_a = registry.session("a")
            registry.session("b")  # evicts a's live session (LRU)
            reopened = registry.session("a")
            assert reopened is not session_a
            assert reopened.ontology == tuple(rules_a)


class TestEviction:
    def test_remove_reclaims_persistent_entries(
        self, rules_a, rules_b, tmp_path
    ):
        options = EngineOptions()
        with TenantRegistry(cache_dir=tmp_path, options=options) as registry:
            registry.register("a", rules_a)
            registry.register("b", rules_b)
            registry.session("a").prepare(QUERY_A).result
            registry.session("b").prepare(QUERY_B).result
            evicted = registry.remove("b")
            assert evicted == 1
        with RewritingCache(tmp_path) as cache:
            assert len(cache) == 1
            (digest, _count) = next(iter(cache.ontologies()))
        from repro.rewriting.store import ontology_digest

        assert digest == ontology_digest(rules_a)

    def test_remove_keeps_shared_ontology_entries(self, rules_a, tmp_path):
        with TenantRegistry(cache_dir=tmp_path) as registry:
            registry.register("x", rules_a)
            registry.register("y", rules_a)  # same ontology, two tenants
            registry.session("x").prepare(QUERY_A).result
            assert registry.remove("x") == 0  # y still needs the entries
        with RewritingCache(tmp_path) as cache:
            assert len(cache) == 1

    def test_remove_keeps_other_tenants_split_residuals(
        self, rules_b, tmp_path
    ):
        # A SPLIT tenant stores its residual rewriting under the
        # residual rules' digest; the row still belongs to the tenant's
        # ontology, so removing an unrelated tenant must not evict it.
        from repro import obs
        from repro.rewriting.budget import RewritingBudget
        from repro.workloads.interaction import split_workload

        rules, query, data = split_workload()
        # The residual rewriting has 3 disjuncts; the cap only bounds
        # the full ontology's unbounded one, should anything compile it.
        options = EngineOptions(
            hybrid="split", budget=RewritingBudget(max_cqs=200, strict=False)
        )
        with TenantRegistry(cache_dir=tmp_path, options=options) as registry:
            registry.register("a", rules, data)
            expected = registry.session("a").answer(query)
            registry.register("b", rules_b)
            assert registry.remove("b") == 0
        with RewritingCache(tmp_path) as cache:
            assert cache.counts() == {"ucq": 1, "datalog": 0, "cores": 1}
        with obs.capture() as trace:
            with TenantRegistry(
                cache_dir=tmp_path, options=options
            ) as restarted:
                restarted.register("a", rules, data)
                with obs.capture() as warm:
                    restarted.warm_all()
                assert restarted.session("a").answer(query) == expected
        # The residual comes from disk, and warm-up never re-prepares
        # it over the full ontology, whose rewriting is unbounded.
        assert warm.spans("engine.rewrite") == []
        assert trace.spans("engine.rewrite") == []
        assert trace.counter("engine.disk_hits") == 1


class TestWarmAll:
    def test_boot_warmup_reaches_steady_state(self, rules_a, tmp_path):
        from repro import obs

        with TenantRegistry(cache_dir=tmp_path) as registry:
            registry.register("t", rules_a)
            registry.session("t").prepare(QUERY_A).result
        # A "restarted server": fresh registry over the same cache dir.
        with obs.capture() as trace:
            with TenantRegistry(cache_dir=tmp_path) as restarted:
                restarted.register("t", rules_a)
                assert restarted.warm_all() == 1
                restarted.session("t").prepare(QUERY_A).result
        assert trace.counter("rewrite.cqs_generated") == 0
        assert trace.counter("engine.disk_hits") == 1
