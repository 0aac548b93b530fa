"""End-to-end serving tests: real sockets, real threads, real shedding."""

import http.client
import json
import threading
import time

import pytest

from repro import obs
from repro.api import EngineOptions
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program
from repro.serve import (
    BackgroundServer,
    ReproServer,
    ServeConfig,
    TenantRegistry,
)

PROGRAM = (
    "R1: professor(X) -> teaches(X, Y). "
    "R2: assoc_prof(X) -> professor(X)."
)
DATA = "professor(ada). assoc_prof(bob)."
QUERY = "q(X) :- teaches(X, Y)"


def _server(tmp_path=None, **config_kwargs):
    config = ServeConfig(port=0, **config_kwargs)
    registry = TenantRegistry(
        cache_dir=tmp_path, options=config.effective_options()
    )
    registry.register(
        "default",
        parse_program(PROGRAM),
        Database(parse_database(DATA)),
    )
    return ReproServer(registry, config)


def _request(host, port, method, path, payload=None, timeout=30):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), (
            json.loads(raw) if raw else None
        )
    finally:
        conn.close()


class TestRoutes:
    def test_healthz_and_query_and_stats(self):
        server = _server(workers=2, queue_depth=4)
        with BackgroundServer(server) as (host, port):
            status, _, payload = _request(host, port, "GET", "/healthz")
            assert status == 200
            assert payload["tenants"] == ["default"]

            status, _, payload = _request(
                host, port, "POST", "/v1/query", {"query": QUERY}
            )
            assert status == 200
            assert payload["complete"] is True
            assert len(payload["answers"]) == 2

            # SQL and memory backends agree over the wire.
            status, _, sql_payload = _request(
                host,
                port,
                "POST",
                "/v1/query",
                {"query": QUERY, "backend": "sql"},
            )
            assert status == 200
            assert sql_payload["answers"] == payload["answers"]

            status, _, stats = _request(host, port, "GET", "/v1/stats")
            assert status == 200
            assert stats["admission"]["admitted"] == 2
            assert stats["admission"]["shed"] == 0
            assert "default" in stats["tenants"]

    def test_unknown_route_404_and_bad_json_400(self):
        server = _server()
        with BackgroundServer(server) as (host, port):
            status, _, _ = _request(host, port, "GET", "/nope")
            assert status == 404
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("POST", "/v1/query", body=b"{nope")
                assert conn.getresponse().status == 400
            finally:
                conn.close()

    def test_malformed_query_is_400_not_500(self):
        server = _server()
        with BackgroundServer(server) as (host, port):
            status, _, payload = _request(
                host, port, "POST", "/v1/query", {"query": "not a query"}
            )
            assert status == 400
            assert "error" in payload

    def test_tenant_registration_and_removal(self, tmp_path):
        server = _server(tmp_path=tmp_path)
        with BackgroundServer(server) as (host, port):
            status, _, payload = _request(
                host,
                port,
                "POST",
                "/v1/tenants",
                {"name": "t2", "program": "S1: a(X) -> b(X).", "data": "a(c)."},
            )
            assert status == 201
            status, _, payload = _request(
                host,
                port,
                "POST",
                "/v1/query",
                {"tenant": "t2", "query": "q(X) :- b(X)"},
            )
            assert status == 200
            assert payload["answers"] == [['"c"']]
            status, _, payload = _request(
                host, port, "DELETE", "/v1/tenants/t2"
            )
            assert status == 200
            status, _, _ = _request(
                host,
                port,
                "POST",
                "/v1/query",
                {"tenant": "t2", "query": "q(X) :- b(X)"},
            )
            assert status == 400


class TestAdmission:
    def test_overload_sheds_with_retry_after(self):
        release = threading.Event()
        server = _server(workers=1, queue_depth=0)
        server._before_execute = release.wait
        with obs.capture() as trace:
            with BackgroundServer(server) as (host, port):
                blocker = threading.Thread(
                    target=_request,
                    args=(host, port, "POST", "/v1/query", {"query": QUERY}),
                )
                blocker.start()
                # Wait until the slot is actually held.
                deadline = time.time() + 10
                while server.admission.inflight == 0:
                    assert time.time() < deadline, "request never admitted"
                    time.sleep(0.01)
                status, headers, payload = _request(
                    host, port, "POST", "/v1/query", {"query": QUERY}
                )
                assert status == 429
                assert int(headers["Retry-After"]) >= 1
                assert "error" in payload
                release.set()
                blocker.join(timeout=30)
        assert trace.counter("serve.shed") == 1
        assert trace.counter("serve.admitted") == 1
        assert trace.counter("serve.completed") == 1

    def test_deadline_exceeded_returns_504(self):
        release = threading.Event()
        server = _server(workers=1, queue_depth=4, deadline_seconds=0.2)
        server._before_execute = release.wait
        with obs.capture() as trace:
            with BackgroundServer(server) as (host, port):
                status, _, payload = _request(
                    host, port, "POST", "/v1/query", {"query": QUERY}
                )
                assert status == 504
                assert payload["deadline_seconds"] == pytest.approx(0.2)
                release.set()
                # The slot is only freed when the worker finishes; wait
                # for the release so the counter assertions are stable.
                deadline = time.time() + 10
                while server.admission.inflight:
                    assert time.time() < deadline, "slot never released"
                    time.sleep(0.01)
        assert trace.counter("serve.deadline_exceeded") == 1
        assert trace.counter("serve.admitted") == 1

    def test_worker_crash_is_500_and_counted_once(self):
        # The ticket's release counts the error; the 500 branch of the
        # dispatcher must not count it a second time.
        server = _server()

        def crash():
            raise RuntimeError("worker crashed")

        server._before_execute = crash
        with obs.capture() as trace:
            with BackgroundServer(server) as (host, port):
                status, _, payload = _request(
                    host, port, "POST", "/v1/query", {"query": QUERY}
                )
                assert status == 500
                assert "worker crashed" in payload["error"]
                status, _, stats = _request(host, port, "GET", "/v1/stats")
                assert status == 200
        assert trace.counter("serve.errors") == 1 == stats["admission"]["errors"]

    def test_deadline_tightens_the_rewriting_budget(self):
        config = ServeConfig(
            deadline_seconds=1.5,
            options=EngineOptions(),
        )
        assert config.effective_options().budget.max_seconds == 1.5
        # Never loosens an already-tighter budget.
        from repro.rewriting.budget import RewritingBudget

        tight = ServeConfig(
            deadline_seconds=9.0,
            options=EngineOptions(
                budget=RewritingBudget(max_seconds=0.5)
            ),
        )
        assert tight.effective_options().budget.max_seconds == 0.5


class TestWarmServing:
    def test_restart_serves_with_zero_rewrites(self, tmp_path):
        server = _server(tmp_path=tmp_path)
        with BackgroundServer(server) as (host, port):
            _request(host, port, "POST", "/v1/query", {"query": QUERY})
        restarted = _server(tmp_path=tmp_path)
        restarted.registry.warm_all()
        with obs.capture() as trace:
            with BackgroundServer(restarted) as (host, port):
                status, _, _ = _request(
                    host, port, "POST", "/v1/query", {"query": QUERY}
                )
                assert status == 200
        assert trace.counter("rewrite.cqs_generated") == 0


class TestPlanReporting:
    def test_materialized_tenant_reports_the_plan_that_ran(self):
        # Example 2's chain query has no finite rewriting, but its rules
        # are weakly acyclic: a materialize tenant answers exactly over
        # the chase and must never compile the full rewriting just to
        # report exactness.
        from repro.rewriting.budget import RewritingBudget
        from repro.workloads.paper import EXAMPLE2_QUERY, example2

        config = ServeConfig(
            port=0,
            options=EngineOptions(
                hybrid="materialize",
                budget=RewritingBudget(max_seconds=10.0),
            ),
        )
        registry = TenantRegistry(options=config.effective_options())
        registry.register(
            "example2", example2(), Database(parse_database("t(b, a). r(b, e)."))
        )
        server = ReproServer(registry, config)
        with obs.capture() as trace:
            with BackgroundServer(server) as (host, port):
                status, _, payload = _request(
                    host,
                    port,
                    "POST",
                    "/v1/query",
                    {"query": str(EXAMPLE2_QUERY), "tenant": "example2"},
                )
        assert status == 200
        assert payload["complete"] is True
        assert payload["plan"] == "chase"
        assert payload["answers"] == [[]]  # the Boolean query holds
        assert not trace.spans("engine.rewrite")
