"""End-to-end tests for the ``POST /v1/mutate`` serving route."""

import threading
import time

import pytest

from repro import obs
from repro.api import EngineOptions
from repro.data.database import Database
from repro.lang.errors import ReproError
from repro.lang.parser import parse_database, parse_program
from repro.serve import BackgroundServer, ReproServer, ServeConfig, TenantRegistry

from tests.serve.test_server import _request

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


class TestMutateRoute:
    def test_insert_is_visible_to_subsequent_queries(self):
        server = _server()
        with BackgroundServer(server) as (host, port):
            status, _, before = _request(
                host, port, "POST", "/v1/query", {"query": QUERY}
            )
            assert status == 200
            assert len(before["answers"]) == 2

            status, _, payload = _request(
                host,
                port,
                "POST",
                "/v1/mutate",
                {"insert": "assoc_prof(carl)."},
            )
            assert status == 200
            assert payload["tenant"] == "default"
            assert payload["data_size"] == 3
            # No hybrid core on a default-options tenant: the mutation
            # lands in the ABox but nothing is maintained.
            assert payload["insert"] == {"maintained": False}

            status, _, after = _request(
                host, port, "POST", "/v1/query", {"query": QUERY}
            )
            assert status == 200
            assert len(after["answers"]) == 3

    def test_delete_retracts_answers(self):
        server = _server()
        with BackgroundServer(server) as (host, port):
            status, _, payload = _request(
                host,
                port,
                "POST",
                "/v1/mutate",
                {"delete": "professor(ada)."},
            )
            assert status == 200
            assert payload["data_size"] == 1
            status, _, after = _request(
                host, port, "POST", "/v1/query", {"query": QUERY}
            )
            assert status == 200
            assert after["answers"] == [['"bob"']]

    def test_hybrid_tenant_reports_maintenance(self):
        server = _server(options=EngineOptions(hybrid="materialize"))
        with BackgroundServer(server) as (host, port):
            # The first query builds the materialized core.
            status, _, payload = _request(
                host, port, "POST", "/v1/query", {"query": QUERY}
            )
            assert status == 200
            status, _, payload = _request(
                host,
                port,
                "POST",
                "/v1/mutate",
                {"insert": "professor(carl).", "delete": "professor(ada)."},
            )
            assert status == 200
            keys = {"maintained", "added", "removed", "rounds", "firings"}
            assert set(payload["insert"]) == set(payload["delete"]) == keys
            assert payload["insert"]["maintained"] is True
            assert payload["insert"]["added"] >= 1
            assert payload["delete"]["maintained"] is True
            assert payload["delete"]["removed"] >= 1
            status, _, after = _request(
                host, port, "POST", "/v1/query", {"query": QUERY}
            )
            assert status == 200
            assert len(after["answers"]) == 2

    def test_failed_maintenance_is_400_and_the_core_is_rebuilt(self):
        server = _server(options=EngineOptions(hybrid="materialize"))
        with BackgroundServer(server) as (host, port):
            status, _, _ = _request(
                host, port, "POST", "/v1/query", {"query": QUERY}
            )
            assert status == 200
            session = server.registry.session("default")
            # assoc_prof(carl) needs two firings: R2, then R1.
            session._hybrid.core.max_steps = 1
            status, _, payload = _request(
                host, port, "POST", "/v1/mutate", {"insert": "assoc_prof(carl)."}
            )
            assert status == 400
            assert "exceeded" in payload["error"]
            # The body names the failed operation and the ABox size
            # after it.
            assert payload["failed"] == "insert"
            assert payload["data_size"] == 3
            # The ABox change stands; the next answer rebuilds the core.
            status, _, after = _request(
                host, port, "POST", "/v1/query", {"query": QUERY}
            )
            assert status == 200
            assert after["answers"] == [['"ada"'], ['"bob"'], ['"carl"']]

    def test_failed_operation_reports_what_applied_before_it(self):
        server = _server()
        session = server.registry.session("default")

        def failing_delete(facts):
            raise ReproError("delete refused")

        session.delete = failing_delete
        with BackgroundServer(server) as (host, port):
            status, _, payload = _request(
                host,
                port,
                "POST",
                "/v1/mutate",
                {"insert": "assoc_prof(carl).", "delete": "professor(ada)."},
            )
            assert status == 400
            assert payload["error"] == "delete refused"
            assert payload["failed"] == "delete"
            assert payload["insert"] == {"maintained": False}
            assert "delete" not in payload
            assert payload["data_size"] == 3

    def test_malformed_payloads_are_400(self):
        server = _server()
        with BackgroundServer(server) as (host, port):
            status, _, payload = _request(
                host, port, "POST", "/v1/mutate", {"tenant": "default"}
            )
            assert status == 400
            assert "error" in payload
            status, _, payload = _request(
                host,
                port,
                "POST",
                "/v1/mutate",
                {"insert": "this is not database text"},
            )
            assert status == 400
            assert "error" in payload

    def test_unknown_tenant_is_400(self):
        server = _server()
        with BackgroundServer(server) as (host, port):
            status, _, payload = _request(
                host,
                port,
                "POST",
                "/v1/mutate",
                {"tenant": "ghost", "insert": "a(c)."},
            )
            assert status == 400
            assert "error" in payload


class TestMutateAdmission:
    def test_overload_sheds_mutations_with_retry_after(self):
        release = threading.Event()
        server = _server(workers=1, queue_depth=0)
        server._before_execute = release.wait
        with obs.capture() as trace:
            with BackgroundServer(server) as (host, port):
                blocker = threading.Thread(
                    target=_request,
                    args=(
                        host,
                        port,
                        "POST",
                        "/v1/mutate",
                        {"insert": "assoc_prof(carl)."},
                    ),
                )
                blocker.start()
                # Wait until the mutation actually holds the slot.
                deadline = time.time() + 10
                while server.admission.inflight == 0:
                    assert time.time() < deadline, "mutation never admitted"
                    time.sleep(0.01)
                status, headers, payload = _request(
                    host,
                    port,
                    "POST",
                    "/v1/mutate",
                    {"insert": "assoc_prof(dee)."},
                )
                assert status == 429
                assert int(headers["Retry-After"]) >= 1
                assert "error" in payload
                release.set()
                blocker.join(timeout=30)
        assert trace.counter("serve.shed") == 1
        assert trace.counter("serve.admitted") == 1
        assert trace.counter("serve.completed") == 1

    def test_mutation_past_its_deadline_returns_504(self):
        release = threading.Event()
        server = _server(workers=1, queue_depth=4, deadline_seconds=0.2)
        server._before_execute = release.wait
        with obs.capture() as trace:
            with BackgroundServer(server) as (host, port):
                status, _, payload = _request(
                    host,
                    port,
                    "POST",
                    "/v1/mutate",
                    {"insert": "assoc_prof(carl)."},
                )
                assert status == 504
                assert payload["deadline_seconds"] == pytest.approx(0.2)
                # The worker still holds its slot until it finishes.
                assert server.admission.inflight == 1
                release.set()
                deadline = time.time() + 10
                while server.admission.inflight:
                    assert time.time() < deadline, "slot never released"
                    time.sleep(0.01)
                # The 504'd mutation still ran to completion.
                status, _, after = _request(
                    host, port, "POST", "/v1/query", {"query": QUERY}
                )
                assert status == 200
                assert len(after["answers"]) == 3
        assert trace.counter("serve.deadline_exceeded") == 1
