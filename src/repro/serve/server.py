"""The asyncio HTTP server tying admission, tenants and sessions together.

Request lifecycle of ``POST /v1/query``::

    admit ──> executor thread ──> Session.prepare (single-flight) ──> answer
      │                │
      │ full           │ deadline passed
      ▼                ▼
    429 + Retry-After  504 (worker finishes; slot released at completion)

Design points worth naming:

* **Admission before execution.**  The executor has ``workers``
  threads; the admission controller caps concurrent requests at
  ``workers + queue_depth``, so at most ``queue_depth`` requests are
  ever parked in the executor's internal queue and everything beyond
  that is shed immediately with an honest ``Retry-After``.
* **Deadlines do not free slots early.**  A request that outruns
  ``deadline_seconds`` gets its 504 immediately (``asyncio.wait_for``),
  but the worker thread cannot be interrupted mid-rewriting -- the
  ticket is released from the ``concurrent.futures`` done-callback
  when the thread actually finishes, keeping the capacity accounting
  truthful under overload.
* **One budget per server, not per request.**  The server deadline is
  mapped onto the rewriting budget *once* at boot
  (:meth:`EngineOptions.with_deadline`); per-request budgets would
  fragment the persistent cache key space (the budget digest is part
  of every key) and defeat warm serving.
* **Compilation is single-flight process-wide** via the engine's
  inflight locking; the server adds nothing and relies on the pinned
  contract (see ``tests/api/test_single_flight_stress.py``).

:class:`BackgroundServer` runs the event loop on a daemon thread for
tests and the closed-loop load harness in
``benchmarks/bench_serving_load.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.api.options import EngineOptions
from repro.api.session import Session
from repro.lang.errors import ReproError
from repro.serve.admission import AdmissionController
from repro.serve.http import (
    HttpError,
    Request,
    encode_response,
    read_request,
)
from repro.serve.tenants import TenantRegistry

_QUERY_BACKENDS = ("memory", "sql")


def _maintenance_summary(maintained: Any) -> dict[str, Any]:
    """JSON shape of a :class:`~repro.hybrid.MaintenanceResult`.

    ``{"maintained": false}`` when no hybrid core is materialized for
    the tenant (the mutation still updated the virtual ABox and the
    SQL backend).
    """
    if maintained is None:
        return {"maintained": False}
    return {
        "maintained": True,
        "added": len(maintained.added),
        "removed": len(maintained.removed),
        "full_rechase": maintained.full_rechase,
        "rounds": maintained.rounds,
        "firings": maintained.firings,
    }


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` configures, in one value."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 4
    queue_depth: int = 16
    deadline_seconds: float | None = None
    max_tenants: int = 8
    options: EngineOptions = field(default_factory=EngineOptions)

    def effective_options(self) -> EngineOptions:
        """Engine options with the server deadline folded into the budget."""
        return self.options.with_deadline(self.deadline_seconds)


class ReproServer:
    """The serving front end over a :class:`TenantRegistry`."""

    def __init__(self, registry: TenantRegistry, config: ServeConfig) -> None:
        self.registry = registry
        self.config = config
        self.admission = AdmissionController(
            config.workers, config.queue_depth
        )
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.base_events.Server | None = None
        self.port: int | None = None
        # Test/bench hook: runs inside the worker thread before an
        # admitted query or mutation executes -- lets the harness hold
        # slots deterministically.
        self._before_execute: Callable[[], None] | None = None

    # ----------------------------------------------------------------- #
    # Lifecycle                                                           #
    # ----------------------------------------------------------------- #

    async def start(self) -> None:
        """Bind and start accepting; sets :attr:`port` (actual port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        obs.event(
            "serve.started",
            host=self.config.host,
            port=self.port,
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=True)
        self.registry.close()
        obs.event("serve.stopped")

    # ----------------------------------------------------------------- #
    # Connection handling                                                 #
    # ----------------------------------------------------------------- #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    writer.write(
                        encode_response(
                            error.status,
                            {"error": error.message},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request) -> bytes:
        obs.count("serve.requests")
        try:
            if request.method == "GET" and request.path == "/healthz":
                return self._healthz(request)
            if request.method == "GET" and request.path == "/v1/stats":
                return self._stats(request)
            if request.method == "POST" and request.path == "/v1/query":
                return await self._query(request)
            if request.method == "POST" and request.path == "/v1/mutate":
                return await self._mutate(request)
            if request.method == "POST" and request.path == "/v1/tenants":
                return self._register_tenant(request)
            if request.method == "DELETE" and request.path.startswith(
                "/v1/tenants/"
            ):
                return self._remove_tenant(request)
            return encode_response(
                404,
                {"error": f"no route for {request.method} {request.path}"},
                keep_alive=request.keep_alive,
            )
        except HttpError as error:
            return encode_response(
                error.status,
                {"error": error.message},
                keep_alive=request.keep_alive,
            )
        except ReproError as error:
            return encode_response(
                400, {"error": str(error)}, keep_alive=request.keep_alive
            )
        except Exception as error:  # noqa: BLE001 - a request never kills the server
            obs.count("serve.errors")
            obs.event("serve.internal_error", error=str(error))
            return encode_response(
                500,
                {"error": f"internal error: {error}"},
                keep_alive=request.keep_alive,
            )

    # ----------------------------------------------------------------- #
    # Routes                                                              #
    # ----------------------------------------------------------------- #

    def _healthz(self, request: Request) -> bytes:
        return encode_response(
            200,
            {"status": "ok", "tenants": list(self.registry.names())},
            keep_alive=request.keep_alive,
        )

    def _stats(self, request: Request) -> bytes:
        tenants: dict[str, Any] = {}
        for name in self.registry.names():
            session = self.registry.session(name)
            tenants[name] = {
                "ontology_digest": session.ontology_digest,
                "cache": session.cache_stats(),
            }
        return encode_response(
            200,
            {"admission": self.admission.stats(), "tenants": tenants},
            keep_alive=request.keep_alive,
        )

    def _register_tenant(self, request: Request) -> bytes:
        from repro.data.database import Database
        from repro.lang.parser import parse_database, parse_program
        from repro.obda.mappings import parse_mappings

        payload = request.json()
        if not isinstance(payload, dict) or "name" not in payload:
            raise HttpError(400, "expected {name, program, data?, mappings?}")
        if "program" not in payload:
            raise HttpError(400, "tenant registration requires a program")
        name = str(payload["name"])
        rules = parse_program(str(payload["program"]))
        data = None
        if payload.get("data"):
            data = Database(parse_database(str(payload["data"])))
        mappings = None
        if payload.get("mappings"):
            mappings = parse_mappings(str(payload["mappings"]))
        digest = self.registry.register(name, rules, data, mappings)
        warmed = 0
        if self.registry.cache_dir is not None:
            warmed = self.registry.session(name).warm_up()
        return encode_response(
            201,
            {"tenant": name, "ontology_digest": digest, "warmed": warmed},
            keep_alive=request.keep_alive,
        )

    def _remove_tenant(self, request: Request) -> bytes:
        name = request.path[len("/v1/tenants/"):]
        if not name:
            raise HttpError(404, "missing tenant name")
        evicted = self.registry.remove(name)
        return encode_response(
            200,
            {"tenant": name, "evicted_entries": evicted},
            keep_alive=request.keep_alive,
        )

    async def _query(self, request: Request) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict) or "query" not in payload:
            raise HttpError(400, "expected {tenant?, query, backend?, target?}")
        tenant = str(payload.get("tenant", "default"))
        query_text = str(payload["query"])
        backend = str(payload.get("backend", "memory"))
        if backend not in _QUERY_BACKENDS:
            raise HttpError(
                400,
                f"unknown backend {backend!r}; "
                f"expected one of {_QUERY_BACKENDS}",
            )
        target = payload.get("target")
        if target is not None:
            target = str(target)
        return await self._admit(
            request, self._execute_query, tenant, query_text, backend, target
        )

    async def _mutate(self, request: Request) -> bytes:
        payload = request.json()
        if not isinstance(payload, dict) or (
            "insert" not in payload and "delete" not in payload
        ):
            raise HttpError(400, "expected {tenant?, insert?, delete?}")
        tenant = str(payload.get("tenant", "default"))
        insert_text = str(payload["insert"]) if "insert" in payload else None
        delete_text = str(payload["delete"]) if "delete" in payload else None
        # Mutations go through the same admission gate as queries: a
        # re-chase fallback can be as expensive as any rewriting, and
        # sharing the gate keeps the capacity accounting truthful.
        return await self._admit(
            request, self._execute_mutate, tenant, insert_text, delete_text
        )

    async def _admit(
        self,
        request: Request,
        work: Callable[..., dict[str, Any]],
        *args: Any,
    ) -> bytes:
        """Run ``work(*args)`` on the executor under admission control.

        429 with ``Retry-After`` when every slot is held, 504 when the
        deadline passes first, 400 for a :class:`ReproError`, and
        otherwise 200 with *work*'s result.
        """
        ticket = self.admission.try_admit()
        if ticket is None:
            return encode_response(
                429,
                {
                    "error": "server at capacity; retry later",
                    "inflight": self.admission.capacity,
                },
                headers={
                    "Retry-After": str(self.admission.retry_after_seconds())
                },
                keep_alive=request.keep_alive,
            )

        def run() -> dict[str, Any]:
            if self._before_execute is not None:
                self._before_execute()
            return work(*args)

        loop = asyncio.get_running_loop()
        future = self._executor.submit(run)
        # The slot is freed when the *thread* finishes, never earlier:
        # a deadline-exceeded request still occupies its worker until
        # the rewriting/evaluation actually returns.  A request whose
        # deadline fires while it is still *queued* gets cancelled by
        # wait_for before it ever runs -- .exception() on a cancelled
        # future raises, so check .cancelled() first or the callback
        # dies and the slot leaks forever.
        future.add_done_callback(
            lambda f: ticket.release(
                error=f.cancelled() or f.exception() is not None
            )
        )
        try:
            result = await asyncio.wait_for(
                asyncio.wrap_future(future, loop=loop),
                timeout=self.config.deadline_seconds,
            )
        except asyncio.TimeoutError:
            self.admission.record_deadline_exceeded()
            return encode_response(
                504,
                {
                    "error": "deadline exceeded",
                    "deadline_seconds": self.config.deadline_seconds,
                },
                keep_alive=request.keep_alive,
            )
        except ReproError as error:
            return encode_response(
                400, {"error": str(error)}, keep_alive=request.keep_alive
            )
        return encode_response(200, result, keep_alive=request.keep_alive)

    # Runs on an executor thread.
    def _execute_mutate(
        self,
        tenant: str,
        insert_text: str | None,
        delete_text: str | None,
    ) -> dict[str, Any]:
        started = time.perf_counter()
        session: Session = self.registry.session(tenant)
        obs.count("serve.mutations")
        summary: dict[str, Any] = {"tenant": tenant}
        with obs.span("serve.mutate", tenant=tenant):
            if insert_text is not None:
                maintained = session.insert(insert_text)
                summary["insert"] = _maintenance_summary(maintained)
            if delete_text is not None:
                maintained = session.delete(delete_text)
                summary["delete"] = _maintenance_summary(maintained)
        summary["data_size"] = len(session.abox())
        summary["seconds"] = round(time.perf_counter() - started, 6)
        return summary

    # Runs on an executor thread.
    def _execute_query(
        self,
        tenant: str,
        query_text: str,
        backend: str,
        target: str | None,
    ) -> dict[str, Any]:
        started = time.perf_counter()
        session: Session = self.registry.session(tenant)
        with obs.span("serve.query", tenant=tenant, backend=backend) as span:
            prepared = session.prepare(query_text, target=target)
            answers = prepared.answer(backend=backend, require_complete=False)
            plan = prepared.plan(backend=backend)
            span.set(answers=len(answers), complete=plan.exact)
        return {
            "tenant": tenant,
            "query": query_text,
            "target": plan.target,
            "plan": plan.kind,
            "complete": plan.exact,
            "answers": sorted(
                [str(term) for term in row] for row in answers
            ),
            "seconds": round(time.perf_counter() - started, 6),
        }


class BackgroundServer:
    """Run a :class:`ReproServer` on a daemon thread (tests/benchmarks).

    ::

        server = ReproServer(registry, config)
        with BackgroundServer(server) as (host, port):
            ... drive HTTP traffic ...
    """

    def __init__(self, server: ReproServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._boot_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._boot_error is not None:
            # The loop thread already closed its loop and is exiting;
            # join it so no half-dead thread outlives the failed start.
            self._thread.join(timeout=30)
            raise RuntimeError(
                f"server failed to start: {self._boot_error}"
            ) from self._boot_error
        assert self.server.port is not None
        return self.server.config.host, self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            # start_server() already accepts connections once bound; the
            # loop just needs to keep running (no serve_forever task, so
            # shutdown cannot race the runner's own completion callback).
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as error:  # noqa: BLE001 - report to start()
                self._boot_error = error
                return
            finally:
                self._started.set()
            loop.run_forever()
        finally:
            loop.close()
            self._loop = None

    def stop(self) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        asyncio.run_coroutine_threadsafe(self.server.stop(), loop).result(
            timeout=30
        )
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
