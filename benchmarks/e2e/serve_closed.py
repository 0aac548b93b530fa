"""``serve_closed``: HTTP load against a real ``repro serve`` subprocess.

The server runs as a subprocess over ``university_data(200)`` with
``--workers 2 --queue-depth 32``.  Load comes from this process in a
closed loop: two sender threads, each holding one keep-alive
connection, take requests from one schedule in order and send each as
soon as their previous one is answered, so at most two requests are in
flight -- one per vCPU of the 2-vCPU host the benchmark was defined on.
The mix is zipf 1.1 over six analytic queries and 100 constant-bound
point queries (every distinct query is warmed in set-up), plus 10%
``/v1/mutate`` requests: each pair inserts facts on a fresh constant and
deletes them again once the insert has completed.  A response must
satisfy base ⊆ answers ⊆ base ∪ rows on fresh constants, and at the end
every query must return exactly its base answers.

A run boots ``BOOTS`` servers in turn, each serving bursts of
``BURST_REQUESTS`` for its share of the run.  Each burst gives a query
latency median and 90th percentile and a rate of completed requests,
scaled by the speed monitor's factor over that burst; the metrics are
the medians of these over all bursts, so a burst that a neighbouring
tenant slowed does not move them.  The load is not open-loop: on this
host, latency measured from each request's due time at a fixed rate
was dominated by the wake-up latency of idle vCPUs, and its quartile
spread over ten seeds was 0.2-0.5.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, NamedTuple

from repro.lang.terms import Constant
from repro.workloads.ontologies import university_data, university_ontology

import stats
from speed import SpeedMonitor
from trace import NullTracer, Tracer
from workloads import chase_answers, named_queries

SRC = Path(__file__).resolve().parents[2] / "src"

NAME = "serve_closed"
SIZE = 200
WORKERS = 2
QUEUE_DEPTH = 32
SENDERS = 2
BOOTS = 3
ZIPF = 1.1
BURST_REQUESTS = 800
#: Requests per block; each block holds one insert and one delete.
BLOCK = 20
FRESH = "fresh"
_ANNOUNCE = re.compile(r"listening on http://([^:]+):(\d+)")


class Request(NamedTuple):
    kind: str  # "query", "insert" or "delete"
    path: str
    body: bytes
    key: str  # the query text, or the mutation pair's fresh constant


class Outcome(NamedTuple):
    sent: float
    done: float
    status: int
    body: bytes


def ranked_queries() -> list[str]:
    """The distinct queries, most frequent first (a fixed ranking)."""
    ranked = []
    for i in range(25):
        ranked.append(f'q(C) :- teaches("person{4 * i}", C)')
        ranked.append(f'q(X) :- takes(X, "course{4 * i}")')
        ranked.append(f'q(Y) :- hasAdvisor("person{100 + 2 * i}", Y)')
        ranked.append(f'q(P) :- memberOf(P, "dept{i}")')
    # The analytic queries sit at fixed ranks and take about 37% of the
    # reads, so the median falls among point queries and p90 among
    # analytic ones, each away from the boundary between the two.
    for rank, text in zip((1, 3, 6, 12, 24, 48), named_queries().values()):
        ranked.insert(rank - 1, text)
    return ranked


def prepare(seed: int, workdir: Path) -> dict[str, Any]:
    """Write the server's input files and compute the base answers, in
    the server's rendering of terms."""
    rules = university_ontology()
    data = university_data(SIZE, seed)
    program = workdir / "serve-program.dlp"
    facts = workdir / "serve-data.dlp"
    program.write_text("\n".join(f"{rule}." for rule in rules) + "\n")
    facts.write_text("\n".join(f"{fact}." for fact in data.facts()) + "\n")
    answers = chase_answers(rules, data, {text: text for text in ranked_queries()})
    base = {
        text: [[str(Constant(value)) for value in row] for row in rows]
        for text, rows in answers.items()
    }
    return {"program": str(program), "data": str(facts), "base": base}


# --------------------------------------------------------------------- #
# The server process                                                    #
# --------------------------------------------------------------------- #


class Server:
    """One ``repro serve`` subprocess; stop it with :meth:`stop`."""

    def __init__(self, context: dict[str, Any], log: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        command = [
            sys.executable, "-m", "repro", "serve",
            context["program"], context["data"],
            "--port", "0",
            "--workers", str(WORKERS),
            "--queue-depth", str(QUEUE_DEPTH),
        ]
        self._log = log.open("ab")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=SRC.parent,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 120)
            line = self.process.stdout.readline().decode() if ready else ""
            match = _ANNOUNCE.search(line)
            if match is None:
                raise RuntimeError(f"server did not announce itself: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        self.process.stdout.close()
        self._log.close()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=30)

    def stats(self) -> dict[str, int]:
        conn = self.connect()
        try:
            conn.request("GET", "/v1/stats")
            return json.loads(conn.getresponse().read())["admission"]
        finally:
            conn.close()


def _post(conn: http.client.HTTPConnection, request: Request) -> tuple[int, bytes]:
    conn.request(
        "POST", request.path, body=request.body,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, response.read()


def query_request(text: str) -> Request:
    return Request("query", "/v1/query", json.dumps({"query": text}).encode(), text)


def mutation_pair(constant: str, course: int) -> tuple[Request, Request]:
    facts = f'gradStudent("{constant}"). takes("{constant}", "course{course}").'
    return tuple(
        Request(kind, "/v1/mutate", json.dumps({kind: facts}).encode(), constant)
        for kind in ("insert", "delete")
    )


# --------------------------------------------------------------------- #
# Load generation                                                       #
# --------------------------------------------------------------------- #


class Schedule:
    """Seeded request plans; mutation constants stay fresh for the
    lifetime of one server."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{NAME}/{seed}")
        self.queries = ranked_queries()
        self.weights = list(
            itertools.accumulate(1.0 / rank**ZIPF for rank in range(1, len(self.queries) + 1))
        )
        self.pairs = 0

    def plan(self, count: int) -> list[Request]:
        """*count* requests, rounded up to whole blocks of ``BLOCK``:
        one insert in the first half of each block, its delete in the
        second half, queries elsewhere."""
        plan: list[Request] = []
        for _ in range(max(1, -(-count // BLOCK))):
            self.pairs += 1
            insert, delete = mutation_pair(
                f"{FRESH}{self.pairs}", 4 * self.rng.randrange(25)
            )
            half = BLOCK // 2
            slots = {self.rng.randrange(half): insert, half + self.rng.randrange(half): delete}
            texts = self.rng.choices(self.queries, cum_weights=self.weights, k=BLOCK)
            plan.extend(slots.get(i) or query_request(texts[i]) for i in range(BLOCK))
        return plan


def drive(server: Server, plan: list[Request]) -> list[Outcome]:
    """Send *plan* from ``SENDERS`` threads, each sending its next
    request as soon as its previous one is answered.

    A delete waits until its insert has completed, so each pair is
    applied in order whichever sender takes it.
    """
    outcomes: list[Outcome | None] = [None] * len(plan)
    inserted = {r.key: threading.Event() for r in plan if r.kind == "insert"}
    lock = threading.Lock()
    cursor = iter(range(len(plan)))

    def sender() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                request = plan[index]
                if request.kind == "delete":
                    inserted[request.key].wait(timeout=30)
                sent = time.perf_counter()
                try:
                    status, body = _post(conn, request)
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = server.connect()
                    status, body = 599, b""
                outcomes[index] = Outcome(sent, time.perf_counter(), status, body)
                if request.kind == "insert":
                    inserted[request.key].set()
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise RuntimeError("a sender thread did not finish")
    return outcomes  # type: ignore[return-value]


# --------------------------------------------------------------------- #
# Checks                                                                #
# --------------------------------------------------------------------- #


class Checker:
    """Counts attempted and failed requests and checks their answers."""

    def __init__(self, base: dict[str, list[list[str]]]) -> None:
        self.base = {text: {tuple(row) for row in rows} for text, rows in base.items()}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def response(self, request: Request, status: int, body: bytes,
                 exact: bool = False) -> float:
        """Check one response; return the server's own ``seconds``."""
        self.attempted += 1
        if status != 200:
            self.fail(f"{request.kind} {request.key}: HTTP {status}")
            return 0.0
        payload = json.loads(body)
        if request.kind == "query":
            got = {tuple(row) for row in payload["answers"]}
            base = self.base[request.key]
            extra = got - base
            fresh_only = all(any(FRESH in term for term in row) for row in extra)
            if not base <= got or (extra and (exact or not fresh_only)):
                self.fail(
                    f"{request.key}: {len(got)} answers against {len(base)} "
                    f"base ({len(base - got)} missing, {len(extra)} extra)"
                )
        return float(payload["seconds"])


# --------------------------------------------------------------------- #
# The run                                                               #
# --------------------------------------------------------------------- #


def boot(context: dict[str, Any], schedule: Schedule, checker: Checker,
         workdir: Path, tracer) -> Server:
    """Start a server and warm it: every distinct query, one mutation
    pair, then every query again (the first mutation forks the ABox,
    whose lazy indexes the second pass rebuilds)."""
    started = time.perf_counter()
    server = Server(context, workdir / "serve.log")
    booted = time.perf_counter()
    try:
        conn = server.connect()
        try:
            schedule.pairs += 1
            pair = mutation_pair(f"{FRESH}{schedule.pairs}", 0)
            warm = [query_request(text) for text in schedule.queries]
            for request in [*warm, *pair, *warm]:
                status, body = _post(conn, request)
                checker.response(request, status, body, exact=True)
        finally:
            conn.close()
    except BaseException:
        server.stop()
        raise
    warmed = time.perf_counter()
    if tracer.enabled:
        root = tracer.record("setup", started, warmed)
        tracer.record("serve.boot", started, booted, parent=root)
        tracer.record("serve.warm", booted, warmed, parent=root)
    return server


def run_plan(server: Server, plan: list[Request], checker: Checker,
             tracer) -> list[tuple[Request, Outcome, float]]:
    """Drive *plan*, check every response and trace it; returns
    (request, outcome, server seconds)."""
    outcomes = drive(server, plan)
    rows = []
    for index, (request, outcome) in enumerate(zip(plan, outcomes)):
        exec_s = checker.response(request, outcome.status, outcome.body)
        rows.append((request, outcome, exec_s))
        if tracer.enabled:
            # The server times its own execution; the rest of the
            # round trip is HTTP codec, admission, executor hop and
            # loopback ("wire").
            op = tracer.record("op", outcome.sent, outcome.done, op=index)
            call = tracer.record(
                "serve.request", outcome.sent, outcome.done, parent=op, op=index
            )
            split = max(outcome.sent, outcome.done - exec_s)
            tracer.record("serve.wire", outcome.sent, split, parent=call, op=index)
            tracer.record("serve.exec", split, outcome.done, parent=call, op=index)
    return rows


class Window(NamedTuple):
    """A timed stretch of a run, scaled once the speed monitor stopped."""

    start: float
    end: float
    rows: list


def _timed(action, *args) -> Window:
    started = time.perf_counter()
    rows = action(*args)
    return Window(started, time.perf_counter(), rows)


def _final_check(server: Server, schedule: Schedule, checker: Checker) -> None:
    """Every query must return exactly its base answers again."""
    conn = server.connect()
    try:
        for text in schedule.queries:
            request = query_request(text)
            status, body = _post(conn, request)
            checker.response(request, status, body, exact=True)
    finally:
        conn.close()


def _peak_rss_mb(server: Server) -> float:
    status = Path(f"/proc/{server.process.pid}/status").read_text()
    kib = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
    return kib / 1024


def _stat_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {
        f"serve.{key}": after[key] - before[key]
        for key in ("shed", "errors", "deadline_exceeded")
    }


def _serve(context, schedule, checker, workdir, seconds, tracer, servers,
           bursts: int | None = None) -> dict[str, Any]:
    """One server's share of a run: boot and warm, bursts for *seconds*
    (or exactly *bursts*), the final check.  Returns its raw windows and
    readings."""
    started = time.perf_counter()
    server = boot(context, schedule, checker, workdir, tracer)
    servers.append(server)
    setup = Window(started, time.perf_counter(), [])
    before = server.stats()
    deadline = time.perf_counter() + seconds
    windows = []
    while (len(windows) < bursts if bursts is not None
           else not windows or time.perf_counter() < deadline):
        windows.append(_timed(
            run_plan, server, schedule.plan(BURST_REQUESTS), checker, tracer
        ))
    _final_check(server, schedule, checker)
    counters = _stat_delta(before, server.stats())
    rss = _peak_rss_mb(server)
    server.stop()
    return {"setup": setup, "bursts": windows, "counters": counters, "rss": rss}


def run(context: dict[str, Any], seed: int, seconds: float, trace: bool,
        workdir: Path, boots: int = BOOTS) -> dict[str, Any]:
    """One ``serve_closed`` run in this process.  The result has the keys
    of an in-process child's (see ``run.py``); times are divided and
    rates multiplied by the speed factor of their window.

    Untraced: ``boots`` servers, each with its share of *seconds*.
    Traced: one server untraced, then one with client spans replaying
    the same schedule for the same number of bursts.
    """
    checker = Checker(context["base"])
    servers: list[Server] = []
    with SpeedMonitor() as monitor:
        try:
            if trace:
                tracer = Tracer()
                untraced = _serve(context, Schedule(seed), checker, workdir,
                                  seconds, NullTracer(), servers)
                traced = _serve(context, Schedule(seed), checker, workdir,
                                seconds, tracer, servers, len(untraced["bursts"]))
                shares = [untraced, traced]
            else:
                schedule = Schedule(seed)
                shares = [
                    _serve(context, schedule, checker, workdir, seconds / boots,
                           NullTracer(), servers)
                    for _ in range(boots)
                ]
        finally:
            for server in servers:
                server.stop()
    factor = monitor.factor

    def scaled(window: Window) -> float:
        return factor(window.start, window.end)

    def latencies(window: Window, kinds) -> list[float]:
        return [(o.done - o.sent) * 1000 / scaled(window)
                for r, o, _ in window.rows if r.kind in kinds]

    def burst_metrics(window: Window) -> dict[str, float | None]:
        queries = latencies(window, {"query"})
        return {
            "query_p50_ms": stats.percentile(queries, 0.5),
            "query_p90_ms": (stats.percentile(queries, 0.9)
                             if stats.supported(len(queries), 0.9) else None),
            "ops_per_s": len(window.rows) * scaled(window) / (window.end - window.start),
        }

    def op_wall(share) -> float:
        return sum(sum(o.done - o.sent for _, o, _ in w.rows) / scaled(w)
                   for w in share["bursts"])

    result: dict[str, Any] = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "counters": shares[-1]["counters"],
    }
    if trace:
        return dict(
            result,
            untraced_op_wall_s=op_wall(shares[0]),
            op_wall_s=op_wall(shares[1]),
            spans=tracer.spans,
        )
    bursts = [w for share in shares for w in share["bursts"]]
    per_burst = [burst_metrics(w) for w in bursts]
    samples = {
        key: [v for w in bursts for v in latencies(w, kinds)]
        for key, kinds in (("query_ms", {"query"}), ("mutate_ms", {"insert", "delete"}))
    }
    ops = sum(len(w.rows) for w in bursts)
    counts = {"query_p50_ms": len(samples["query_ms"]),
              "query_p90_ms": len(samples["query_ms"]), "ops_per_s": ops}
    return dict(
        result,
        setup_s=[(s["setup"].end - s["setup"].start) / scaled(s["setup"]) for s in shares],
        samples=samples,
        ops=ops,
        op_wall_s=sum(op_wall(share) for share in shares),
        burst_medians={
            key: (None if any(m[key] is None for m in per_burst)
                  else statistics.median(m[key] for m in per_burst), count)
            for key, count in counts.items()
        },
        speed=[{"setup": scaled(s["setup"]), "ops": scaled(s["bursts"][0])}
               for s in shares],
        peak_rss_mb=[s["rss"] for s in shares],
        counters={k: sum(s["counters"][k] for s in shares) for k in result["counters"]},
    )
