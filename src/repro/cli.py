"""Command-line interface: ``python -m repro <command> ...``.

Commands mirroring the library's workflow:

* ``classify``  -- read a TGD program, print the class-membership table
  and the SWR/WR explanations;
* ``rewrite``   -- read a program and a query, print the UCQ rewriting
  (or, with ``--sql``, the compiled SQL);
* ``answer``    -- read a program, a query and a fact file, print the
  certain answers (``--backend sql`` runs the compiled SQL on SQLite;
  ``--via-chase`` uses the chase oracle);
* ``batch``     -- read a program and a file of queries (one per
  line), compile and answer them all on a worker pool, streaming
  per-query results as they complete;
* ``graph``     -- emit the position graph or P-node graph of a program
  as a text summary or Graphviz DOT;
* ``lint``      -- run the static analyzer, emitting span-annotated
  diagnostics as text, JSON or SARIF (``--strict`` gates warnings for
  CI);
* ``check``     -- whole-project static analysis over a
  ``project.json`` manifest (ontology + queries + mappings + data):
  dead rules, mapping coverage and rewriting-size bounds, with the
  same formats and exit-code contract as ``lint``;
* ``audit``     -- concurrency/async static analysis of Python source
  trees (RL3xx): lock-order cycles, unguarded shared-state writes,
  blocking calls in ``async def``, executor and event-loop hygiene;
  same formats and exit-code contract as ``lint``;
* ``trace``     -- run the rewriting (and optionally answering)
  pipeline under the observability layer and print the span tree with
  per-stage timings and counters;
* ``serve``     -- HTTP/JSON query-answering server over the session
  layer: bounded-queue admission (429 + ``Retry-After`` when full),
  per-request deadlines, per-tenant ontology isolation and a warm
  single-flight rewriting cache (see ``docs/serving.md``).

Two global flags (before the subcommand) compose with every
subcommand: ``--metrics PATH`` streams every instrumentation record of
the run as JSON lines to *PATH*, and ``--cache-dir DIR`` persists
compiled rewritings to ``DIR/rewritings.sqlite`` so later invocations
(of ``rewrite``, ``answer``, ``batch`` or ``trace``, over the same
ontology and budget) skip the rewriting step entirely.

``answer``, ``trace`` and ``batch`` share one *engine options* group
(``--max-depth``, ``--max-cqs``, ``--max-seconds``; plus
``--backend`` where evaluation happens, and ``--hybrid`` where an
answer plan runs, which ``serve`` also takes) instead of per-command
flag spellings.

Programs, queries and facts use the textual syntax of
:mod:`repro.lang.parser`; every input is a file path or ``-`` for
stdin.

Exit codes: 0 success; 1 findings (lint/check/audit) / failed batch
queries;
2 input error (unreadable file, parse error, ill-formed program);
3 incomplete rewriting from ``rewrite`` or ``batch``, and from
``trace`` only when the answer plan it ran is an approximation (a
hybrid regime's chase plan is exact however the full rewriting ended).
``answer`` warns about an inexact plan on stderr and exits 0: its
answers are a sound under-approximation.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro import obs
from repro.api.options import EngineOptions
from repro.chase.certain import certain_answers, certain_answers_via_chase
from repro.core.classify import classify
from repro.data.database import Database
from repro.graphs.dot import pnode_graph_to_dot, position_graph_to_dot
from repro.graphs.pnode_graph import build_pnode_graph
from repro.graphs.position_graph import build_position_graph
from repro.lang.errors import ReproError
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.lang.printer import format_answers, format_ucq
from repro.lint.diagnostics import LintReport, Pipeline
from repro.lint.engine import LINT, LintConfig, lint_source, preflight
from repro.lint.formats import render, render_text


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as error:
        reason = error.strerror or error.__class__.__name__
        raise ReproError(f"cannot read {path}: {reason}") from error


class _Rejected(Exception):
    """The input failed the preflight; its findings are on stderr."""


def _load_program(args: argparse.Namespace, query_text: str | None = None):
    """Parse ``args.program`` (and *query_text*), then run the preflight.

    Every subcommand that reads a program starts here, except ``lint``,
    which reports the same findings itself.  RL001 findings go to
    stderr and end the command with exit code 2.
    """
    rules = parse_program(_read(args.program))
    query = parse_query(query_text) if query_text is not None else None
    findings = preflight(rules, query)
    if findings:
        report = LintReport.of(findings, path=args.program, pipeline=LINT)
        print(render_text(report), file=sys.stderr)
        raise _Rejected
    return rules, query


def _add_engine_options(
    parser: argparse.ArgumentParser,
    backend: bool = False,
    target: bool = False,
    hybrid: bool = False,
) -> None:
    """The budget/backend option group shared by answer/trace/batch.

    (``rewrite``, ``lint`` and ``check`` reuse the budget subset;
    ``--hybrid`` goes only to the commands that run an answer plan.)
    Keeping one definition guarantees the subcommands never drift
    apart in flag names, defaults or help text.
    """
    group = parser.add_argument_group(
        "engine options",
        "rewriting budget and evaluation backend (shared across "
        "subcommands; the persistent cache is the global --cache-dir)",
    )
    group.add_argument(
        "--max-depth",
        type=int,
        default=50,
        help="max breadth-first rewriting rounds (default: 50)",
    )
    group.add_argument(
        "--max-cqs",
        type=int,
        default=100_000,
        help="max CQs generated per rewriting (default: 100000)",
    )
    group.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-clock ceiling per rewriting (default: unlimited)",
    )
    if hybrid:
        group.add_argument(
            "--hybrid",
            choices=("off", "auto", "rewrite", "split", "materialize"),
            default="off",
            help="hybrid answering regime: cost-model choice between "
            "pure rewriting, separability-driven partial "
            "materialization (split) and full materialization with "
            "incremental maintenance (default: off)",
        )
    if target:
        group.add_argument(
            "--target",
            choices=("ucq", "datalog", "auto"),
            default="ucq",
            help="rewriting target: exploded UCQ, nonrecursive-Datalog "
            "program (compiled to SQL WITH CTEs), or estimator-driven "
            "per-query choice (default: ucq)",
        )
    if backend:
        group.add_argument(
            "--backend",
            choices=("memory", "sql"),
            default="memory",
            help="evaluate rewritings in-process or as SQL on SQLite "
            "(default: memory)",
        )


def cmd_classify(args: argparse.Namespace) -> int:
    rules, _ = _load_program(args)
    report = classify(rules)
    print(report.table())
    if args.explain:
        print()
        print(report.swr.explain())
        if report.wr is not None:
            print(report.wr.explain())
        for check in report.baselines.values():
            if not check.member:
                print(check.explain())
        print()
        print(_termination_summary(rules))
        print()
        print(_hybrid_summary(rules))
    return 0


def _hybrid_summary(rules) -> str:
    """Render the hybrid cost model's verdict for --explain.

    Classification sees no data, so the estimates are the data-free
    ones (size 1); the live decision a :class:`~repro.api.Session`
    makes additionally weighs the actual relation cardinalities.
    """
    from repro.analysis.separability import separate
    from repro.hybrid.cost import decide

    partition = separate(rules)
    decision = decide(partition=partition)
    lines = [f"hybrid regime: {decision.choice.value}"]
    lines.append(f"  reason: {decision.reason}")
    lines.append(f"  feasible: {', '.join(decision.feasible)}")
    for name, cost in sorted(decision.estimates.items()):
        lines.append(f"  estimate[{name}]: {cost:.0f}")
    if partition.proper:
        lines.append(
            f"  partition: {len(partition.core)}-rule core / "
            f"{len(partition.residual)}-rule residual"
        )
    return "\n".join(lines)


def _termination_summary(rules) -> str:
    """Render the chase-termination lattice verdict for --explain."""
    from repro.analysis import termination_certificate

    certificate = termination_certificate(rules)
    if certificate.terminating:
        level = certificate.level
        assert level is not None
        lines = [f"chase termination: certified by {level.value}"]
    else:
        lines = ["chase termination: not certified at any lattice level"]
        lines.extend(f"  witness: {line}" for line in certificate.witness)
    for verdict in certificate.verdicts:
        status = "holds" if verdict.holds else "fails"
        if verdict.implied_by is not None:
            status += f" (implied by {verdict.implied_by.value})"
        lines.append(f"  {verdict.criterion.value}: {status}")
    return "\n".join(lines)


def _warn_incomplete(rewriting) -> None:
    """The one warning for a rewriting the budget cut short."""
    print(
        f"warning: rewriting incomplete within budget "
        f"(depth={rewriting.depth_reached}, cqs={rewriting.generated}); "
        "output is a sound under-approximation",
        file=sys.stderr,
    )


def cmd_rewrite(args: argparse.Namespace) -> int:
    import json as _json

    from repro.api import Session

    rules, query = _load_program(args, args.query)
    # UCQ --explain prints each disjunct's derivation; lineage exists
    # only on a fresh compile, so that session opens without the cache.
    lineage = args.explain and args.target == "ucq"
    with Session(
        rules,
        cache_dir=None if lineage else args.cache_dir,
        options=EngineOptions.from_args(args),
    ) as session:
        prepared = session.prepare(query)
        plan = prepared.plan()
        if not plan.exact:
            _warn_incomplete(plan.rewriting)
        if args.explain and not lineage:
            print(_json.dumps(prepared.explain(), indent=2, sort_keys=True))
        elif args.sql:
            print(prepared.sql)
        elif lineage:
            result = prepared.result
            for cq in result.ucq:
                steps = result.derivation_of(cq)
                provenance = " <= " + ", ".join(steps) if steps else ""
                print(f"{cq}.{provenance}")
        elif plan.target == "datalog":
            print(str(prepared.datalog))
        else:
            print(format_ucq(prepared.ucq))
    return 0 if plan.exact else 3


def cmd_answer(args: argparse.Namespace) -> int:
    from repro.api import Session

    rules, query = _load_program(args, args.query)
    database = Database(parse_database(_read(args.data)))
    if args.via_chase:
        answers = certain_answers(query, rules, database)
    else:
        with Session(
            rules,
            database,
            cache_dir=args.cache_dir,
            options=EngineOptions.from_args(args),
        ) as session:
            prepared = session.prepare(query)
            plan = prepared.plan(backend=args.backend)
            answers = prepared.execute(plan, require_complete=False)
            if not plan.exact:
                _warn_incomplete(plan.rewriting)
    if query.is_boolean():
        print("true" if answers else "false")
    else:
        print(format_answers(answers))
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from repro.api import Session, resolve_workers

    rules, _ = _load_program(args)
    lines = [
        line.strip()
        for line in _read(args.queries).splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ReproError(f"no queries found in {args.queries}")
    # Query text is parsed inside the pool tasks, so one malformed
    # line is a per-item failure (exit 1), not a dead batch.
    queries = lines
    database = (
        Database(parse_database(_read(args.data))) if args.data else None
    )
    workers = resolve_workers(args.workers, len(queries))
    failed = incomplete = 0
    started = _time.perf_counter()
    with Session(
        rules,
        database,
        cache_dir=args.cache_dir,
        options=EngineOptions.from_args(args),
    ) as session:
        stream = session.answer_many(
            queries,
            max_workers=workers,
            mode=args.mode,
            backend=args.backend,
            require_complete=False,
            ordered=args.ordered,
        )
        for item in stream:
            failed += 0 if item.ok else 1
            incomplete += 0 if item.complete else 1
            if args.json:
                payload = {
                    "index": item.index,
                    "query": item.query,
                    "complete": item.complete,
                    "disjuncts": item.disjuncts,
                    "seconds": round(item.seconds, 6),
                    "error": item.error,
                    "answers": None
                    if item.answers is None
                    else sorted(
                        [str(term) for term in row] for row in item.answers
                    ),
                }
                print(_json.dumps(payload, sort_keys=True), flush=True)
            else:
                if item.error is not None:
                    status = f"error: {item.error}"
                elif item.answers is None:
                    status = f"compiled disjuncts={item.disjuncts}"
                else:
                    status = (
                        f"answers={len(item.answers)} "
                        f"disjuncts={item.disjuncts}"
                    )
                flag = "" if item.complete else " [incomplete]"
                print(
                    f"[{item.index + 1}/{len(queries)}] {item.query}  "
                    f"{status}{flag} ({item.seconds * 1000:.1f}ms)",
                    flush=True,
                )
        stats = session.cache_stats()
    elapsed = _time.perf_counter() - started
    memory = stats["memory"]
    summary = (
        f"batch: {len(queries)} queries in {elapsed:.2f}s "
        f"({workers} {args.mode} worker(s)); "
        f"{failed} failed, {incomplete} incomplete; "
        f"memory cache {memory['hits']}h/{memory['misses']}m"
    )
    persistent = stats["persistent"]
    if persistent is not None:
        summary += (
            f", persistent cache {persistent['hits']}h/"
            f"{persistent['misses']}m ({persistent['entries']} entries)"
        )
    print(summary, file=sys.stderr)
    if failed:
        return 1
    if incomplete:
        return 3
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    rules, _ = _load_program(args)
    if args.kind == "position":
        graph = build_position_graph(rules)
        rendered = (
            position_graph_to_dot(graph) if args.dot else graph.summary()
        )
    else:
        graph = build_pnode_graph(rules)
        rendered = pnode_graph_to_dot(graph) if args.dot else graph.summary()
    print(rendered)
    if args.stats:
        from repro.graphs.analysis import census

        print()
        print(census(graph.graph).format())
    return 0


def _default_query(rules):
    """An atomic query over the first rule's head relation.

    ``repro trace program.dlp`` without an explicit query traces the
    rewriting of ``q(X1, ..., Xk) :- rel(X1, ..., Xk)`` for the first
    derived relation -- the canonical "what does this ontology say
    about rel?" probe.
    """
    from repro.lang.atoms import Atom
    from repro.lang.queries import ConjunctiveQuery
    from repro.lang.terms import Variable

    head = rules[0].head[0]
    variables = [Variable(f"X{i + 1}") for i in range(head.arity)]
    return ConjunctiveQuery(variables, [Atom(head.relation, variables)])


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.data.sql import ucq_to_sql
    from repro.obs import TreeSink
    from repro.rewriting.datalog_target import DatalogRewriting

    tree = TreeSink()
    summary: list[str] = []
    with obs.use(tree):
        with obs.span("trace", program=args.program) as trace_span:
            with obs.span("parse.program"):
                rules, _ = _load_program(args)
            with obs.span("parse.query"):
                query = (
                    parse_query(args.query)
                    if args.query
                    else _default_query(rules)
                )
            if args.data:
                with obs.span("parse.data"):
                    database = Database(parse_database(_read(args.data)))
            else:
                database = None
            with Session(
                rules,
                database,
                cache_dir=args.cache_dir,
                options=EngineOptions.from_args(args),
            ) as session:
                prepared = session.prepare(query)
                # Everything below describes the plan's own artifact: a
                # chase plan compiles no rewriting at all.
                plan = prepared.plan()
                rewriting = plan.rewriting
                trace_span.set(
                    query=str(query), complete=plan.exact, target=plan.target
                )
                summary.append(f"query:     {query}")
                summary.append(
                    f"target:    {plan.target}"
                    + (
                        " (auto)"
                        if prepared.target == "auto"
                        else ""
                    )
                )
                if rewriting is None:
                    summary.append(
                        "rewriting: none (the query runs over the "
                        "materialized chase)"
                    )
                else:
                    shape = f"{rewriting.size} disjunct(s)"
                    if isinstance(rewriting, DatalogRewriting):
                        shape = (
                            f"{rewriting.size} rule(s) "
                            f"({len(rewriting.predicates)} aux predicate(s), "
                            f"{rewriting.fallback_disjuncts} fallback "
                            "disjunct(s))"
                        )
                    summary.append(
                        f"rewriting: {shape}, depth {rewriting.depth_reached}, "
                        f"complete={rewriting.complete}"
                    )
                summary.append(f"plan:      {plan.kind}")
                sql = prepared.sql if plan.ucq is None else ucq_to_sql(plan.ucq)
                summary.append(f"sql:       {len(sql)} chars")
                if database is not None:
                    answers = prepared.execute(plan, require_complete=False)
                    sql_answers = prepared.answer(
                        backend="sql", require_complete=False
                    )
                    chase = certain_answers_via_chase(
                        query, rules, database, strict=False
                    )
                    agree = answers == sql_answers
                    if plan.exact and chase.complete:
                        agree = agree and answers == chase.answers
                    obs.event(
                        "trace.differential",
                        memory=len(answers),
                        sql=len(sql_answers),
                        chase=len(chase.answers),
                        agree=agree,
                    )
                    summary.append(
                        f"answers:   memory={len(answers)} "
                        f"sql={len(sql_answers)} chase={len(chase.answers)} "
                        f"agree={agree}"
                    )
    print(tree.render())
    print()
    print("\n".join(summary))
    if not plan.exact:
        _warn_incomplete(plan.rewriting)
        return 3
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ReproServer, ServeConfig, TenantRegistry

    rules, _ = _load_program(args)
    database = (
        Database(parse_database(_read(args.data))) if args.data else None
    )
    mappings = None
    if args.mappings:
        from repro.obda.mappings import parse_mappings

        mappings = parse_mappings(_read(args.mappings))
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        deadline_seconds=args.deadline,
        max_tenants=args.max_tenants,
        options=EngineOptions.from_args(args),
    )
    registry = TenantRegistry(
        cache_dir=args.cache_dir,
        options=config.effective_options(),
        max_live=config.max_tenants,
    )
    registry.register(args.tenant, rules, database, mappings)
    warmed = registry.warm_all()
    server = ReproServer(registry, config)

    async def main() -> None:
        await server.start()
        # The announce line prints the *actual* port (--port 0 binds an
        # ephemeral one); harnesses parse it to find the server.
        print(
            f"repro serve listening on http://{config.host}:{server.port} "
            f"(tenant {args.tenant!r}, {warmed} rewriting(s) warmed)",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _add_report_options(parser: argparse.ArgumentParser, example: str) -> None:
    """--format/--strict/--disable, shared by lint, check and audit."""
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too (CI gating)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        metavar="CODE",
        help=f"suppress a diagnostic code (repeatable), e.g. {example}",
    )


def _disabled(args: argparse.Namespace, pipeline: Pipeline) -> frozenset[str]:
    """The --disable codes, checked by *pipeline*; a bad one exits 2."""
    try:
        return pipeline.check_disabled(args.disable or ())
    except ValueError as error:
        raise ReproError(str(error)) from None


def _emit(report: LintReport, args: argparse.Namespace) -> int:
    """Print *report* in --format; the exit code follows --strict."""
    print(render(report, args.format))
    return report.exit_code(strict=args.strict)


def cmd_lint(args: argparse.Namespace) -> int:
    path = "<stdin>" if args.program == "-" else args.program
    config = LintConfig(
        budget=EngineOptions.from_args(args).budget,
        branching_threshold=args.branching_threshold,
        disabled=_disabled(args, LINT),
        stages=(
            ("wellformed",)
            if args.no_recursion
            else ("wellformed", "recursion", "risk")
        ),
    )
    report = lint_source(
        _read(args.program),
        query_text=args.query,
        config=config,
        path=path,
    )
    return _emit(report, args)


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import AUDIT, audit_paths

    disabled = _disabled(args, AUDIT)
    try:
        report = audit_paths(args.paths, disabled=disabled)
    except FileNotFoundError as error:
        raise ReproError(str(error)) from error
    except OSError as error:
        raise ReproError(f"cannot read audit input: {error}") from error
    return _emit(report, args)


def cmd_check(args: argparse.Namespace) -> int:
    from repro.checkers import CHECK, CheckConfig, check_project, load_project

    config = CheckConfig(
        budget=EngineOptions.from_args(args).budget,
        default_depth=args.assumed_depth,
        disabled=_disabled(args, CHECK),
    )
    return _emit(check_project(load_project(args.project), config), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Weakly Recursive TGDs: classification, FO rewriting "
        "and certain-answer query answering",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="stream instrumentation records (spans, counters, events) "
        "of this run as JSON lines to PATH; works with every subcommand",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist compiled rewritings to DIR/rewritings.sqlite; "
        "later runs over the same ontology+budget reuse them "
        "(works with rewrite, answer, batch and trace)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="class-membership table for a TGD program"
    )
    p_classify.add_argument("program", help="TGD file ('-' for stdin)")
    p_classify.add_argument(
        "--explain", action="store_true", help="print per-class reasons"
    )
    p_classify.set_defaults(func=cmd_classify)

    p_rewrite = sub.add_parser("rewrite", help="UCQ rewriting of a query")
    p_rewrite.add_argument("program")
    p_rewrite.add_argument("query", help='e.g. "q(X) :- faculty(X)"')
    p_rewrite.add_argument(
        "--sql", action="store_true", help="emit SQL instead of Datalog"
    )
    p_rewrite.add_argument(
        "--explain",
        action="store_true",
        help="annotate each disjunct with its rule derivation",
    )
    _add_engine_options(p_rewrite, target=True)
    p_rewrite.set_defaults(func=cmd_rewrite)

    p_answer = sub.add_parser("answer", help="certain answers over facts")
    p_answer.add_argument("program")
    p_answer.add_argument("query")
    p_answer.add_argument("data", help="fact file ('-' for stdin)")
    p_answer.add_argument(
        "--via-chase",
        action="store_true",
        help="use the chase oracle instead of rewriting",
    )
    _add_engine_options(p_answer, backend=True, target=True, hybrid=True)
    p_answer.set_defaults(func=cmd_answer)

    p_batch = sub.add_parser(
        "batch",
        help="compile and answer a file of queries on a worker pool, "
        "streaming per-query results",
    )
    p_batch.add_argument("program", help="TGD file ('-' for stdin)")
    p_batch.add_argument(
        "queries",
        help="query file: one CQ per line, '#' comments and blank "
        "lines ignored",
    )
    p_batch.add_argument(
        "data",
        nargs="?",
        help="fact file; omit to compile (and cache) without answering",
    )
    p_batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count (default: min(cpu count, batch size))",
    )
    p_batch.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help="thread pool sharing one engine/cache (default) or a "
        "process pool for multi-core cold compilation",
    )
    p_batch.add_argument(
        "--ordered",
        action="store_true",
        help="stream results in input order instead of completion order",
    )
    p_batch.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object per query instead of text lines",
    )
    _add_engine_options(p_batch, backend=True, target=True, hybrid=True)
    p_batch.set_defaults(func=cmd_batch)

    p_graph = sub.add_parser(
        "graph", help="position graph / P-node graph of a program"
    )
    p_graph.add_argument("program")
    p_graph.add_argument(
        "kind", choices=("position", "pnode"), help="which graph to build"
    )
    p_graph.add_argument(
        "--dot", action="store_true", help="emit Graphviz DOT"
    )
    p_graph.add_argument(
        "--stats", action="store_true", help="append a structural census"
    )
    p_graph.set_defaults(func=cmd_graph)

    p_trace = sub.add_parser(
        "trace",
        help="run the rewriting pipeline and print a span tree with "
        "per-stage timings",
    )
    p_trace.add_argument("program", help="TGD file ('-' for stdin)")
    p_trace.add_argument(
        "query",
        nargs="?",
        help="query to trace (default: atomic query over the first "
        "rule's head relation)",
    )
    p_trace.add_argument(
        "--data",
        help="fact file: also trace in-memory, SQL and chase answering "
        "plus their differential comparison",
    )
    _add_engine_options(p_trace, target=True, hybrid=True)
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve",
        help="HTTP/JSON query-answering server with admission control "
        "and a warm single-flight rewriting cache",
    )
    p_serve.add_argument("program", help="TGD file ('-' for stdin)")
    p_serve.add_argument(
        "data",
        nargs="?",
        help="fact file for the initial tenant (omit for compile/SQL "
        "serving without evaluation data)",
    )
    p_serve.add_argument(
        "--mappings", help="GAV mapping file for the initial tenant"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 picks an ephemeral one, printed on the "
        "announce line (default: 8080)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="query executor threads (default: 4)",
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="requests allowed to wait beyond the workers; anything "
        "past workers+queue-depth is shed with 429 (default: 16)",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; also tightens the rewriting "
        "budget's wall-clock ceiling (default: none)",
    )
    p_serve.add_argument(
        "--max-tenants",
        type=int,
        default=8,
        help="live tenant sessions kept open, LRU (default: 8)",
    )
    p_serve.add_argument(
        "--tenant",
        default="default",
        help="name of the initial tenant (default: 'default')",
    )
    _add_engine_options(p_serve, target=True, hybrid=True)
    p_serve.set_defaults(func=cmd_serve)

    p_lint = sub.add_parser(
        "lint", help="static analysis: diagnostics with source spans"
    )
    p_lint.add_argument("program", help="TGD file ('-' for stdin)")
    p_lint.add_argument(
        "--query",
        help="also lint this query against the program, "
        'e.g. "q(X) :- r(X, Y)"',
    )
    _add_report_options(p_lint, "RL006")
    p_lint.add_argument(
        "--no-recursion",
        action="store_true",
        help="skip the graph-based recursion and risk passes",
    )
    p_lint.add_argument(
        "--branching-threshold",
        type=int,
        default=8,
        help="RL020 fires at this many rules deriving one relation",
    )
    _add_engine_options(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_check = sub.add_parser(
        "check",
        help="whole-project static analysis: dead rules, mapping "
        "coverage, rewriting-size bounds (RL1xx), chase-termination "
        "lattice and separability (RL2xx)",
    )
    p_check.add_argument(
        "project",
        help="project.json manifest (or a directory containing one) "
        "naming the ontology and optional queries/mappings/data files",
    )
    _add_report_options(p_check, "RL106")
    p_check.add_argument(
        "--assumed-depth",
        type=int,
        default=10,
        help="rounds RL105 assumes for cyclic programs (default: 10)",
    )
    _add_engine_options(p_check)
    p_check.set_defaults(func=cmd_check)

    p_audit = sub.add_parser(
        "audit",
        help="concurrency/async static analysis of Python source "
        "(RL3xx): lock-order cycles, unguarded shared state, "
        "blocking calls in async code, executor and loop hygiene",
    )
    p_audit.add_argument(
        "paths",
        nargs="+",
        help="Python files or directories to audit (directories are "
        "walked recursively for .py files)",
    )
    _add_report_options(p_audit, "RL312")
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.metrics:
            from repro.obs import JSONLSink

            with obs.use(JSONLSink(args.metrics)):
                return args.func(args)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except _Rejected:
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe early;
        # suppress the traceback and die quietly like other CLIs.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
