"""Whole-project check overhead, and the pruning payoff, gated.

``repro check`` is meant to run before every deployment and the engine
pre-flight estimate before every cold compilation; both are only
acceptable if they are nearly free next to the work they guard
(classify + rewrite over the workload).  This bench measures both
against that baseline on the seeded example project and asserts each
costs <10% of it.

The second test gates the safe-pruning path on its observability
counters: a pruning session must actually drop the statically-empty
disjuncts (``session.pruned_disjuncts``), evaluate strictly fewer of
them, and return exactly the unpruned answers.
"""

import time
from pathlib import Path

from _harness import write_artifact

from repro import obs
from repro.api import EngineOptions, Session
from repro.checkers import CheckConfig, check_project, load_project
from repro.checkers.estimator import estimate_disjunct_bound
from repro.core.classify import classify
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.lang.queries import UnionOfConjunctiveQueries
from repro.obda.mappings import parse_mappings
from repro.rewriting import RewritingBudget, rewrite

PROJECT_DIR = (
    Path(__file__).resolve().parents[1] / "examples" / "check_project"
)


def _best_seconds(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_check_overhead(benchmark):
    project = load_project(PROJECT_DIR)
    budget = RewritingBudget(max_depth=50, max_cqs=100_000)
    config = CheckConfig(budget=budget)
    benchmark(lambda: check_project(project, config))

    def baseline():
        classify(project.rules)
        for query in project.queries:
            rewrite(query, project.rules, budget)

    def estimates():
        for query in project.queries:
            estimate_disjunct_bound(
                UnionOfConjunctiveQueries.of(query),
                project.rules,
                budget=budget,
            )

    check_s = _best_seconds(lambda: check_project(project, config))
    estimate_s = _best_seconds(estimates)
    baseline_s = _best_seconds(baseline)
    check_overhead = check_s / baseline_s
    estimate_overhead = estimate_s / baseline_s

    lines = [
        "Whole-project check overhead on examples/check_project "
        f"({len(project.rules)} rules, {len(project.queries)} queries)",
        "",
        "stage                    seconds   vs classify+rewrite",
        f"full repro check         {check_s:.4f}    {check_overhead:6.1%}",
        f"pre-flight estimate      {estimate_s:.4f}    {estimate_overhead:6.1%}",
        f"classify + rewrite       {baseline_s:.4f}    100.0%",
        "",
        f"A full cross-artifact check costs {check_overhead:.1%} and the "
        f"engine pre-flight {estimate_overhead:.1%} of the work they guard.",
    ]
    write_artifact("check_overhead.txt", "\n".join(lines))

    assert check_overhead < 0.10, (
        f"repro check costs {check_overhead:.1%} of classify+rewrite "
        "(budget: <10%)"
    )
    assert estimate_overhead < 0.10, (
        f"pre-flight estimate costs {estimate_overhead:.1%} of "
        "classify+rewrite (budget: <10%)"
    )


GHOSTS = 8
PRUNE_ONTOLOGY = parse_program(
    "r_prof: professor(X) -> person(X).\n"
    "r_stud: student(X) -> person(X).\n"
    + "".join(f"g{i}: ghost{i}(X) -> person(X).\n" for i in range(GHOSTS))
)
PRUNE_MAPPINGS = parse_mappings(
    "prof_row(X, D) ~> professor(X).\nstud_row(X) ~> student(X).\n"
)
PRUNE_DATA = Database(
    parse_database(
        "".join(f"prof_row(p{i}, cs).\n" for i in range(64))
        + "".join(f"stud_row(s{i}).\n" for i in range(64))
    )
)
PRUNE_QUERY = parse_query("q(X) :- person(X)")


def test_pruning_counter_gated(benchmark):
    with Session(
        PRUNE_ONTOLOGY, PRUNE_DATA, mappings=PRUNE_MAPPINGS
    ) as plain, Session(
        PRUNE_ONTOLOGY,
        PRUNE_DATA,
        mappings=PRUNE_MAPPINGS,
        options=EngineOptions(prune_empty=True),
    ) as pruning:
        expected = plain.prepare(PRUNE_QUERY).answer()
        assert expected  # non-vacuous

        # The ghost disjuncts prune, and so does the original person(X)
        # disjunct itself: no mapping targets person, so the virtual
        # ABox can never hold a person fact directly.
        dropped = GHOSTS + 1
        with obs.capture() as captured:
            prepared = pruning.prepare(PRUNE_QUERY)
            answers = prepared.answer()
        assert answers == expected
        assert captured.counter("session.pruned_disjuncts") == dropped

        pruned = prepared.pruned
        assert pruned is not None
        assert pruned.dropped == dropped
        assert pruned.kept == prepared.result.size - dropped
        assert prepared.answer(backend="sql") == expected

        benchmark(prepared.answer)
        pruned_s = _best_seconds(prepared.answer)
        plain_s = _best_seconds(plain.prepare(PRUNE_QUERY).answer)

        lines = [
            "Safe disjunct pruning on a warm session "
            f"({GHOSTS} statically-empty derivers of the query relation)",
            "",
            "path             disjuncts   seconds/answer",
            f"unpruned         {prepared.result.size:>9}   {plain_s:.5f}",
            f"pruned           {pruned.kept:>9}   {pruned_s:.5f}",
            "",
            f"Counter session.pruned_disjuncts = {dropped}; pruned answers "
            "identical to unpruned on the memory and SQL paths.",
        ]
        write_artifact("check_pruning.txt", "\n".join(lines))
