"""Whole-project check overhead, gated.

``repro check`` is meant to run before every deployment, and its static
rewriting-size estimate (RL105) is what ``target="auto"`` consults per
query; both are only acceptable if they are nearly free next to the
work they guard (classify + rewrite over the workload).  This bench
measures both against that baseline on the seeded example project and
asserts each costs <10% of it.
"""

import time
from pathlib import Path

from _harness import write_artifact

from repro.checkers import CheckConfig, check_project, load_project
from repro.checkers.estimator import estimate_disjunct_bound
from repro.core.classify import classify
from repro.lang.queries import UnionOfConjunctiveQueries
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
        f"static estimate (RL105)  {estimate_s:.4f}    {estimate_overhead:6.1%}",
        f"classify + rewrite       {baseline_s:.4f}    100.0%",
        "",
        f"A full cross-artifact check costs {check_overhead:.1%} and the "
        f"static estimate {estimate_overhead:.1%} of the work they guard.",
    ]
    write_artifact("check_overhead.txt", "\n".join(lines))

    assert check_overhead < 0.10, (
        f"repro check costs {check_overhead:.1%} of classify+rewrite "
        "(budget: <10%)"
    )
    assert estimate_overhead < 0.10, (
        f"static estimate (RL105) costs {estimate_overhead:.1%} of "
        "classify+rewrite (budget: <10%)"
    )

