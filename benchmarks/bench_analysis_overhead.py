"""Constraint-interaction analyzer overhead and the SPLIT payoff, gated.

The termination lattice + separability analysis of ``repro.analysis``
runs inside ``Session``'s hybrid planner and the ``repro check``
interaction stage, so it must be nearly free next to the work it
steers.  The first test measures a *cold* full analysis (graph +
certificate caches cleared every run) against classification over the
curated corpus and asserts it costs <10%.

The second test gates the SPLIT plan on its observability counters:
answering the split workload through ``Session(hybrid="auto")`` must
perform exactly one separation (a proper one), and its answers must
match the pure chase lower bound.
"""

import time

from _harness import write_artifact, write_json_artifact

from repro import obs
from repro.analysis import (
    analyze,
    clear_certificate_cache,
    clear_graph_cache,
    termination_certificate,
)
from repro.api import EngineOptions, Session
from repro.chase.certain import certain_answers_via_chase
from repro.core.classify import classify
from repro.workloads.corpus import CORPUS
from repro.workloads.interaction import split_workload


def _best_seconds(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


RULE_SETS = tuple(entry.rules() for entry in CORPUS)


def _cold_analysis():
    clear_graph_cache()
    clear_certificate_cache()
    for rules in RULE_SETS:
        analyze(rules)


def _classify_corpus():
    for rules in RULE_SETS:
        classify(rules)


def test_analysis_overhead(benchmark):
    benchmark(_cold_analysis)

    analysis_s = _best_seconds(_cold_analysis)
    classify_s = _best_seconds(_classify_corpus)
    overhead = analysis_s / classify_s

    # Deterministic census of the corpus through the lattice.
    histogram = {"weak": 0, "joint": 0, "super-weak": 0, "none": 0}
    for rules in RULE_SETS:
        level = termination_certificate(rules).level
        key = level.value.removesuffix("-acyclicity") if level else "none"
        histogram[key] += 1

    lines = [
        f"Constraint-interaction analysis over the corpus ({len(CORPUS)} "
        "rule sets), cold caches every run",
        "",
        "stage                    seconds   vs classify",
        f"full analysis (cold)     {analysis_s:.4f}    {overhead:6.1%}",
        f"classify                 {classify_s:.4f}    100.0%",
        "",
        "termination lattice census: "
        + ", ".join(f"{k}={v}" for k, v in histogram.items()),
    ]
    write_artifact("analysis_overhead.txt", "\n".join(lines))

    payload = {
        "schema": 1,
        "corpus_entries": len(CORPUS),
        "lattice_census": histogram,
        "analysis_s": round(analysis_s, 6),
        "classify_s": round(classify_s, 6),
        "overhead_over_classify": round(overhead, 4),
        "gate": 0.10,
    }

    # --- SPLIT payoff, counter-gated -------------------------------
    rules, query, database = split_workload()
    options = EngineOptions(hybrid="auto")
    with obs.capture() as captured, Session(
        rules, database, options=options
    ) as session:
        prepared = session.prepare(query)
        answers = prepared.answer()
        plan = prepared.plan()
    assert plan.kind == "split"
    assert plan.exact
    assert captured.counter("analysis.separations") == 1
    assert captured.counter("analysis.proper_separations") == 1

    lower = certain_answers_via_chase(
        query, rules, database, max_steps=5_000, strict=False
    )
    assert answers == lower.answers

    payload.update(
        {
            "split_strategy": plan.kind,
            "split_answers": len(answers),
            "split_core_rules": len(plan.partition.core),
            "split_residual_rules": len(plan.partition.residual),
            "separations": int(captured.counter("analysis.separations")),
            "proper_separations": int(
                captured.counter("analysis.proper_separations")
            ),
        }
    )
    write_json_artifact("analysis_overhead.json", payload)

    # The timing gate is checked last, so the deterministic SPLIT
    # counters are gated and recorded on every run.
    assert overhead < 0.10, (
        f"cold analysis costs {overhead:.1%} of classification "
        "(budget: <10%)"
    )
