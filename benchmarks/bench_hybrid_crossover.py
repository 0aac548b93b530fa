"""E-HY -- the hybrid crossover: rewriting vs (partial) materialization.

Two experiments over the university workload:

1. **Decision sweep** (data size x query mix): the cost model of
   :mod:`repro.hybrid.cost` is evaluated on a grid of database sizes
   and workload weights (queries served between data changes) over a
   concept-hierarchy family whose static disjunct bound is moderate
   enough for the comparison to be non-trivial.  The artifact records
   the chosen regime per cell -- the expected shape is a crossover
   front: small data / hot mixes amortize a materialization,
   query-sparse cells on big data stay with pure rewriting.  Empirical
   per-regime timings land next to each size as ``*_ms`` fields
   (reported, not gated: runner noise).

2. **Delta phase** (incremental maintenance vs full re-chase): a
   materialized core absorbs a fixed sequence of single-fact inserts
   and deletes via the semi-naive/DRed delta chase, against the cost of
   re-chasing the mutated base from scratch at every step.  The gate is
   span-based and deterministic -- no mutation may rebuild the core
   (``full_rechase``, the ``hybrid.rebuild`` spans after the initial
   build, must be 0) and the final instance must agree with a fresh
   chase on every workload query; the measured ``speedup`` (>= 5x
   expected) is recorded for the nightly timing gate.
"""

import time

from _harness import capture_stage_metrics, write_artifact, write_json_artifact

from repro.analysis.separability import separate
from repro.chase.chase import restricted_chase
from repro.data.evaluation import evaluate_ucq
from repro.hybrid import MaterializedCore, decide
from repro.data.database import Database
from repro.lang.atoms import Atom
from repro.lang.parser import parse_program, parse_query
from repro.lang.terms import Constant
from repro.rewriting.rewriter import rewrite
from repro.workloads.ontologies import (
    university_data,
    university_ontology,
    university_queries,
)

SIZES = (16, 64, 256)
WEIGHTS = (1, 8, 64)

#: Depth of the sweep family's concept hierarchy.  The estimator's
#: static disjunct bound is exponential in the depth, so a shallow
#: hierarchy keeps the rewriting regime genuinely competitive.
HIERARCHY_DEPTH = 4

#: Size of the university base database for the maintenance phase.
DELTA_BASE_SIZE = 60


def hierarchy_rules():
    """``lvl0 <= lvl1 <= ... <= lvlD``: a pure concept hierarchy."""
    return parse_program(
        "\n".join(
            f"H{i}: lvl{i}(X) -> lvl{i + 1}(X)."
            for i in range(HIERARCHY_DEPTH)
        )
    )


def hierarchy_data(size):
    database = Database()
    for i in range(size):
        database.add(Atom("lvl0", (Constant(f"e{i}"),)))
    return database


def hierarchy_query():
    return parse_query(f"q(X) :- lvl{HIERARCHY_DEPTH}(X)")


def decision_sweep(rules, query):
    """The cost model's regime choice on the (size, weight) grid.

    The workload query is handed to the separability pass so the
    estimator's static disjunct bound (rather than the unbounded
    no-workload default) prices the rewriting regime.
    """
    partition = separate(rules, [query])
    matrix = {}
    for size in SIZES:
        database = hierarchy_data(size)
        relation_sizes = {
            name: database.count(name) for name in database.relations()
        }
        for weight in WEIGHTS:
            decision = decide(
                partition=partition,
                data_size=len(database),
                relation_sizes=relation_sizes,
                workload_weight=weight,
            )
            matrix[f"size{size}/weight{weight}"] = decision.choice.value
    return matrix


def empirical_timings(rules, query):
    """Measured per-size costs of the two pure regimes (reported only)."""
    rewriting = rewrite(query, rules)
    assert rewriting.complete
    timings = {}
    for size in SIZES:
        database = hierarchy_data(size)
        start = time.perf_counter()
        rewrite_answers = evaluate_ucq(rewriting.ucq, database)
        rewrite_eval_ms = (time.perf_counter() - start) * 1000

        start = time.perf_counter()
        chased = restricted_chase(list(rules), database)
        build_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        chase_answers = evaluate_ucq(query, chased.instance, certain=True)
        chase_eval_ms = (time.perf_counter() - start) * 1000

        assert rewrite_answers == chase_answers
        timings[f"size{size}"] = {
            "answers": len(rewrite_answers),
            "rewrite_eval_ms": round(rewrite_eval_ms, 3),
            "materialize_build_ms": round(build_ms, 3),
            "materialize_eval_ms": round(chase_eval_ms, 3),
        }
    return timings


def _mutations(base):
    """A deterministic mutation tape: 12 inserts then 4 deletes.

    Inserts introduce fresh graduate students wired to existing
    people (advisor edges fan out derived facts); deletes retract base
    facts whose consequences must be DRed-retracted.
    """
    inserts = []
    for i in range(6):
        fresh = Constant(f"delta{i}")
        inserts.append([Atom("gradStudent", (fresh,))])
        inserts.append(
            [Atom("hasAdvisor", (fresh, Constant(f"person{i}")))]
        )
    deletes = [
        [Atom("gradStudent", (Constant(f"delta{i}"),))] for i in range(2)
    ] + [
        [Atom("hasAdvisor", (Constant(f"delta{i}"), Constant(f"person{i}")))]
        for i in range(2)
    ]
    return inserts, deletes


def delta_phase(rules, queries):
    """Incremental maintenance vs per-step full re-chase."""
    base = university_data(DELTA_BASE_SIZE, seed=7)
    inserts, deletes = _mutations(base)

    def incremental():
        core = MaterializedCore(rules, base)
        start = time.perf_counter()
        for batch in inserts:
            core.apply_insert(batch)
        for batch in deletes:
            core.apply_delete(batch)
        return core, (time.perf_counter() - start)

    (core, incremental_s), metrics = capture_stage_metrics(incremental)

    # Reference: re-chase the mutated base from scratch at every step,
    # exactly what a maintenance-free engine would have to do.
    reference = base.copy()
    start = time.perf_counter()
    for batch in inserts:
        for fact in batch:
            reference.add(fact)
        chased = restricted_chase(list(rules), reference)
    for batch in deletes:
        for fact in batch:
            reference.discard(fact)
        chased = restricted_chase(list(rules), reference)
    rechase_s = time.perf_counter() - start

    answers = {}
    for name, query in queries:
        incremental_answers = evaluate_ucq(query, core.instance, certain=True)
        rechase_answers = evaluate_ucq(query, chased.instance, certain=True)
        assert incremental_answers == rechase_answers, name
        answers[name] = len(incremental_answers)

    counters = metrics["counters"]
    rebuilds = sum(
        span["name"] == "hybrid.rebuild" for span in metrics["spans"]
    )
    return {
        "mutations": len(inserts) + len(deletes),
        "delta_applied": counters.get("hybrid.delta_applied", 0),
        "delta_facts": counters.get("hybrid.delta_facts", 0),
        "full_rechase": rebuilds - 1,  # the initial build is one
        "consistency_findings": len(core.check_consistency()),
        "answers": answers,
        "incremental_ms": round(incremental_s * 1000, 3),
        "rechase_ms": round(rechase_s * 1000, 3),
        "speedup": round(rechase_s / max(incremental_s, 1e-9), 2),
    }


def test_hybrid_crossover(benchmark):
    sweep_rules = hierarchy_rules()
    sweep_query = hierarchy_query()
    delta_rules = university_ontology()

    def workload():
        return (
            decision_sweep(sweep_rules, sweep_query),
            empirical_timings(sweep_rules, sweep_query),
            delta_phase(delta_rules, university_queries()),
        )

    matrix, timings, delta = benchmark.pedantic(
        workload, rounds=1, iterations=1
    )

    # A genuine crossover: both regimes must appear on the grid.
    assert {"rewrite", "materialize"} <= set(matrix.values()), matrix

    # The counter gate: every mutation took the incremental path ...
    assert delta["full_rechase"] == 0
    assert delta["delta_applied"] == delta["mutations"]
    assert delta["consistency_findings"] == 0
    # ... and the incremental path actually pays for itself.
    assert delta["speedup"] >= 5.0, delta

    payload = {
        "schema": 1,
        "sizes": list(SIZES),
        "weights": list(WEIGHTS),
        "decision_matrix": matrix,
        "timings": timings,
        "delta_phase": delta,
    }
    write_json_artifact("hybrid_crossover.json", payload)

    lines = [
        "E-HY -- hybrid crossover",
        f"(depth-{HIERARCHY_DEPTH} hierarchy sweep; university delta phase)",
        "",
        "cost-model regime per (size, workload weight):",
        f"{'size':>6}  " + "  ".join(f"{f'w={w}':<11}" for w in WEIGHTS),
    ]
    for size in SIZES:
        row = "  ".join(
            f"{matrix[f'size{size}/weight{w}']:<11}" for w in WEIGHTS
        )
        lines.append(f"{size:>6}  {row}")
    lines += [
        "",
        "delta phase (incremental maintenance vs full re-chase):",
        f"  mutations      {delta['mutations']}"
        f" (delta-applied {delta['delta_applied']},"
        f" full re-chases {delta['full_rechase']})",
        f"  incremental    {delta['incremental_ms']:.1f} ms",
        f"  re-chase       {delta['rechase_ms']:.1f} ms",
        f"  speedup        {delta['speedup']:.1f}x",
    ]
    write_artifact("hybrid_crossover.txt", "\n".join(lines))
