"""Blowup family: exponential UCQ vs polynomial Datalog target.

The family that motivates the nonrecursive-Datalog rewriting target:
``n`` joined atoms, each derivable through ``k`` alternative rules.
The exploded UCQ rewriting enumerates every combination of
alternatives -- ``(k+1)^n`` disjuncts -- while the Datalog target
emits one intermediate predicate per atom pattern, ``n*(k+1) + 1``
rules in total.  The artifact reports both sizes per family member,
the reduction factor at the largest size (gated at >= 10x), the
estimator-driven ``auto`` choice per member, and a differential check
that both targets (memory and SQL-CTE evaluation) agree with the
chase oracle on a concrete database.
"""

import time

from _harness import capture_stage_metrics, write_artifact, write_json_artifact

from repro.chase.certain import certain_answers
from repro.data.database import Database
from repro.lang.atoms import Atom
from repro.lang.parser import parse_query
from repro.lang.terms import Constant, Variable
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.datalog_target import rewrite_datalog
from repro.rewriting.engine import FORewritingEngine
from repro.rewriting.rewriter import rewrite

DERIVERS = 3  # alternative rules per joined relation
SIZES = (1, 2, 3, 4, 5)  # joined atoms; largest gives 4^5 = 1024 disjuncts
MIN_REDUCTION = 10.0


def blowup_family(atoms: int, derivers: int = DERIVERS):
    """(rules, query): ``q(X) :- c1(X), ..., cn(X)`` with *derivers*
    alternative derivations ``a{i}_{j}(X) -> c{i}(X)`` per atom."""
    x = Variable("X")
    rules = tuple(
        TGD([Atom(f"a{i}_{j}", (x,))], [Atom(f"c{i}", (x,))])
        for i in range(1, atoms + 1)
        for j in range(1, derivers + 1)
    )
    body = ", ".join(f"c{i}(X)" for i in range(1, atoms + 1))
    return rules, parse_query(f"q(X) :- {body}")


def family_database(atoms: int, derivers: int = DERIVERS) -> Database:
    """A database where some answers need derivations, some are direct."""
    facts = []
    # "u" satisfies every atom through its first deriver; "v" through
    # the stored relation directly; "w" misses the last atom.
    for i in range(1, atoms + 1):
        facts.append(Atom(f"a{i}_1", (Constant("u"),)))
        facts.append(Atom(f"c{i}", (Constant("v"),)))
        if i < atoms:
            facts.append(Atom(f"a{i}_{min(2, derivers)}", (Constant("w"),)))
    return Database(facts)


def run_family():
    budget = RewritingBudget(max_depth=50, max_cqs=100_000)
    rows = []
    for atoms in SIZES:
        rules, query = blowup_family(atoms)
        start = time.perf_counter()
        ucq_result = rewrite(query, rules, budget)
        ucq_time = time.perf_counter() - start
        start = time.perf_counter()
        datalog = rewrite_datalog(query, rules, budget)
        datalog_time = time.perf_counter() - start
        assert ucq_result.complete and datalog.complete

        engine = FORewritingEngine(rules, budget=budget, target="auto")
        auto_target = engine.resolve_target(query)

        database = family_database(atoms)
        memory = datalog.answer(database)
        chase = certain_answers(query, rules, database)
        agree = (
            memory == chase
            and memory == frozenset({(Constant("u"),), (Constant("v"),)})
        )
        rows.append(
            {
                "atoms": atoms,
                "ucq_disjuncts": ucq_result.size,
                "datalog_rules": datalog.size,
                "auto_target": auto_target,
                "answers_agree": agree,
                "ucq_ms": round(ucq_time * 1000, 3),
                "datalog_ms": round(datalog_time * 1000, 3),
            }
        )
    return rows


def test_blowup_family(benchmark):
    rows = benchmark.pedantic(run_family, rounds=1, iterations=1)

    _, metrics = capture_stage_metrics(run_family)
    counters = metrics["counters"]
    assert counters["datalog_target.rules_emitted"] > 0
    assert counters["engine.target_selected.datalog"] > 0

    largest = rows[-1]
    reduction = largest["ucq_disjuncts"] / largest["datalog_rules"]
    # The tentpole claim, counter-gated: exponential disjunct growth
    # collapses to polynomially many rules.
    assert reduction >= MIN_REDUCTION, rows
    assert all(row["answers_agree"] for row in rows)
    # auto switches exactly when the estimated bound crosses the
    # threshold (4^5 = 1024 > 512 >= 4^4 = 256).
    assert largest["auto_target"] == "datalog"
    assert rows[0]["auto_target"] == "ucq"

    lines = [
        "Blowup family: UCQ explosion vs Datalog-target rules",
        f"(k = {DERIVERS} derivers per joined relation)",
        "",
        "atoms  UCQ disjuncts  Datalog rules  auto picks  agree",
    ]
    for row in rows:
        lines.append(
            f"{row['atoms']:>5}  {row['ucq_disjuncts']:>13}  "
            f"{row['datalog_rules']:>13}  {row['auto_target']:>10}  "
            f"{'yes' if row['answers_agree'] else 'NO'}"
        )
    lines += [
        "",
        f"reduction at the largest size: "
        f"{largest['ucq_disjuncts']} disjuncts -> "
        f"{largest['datalog_rules']} rules "
        f"({reduction:.1f}x, gate >= {MIN_REDUCTION:.0f}x)",
    ]
    write_artifact("blowup_family.txt", "\n".join(lines))
    write_json_artifact(
        "blowup_family.json",
        {
            "schema": 1,
            "derivers": DERIVERS,
            "cases": rows,
            "reduction_at_largest": round(reduction, 2),
            "counters": {
                "datalog_target.rules_emitted": counters[
                    "datalog_target.rules_emitted"
                ],
                "engine.target_selected.datalog": counters[
                    "engine.target_selected.datalog"
                ],
                "engine.target_selected.ucq": counters[
                    "engine.target_selected.ucq"
                ],
            },
        },
    )
