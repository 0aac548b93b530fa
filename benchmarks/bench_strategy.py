"""The Section-7 decision procedure end to end, through ``Session``.

Answers a spectrum of (ontology, query) situations -- SWR, WR-only,
weakly-acyclic-only, and nothing-at-all -- with the one planner,
:meth:`repro.api.PreparedQuery.plan`, under ``hybrid="off"`` (rewrite
or approximate) and ``hybrid="auto"`` (the cost model may materialize
the chase or split), and reports each case's plan, whether the answers
are exact, and the certificate that admitted the plan.  This is the
"what to do in situations (i)/(ii)/(iii)" table the paper's Section 7
sketches.
"""

from _harness import write_artifact

from repro.api import EngineOptions, Session
from repro.data.database import Database
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.rewriting.budget import RewritingBudget
from repro.workloads.ontologies import university_data, university_ontology
from repro.workloads.paper import EXAMPLE2_QUERY, example2, example3

NON_WA_RULES = parse_program(
    """
    t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).
    s(Y1, Y1, Y2) -> r(Y2, Y3).
    r(X, Y) -> t(Y, Z).
    """
)

#: The procedure's depth cap: a rewriting that completes within it is
#: exact, one cut short by it is a sound approximation.
DEPTH_CAP = 10

MODES = ("off", "auto")


def cases():
    return (
        (
            "university / employee",
            parse_query("q(X) :- employee(X)"),
            university_ontology(),
            university_data(15, seed=4),
        ),
        (
            "example 3 / r-query",
            parse_query("q(X, Y) :- r(X, Y)"),
            example3(),
            Database(parse_database("s(a, b, c). u(a).")),
        ),
        (
            "example 2 / chain query",
            EXAMPLE2_QUERY,
            example2(),
            Database(parse_database("t(b, a). r(b, e).")),
        ),
        (
            "example 2 + t-feedback / chain query",
            EXAMPLE2_QUERY,
            NON_WA_RULES,
            Database(parse_database("t(b, a). r(b, e).")),
        ),
    )


def run_all():
    rows = []
    for name, query, rules, database in cases():
        for mode in MODES:
            options = EngineOptions(
                hybrid=mode, budget=RewritingBudget.shallow(DEPTH_CAP)
            )
            with Session(rules, database, options=options) as session:
                prepared = session.prepare(query)
                answers = prepared.answer(require_complete=False)
                explain = prepared.explain()["plan"]
            rows.append(
                (
                    name,
                    mode,
                    explain["kind"],
                    explain["exact"],
                    len(answers),
                    explain["certificate"],
                )
            )
    return rows


def test_strategy_triage(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    plans = {(name, mode): kind for name, mode, kind, *_ in rows}
    assert plans["university / employee", "off"] == "rewriting"
    assert plans["example 3 / r-query", "off"] == "rewriting"
    assert plans["example 2 / chain query", "auto"] == "chase"
    for mode in MODES:
        assert plans["example 2 + t-feedback / chain query", mode] == (
            "approximation"
        )

    lines = [
        "Section-7 decision procedure: per-(ontology, query) plan",
        f"(one planner, Session; rewriting depth cap {DEPTH_CAP})",
        "",
        "case                                  hybrid  plan           "
        "exact  |answers|",
    ]
    for name, mode, kind, exact, count, _ in rows:
        lines.append(
            f"{name:<37} {mode:<6}  {kind:<13}  {str(exact):<5}  {count}"
        )
    lines.append("")
    lines.append("certificates:")
    for name, mode, _, _, _, certificate in rows:
        lines.append(f"  {name} [{mode}]: {certificate}")
    write_artifact("strategy_triage.txt", "\n".join(lines))
