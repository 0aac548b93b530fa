"""E9 -- FO-rewritability in practice: ontology QA as plain SQL.

The whole point of FO-rewritability (Section 1): a CQ over the
ontology becomes "an equivalent SQL query over the original database".
This bench answers the university workload three ways -- in-memory
evaluation of the rewriting, the rewriting compiled to SQLite SQL, and
the chase oracle -- asserts all three agree, and measures the SQL path.
The artifact shows, per query, the rewriting size and the SQL text
length (the 'cost' of reasoning pushed into the query).
"""

from _harness import write_artifact

from repro.api import Session
from repro.lang.printer import format_table
from repro.workloads.ontologies import (
    university_data,
    university_ontology,
    university_queries,
)

DB_SIZE = 60


def test_sql_end_to_end(benchmark):
    ontology = university_ontology()
    database = university_data(DB_SIZE, seed=9)
    queries = university_queries()

    with Session(ontology, database) as session:
        # Warm the rewriting cache and SQLite schema outside the timer:
        # OBDA amortizes rewriting across many executions.
        for _, query in queries:
            session.answer(query, backend="sql")

        def run_sql_workload():
            return [
                len(session.answer(query, backend="sql"))
                for _, query in queries
            ]

        counts = benchmark(run_sql_workload)

        rows = []
        for (name, query), count in zip(queries, counts):
            rewriting = session.prepare(query).result
            memory = session.answer(query)
            chase = session.answer_chase(query)
            sql = session.answer(query, backend="sql")
            assert memory == chase == sql, name
            rows.append(
                (
                    name,
                    rewriting.size,
                    len(session.sql_for(query)),
                    count,
                )
            )

    table = format_table(
        ("query", "UCQ disjuncts", "SQL chars", "answers"), rows
    )
    lines = [
        f"E9 -- university workload over a {len(database)}-fact database",
        "",
        table,
        "",
        "all three answering paths (in-memory rewriting, SQLite SQL,",
        "chase oracle) returned identical answers for every query.",
    ]
    write_artifact("sql_endtoend.txt", "\n".join(lines))
