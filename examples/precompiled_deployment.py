#!/usr/bin/env python3
"""Precompiled OBDA deployment: rewrite once, answer forever.

The OBDA cost model: rewriting is per-query, evaluation is
per-database.  This example compiles the university query workload
into the persistent rewriting cache (one SQLite file, the "deployment
artifact"), then boots a session over each of several fresh databases
with ``warm_up()``: every rewriting is loaded from the cache and the
rewriter never runs.  The deployed session still loads the ontology,
because the ontology's digest is part of every cache key.
"""

import tempfile

from repro import obs
from repro.api import Session
from repro.workloads.ontologies import (
    university_data,
    university_ontology,
    university_queries,
)


def main() -> None:
    ontology = university_ontology()
    workload = university_queries()

    with tempfile.TemporaryDirectory() as cache_dir:
        # ---- build time: compile the workload once ---------------- #
        with Session(ontology, cache_dir=cache_dir) as build:
            for name, query in workload:
                result = build.prepare(query).result
                print(f"  {name}: {len(result.ucq)} disjunct(s)")
            print(f"compiled {len(workload)} rewritings -> {build.cache.path}")

        # ---- boot time: load every rewriting, never rewrite ------- #
        print("\nanswering over fresh databases from the stored rewritings:")
        with obs.capture() as trace:
            for size in (10, 25):
                database = university_data(size, seed=size)
                with Session(ontology, database, cache_dir=cache_dir) as deployed:
                    assert deployed.warm_up() == len(workload)
                    counts = []
                    for name, query in workload:
                        prepared = deployed.prepare(query)
                        assert prepared.result.complete
                        answers = prepared.answer()
                        counts.append(f"{name.split('-')[0]}={len(answers)}")
                print(f"  |D|={len(database):>3}: {'  '.join(counts)}")
        assert not trace.spans("engine.rewrite")
        print(
            f"  {trace.counter('engine.disk_hits')} rewritings loaded "
            "from the cache, 0 rewritten"
        )

        # Sanity: the deployed path equals a live rewrite+evaluate.
        database = university_data(12, seed=99)
        with Session(ontology, database) as live, Session(
            ontology, database, cache_dir=cache_dir
        ) as deployed:
            deployed.warm_up()
            for name, query in workload:
                assert live.answer(query) == deployed.answer(query), name
    print("\ndeployed answers == live rewriting answers ✓")


if __name__ == "__main__":
    main()
