"""Generate the vetted compile pool used by the ``compile_cold`` workload.

Writes ``data/compile_pool.txt``: one conjunctive query per line, each a
connected CQ of 1-3 atoms over the university vocabulary, distinct up to
variable renaming and atom reordering, after the number of CQs its
rewriting generated and a tab.  Every query is *vetted* with a
deterministic counter rather than wall time: it is rewritten once under
a budget capped at ``CQS_CAP`` generated CQs, and kept only when that
rewriting completes.  Unvetted random streams are pathological on this
rewriter -- a single query can compile for tens of seconds and dominate
a whole run -- and a counter cap gives the same pool on every machine.

The pool is committed; ``--seed`` of the benchmark orders it and splits
it between the benchmark's processes.  Regenerate with::

    PYTHONPATH=src python benchmarks/e2e/make_pool.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
POOL_PATH = HERE / "data" / "compile_pool.txt"

#: Queries whose rewriting needs more CQs than this are left out.
CQS_CAP = 150
POOL_SIZE = 1200
GENERATOR_SEED = 20140622

#: Constants of ``university_data(200)``; a few atoms bind one of them.
CONSTANTS = (
    [f"person{i}" for i in range(0, 200, 7)]
    + [f"course{i}" for i in range(0, 100, 7)]
    + [f"dept{i}" for i in range(0, 40, 7)]
)


def vocabulary(rules) -> list[tuple[str, int]]:
    """Every (relation, arity) the ontology mentions, sorted."""
    seen: dict[str, int] = {}
    for rule in rules:
        for atom in (*rule.body, *rule.head):
            seen[atom.relation] = atom.arity
    return sorted(seen.items())


def random_query(rng: random.Random, relations: list[tuple[str, int]]) -> str:
    """A connected CQ with 1-3 atoms and 1-2 answer variables."""
    atoms: list[str] = []
    variables: list[str] = []

    def new_variable() -> str:
        variables.append(f"X{len(variables)}")
        return variables[-1]

    for index in range(rng.choice((1, 2, 2, 3, 3))):
        relation, arity = rng.choice(relations)
        # Every atom after the first reuses a variable at one position,
        # so the query stays connected and its answers stay small.
        anchor = rng.randrange(arity) if index else -1
        terms = []
        for position in range(arity):
            if index == 0 and position == 0:
                terms.append(new_variable())
            elif position == anchor:
                terms.append(rng.choice(variables))
            elif variables and rng.random() < 0.3:
                terms.append(rng.choice(variables))
            elif arity == 2 and rng.random() < 0.1:
                terms.append(f'"{rng.choice(CONSTANTS)}"')
            else:
                terms.append(new_variable())
        atoms.append(f"{relation}({', '.join(terms)})")
    head = rng.sample(variables, min(len(variables), rng.choice((1, 1, 2))))
    return f"q({', '.join(head)}) :- {', '.join(atoms)}"


def build_pool() -> list[tuple[int, str]]:
    """Draw random CQs until ``POOL_SIZE`` distinct ones pass the
    counter cap; return (CQs generated, query text) pairs."""
    from repro import obs
    from repro.lang.parser import parse_query
    from repro.rewriting.budget import RewritingBudget
    from repro.rewriting.rewriter import rewrite
    from repro.rewriting.store import query_digest
    from repro.workloads.ontologies import university_ontology

    rules = university_ontology()
    relations = vocabulary(rules)
    budget = RewritingBudget(max_cqs=CQS_CAP, strict=False)
    rng = random.Random(GENERATOR_SEED)
    seen: set[str] = set()
    pool: list[tuple[int, str]] = []
    while len(pool) < POOL_SIZE:
        text = random_query(rng, relations)
        query = parse_query(text)
        digest = query_digest(query)
        if digest in seen:
            continue
        seen.add(digest)
        with obs.capture() as cap:
            result = rewrite(query, rules, budget)
        generated = cap.counter("rewrite.cqs_generated")
        if result.complete and generated <= CQS_CAP:
            pool.append((generated, text))
    return pool


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    pool = build_pool()
    POOL_PATH.write_text("".join(f"{cqs}\t{text}\n" for cqs, text in pool))
    print(f"wrote {len(pool)} queries to {POOL_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
