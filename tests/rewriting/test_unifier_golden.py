"""Golden test for every artifact that unification decides.

The piece rewriter, factorization, the PerfectRef baseline, the P-node
graph and the graph of rule dependencies all decide their steps through
:mod:`repro.lang.unify`.  The rewritings are what the persistent
rewriting cache stores, and the graphs decide the class memberships
that admit a rewriting.  ``golden/unifier.txt`` pins, byte for byte:

* the UCQ, each disjunct's lineage and the nonrecursive-Datalog program
  of the university queries, one atomic query per relation of the
  paper's Examples 1-3, the blowup family for n = 1..4 and the first
  200 queries of the compile pool (copied to
  ``golden/compile_pool_200.txt`` so that regenerating the benchmark
  pool cannot change this test);
* PerfectRef's UCQ on the linear baseline workloads;
* the sorted P-node graph edges of Examples 1-3 and of every corpus
  entry, and the sorted GRD edges of every entry.

The contract: a change to any line of the golden file must bump
``ENGINE_VERSION`` (which the file's first line records), so that no
cache serves what older code wrote, and regenerate the file with::

    PYTHONPATH=src python tests/rewriting/test_unifier_golden.py \\
        > tests/rewriting/golden/unifier.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.classes.agrd import rule_dependency_graph
from repro.dlite.syntax import (
    AtomicConcept,
    AtomicRole,
    ConceptInclusion,
    Exists,
    Inverse,
    TBox,
)
from repro.dlite.translate import tbox_to_tgds
from repro.graphs.pnode_graph import build_pnode_graph
from repro.lang.atoms import Atom
from repro.lang.parser import parse_query
from repro.lang.queries import ConjunctiveQuery
from repro.lang.terms import Variable
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.datalog_target import rewrite_datalog
from repro.rewriting.engine import ENGINE_VERSION
from repro.rewriting.perfectref import perfectref_rewrite
from repro.rewriting.rewriter import rewrite
from repro.rewriting.store import budget_digest
from repro.workloads.corpus import CORPUS
from repro.workloads.generators import concept_hierarchy, role_chain
from repro.workloads.ontologies import university_ontology, university_queries
from repro.workloads.paper import example1, example2, example3

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "unifier.txt"
POOL = GOLDEN_DIR / "compile_pool_200.txt"

#: The budget of the compile pool and of the atomic queries of the
#: paper's examples (Example 2 is not FO-rewritable).
BOUNDED = RewritingBudget(max_cqs=150)

EXAMPLES = (("example1", example1), ("example2", example2), ("example3", example3))


def blowup_family(atoms: int, derivers: int = 3):
    """``q(X) :- c1(X), ..., cn(X)`` with *derivers* rules per atom."""
    x = Variable("X")
    rules = tuple(
        TGD([Atom(f"a{i}_{j}", (x,))], [Atom(f"c{i}", (x,))])
        for i in range(1, atoms + 1)
        for j in range(1, derivers + 1)
    )
    body = ", ".join(f"c{i}(X)" for i in range(1, atoms + 1))
    return rules, parse_query(f"q(X) :- {body}")


def atomic_queries(rules) -> list[ConjunctiveQuery]:
    """One all-answer atomic query per relation of *rules*."""
    relations = sorted(
        {(a.relation, a.arity) for rule in rules for a in (*rule.body, *rule.head)}
    )
    return [
        ConjunctiveQuery(
            [Variable(f"X{i}") for i in range(arity)],
            [Atom(relation, [Variable(f"X{i}") for i in range(arity)])],
        )
        for relation, arity in relations
    ]


def dl_lite_tbox():
    concepts = [AtomicConcept(f"C{i}") for i in range(4)]
    role = AtomicRole("rel")
    tbox = TBox(
        (
            ConceptInclusion(concepts[0], concepts[1]),
            ConceptInclusion(concepts[1], concepts[2]),
            ConceptInclusion(concepts[2], Exists(role)),
            ConceptInclusion(Exists(Inverse(role)), concepts[3]),
        )
    )
    return tbox_to_tgds(tbox)


def rewriting_lines(label, query, rules, budget=None) -> list[str]:
    """The UCQ with each disjunct's lineage, then the Datalog program."""
    result = rewrite(query, rules, budget)
    lines = [
        f"## rewrite {label}: {query} complete={result.complete}"
        f" generated={result.generated}"
    ]
    for cq in result.ucq:
        steps = " ; ".join(result.derivation_of(cq)) or "input"
        lines.append(f"{cq}    <= {steps}")
    program = rewrite_datalog(query, rules, budget)
    lines.append(f"-- datalog complete={program.complete}")
    lines.extend(str(program).splitlines())
    return lines


def render() -> str:
    """Every pinned artifact, one line each."""
    lines = [
        f"engine_version {ENGINE_VERSION}",
        f"default_budget {budget_digest(RewritingBudget.default())}",
    ]
    university = university_ontology()
    for name, query in university_queries():
        lines.extend(rewriting_lines(f"university/{name}", query, university))
    for name, build in EXAMPLES:
        for query in atomic_queries(build()):
            lines.extend(rewriting_lines(name, query, build(), BOUNDED))
    for atoms in range(1, 5):
        rules, query = blowup_family(atoms)
        lines.extend(rewriting_lines(f"blowup{atoms}", query, rules))
    for number, text in enumerate(POOL.read_text().splitlines(), 1):
        lines.extend(
            rewriting_lines(f"pool{number}", parse_query(text), university, BOUNDED)
        )

    perfectref_cases = (
        ("hierarchy-16", concept_hierarchy(16), "q(X) :- c16(X)"),
        ("role-chain-8", role_chain(8), "q() :- r8(X, Y)"),
        ("dl-lite-tbox", dl_lite_tbox(), "q(X) :- C3(X)"),
    )
    for name, rules, text in perfectref_cases:
        result = perfectref_rewrite(parse_query(text), rules)
        lines.append(
            f"## perfectref {name}: {text} complete={result.complete}"
            f" generated={result.generated}"
        )
        lines.extend(str(cq) for cq in result.ucq)

    programs = [(name, build()) for name, build in EXAMPLES]
    programs.extend((entry.name, entry.rules()) for entry in CORPUS)
    for name, rules in programs:
        lines.append(f"## pnode {name}")
        lines.extend(sorted(str(edge) for edge in build_pnode_graph(rules).edges))
        lines.append(f"## grd {name}")
        lines.extend(
            f"{source} -> {target}"
            for source, target in sorted(rule_dependency_graph(rules).edges)
        )
    return "\n".join(lines) + "\n"


class TestUnifierGolden:
    def test_matches_golden(self):
        assert render() == GOLDEN.read_text()

    def test_identical_under_other_hash_seeds(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        golden = GOLDEN.read_text()
        for seed in ("1", "31337"):
            env["PYTHONHASHSEED"] = seed
            result = subprocess.run(
                [sys.executable, str(Path(__file__).resolve())],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            assert result.stdout == golden, f"PYTHONHASHSEED={seed}"


if __name__ == "__main__":
    sys.stdout.write(render())
