"""repro: Weakly Recursive TGDs and FO-rewritable ontology query answering.

A reproduction of *Query Answering over Ontologies Specified via
Database Dependencies* (Cristina Civili, SIGMOD'14 PhD Symposium):
graph-based sufficient conditions for the first-order rewritability of
conjunctive-query answering over tuple-generating dependencies, plus
every substrate required to exercise them -- a relational engine, a
chase, a sound-and-complete UCQ rewriter, baseline class recognizers,
a DL-Lite translation and an OBDA facade.

Typical usage::

    from repro import parse_program, parse_query, classify, Session
    from repro.data import Database

    ontology = parse_program("professor(X) -> teaches(X, C). ...")
    report = classify(ontology)          # SWR? WR? linear? sticky? ...
    with Session(ontology, Database(facts), cache_dir=".repro-cache") as s:
        prepared = s.prepare("q(X) :- teaches(X, C)")   # compiled once
        answers = prepared.answer()

:class:`Session` is the one answering surface; ``docs/api.md`` maps
the entry points removed in favour of it onto their replacements.
"""

from repro.api import BatchResult, PreparedQuery, RewritingCache, Session
from repro.chase import certain_answers, restricted_chase
from repro.core import classify, is_swr, is_wr
from repro.data import Database, evaluate_cq, evaluate_ucq
from repro.graphs import build_pnode_graph, build_position_graph
from repro.lang import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Signature,
    TGD,
    UnionOfConjunctiveQueries,
    Variable,
    parse_atom,
    parse_database,
    parse_program,
    parse_query,
    parse_ucq,
)
from repro.lint import LintReport, lint_program, lint_source
from repro.rewriting import FORewritingEngine, RewritingBudget, rewrite

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "BatchResult",
    "ConjunctiveQuery",
    "Constant",
    "Database",
    "FORewritingEngine",
    "LintReport",
    "PreparedQuery",
    "RewritingBudget",
    "RewritingCache",
    "Session",
    "Signature",
    "TGD",
    "UnionOfConjunctiveQueries",
    "Variable",
    "__version__",
    "build_pnode_graph",
    "build_position_graph",
    "certain_answers",
    "classify",
    "evaluate_cq",
    "evaluate_ucq",
    "is_swr",
    "is_wr",
    "lint_program",
    "lint_source",
    "parse_atom",
    "parse_database",
    "parse_program",
    "parse_query",
    "parse_ucq",
    "restricted_chase",
    "rewrite",
]
