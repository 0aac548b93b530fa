"""FO-rewriting of UCQs over TGDs.

The engine follows the piece-unification approach for existential rules
(the algorithmic substrate behind all FO-rewritability classes the paper
discusses): a rewriting step resolves a *piece* of the query against the
head of a TGD and replaces it with the rule body.  Combined with
factorization and subsumption pruning this yields a sound and complete
UCQ rewriting procedure; it terminates exactly on the inputs the paper's
classes are designed to recognise, so every run takes an explicit
:class:`RewritingBudget`.
"""

from repro.rewriting.approx import ApproximationReport, approximate_answers
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.datalog_target import DatalogRewriting, rewrite_datalog
from repro.rewriting.engine import FORewritingEngine
from repro.rewriting.minimize import (
    is_subsumed,
    minimize_cq,
    remove_subsumed,
)
from repro.rewriting.perfectref import perfectref_rewrite
from repro.rewriting.pieces import PieceRewriting, piece_rewritings
from repro.rewriting.probe import (
    ProbeReport,
    ProbeVerdict,
    probe_query_rewritability,
)
from repro.rewriting.relevance import RelevanceReport, relevant_rules
from repro.rewriting.rewriter import RewritingResult, rewrite

__all__ = [
    "ApproximationReport",
    "DatalogRewriting",
    "FORewritingEngine",
    "PieceRewriting",
    "ProbeReport",
    "ProbeVerdict",
    "RelevanceReport",
    "RewritingBudget",
    "RewritingResult",
    "approximate_answers",
    "is_subsumed",
    "minimize_cq",
    "perfectref_rewrite",
    "piece_rewritings",
    "probe_query_rewritability",
    "relevant_rules",
    "remove_subsumed",
    "rewrite",
    "rewrite_datalog",
]
