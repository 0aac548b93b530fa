"""Cross-artifact static analysis: the ``repro check`` subsystem.

``repro lint`` (RL0xx, :mod:`repro.lint`) validates one TGD program.
This package validates a whole OBDA *project* -- ontology, query
workload, GAV mappings and source data -- against each other (RL1xx):
dead rules, unmapped relations, mapping arity mismatches and
predictable rewriting blowups, all caught before any rewriting or data
access runs.  It reuses the lint diagnostic/report/renderer
infrastructure, so the output formats, ``--strict`` behaviour and exit
codes match ``repro lint`` exactly.

Entry points: :func:`load_project` + :func:`check_project` (the CLI's
``repro check``), :meth:`repro.api.Session.check` (the API surface),
:func:`estimate_disjunct_bound` (the static size estimate behind RL105
and ``target="auto"``) and :func:`supported_relations` (the relations
the virtual ABox can hold facts over, behind RL102 and RL106).
"""

from repro.checkers.estimator import BlowupEstimate, estimate_disjunct_bound
from repro.checkers.passes import (
    CHECK,
    CheckConfig,
    CheckContext,
    check_project,
    supported_relations,
)
from repro.checkers.project import Project, load_project, parse_queries

__all__ = [
    "BlowupEstimate",
    "CHECK",
    "CheckConfig",
    "CheckContext",
    "Project",
    "check_project",
    "estimate_disjunct_bound",
    "load_project",
    "parse_queries",
    "supported_relations",
]
