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
:func:`estimate_disjunct_bound` (the engine pre-flight) and
:func:`prune_statically_empty` (the
``Session(..., options=EngineOptions(prune_empty=True))`` optimisation).
"""

from repro.checkers.estimator import (
    BlowupEstimate,
    RewritingBlowupWarning,
    estimate_disjunct_bound,
)
from repro.checkers.passes import (
    CHECK,
    CheckConfig,
    CheckContext,
    check_project,
)
from repro.checkers.project import Project, load_project, parse_queries
from repro.checkers.pruning import (
    PruneResult,
    prune_statically_empty,
    supported_relations,
)

__all__ = [
    "BlowupEstimate",
    "CHECK",
    "CheckConfig",
    "CheckContext",
    "Project",
    "PruneResult",
    "RewritingBlowupWarning",
    "check_project",
    "estimate_disjunct_bound",
    "load_project",
    "parse_queries",
    "prune_statically_empty",
    "supported_relations",
]
