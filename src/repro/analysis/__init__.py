"""Whole-ruleset constraint-interaction analysis.

This package answers two static questions about a TGD set as a whole,
feeding both the ``repro check`` diagnostics (RL2xx) and the hybrid
planner of :class:`repro.api.Session` (Section 7's chase and SPLIT
plans):

* **Where does the set sit in the chase-termination lattice?**
  :mod:`repro.analysis.termination` checks weak acyclicity ⊊ joint
  acyclicity ⊊ super-weak acyclicity over a shared position dependency
  graph (:mod:`repro.analysis.depgraph`, cached per ontology digest)
  and returns a :class:`TerminationCertificate` whose witnesses carry
  per-edge rule provenance.
* **If the chase diverges, which part of the set is still safe?**
  :mod:`repro.analysis.separability` partitions the rules into a
  chase-safe stratified core and a rewriting residual, with static
  cost estimates per side.

:func:`analyze` bundles both; :meth:`repro.api.Session.analyze` is the
session-level entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.depgraph import (
    SPECIAL,
    DependencyGraph,
    clear_graph_cache,
    dependency_graph,
    derivers,
    graph_cache_size,
    rule_name,
    rules_by_name,
)
from repro.analysis.separability import SeparabilityReport, separate
from repro.analysis.termination import (
    LATTICE,
    CriterionVerdict,
    TerminationCertificate,
    TerminationCriterion,
    clear_certificate_cache,
    joint_dependency_graph,
    termination_certificate,
    trigger_graph,
)
from repro.lang.queries import ConjunctiveQuery
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget


@dataclass(frozen=True)
class AnalysisReport:
    """The combined constraint-interaction analysis of one rule set."""

    certificate: TerminationCertificate
    separability: SeparabilityReport

    @property
    def terminating(self) -> bool:
        return self.certificate.terminating

    @property
    def level(self) -> TerminationCriterion | None:
        return self.certificate.level

    def to_dict(self) -> dict[str, object]:
        return {
            "termination": self.certificate.to_dict(),
            "separability": self.separability.to_dict(),
        }


def analyze(
    rules: Sequence[TGD],
    queries: Sequence[ConjunctiveQuery] = (),
    budget: RewritingBudget | None = None,
    default_depth: int = 10,
) -> AnalysisReport:
    """Run the full constraint-interaction analysis over *rules*."""
    certificate = termination_certificate(rules)
    separability = separate(
        rules,
        queries=queries,
        budget=budget,
        default_depth=default_depth,
        certificate=certificate,
    )
    return AnalysisReport(certificate=certificate, separability=separability)


__all__ = [
    "AnalysisReport",
    "CriterionVerdict",
    "DependencyGraph",
    "LATTICE",
    "SPECIAL",
    "SeparabilityReport",
    "TerminationCertificate",
    "TerminationCriterion",
    "analyze",
    "clear_certificate_cache",
    "clear_graph_cache",
    "dependency_graph",
    "derivers",
    "graph_cache_size",
    "joint_dependency_graph",
    "rule_name",
    "rules_by_name",
    "separate",
    "termination_certificate",
    "trigger_graph",
]
