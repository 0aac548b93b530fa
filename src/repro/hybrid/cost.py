"""Cost model choosing REWRITE / SPLIT / MATERIALIZE per workload.

The three answering regimes trade query-time work against load-time
work:

* **REWRITE** pays per query: the UCQ rewriting's disjunct count
  (bounded statically by :mod:`repro.checkers.estimator`) multiplies
  every evaluation, but the data is never touched up front.
* **MATERIALIZE** pays once: a terminating chase closes the data under
  *all* rules, after which every query evaluates directly — amortized
  over the expected number of queries served between data changes.
* **SPLIT** materializes only the separable core (the part whose chase
  is certified to terminate) and rewrites the residual, combining a
  small materialization with a much smaller rewriting bound.

Feasibility comes first — MATERIALIZE requires a terminating full
certificate, SPLIT a proper separable partition — and the surviving
candidates are ranked by an explainable estimate over the documented
unit costs of :data:`DEFAULT_UNIT_COSTS`.  One rule overrides the
estimates: a REWRITE with no static disjunct bound never beats a
proper partition's SPLIT.  Two callers use the
:class:`HybridDecision`: :class:`repro.api.Session` acts on it (it
builds the materialized core SPLIT or MATERIALIZE asks for), and
``repro classify --explain`` displays it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro import obs
from repro.analysis.separability import SeparabilityReport
from repro.analysis.termination import TerminationCertificate

#: Disjunct bound treated as "effectively unrewritable" when the
#: estimator reports no bound at all.
UNBOUNDED = 10**18

#: Unit costs, in arbitrary comparable units; the ratios are what
#: matters.
DEFAULT_UNIT_COSTS: Mapping[str, float] = {
    # Evaluating one rewriting disjunct against one unit of data.
    "disjunct_eval": 1.0,
    # One chase trigger check / firing over one unit of data.
    "chase_fact": 4.0,
}


class HybridChoice(enum.Enum):
    """The answering regime picked for one (ontology, workload) pair."""

    REWRITE = "rewrite"
    SPLIT = "split"
    MATERIALIZE = "materialize"


@dataclass(frozen=True)
class HybridDecision:
    """One cost-model decision, with enough detail to explain it.

    Attributes:
        choice: the selected regime.
        reason: one-line human-readable justification.
        forced: True when the mode was user-pinned rather than chosen
            by cost comparison.
        estimates: per-candidate cost estimates (absent candidates
            were infeasible).
        feasible: the candidate regimes that passed feasibility.
        workload_weight: queries the costs were amortized over.
    """

    choice: HybridChoice
    reason: str
    forced: bool = False
    estimates: Mapping[str, float] = field(default_factory=dict)
    feasible: tuple[str, ...] = ()
    workload_weight: int = 1

    def to_dict(self) -> dict[str, object]:
        return {
            "choice": self.choice.value,
            "reason": self.reason,
            "forced": self.forced,
            "estimates": dict(self.estimates),
            "feasible": list(self.feasible),
            "workload_weight": self.workload_weight,
        }

    @staticmethod
    def pinned(choice: HybridChoice, reason: str) -> "HybridDecision":
        """A user-forced decision that skipped the cost comparison."""
        return HybridDecision(
            choice=choice, reason=reason, forced=True,
            feasible=(choice.value,),
        )


def decide(
    *,
    partition: SeparabilityReport,
    certificate: TerminationCertificate | None = None,
    data_size: int = 0,
    relation_sizes: Mapping[str, int] | None = None,
    workload_weight: int = 1,
    mode: str = "auto",
) -> HybridDecision:
    """Pick an answering regime for one (ontology, workload) pair.

    *partition* is the separability report (its ``full_certificate``
    doubles as the termination certificate unless one is passed
    explicitly); *data_size* and *relation_sizes* come from the live
    backend; *workload_weight* is the number of queries expected
    between data changes (amortizes materialization).
    """
    certificate = certificate or partition.full_certificate
    workload_weight = max(1, workload_weight)
    if mode not in ("auto", "rewrite", "split", "materialize"):
        raise ValueError(f"unknown hybrid mode: {mode!r}")
    if mode != "auto":
        choice = HybridChoice(mode)
        decision = _check_pinned(choice, partition, certificate)
        _count(decision)
        return decision

    units = DEFAULT_UNIT_COSTS
    size = max(1, data_size)
    full_bound = _bound(partition.full_bound)
    residual_bound = _bound(partition.residual_bound)

    estimates: dict[str, float] = {}
    feasible: list[str] = []

    # REWRITE: every query pays the full rewriting's disjunct fan-out.
    estimates["rewrite"] = (
        workload_weight * full_bound * units["disjunct_eval"]
    )
    feasible.append("rewrite")

    # MATERIALIZE: one terminating chase over everything, then each
    # query evaluates a single disjunct-free pattern.
    if certificate.terminating:
        estimates["materialize"] = (
            size * units["chase_fact"]
            + workload_weight * units["disjunct_eval"]
        )
        feasible.append("materialize")

    # SPLIT: chase only the core's share of the data, rewrite the
    # residual with its (smaller) disjunct bound.
    if partition.proper:
        core_share = _core_share(partition, relation_sizes, size)
        estimates["split"] = (
            core_share * units["chase_fact"]
            + workload_weight * residual_bound * units["disjunct_eval"]
        )
        feasible.append("split")

    ranked = {name: estimates[name] for name in feasible}
    prefix = ""
    if partition.full_bound is None and partition.proper:
        # An unbounded rewriting may never finish, while a proper
        # partition's SPLIT chases a terminating core and rewrites only
        # the residual: never rank the former above the latter.
        del ranked["rewrite"]
        prefix = "rewrite has no static disjunct bound; "
    best = min(ranked, key=lambda name: (ranked[name], name))
    decision = HybridDecision(
        choice=HybridChoice(best),
        reason=prefix + _explain(best, ranked, workload_weight),
        estimates=estimates,
        feasible=tuple(feasible),
        workload_weight=workload_weight,
    )
    _count(decision)
    return decision


def _check_pinned(
    choice: HybridChoice,
    partition: SeparabilityReport,
    certificate: TerminationCertificate,
) -> HybridDecision:
    """Validate a user-pinned mode against hard feasibility limits."""
    if choice is HybridChoice.MATERIALIZE and not certificate.terminating:
        return HybridDecision(
            choice=HybridChoice.REWRITE,
            reason=(
                "materialize pinned but the chase has no termination "
                "certificate; falling back to rewriting"
            ),
            forced=True,
            feasible=("rewrite",),
        )
    if choice is HybridChoice.SPLIT and not partition.proper:
        fallback = (
            HybridChoice.MATERIALIZE
            if certificate.terminating
            else HybridChoice.REWRITE
        )
        return HybridDecision(
            choice=fallback,
            reason=(
                "split pinned but the partition is not proper "
                f"(core={len(partition.core)}, "
                f"residual={len(partition.residual)}); "
                f"falling back to {fallback.value}"
            ),
            forced=True,
            feasible=(fallback.value,),
        )
    return HybridDecision.pinned(choice, f"mode pinned to {choice.value}")


def _bound(bound: int | None) -> int:
    if bound is None:
        return UNBOUNDED
    return max(1, min(bound, UNBOUNDED))


def _core_share(
    partition: SeparabilityReport,
    relation_sizes: Mapping[str, int] | None,
    size: int,
) -> float:
    """Data volume the core chase actually reads.

    With live relation cardinalities, sum the relations mentioned in
    core-rule bodies; otherwise assume the core sees everything.
    """
    if not relation_sizes:
        return float(size)
    touched = {
        atom.relation
        for rule in partition.core
        for atom in rule.body
    }
    share = sum(relation_sizes.get(name, 0) for name in touched)
    return float(max(1, share))


def _explain(
    best: str, estimates: Mapping[str, float], workload_weight: int
) -> str:
    ranked = sorted(estimates.items(), key=lambda item: (item[1], item[0]))
    shown = ", ".join(f"{name}={cost:.0f}" for name, cost in ranked)
    return (
        f"{best} has the lowest estimated cost over a "
        f"{workload_weight}-query workload ({shown})"
    )


def _count(decision: HybridDecision) -> None:
    obs.count(f"hybrid.decision.{decision.choice.value}")
    obs.event(
        "hybrid.decision",
        choice=decision.choice.value,
        forced=decision.forced,
        reason=decision.reason,
    )
