"""The Section-7 decision procedure, operationalised.

Given an arbitrary TGD set, Section 7 distinguishes three situations:
(i) the set is WR -- use FO rewriting; (ii) membership cannot be
established; (iii) the set is not WR -- fall back to approximation.
:func:`answer_with_best_strategy` implements the full decision tree on
a *per-query* basis, exploiting every tool in the library:

1. **REWRITING** -- the query-relevant fragment is SWR or WR
   (:mod:`repro.core.per_query`): rewriting is guaranteed to terminate
   and the answers are exact, with AC0 data complexity.
2. **PROBED_REWRITING** -- the fragment's class is unknown but the
   staged probe (:mod:`repro.rewriting.probe`) observed the rewriting
   completing: exact answers, same evaluation path.
3. **CHASE** -- rewriting unavailable, but some member of the
   termination lattice (weak, joint or super-weak acyclicity,
   :mod:`repro.analysis.termination`) certifies the chase terminates:
   certain answers are exact (at data-dependent cost).
4. **SPLIT** -- the chase diverges, but the fragment separates
   (:mod:`repro.analysis.separability`) into a chase-safe stratified
   core ``S`` and a residual ``R`` whose rewriting of the query
   terminates: by stratification ``cert(q, S ∪ R, D) =
   cert(q, R, chase_S(D))``, so the core is chased once and only the
   residual is compiled into the query.  The tree takes SPLIT whenever
   it is feasible; the hybrid cost model (:mod:`repro.hybrid.cost`)
   prices it only where a :class:`repro.api.Session` acts on it.
5. **APPROXIMATION** -- everything else: depth-bounded rewriting gives
   a sound under-approximation (:mod:`repro.rewriting.approx`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.separability import SeparabilityReport, separate
from repro.analysis.termination import (
    TerminationCertificate,
    termination_certificate,
)
from repro.chase.certain import certain_answers_via_chase
from repro.chase.chase import restricted_chase
from repro.core.per_query import classify_for_query
from repro.data.database import Database
from repro.data.evaluation import evaluate_ucq
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.terms import Term
from repro.lang.tgd import TGD
from repro.rewriting.approx import approximate_answers
from repro.rewriting.probe import ProbeVerdict, probe_query_rewritability
from repro.rewriting.rewriter import rewrite


class Strategy(enum.Enum):
    """The answering strategy selected by the decision procedure."""

    REWRITING = "rewriting"
    PROBED_REWRITING = "probed-rewriting"
    CHASE = "chase"
    SPLIT = "split"
    APPROXIMATION = "approximation"


@dataclass(frozen=True)
class StrategyReport:
    """Answers plus how (and how reliably) they were obtained.

    Attributes:
        answers: the computed answer set.
        strategy: which branch of the decision tree ran.
        exact: True when *answers* are exactly the certain answers;
            False for the sound APPROXIMATION under-approximation.
        reason: one-line human-readable justification.
        certificate: the fragment's termination-lattice certificate,
            when the procedure got far enough to compute it.
        partition: the separability partition, when SPLIT was
            considered (CHASE and earlier branches never need one).
    """

    answers: frozenset[tuple[Term, ...]]
    strategy: Strategy
    exact: bool
    reason: str
    certificate: TerminationCertificate | None = None
    partition: SeparabilityReport | None = None


def answer_with_best_strategy(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries,
    rules: Sequence[TGD],
    database: Database,
    probe_depth: int = 10,
    approx_depth: int = 8,
    chase_max_steps: int = 200_000,
) -> StrategyReport:
    """Run the per-query Section-7 decision tree and answer *query*."""
    rules = tuple(rules)
    report = classify_for_query(query, rules)
    fragment = report.relevant

    if report.fo_rewritable_guaranteed:
        result = rewrite(query, fragment)
        which = "SWR" if report.swr.is_swr else "WR"
        return StrategyReport(
            answers=evaluate_ucq(result.ucq, database),
            strategy=Strategy.REWRITING,
            exact=True,
            reason=f"query-relevant fragment is {which}: "
            "FO rewriting terminates and is exact",
        )

    probe = probe_query_rewritability(query, fragment, max_depth=probe_depth)
    if probe.verdict is ProbeVerdict.TERMINATES:
        return StrategyReport(
            answers=evaluate_ucq(probe.rewriting, database),
            strategy=Strategy.PROBED_REWRITING,
            exact=True,
            reason="class membership unknown, but the staged rewriting "
            "completed: exact per-query rewriting",
        )

    certificate = termination_certificate(fragment)
    if certificate.terminating:
        level = certificate.level
        assert level is not None
        chase_result = certain_answers_via_chase(
            query, fragment, database, max_steps=chase_max_steps
        )
        return StrategyReport(
            answers=chase_result.answers,
            strategy=Strategy.CHASE,
            exact=True,
            reason=f"not (provably) FO-rewritable, but {level.value}: "
            "the chase terminates, certain answers are exact",
            certificate=certificate,
        )

    partition = separate(fragment, certificate=certificate)
    if partition.proper:
        split = _answer_by_split(
            query, partition, database, probe_depth, chase_max_steps
        )
        if split is not None:
            answers, how = split
            core_level = partition.core_certificate.level
            assert core_level is not None
            return StrategyReport(
                answers=answers,
                strategy=Strategy.SPLIT,
                exact=True,
                reason=f"separable: chased the {len(partition.core)}-rule "
                f"core once ({core_level.value}) and rewrote the "
                f"{len(partition.residual)}-rule residual ({how})",
                certificate=certificate,
                partition=partition,
            )

    approx = approximate_answers(
        query, fragment, database, max_depth=approx_depth
    )
    return StrategyReport(
        answers=approx.answers,
        strategy=Strategy.APPROXIMATION,
        exact=approx.exact,
        reason="outside every terminating regime: depth-bounded "
        "rewriting returns a sound under-approximation",
        certificate=certificate,
        partition=partition,
    )


def _answer_by_split(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries,
    partition: SeparabilityReport,
    database: Database,
    probe_depth: int,
    chase_max_steps: int,
) -> tuple[frozenset[tuple[Term, ...]], str] | None:
    """Chase the core once, rewrite over the residual; None if unusable.

    Soundness rests on the stratification invariant of
    :func:`repro.analysis.separability.separate`: no core rule reads a
    residual-derived relation, so ``chase(S ∪ R, D)`` factorises into
    ``chase_R(chase_S(D))`` and the residual consequences can be
    compiled into the query by FO rewriting, evaluated with the
    certain-answer filter over the materialised core.
    """
    residual = partition.residual
    residual_report = classify_for_query(query, residual)
    if residual_report.fo_rewritable_guaranteed:
        ucq = rewrite(query, residual_report.relevant).ucq
        how = "guaranteed FO-rewritable"
    else:
        probe = probe_query_rewritability(
            query, residual, max_depth=probe_depth
        )
        if probe.verdict is not ProbeVerdict.TERMINATES:
            return None
        ucq = probe.rewriting
        how = "probe-terminating"
    chased = restricted_chase(
        list(partition.core), database, max_steps=chase_max_steps
    )
    if not chased.fixpoint:
        return None
    return evaluate_ucq(ucq, chased.instance, certain=True), how
