"""Semi-naive bottom-up evaluation of (plain) Datalog programs.

The paper's introduction contrasts TGDs with classical Datalog, which
lacks value invention but enjoys terminating bottom-up evaluation.
This module provides that substrate: a semi-naive fixpoint engine for
*full* TGDs (no existential head variables), used by the
materialisation-vs-rewriting comparison benches and available as a
standalone component.

Evaluation runs on the shared semi-naive loop of
:mod:`repro.data.saturate`: after a naive first pass, every rule is
evaluated once per body atom with that atom restricted to the *delta*
(facts new since the rule's previous pass) and the remaining atoms
over the full instance.  A Datalog firing just adds the instantiated
head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.data.database import Database
from repro.data.saturate import add_head, saturate
from repro.lang.errors import SafetyError
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.terms import Term
from repro.lang.tgd import TGD


@dataclass(frozen=True)
class MaterializationResult:
    """Outcome of a Datalog materialisation.

    Attributes:
        instance: the least fixpoint (contains the input facts).
        rounds: number of semi-naive rounds until saturation.
        derived: number of facts added beyond the input.
    """

    instance: Database
    rounds: int
    derived: int


class DatalogProgram:
    """A set of full TGDs evaluated bottom-up to a least fixpoint."""

    def __init__(self, rules: Sequence[TGD]):
        rules = tuple(rules)
        for rule in rules:
            if rule.existential_head_variables():
                raise SafetyError(
                    f"rule {rule.label or rule} has existential head "
                    "variables; Datalog evaluation requires full TGDs"
                )
        self._rules = rules

    @property
    def rules(self) -> tuple[TGD, ...]:
        """The program's rules."""
        return self._rules

    def materialize(self, database: Database) -> MaterializationResult:
        """Compute the least fixpoint of the program over *database*."""
        with obs.span("datalog.materialize", rules=len(self._rules)) as span:
            instance = database.copy()
            run = saturate(
                self._rules,
                instance,
                lambda _, rule, hom: add_head(instance, rule, hom),
            )
            span.set(rounds=run.rounds, derived=len(run.added))
        return MaterializationResult(
            instance=instance, rounds=run.rounds, derived=len(run.added)
        )

    def answer(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        database: Database,
    ) -> frozenset[tuple[Term, ...]]:
        """Materialise and evaluate *query* over the fixpoint."""
        from repro.data.evaluation import evaluate_ucq

        result = self.materialize(database)
        return evaluate_ucq(
            UnionOfConjunctiveQueries.of(query), result.instance
        )


def datalog_fragment(rules: Sequence[TGD]) -> tuple[TGD, ...]:
    """The full (existential-free) rules of a TGD set."""
    return tuple(r for r in rules if not r.existential_head_variables())
