"""Oblivious and restricted chase engines.

A *trigger* is a pair (rule, homomorphism from the rule body into the
current instance).  The **oblivious chase** fires every trigger exactly
once; the **restricted chase** fires a trigger only when its head is
not already satisfied by an extension of the trigger homomorphism.
Both invent a fresh labeled null per existential head variable per
firing.  Both, like the Skolem chase, are one per-trigger step over
the shared semi-naive loop :func:`repro.data.saturate.saturate`.

Neither chase terminates on arbitrary TGDs, so both engines take a
step budget and report whether they reached a fixpoint.  With
``strict=True`` they raise :class:`ChaseBudgetExceeded` instead of
returning a truncated instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.chase.nulls import NullFactory
from repro.data.database import Database
from repro.data.evaluation import JoinPlan
from repro.data.saturate import Active, Binding, Fire, add_head, saturate
from repro.lang.atoms import Atom
from repro.lang.errors import ChaseBudgetExceeded
from repro.lang.tgd import TGD

DEFAULT_MAX_STEPS = 100_000


@dataclass(frozen=True)
class ChaseResult:
    """Outcome of a chase run.

    Attributes:
        instance: the chased database (contains the input facts).
        steps: number of trigger firings performed.
        fixpoint: True iff no applicable trigger remained.
        nulls_created: number of labeled nulls invented.
    """

    instance: Database
    steps: int
    fixpoint: bool
    nulls_created: int


def restricted_chase(
    rules: Sequence[TGD],
    database: Database,
    max_steps: int = DEFAULT_MAX_STEPS,
    strict: bool = False,
) -> ChaseResult:
    """Run the restricted (standard) chase up to *max_steps* firings.

    A trigger fires only if the instantiated head cannot already be
    mapped into the instance with the frontier held fixed, so the
    result is generally much smaller than the oblivious chase and
    terminates in strictly more cases.
    """
    instance = database.copy()
    nulls = NullFactory()

    def active(_: int, rule: TGD, hom: Binding) -> bool:
        return not _head_satisfied(rule, hom, instance)

    return _chase(
        "restricted", rules, instance, _null_firing(instance, nulls),
        active, lambda: nulls.created, max_steps, strict,
    )


def oblivious_chase(
    rules: Sequence[TGD],
    database: Database,
    max_steps: int = DEFAULT_MAX_STEPS,
    strict: bool = False,
) -> ChaseResult:
    """Run the oblivious chase: every trigger fires exactly once."""
    instance = database.copy()
    nulls = NullFactory()
    return _chase(
        "oblivious", rules, instance, _null_firing(instance, nulls),
        None, lambda: nulls.created, max_steps, strict,
    )


def _chase(
    mode: str,
    rules: Sequence[TGD],
    instance: Database,
    fire: Fire,
    active: Active | None,
    nulls_created: Callable[[], int],
    max_steps: int,
    strict: bool,
) -> ChaseResult:
    """Saturate *instance* in place and report the run as a chase.

    Shared by the three chase variants, which differ only in their
    per-trigger *fire* and *active* steps; emits the ``chase`` span
    and the ``chase.*`` counters.
    """
    with obs.span(
        "chase", mode=mode, rules=len(rules), facts=len(instance)
    ) as span:
        run = saturate(
            rules, instance, fire, active=active, max_steps=max_steps
        )
        nulls = nulls_created()
        span.set(
            fixpoint=run.fixpoint, steps=run.steps, rounds=run.rounds,
            size=len(instance), nulls=nulls,
        )
        obs.count("chase.rounds", run.rounds)
        obs.count("chase.firings", run.steps)
        obs.count("chase.nulls_created", nulls)
        obs.count("chase.triggers_checked", run.triggers)
        obs.count("chase.triggers_suppressed", run.suppressed)
        if strict and not run.fixpoint:
            raise ChaseBudgetExceeded(
                f"{mode} chase exceeded {max_steps} steps"
            )
    return ChaseResult(instance, run.steps, run.fixpoint, nulls)


def _head_satisfied(rule: TGD, hom: Binding, instance: Database) -> bool:
    """True iff the head maps into *instance* with the frontier bound as
    in *hom*."""
    frontier = rule.distinguished_variables()
    plan = JoinPlan(rule.head, instance, frontier)
    slots = plan.slots([hom[v] for v in frontier])
    return next(plan.run(instance, slots), None) is not None


def _null_firing(instance: Database, nulls: NullFactory) -> Fire:
    """The chase step: add the head, inventing a null per ∃-variable."""

    def fire(_: int, rule: TGD, hom: Binding) -> list[Atom]:
        assignment = dict(hom)
        for var in rule.existential_head_variables():
            assignment[var] = nulls.fresh()
        return add_head(instance, rule, assignment)

    return fire


def chase_closure(
    rules: Iterable[TGD],
    facts: Iterable[Atom],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Database:
    """Convenience: restricted-chase a fact list and return the instance.

    Raises :class:`ChaseBudgetExceeded` if no fixpoint is reached.
    """
    result = restricted_chase(
        list(rules), Database(facts), max_steps=max_steps, strict=True
    )
    return result.instance
