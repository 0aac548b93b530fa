"""One semi-naive saturation loop for the chase and for Datalog.

The restricted, oblivious and Skolem chases, bottom-up Datalog and the
materialized core all fire *triggers* -- a rule with a homomorphism of
its body into the instance -- until none is left.  :func:`saturate`
owns that loop, the step budget and the counts; a caller supplies what
firing one trigger does and, for the restricted policies, which
triggers are active.

Each rule keeps a watermark into the log of facts added during the run
(a *delta* given by the caller starts the log).  A rule's first pass
over an instance without delta is naive; every later pass anchors each
body atom in turn at the facts logged past the watermark and joins the
rest of the body over the instance.  A rule lists its triggers before it
fires any and moves its watermark to the log's end at that moment, so
every trigger is enumerated exactly once per run -- even when its
newest fact was added earlier in the same round.  A round is one pass
over the rules; the run ends after a round with nothing to anchor at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.data.database import Database
from repro.data.evaluation import Binding, JoinPlan, all_homomorphisms
from repro.lang.atoms import Atom
from repro.lang.terms import Term, Variable
from repro.lang.tgd import TGD

#: ``fire(rule_index, rule, hom)`` applies one trigger to the instance
#: and returns the facts it added.
Fire = Callable[[int, TGD, Binding], Sequence[Atom]]

#: ``active(rule_index, rule, hom)`` is False for a trigger that must
#: not fire (the restricted chase's satisfied heads).
Active = Callable[[int, TGD, Binding], bool]

#: The rows of each relation added during a run, in order.
Log = dict[str, list[tuple[Term, ...]]]


@dataclass(frozen=True)
class Saturation:
    """Outcome of one :func:`saturate` run.

    Attributes:
        added: facts the firings added to the instance, in order.
        steps: triggers fired.
        rounds: passes over the rules that enumerated something.
        fixpoint: False iff an active trigger was left when the step
            budget ran out.
        triggers: triggers enumerated.
        suppressed: enumerated triggers that were not active.
    """

    added: list[Atom]
    steps: int
    rounds: int
    fixpoint: bool
    triggers: int
    suppressed: int


def saturate(
    rules: Sequence[TGD],
    instance: Database,
    fire: Fire,
    *,
    active: Active | None = None,
    delta: Iterable[Atom] | None = None,
    max_steps: int | None = None,
) -> Saturation:
    """Fire the triggers of *rules* over *instance* until none is left.

    Every enumerated trigger for which *active* holds (all of them when
    *active* is None) goes to *fire*, which updates *instance* in place.
    With *delta* -- facts already in *instance* whose consequences are
    missing -- only triggers using a delta fact or a later one are
    enumerated.  At most *max_steps* triggers fire: the first active
    trigger beyond the budget ends the run with ``fixpoint=False``.
    """
    added: list[Atom] = []
    log: Log = {}
    for fact in delta or ():
        log.setdefault(fact.relation, []).append(fact.terms)
    naive = delta is None and len(instance) > 0
    marks: list[dict[str, int] | None] = [None if naive else {} for _ in rules]
    steps = rounds = triggers = suppressed = 0
    while True:
        enumerated = False
        for rule_index, rule in enumerate(rules):
            mark = marks[rule_index]
            homs = (
                list(all_homomorphisms(rule.body, instance))
                if mark is None
                else _new_homomorphisms(rule, instance, log, mark)
            )
            if homs is None:
                continue
            marks[rule_index] = {
                atom.relation: len(log.get(atom.relation, ()))
                for atom in rule.body
            }
            enumerated = True
            triggers += len(homs)
            for hom in homs:
                if active is not None and not active(rule_index, rule, hom):
                    suppressed += 1
                    continue
                if steps == max_steps:
                    return Saturation(
                        added, steps, rounds + 1, False, triggers, suppressed
                    )
                steps += 1
                for fact in fire(rule_index, rule, hom):
                    log.setdefault(fact.relation, []).append(fact.terms)
                    added.append(fact)
        if not enumerated:
            return Saturation(added, steps, rounds, True, triggers, suppressed)
        rounds += 1


def instantiate(atom: Atom, assignment: Binding) -> Atom:
    """*atom* with its variables replaced by their *assignment* values."""
    return Atom(
        atom.relation,
        [assignment[t] if isinstance(t, Variable) else t for t in atom.terms],
    )


def add_head(instance: Database, rule: TGD, assignment: Binding) -> list[Atom]:
    """Add *rule*'s head under *assignment*; return the facts that were new.

    A head fact already stored is recognised by its row, before an
    atom is built for it.
    """
    added: list[Atom] = []
    for atom in rule.head:
        row = tuple(
            [assignment[t] if isinstance(t, Variable) else t for t in atom.terms]
        )
        if not instance.has_row(atom.relation, row):
            fact = Atom(atom.relation, row)
            instance.add(fact)
            added.append(fact)
    return added


def _new_homomorphisms(
    rule: TGD, instance: Database, log: Log, mark: dict[str, int]
) -> list[Binding] | None:
    """Body homomorphisms of *rule* that use a fact logged past *mark*.

    None when no body relation has such facts.  The body compiles once
    per anchored position, that atom reading the new rows.  A
    homomorphism that uses new facts at several body positions is
    reached once per anchored position and kept once.
    """
    anchors = [
        (position, log.get(atom.relation, [])[mark.get(atom.relation, 0):])
        for position, atom in enumerate(rule.body)
    ]
    anchors = [(position, rows) for position, rows in anchors if rows]
    if not anchors:
        return None
    seen: set[tuple[Term, ...]] | None = set() if len(anchors) > 1 else None
    homs: list[Binding] = []
    for position, rows in anchors:
        plan = JoinPlan(rule.body, instance, anchor=position)
        key = plan.reader(rule.body_variables())
        slots = plan.slots()
        for _ in plan.run(instance, slots, rows):
            if seen is not None:
                values = key(slots)
                if values in seen:
                    continue
                seen.add(values)
            homs.append(plan.binding(slots))
    return homs
