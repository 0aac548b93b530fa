"""Incrementally maintained materialized chase core.

A :class:`MaterializedCore` owns the restricted-chase closure of a
chase-safe rule set (the separable core from
:mod:`repro.analysis.separability`) over a base ABox, together with
the provenance that DRed (delete and re-derive) reads to maintain that
closure under base-fact inserts and deletes without re-chasing from
scratch:

* every live trigger firing is a :class:`Firing` -- the instantiated
  body facts it consumed and the head facts it produced -- keyed by a
  running id;
* each derived fact maps to the one firing that supports it: a firing
  supports only the head facts it added, so a fact present in the
  instance has at most one support;
* each fact maps to the ids of the live firings *using* it in a body,
  so a deletion finds the derivations it invalidates.

A firing dies, and leaves every map, as soon as one of its body facts
leaves the instance; a fact's entries go with the fact.  Provenance is
thus bounded by the instance: a run of inserts and deletes that brings
the base back brings the provenance back to the same size.

The build, insert propagation and the forward half of re-derivation
all run on the shared semi-naive loop :func:`repro.data.saturate.saturate`,
with :meth:`MaterializedCore._record_firing` as the per-trigger step and
the restricted head-satisfaction check deciding which triggers fire.

**Inserts** propagate semi-naively: only triggers whose body touches a
delta fact are enumerated, and the restricted head-satisfaction check
suppresses everything already entailed.  **Deletes** follow DRed:
over-delete every fact whose support drains, then re-derive goal-
directedly -- only the triggers whose head could have mapped onto an
over-deleted fact are re-checked (the backward step), and what they add
propagates semi-naively (the forward step); see
:meth:`MaterializedCore._rederive`.

Every delta, whatever its size, takes this one incremental path, and
every operation returns the exact change to the instance.  A full
re-chase pays off only for a batch that replaces most of the base: on
``university_data(2000, 1)`` (a 957 ms build; 2-vCPU Intel Xeon,
single runs) one batch deleting 50%, 70% or 90% of the base took 448,
378 and 364 ms incrementally against 571, 451 and 274 ms for the old
re-chase fallback, and re-inserting the 90% took 1,094 ms against
872 ms.  No delta costs much more than one build, and no caller sends
the batches the fallback won.

An operation that raises (:class:`~repro.lang.errors.ChaseBudgetExceeded`)
leaves the base updated and the instance part-way maintained; the
caller drops the core (see ``Session._mutate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro import obs
from repro.chase.chase import DEFAULT_MAX_STEPS, _head_satisfied
from repro.chase.nulls import NullFactory
from repro.data.database import Database
from repro.data.evaluation import Binding, JoinPlan, all_homomorphisms
from repro.data.saturate import Fire, Saturation, instantiate, saturate
from repro.lang.atoms import Atom
from repro.lang.errors import ChaseBudgetExceeded
from repro.lang.terms import Term, Variable
from repro.lang.tgd import TGD


@dataclass(slots=True)
class Firing:
    """One live trigger firing of the provenance chase.

    ``produced`` is the whole instantiated head; the firing supports
    only those of its facts that it added to the instance.
    """

    rule_index: int
    body_facts: tuple[Atom, ...]
    produced: tuple[Atom, ...]


@dataclass(frozen=True)
class MaintenanceResult:
    """Outcome of one insert/delete maintenance operation.

    ``added`` and ``removed`` are always the exact change to the
    instance, so a caller keeping a copy of it (the session's SQL
    mirror) applies them and is up to date.

    Attributes:
        added: facts newly present in the instance.
        removed: facts no longer in the instance.
        rounds: semi-naive propagation rounds performed.
        firings: trigger firings performed by this operation.
    """

    added: tuple[Atom, ...]
    removed: tuple[Atom, ...]
    rounds: int = 0
    firings: int = 0


class MaterializedCore:
    """The chase closure of a rule set, maintained under ABox deltas."""

    def __init__(
        self,
        rules: Sequence[TGD],
        base: Database | Iterable[Atom],
        *,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> None:
        """Chase *base* (copied) from scratch, recording provenance."""
        self.rules: tuple[TGD, ...] = tuple(rules)
        self.max_steps = max_steps
        self.base: Database = (
            base.copy() if isinstance(base, Database) else Database(base)
        )
        self._reset(self.base.copy(), nulls_issued=0)
        with obs.span(
            "hybrid.rebuild", rules=len(self.rules), facts=len(self.base)
        ):
            run = self._chase(self.rules, self._record_firing)
        obs.count("hybrid.rebuild_rounds", run.rounds)
        obs.count("hybrid.rebuild_firings", run.steps)

    @classmethod
    def restore(
        cls,
        rules: Sequence[TGD],
        base: Database,
        instance: Database,
        *,
        max_steps: int,
        nulls_issued: int,
    ) -> "MaterializedCore":
        """A core over *instance*, already the closure of *base*.

        No chase runs.  Provenance starts empty: the caller
        (:func:`repro.hybrid.store.decode_core`) records the firings
        with :meth:`restore_firing`.  New nulls are labelled past the
        *nulls_issued* the snapshotted core had handed out.
        """
        core = cls.__new__(cls)
        core.rules = tuple(rules)
        core.max_steps = max_steps
        core.base = base
        core._reset(instance, nulls_issued)
        return core

    def _reset(self, instance: Database, nulls_issued: int) -> None:
        """Adopt *instance* with empty provenance."""
        self.instance = instance
        self._nulls = NullFactory(created=nulls_issued)
        self._firings: dict[int, Firing] = {}
        self._next_id = 0
        self._supports: dict[Atom, int] = {}
        self._uses: dict[Atom, list[int]] = {}

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self.instance)

    @property
    def derived_count(self) -> int:
        """Facts in the instance beyond the base ABox."""
        return len(self.instance) - len(self.base)

    @property
    def nulls_issued(self) -> int:
        """Labelled nulls this core has handed out, snapshots included."""
        return self._nulls.created

    def firing_count(self) -> int:
        """Live firings: those whose body facts are all present."""
        return len(self._firings)

    def live_firings(self) -> Iterator[tuple[Firing, tuple[Atom, ...]]]:
        """Each live firing with the head facts it supports."""
        for firing_id, firing in self._firings.items():
            yield firing, tuple(
                fact
                for fact in firing.produced
                if self._supports.get(fact) == firing_id
            )

    def restore_firing(self, firing: Firing, supported: Iterable[Atom]) -> None:
        """Record a live firing read back from a snapshot.

        Raises ValueError when its rule index names no rule.
        """
        if not 0 <= firing.rule_index < len(self.rules):
            raise ValueError(f"no rule at index {firing.rule_index}")
        self._add_firing(firing, supported)

    # -- chase ---------------------------------------------------------

    def _chase(
        self,
        rules: Sequence[TGD],
        fire: Fire,
        delta: Sequence[Atom] | None = None,
        max_steps: int | None = None,
    ) -> Saturation:
        """Restricted chase of *rules* over the instance, with provenance."""
        run = saturate(
            rules,
            self.instance,
            fire,
            active=lambda _, rule, hom: not _head_satisfied(
                rule, hom, self.instance
            ),
            delta=delta,
            max_steps=self.max_steps if max_steps is None else max_steps,
        )
        if not run.fixpoint:
            raise self._over_budget()
        return run

    def _over_budget(self) -> ChaseBudgetExceeded:
        return ChaseBudgetExceeded(
            f"materialized core exceeded {self.max_steps} steps"
        )

    # -- firing with provenance ----------------------------------------

    def _record_firing(
        self, rule_index: int, rule: TGD, hom: Binding
    ) -> list[Atom]:
        """Fire one trigger, recording body/head provenance.

        Returns the facts genuinely added to the instance.
        """
        assignment: dict[Variable, Term] = dict(hom)
        for var in rule.existential_head_variables():
            assignment[var] = self._nulls.fresh()
        firing = Firing(
            rule_index,
            tuple(instantiate(atom, assignment) for atom in rule.body),
            tuple(instantiate(atom, assignment) for atom in rule.head),
        )
        # Support only facts this firing actually created: support
        # edges then always point from older facts to a strictly
        # newer one, so the live-firing graph stays acyclic and
        # facts can never keep each other alive after their real
        # derivation is retracted.  A pre-existing head atom that
        # loses its own support is over-deleted and re-derived.
        added = [fact for fact in firing.produced if self.instance.add(fact)]
        self._add_firing(firing, added)
        return added

    def _add_firing(self, firing: Firing, supported: Iterable[Atom]) -> None:
        firing_id = self._next_id
        self._next_id += 1
        self._firings[firing_id] = firing
        for fact in firing.body_facts:
            users = self._uses.setdefault(fact, [])
            # A fact the body holds twice lists the firing once.
            if not users or users[-1] != firing_id:
                users.append(firing_id)
        for fact in supported:
            self._supports[fact] = firing_id

    def _kill(self, firing_id: int, unsupported: list[Atom]) -> None:
        """Forget a firing whose body lost a fact; append the non-base
        facts it supported to *unsupported*."""
        firing = self._firings.pop(firing_id)
        for fact in firing.body_facts:
            users = self._uses.get(fact)
            if users is not None and firing_id in users:
                users.remove(firing_id)
                if not users:
                    del self._uses[fact]
        for fact in firing.produced:
            if self._supports.get(fact) == firing_id:
                del self._supports[fact]
                if fact not in self.base:
                    unsupported.append(fact)

    # -- inserts (semi-naive) ------------------------------------------

    def apply_insert(self, facts: Iterable[Atom]) -> MaintenanceResult:
        """Add base facts and propagate their consequences."""
        requested = [fact for fact in facts if fact not in self.base]
        for fact in requested:
            self.base.add(fact)
        delta = [fact for fact in requested if self.instance.add(fact)]
        with obs.span("hybrid.insert", delta=len(delta)):
            run = self._chase(self.rules, self._record_firing, delta=delta)
        obs.count("hybrid.delta_applied")
        obs.count("hybrid.delta_facts", len(delta))
        return MaintenanceResult(
            added=tuple(delta) + tuple(run.added),
            removed=(),
            rounds=run.rounds,
            firings=run.steps,
        )

    # -- deletes (DRed) ------------------------------------------------

    def apply_delete(self, facts: Iterable[Atom]) -> MaintenanceResult:
        """Remove base facts and retract unsupported consequences."""
        requested = [fact for fact in facts if self.base.discard(fact)]
        with obs.span("hybrid.delete", delta=len(requested)) as span:
            removed = self._over_delete(requested)
            added, rounds, firings = self._rederive(removed)
            span.set(removed=len(removed), rederived=len(added))
        obs.count("hybrid.delta_applied")
        obs.count("hybrid.delta_facts", len(requested))
        still_removed = tuple(
            fact for fact in removed if fact not in self.instance
        )
        return MaintenanceResult(
            added=tuple(added),
            removed=still_removed,
            rounds=rounds,
            firings=firings,
        )

    def _over_delete(self, requested: Sequence[Atom]) -> list[Atom]:
        """DRed overestimate: drain supports transitively.

        Every firing using a retracted fact dies, and the facts it
        supported follow unless they are base.  Returns the facts
        actually retracted from the instance.
        """
        removed: list[Atom] = []
        worklist = [
            fact for fact in requested if not self._supported(fact)
        ]
        while worklist:
            fact = worklist.pop()
            if not self.instance.discard(fact):
                continue
            removed.append(fact)
            for firing_id in self._uses.pop(fact, ()):
                self._kill(firing_id, worklist)
        return removed

    def _supported(self, fact: Atom) -> bool:
        """A fact stays iff it is base or some live firing supports it."""
        return fact in self.base or fact in self._supports

    def _rederive(
        self, removed: Sequence[Atom]
    ) -> tuple[list[Atom], int, int]:
        """Re-fire the triggers the over-delete left active, then
        propagate what they add.

        Before the delete the instance was a restricted-chase fixpoint,
        and the over-delete only shrank it, so every trigger over what
        is left was a trigger before.  One that is active now had its
        head satisfied then and has lost every head image it had; one of
        those images held an over-deleted fact.  The *backward* step
        therefore finds all of them from the removed facts alone (see
        :meth:`_candidates`) and fires each that is still active when
        its turn comes.  The *forward* step runs the semi-naive loop
        with what they added as its delta, exactly like an insert.
        Backward and forward firings share the operation's
        ``max_steps``.
        """
        candidates = self._candidates(removed)
        obs.count("hybrid.rederive.triggers", len(candidates))
        added: list[Atom] = []
        steps = 0
        for rule_index, hom in candidates:
            rule = self.rules[rule_index]
            if _head_satisfied(rule, hom, self.instance):
                continue
            if steps == self.max_steps:
                raise self._over_budget()
            steps += 1
            added.extend(self._record_firing(rule_index, rule, hom))
        forward = self._chase(
            self.rules,
            self._record_firing,
            delta=added,
            max_steps=self.max_steps - steps,
        )
        return (
            added + forward.added,
            (1 if candidates else 0) + forward.rounds,
            steps + forward.steps,
        )

    def _candidates(
        self, removed: Sequence[Atom]
    ) -> list[tuple[int, Binding]]:
        """The triggers whose head could have mapped onto a removed fact.

        For each head atom of the removed fact's relation, the atom's
        frontier variables are bound to the fact's terms at their places
        (a null binds like a constant), a constant or repeated-variable
        clash rejects the fact, and existential places stay unbound; the
        body homomorphisms under that binding come from one join plan
        per head atom with those variables pre-bound.  Each trigger is
        listed once, as (rule index, body homomorphism).
        """
        by_relation: dict[str, list[Atom]] = {}
        for fact in removed:
            by_relation.setdefault(fact.relation, []).append(fact)
        seen: set[tuple[int, tuple[Term, ...]]] = set()
        candidates: list[tuple[int, Binding]] = []
        for rule_index, rule in enumerate(self.rules):
            frontier = rule.distinguished_variables()
            for atom in rule.head:
                facts = by_relation.get(atom.relation)
                if not facts:
                    continue
                bound = [var for var in frontier if var in atom.terms]
                plan = JoinPlan(rule.body, self.instance, bound)
                body = plan.reader(rule.body_variables())
                for fact in facts:
                    values = _match(atom, fact)
                    if values is None:
                        continue
                    slots = plan.slots([values[var] for var in bound])
                    for _ in plan.run(self.instance, slots):
                        key = (rule_index, body(slots))
                        if key not in seen:
                            seen.add(key)
                            candidates.append(
                                (rule_index, plan.binding(slots))
                            )
        return candidates

    # -- shared --------------------------------------------------------

    def check_consistency(self) -> list[str]:
        """Debug invariant check; returns human-readable violations."""
        problems: list[str] = []
        for fact in self.instance.facts():
            if not self._supported(fact):
                problems.append(f"unsupported instance fact: {fact}")
        for fact in self._supports.keys() | self._uses.keys():
            if fact not in self.instance:
                problems.append(f"provenance entry for absent fact: {fact}")
        ids = set(self._supports.values()).union(*self._uses.values())
        for firing_id in ids - self._firings.keys():
            problems.append(f"provenance names dead firing {firing_id}")
        for firing_id, firing in self._firings.items():
            for fact in firing.body_facts:
                if firing_id not in self._uses.get(fact, ()):
                    problems.append(f"firing {firing_id} outlived {fact}")
        # With every fact supported, a model of the rules is a universal
        # one; the null-free comparison below cannot see a missing fact
        # with a null.
        for rule in self.rules:
            for hom in all_homomorphisms(rule.body, self.instance):
                if not _head_satisfied(rule, hom, self.instance):
                    problems.append(f"active trigger of {rule}: {hom}")
        reference = self.rechase_reference()
        if _certain_shape(reference) != _certain_shape(self.instance):
            problems.append("instance differs from re-chase reference")
        return problems

    def rechase_reference(self) -> Database:
        """A from-scratch chase of the current base, for differential tests."""
        from repro.chase.chase import restricted_chase

        return restricted_chase(
            self.rules, self.base, max_steps=self.max_steps, strict=True
        ).instance


def _match(atom: Atom, fact: Atom) -> Binding | None:
    """The values *fact* gives *atom*'s variables, or None when a
    constant or a repeated variable of *atom* clashes with *fact*."""
    if len(atom.terms) != len(fact.terms):
        return None
    values: Binding = {}
    for term, value in zip(atom.terms, fact.terms):
        if isinstance(term, Variable):
            if values.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return values


def _certain_shape(database: Database) -> set[Atom]:
    """Null-free projection: the part of an instance visible to certain answers."""
    from repro.lang.terms import Null

    return {
        fact
        for fact in database.facts()
        if not any(isinstance(term, Null) for term in fact.terms)
    }
