"""Incrementally maintained materialized chase core.

A :class:`MaterializedCore` owns the restricted-chase closure of a
chase-safe rule set (the separable core from
:mod:`repro.analysis.separability`) over a base ABox, together with
enough *provenance* to maintain that closure under base-fact inserts
and deletes without re-chasing from scratch:

* every trigger firing is recorded as a :class:`Firing` — the
  instantiated body facts it consumed and the head facts it produced;
* each derived fact keeps the set of still-valid firings supporting it
  (a fact with fresh nulls has exactly one producer; null-free heads
  may accumulate several);
* each fact keeps the firings *using* it in a body, so deletions can
  invalidate downstream derivations.

The build, insert propagation and DRed re-derivation all run on the
shared semi-naive loop :func:`repro.data.saturate.saturate`, with
:meth:`MaterializedCore._record_firing` as the per-trigger step and the
restricted head-satisfaction check deciding which triggers fire.

**Inserts** propagate semi-naively: only triggers whose body touches a
delta fact are enumerated, and the restricted head-satisfaction check
suppresses everything already entailed.  **Deletes** follow the DRed
(delete/re-derive) discipline: over-delete every fact whose support
drains, then re-check only the rules whose heads produce an affected
relation — a trigger suppressed before the deletion can only have
become live if its satisfying head image was destroyed, so no other
rule needs re-enumeration.

When a requested delta (or a deletion cascade) exceeds a configurable
fraction of the instance, incremental maintenance is abandoned for a
full re-chase — past that point re-deriving piecemeal costs more than
starting over.  Counters: ``hybrid.delta_applied`` /
``hybrid.full_rechase`` distinguish the two paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro import obs
from repro.chase.chase import DEFAULT_MAX_STEPS, _head_satisfied
from repro.chase.nulls import NullFactory
from repro.data.database import Database
from repro.data.saturate import Fire, Saturation, instantiate, saturate
from repro.lang.atoms import Atom
from repro.lang.errors import ChaseBudgetExceeded
from repro.lang.terms import Term, Variable
from repro.lang.tgd import TGD

#: Minimum absolute delta size below which incremental maintenance is
#: always attempted, regardless of the relative threshold.
MIN_DELTA_FLOOR = 8

#: Default fraction of the instance a delta may reach before the
#: maintainer falls back to a full re-chase.
DEFAULT_THRESHOLD = 0.5


@dataclass
class Firing:
    """One recorded trigger firing of the provenance chase.

    ``valid`` flips to False when any body fact is deleted; the facts
    in ``produced`` then lose this firing from their support set.
    """

    rule_index: int
    body_facts: tuple[Atom, ...]
    produced: tuple[Atom, ...]
    valid: bool = True


@dataclass(frozen=True)
class MaintenanceResult:
    """Outcome of one insert/delete maintenance operation.

    Attributes:
        added: facts newly present in the instance (empty on full
            re-chase — callers should diff or reload wholesale).
        removed: facts no longer in the instance (ditto).
        full_rechase: True iff the delta exceeded the threshold and
            the core was rebuilt from scratch.
        rounds: semi-naive propagation rounds performed.
        firings: trigger firings performed by this operation.
    """

    added: tuple[Atom, ...]
    removed: tuple[Atom, ...]
    full_rechase: bool
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
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.rules: tuple[TGD, ...] = tuple(rules)
        self.max_steps = max_steps
        self.threshold = threshold
        self.base: Database = (
            base.copy() if isinstance(base, Database) else Database(base)
        )
        self._rebuild()

    @classmethod
    def restore(
        cls,
        rules: Sequence[TGD],
        base: Database,
        instance: Database,
        *,
        max_steps: int,
        threshold: float,
    ) -> "MaterializedCore":
        """A core over *instance*, already the closure of *base*.

        No chase runs.  Provenance starts empty: the caller
        (:func:`repro.hybrid.store.decode_core`) records the firings.
        """
        core = cls.__new__(cls)
        core.rules = tuple(rules)
        core.max_steps = max_steps
        core.threshold = threshold
        core.base = base
        core._reset(instance)
        return core

    def _reset(self, instance: Database) -> None:
        """Adopt *instance* with empty provenance."""
        self.instance = instance
        self._nulls = NullFactory()
        self._firings: list[Firing] = []
        self._supports: dict[Atom, set[int]] = {}
        self._uses: dict[Atom, set[int]] = {}

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self.instance)

    @property
    def derived_count(self) -> int:
        """Facts in the instance beyond the base ABox."""
        return len(self.instance) - len(self.base)

    def firing_count(self, *, valid_only: bool = True) -> int:
        if not valid_only:
            return len(self._firings)
        return sum(1 for firing in self._firings if firing.valid)

    # -- full rebuild --------------------------------------------------

    def _rebuild(self) -> None:
        """Chase the base from scratch, resetting all provenance."""
        self._reset(self.base.copy())
        with obs.span(
            "hybrid.rebuild", rules=len(self.rules), facts=len(self.base)
        ):
            run = self._chase(self.rules, self._record_firing)
        obs.count("hybrid.rebuild_rounds", run.rounds)
        obs.count("hybrid.rebuild_firings", run.steps)

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
            raise ChaseBudgetExceeded(
                f"materialized core exceeded {self.max_steps} steps"
            )
        return run

    # -- firing with provenance ----------------------------------------

    def _record_firing(
        self, rule_index: int, rule: TGD, hom: dict[Variable, Term]
    ) -> list[Atom]:
        """Fire one trigger, recording body/head provenance.

        Returns the facts genuinely added to the instance (facts that
        were already present gain an extra support instead).
        """
        assignment: dict[Variable, Term] = dict(hom)
        for var in rule.existential_head_variables():
            assignment[var] = self._nulls.fresh()
        body_facts = tuple(
            instantiate(atom, assignment) for atom in rule.body
        )
        produced = tuple(
            instantiate(atom, assignment) for atom in rule.head
        )
        firing_id = len(self._firings)
        self._firings.append(
            Firing(rule_index=rule_index, body_facts=body_facts,
                   produced=produced)
        )
        for fact in body_facts:
            self._uses.setdefault(fact, set()).add(firing_id)
        added: list[Atom] = []
        for fact in produced:
            # Support only facts this firing actually created: support
            # edges then always point from older facts to a strictly
            # newer one, so the valid-firing graph stays acyclic and
            # facts can never keep each other alive after their real
            # derivation is retracted.  A pre-existing head atom that
            # loses its own support is over-deleted and re-derived.
            if self.instance.add(fact):
                self._supports.setdefault(fact, set()).add(firing_id)
                added.append(fact)
        return added

    # -- inserts (semi-naive) ------------------------------------------

    def apply_insert(self, facts: Iterable[Atom]) -> MaintenanceResult:
        """Add base facts and propagate their consequences."""
        requested = [fact for fact in facts if fact not in self.base]
        for fact in requested:
            self.base.add(fact)
        delta = [fact for fact in requested if self.instance.add(fact)]
        if self._over_threshold(len(delta)):
            self._rebuild()
            obs.count("hybrid.full_rechase")
            return MaintenanceResult((), (), full_rechase=True)
        with obs.span("hybrid.insert", delta=len(delta)):
            run = self._chase(self.rules, self._record_firing, delta=delta)
        obs.count("hybrid.delta_applied")
        obs.count("hybrid.delta_facts", len(delta))
        return MaintenanceResult(
            added=tuple(delta) + tuple(run.added),
            removed=(),
            full_rechase=False,
            rounds=run.rounds,
            firings=run.steps,
        )

    # -- deletes (DRed) ------------------------------------------------

    def apply_delete(self, facts: Iterable[Atom]) -> MaintenanceResult:
        """Remove base facts and retract unsupported consequences."""
        requested = [fact for fact in facts if self.base.discard(fact)]
        if self._over_threshold(len(requested)):
            self._rebuild()
            obs.count("hybrid.full_rechase")
            return MaintenanceResult((), (), full_rechase=True)
        with obs.span("hybrid.delete", delta=len(requested)):
            removed = self._over_delete(requested)
            if removed is None:
                # The cascade blew past the budget mid-flight; the
                # instance is already partially retracted, so rebuild.
                self._rebuild()
                obs.count("hybrid.full_rechase")
                return MaintenanceResult((), (), full_rechase=True)
            added, rounds, firings = self._rederive(removed)
        obs.count("hybrid.delta_applied")
        obs.count("hybrid.delta_facts", len(requested))
        still_removed = tuple(
            fact for fact in removed if fact not in self.instance
        )
        return MaintenanceResult(
            added=tuple(added),
            removed=still_removed,
            full_rechase=False,
            rounds=rounds,
            firings=firings,
        )

    def _over_delete(self, requested: Sequence[Atom]) -> list[Atom] | None:
        """DRed overestimate: drain supports transitively.

        Returns the facts actually retracted from the instance, or
        None when the cascade exceeded the fallback budget.
        """
        budget = max(
            MIN_DELTA_FLOOR, int(self.threshold * max(1, len(self.instance)))
        )
        removed: list[Atom] = []
        worklist = [
            fact for fact in requested if not self._supported(fact)
        ]
        while worklist:
            fact = worklist.pop()
            if not self.instance.discard(fact):
                continue
            removed.append(fact)
            if len(removed) > budget:
                return None
            for firing_id in self._uses.get(fact, ()):
                firing = self._firings[firing_id]
                if not firing.valid:
                    continue
                firing.valid = False
                for produced in firing.produced:
                    supports = self._supports.get(produced)
                    if supports is not None:
                        supports.discard(firing_id)
                    if not self._supported(produced):
                        worklist.append(produced)
        return removed

    def _supported(self, fact: Atom) -> bool:
        """A fact stays iff it is base or some valid firing produces it."""
        if fact in self.base:
            return True
        supports = self._supports.get(fact)
        return bool(supports)

    def _rederive(
        self, removed: Sequence[Atom]
    ) -> tuple[list[Atom], int, int]:
        """Re-chase from the rules whose heads touch a retracted relation.

        A trigger suppressed before the deletion can only have become
        live if its satisfying head image lost a fact — i.e. some head
        relation of its rule is among the removed relations.  Existing
        triggers over the shrunken instance are a subset of the old
        ones, so only those rules are chased over the whole instance;
        the consequences of what they add propagate through every rule.
        """
        affected = {fact.relation for fact in removed}
        indices = [
            index
            for index, rule in enumerate(self.rules)
            if any(atom.relation in affected for atom in rule.head)
        ]
        first = self._chase(
            [self.rules[index] for index in indices],
            lambda i, rule, hom: self._record_firing(indices[i], rule, hom),
        )
        rest = self._chase(
            self.rules,
            self._record_firing,
            delta=first.added,
            max_steps=self.max_steps - first.steps,
        )
        return (
            first.added + rest.added,
            first.rounds + rest.rounds,
            first.steps + rest.steps,
        )

    # -- shared --------------------------------------------------------

    def _over_threshold(self, delta_size: int) -> bool:
        bound = max(
            MIN_DELTA_FLOOR,
            int(self.threshold * max(1, len(self.instance))),
        )
        return delta_size > bound

    def check_consistency(self) -> list[str]:
        """Debug invariant check; returns human-readable violations."""
        problems: list[str] = []
        for fact in self.instance.facts():
            if not self._supported(fact):
                problems.append(f"unsupported instance fact: {fact}")
        for fact, supports in self._supports.items():
            for firing_id in supports:
                if not self._firings[firing_id].valid:
                    problems.append(
                        f"invalid firing {firing_id} supports {fact}"
                    )
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


def _certain_shape(database: Database) -> set[Atom]:
    """Null-free projection: the part of an instance visible to certain answers."""
    from repro.lang.terms import Null

    return {
        fact
        for fact in database.facts()
        if not any(isinstance(term, Null) for term in fact.terms)
    }
