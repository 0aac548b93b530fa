"""The compilation tier of FO-rewriting query answering.

:class:`FORewritingEngine` holds step (1) of the pipeline the paper
advocates: given an ontology (a set of TGDs), compute the FO-rewriting
of a UCQ w.r.t. the TGDs.  Step (2), evaluating the rewriting over
the database alone -- in memory or compiled to SQL -- belongs to
:class:`repro.api.Session`, which owns one engine per ontology,
attaches the persistent on-disk tier and compiles each canonical query
once through its prepared handles.  Data complexity is therefore that of
evaluating a fixed FO query (AC0), which is the whole point of
FO-rewritability (Definition 1).  Answer queries through
``Session.answer`` / ``Session.prepare``.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro import obs
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.datalog_target import DatalogRewriting, rewrite_datalog
from repro.rewriting.relevance import relevant_rules
from repro.rewriting.rewriter import RewritingResult, rewrite

ENGINE_VERSION = "2"
"""Version tag of the rewriting algorithm + cache entry format.

Bumped whenever a change to the rewriter could alter the UCQ produced
for the same (ontology, query, budget) triple.  The persistent cache
of :mod:`repro.api.cache` embeds this tag in every cache key, so a
version bump automatically invalidates all previously compiled
rewritings without any migration logic.
"""

TARGETS = ("ucq", "datalog", "auto")
"""The rewriting targets an engine (or session) can be opened with.

``"ucq"`` is the classical exploded-union rewriting, ``"datalog"`` the
nonrecursive-Datalog program of :mod:`repro.rewriting.datalog_target`,
and ``"auto"`` picks per query: the static blowup estimator
(:func:`repro.checkers.estimator.estimate_disjunct_bound`) is consulted
once per prepared handle, and the Datalog target is chosen when the
estimated UCQ disjunct count exceeds :data:`AUTO_DATALOG_THRESHOLD`
(or the budget's ``max_cqs``, whichever is smaller).  The estimate is
a pure function of (query, rules, budget), so ``auto`` resolves to the
same target in every process.
"""

AUTO_DATALOG_THRESHOLD = 512
"""Estimated UCQ disjunct count above which ``target="auto"`` switches
to the nonrecursive-Datalog target."""

Compiled = RewritingResult | DatalogRewriting
"""A compiled artifact: the UCQ target's or the Datalog target's."""


class PersistentTier(Protocol):
    """Persistent rewriting cache the engine consults before rewriting.

    Implemented by :class:`repro.api.cache.EngineTier`; any object with
    the same two methods works.  *target* is the concrete artifact kind
    (``ucq`` or ``datalog``).  Both methods must be safe to call from
    multiple threads and must *never raise* -- a broken persistent tier
    degrades to recomputation, it does not break answering.
    """

    def get(self, ucq: UnionOfConjunctiveQueries, target: str) -> Compiled | None:
        """The stored *target* rewriting of *ucq*, or None."""
        ...

    def put(
        self, ucq: UnionOfConjunctiveQueries, target: str, result: Compiled
    ) -> None:
        """Persist the *target* rewriting of *ucq*."""
        ...


class FORewritingEngine:
    """Compiles UCQs over a TGD ontology into their FO rewritings.

    The engine keeps no state beyond its configuration: each
    :meth:`compile` call consults the optional *persistent* tier
    (attached by :class:`repro.api.Session` when it has a cache
    directory) and otherwise runs the rewriter, and
    :meth:`resolve_target` runs the static estimator on each call.
    Compiling each canonical query once -- the usage pattern OBDA is
    designed around -- is the session's job: its prepared handles are
    the one compile memo (see :class:`repro.api.PreparedQuery`).  The
    engine is therefore safe to call from any number of threads.
    """

    def __init__(
        self,
        rules: Sequence[TGD],
        budget: RewritingBudget | None = None,
        persistent: PersistentTier | None = None,
        target: str = "ucq",
    ):
        if target not in TARGETS:
            raise ValueError(
                f"unknown rewriting target {target!r}; "
                f"expected one of {TARGETS}"
            )
        self._rules = tuple(rules)
        self._budget = budget or RewritingBudget.default()
        self._persistent = persistent
        self._target = target

    @property
    def rules(self) -> tuple[TGD, ...]:
        """The ontology this engine answers queries over."""
        return self._rules

    @property
    def budget(self) -> RewritingBudget:
        """The rewriting budget every compilation runs under."""
        return self._budget

    @property
    def target(self) -> str:
        """The configured rewriting target (``ucq``/``datalog``/``auto``)."""
        return self._target

    def resolve_target(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        target: str | None = None,
    ) -> str:
        """The concrete target (``ucq`` or ``datalog``) for *query*.

        *target* overrides the engine-level default for this query
        (None keeps the engine's).  Explicit targets pass through;
        ``auto`` consults the static blowup estimator and picks the
        Datalog target when the estimated disjunct count exceeds
        ``min(AUTO_DATALOG_THRESHOLD, budget.max_cqs)``.  The choice is
        deterministic across processes; each ``auto`` resolution is
        surfaced on the ``engine.target_selected.<target>`` counters and
        the ``engine.target_selected`` event.
        """
        if target is None:
            target = self._target
        elif target not in TARGETS:
            raise ValueError(
                f"unknown rewriting target {target!r}; "
                f"expected one of {TARGETS}"
            )
        if target != "auto":
            return target
        ucq = UnionOfConjunctiveQueries.of(query)
        rules = relevant_rules(ucq, self._rules).relevant
        from repro.checkers.estimator import (
            estimate_combination_bound,
            estimate_disjunct_bound,
        )

        # Two complementary static bounds: the round-based one tracks
        # deep derivation chains, the combination one the cross-product
        # blowup of wide conjunctions.  Either exceeding the threshold
        # selects the Datalog target.
        estimate = estimate_disjunct_bound(ucq, rules, budget=self._budget)
        bound = max(estimate.bound, estimate_combination_bound(ucq, rules))
        threshold = min(AUTO_DATALOG_THRESHOLD, self._budget.max_cqs)
        choice = "datalog" if bound > threshold else "ucq"
        obs.count(f"engine.target_selected.{choice}")
        obs.event(
            "engine.target_selected",
            target=choice,
            bound=bound,
            threshold=threshold,
        )
        return choice

    def compile(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        target: str | None = None,
    ) -> Compiled:
        """The *target* rewriting of *query*, memoized nowhere.

        *target* is resolved as by :meth:`resolve_target`: ``ucq``
        returns a :class:`RewritingResult`, ``datalog`` a
        :class:`DatalogRewriting`.  The persistent tier, when attached,
        is consulted first; otherwise the rewriter runs over the rules
        relevant to *query* and the result is persisted.
        """
        ucq = UnionOfConjunctiveQueries.of(query)
        target = self.resolve_target(ucq, target)
        if self._persistent is not None:
            stored = self._persistent.get(ucq, target)
            if stored is not None:
                obs.count("engine.disk_hits")
                return stored
            obs.count("engine.disk_misses")
        with obs.span("engine.rewrite", cached=False, target=target) as span:
            rules = relevant_rules(ucq, self._rules).relevant
            span.set(relevant_rules=len(rules))
            result: Compiled
            if target == "datalog":
                result = rewrite_datalog(ucq, rules, self._budget)
            else:
                result = rewrite(ucq, rules, self._budget)
            span.set(complete=result.complete, size=result.size)
        if self._persistent is not None:
            self._persistent.put(ucq, target, result)
        return result
