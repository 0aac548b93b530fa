"""The compilation tier of FO-rewriting query answering.

:class:`FORewritingEngine` holds step (1) of the pipeline the paper
advocates: given an ontology (a set of TGDs), compute the FO-rewriting
of a UCQ w.r.t. the TGDs, once per canonical query.  Step (2),
evaluating the rewriting over the database alone -- in memory or
compiled to SQL -- belongs to :class:`repro.api.Session`, which owns
one engine per ontology and adds a persistent on-disk tier behind the
engine's in-memory cache.  Data complexity is therefore that of
evaluating a fixed FO query (AC0), which is the whole point of
FO-rewritability (Definition 1).  Answer queries through
``Session.answer`` / ``Session.prepare``.
"""

from __future__ import annotations

import threading
from typing import NamedTuple, Protocol, Sequence

from repro import obs
from repro.lang.errors import RewritingBudgetExceeded
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
once per canonical query, and the Datalog target is chosen when the
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


class CacheInfo(NamedTuple):
    """Hit/miss statistics of the engine's in-memory rewriting cache.

    ``misses`` counts queries the in-memory tier did not hold -- they
    were served either by the persistent tier (when one is attached;
    see the ``engine.disk_hits`` counter) or by a fresh rewriting run.
    """

    hits: int
    misses: int
    size: int


class PersistentTier(Protocol):
    """Second-level rewriting cache the engine consults on memory miss.

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

    Rewritings are memoized per (target, query), the query keyed by
    its canonical form, so alpha-renamed or atom-reordered variants of
    a query share one entry; answering the same query over many
    databases pays the rewriting cost once -- the usage pattern OBDA
    is designed around.  :class:`repro.api.Session` evaluates the
    rewritings; the engine only compiles them.  An optional
    *persistent* second tier (attached by :class:`repro.api.Session`
    when it has a cache directory) is consulted on in-memory miss
    before any rewriting runs.  Cache effectiveness is observable via :meth:`cache_info`
    and the ``engine.cache_hits`` / ``engine.cache_misses`` /
    ``engine.disk_hits`` counters of :mod:`repro.obs`.

    The engine is thread-safe: concurrent lookups of the same query
    are single-flighted (one thread rewrites, the others wait for the
    entry), which keeps both the work and the hit/miss accounting
    exact under the batch worker pool of :meth:`repro.api.Session.answer_many`.
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
        # Both keyed by (concrete target, canonical UCQ): the two
        # targets' artifacts share one memo but never an entry.
        self._memo: dict[tuple[str, UnionOfConjunctiveQueries], Compiled] = {}
        self._inflight: dict[
            tuple[str, UnionOfConjunctiveQueries], threading.Event
        ] = {}
        self._target_choice: dict[UnionOfConjunctiveQueries, str] = {}
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

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

    def cache_info(self) -> CacheInfo:
        """Hits, misses and current size of the in-memory memo.

        Both targets share the hit/miss accounting; ``size`` counts
        entries of both targets together.
        """
        with self._lock:
            return CacheInfo(self._hits, self._misses, len(self._memo))

    def cache_sizes(self) -> dict[str, int]:
        """Per-target in-memory memo entry counts."""
        sizes = dict.fromkeys(("ucq", "datalog"), 0)
        with self._lock:
            for target, _ in self._memo:
                sizes[target] += 1
        return sizes

    def resolve_target(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        target: str | None = None,
    ) -> str:
        """The concrete target (``ucq`` or ``datalog``) for *query*.

        *target* overrides the engine-level default for this query
        (None keeps the engine's).  Explicit targets pass through;
        ``auto`` consults the static blowup estimator once per
        canonical query (memoized) and picks the Datalog target when
        the estimated disjunct count exceeds
        ``min(AUTO_DATALOG_THRESHOLD, budget.max_cqs)``.  The choice is
        deterministic across processes; it is surfaced on the
        ``engine.target_selected.<target>`` counters and the
        ``engine.target_selected`` event.
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
        with self._lock:
            cached = self._target_choice.get(ucq)
        if cached is not None:
            return cached
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
        with self._lock:
            first = ucq not in self._target_choice
            choice = self._target_choice.setdefault(ucq, choice)
        if first:
            obs.count(f"engine.target_selected.{choice}")
            obs.event(
                "engine.target_selected",
                target=choice,
                bound=bound,
                threshold=threshold,
            )
        return choice

    # ----------------------------------------------------------------- #
    # Compilation (tiered cache)                                          #
    # ----------------------------------------------------------------- #

    def _rewrite(
        self,
        query: ConjunctiveQuery | UnionOfConjunctiveQueries,
        target: str = "ucq",
    ) -> Compiled:
        """The (memoized) *target* rewriting of *query*.

        *target* is concrete: ``ucq`` returns a :class:`RewritingResult`,
        ``datalog`` a :class:`DatalogRewriting`.  Lookup order:
        in-memory memo, persistent tier (if attached), fresh rewriting
        run.  :class:`repro.api.PreparedQuery` calls this directly.

        Compilation is single-flighted per (target, query): the first
        thread to miss registers an in-flight event, counts the miss
        and compiles; concurrent lookups of the same key wait for that
        event and retry (counted as hits: they did no work).  The
        waiters are also woken when the compilation raises; their retry
        then finds no entry and one of them compiles, so a failure
        never strands them.
        """
        ucq = UnionOfConjunctiveQueries.of(query)
        key = (target, ucq)
        while True:
            with self._lock:
                result = self._memo.get(key)
                if result is not None:
                    self._hits += 1
                    obs.count("engine.cache_hits")
                    return result
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
                    self._misses += 1
                    break
            waiter.wait()
        obs.count("engine.cache_misses")
        try:
            compiled = self._compile(ucq, target)
        except BaseException:
            with self._lock:
                self._inflight.pop(key).set()
            raise
        with self._lock:
            self._memo[key] = compiled
            self._inflight.pop(key).set()
        return compiled

    def _compile(self, ucq: UnionOfConjunctiveQueries, target: str) -> Compiled:
        """Persistent-tier lookup, falling back to a rewriting run."""
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

    @staticmethod
    def _check_complete(result: Compiled, require_complete: bool) -> None:
        if require_complete and not result.complete:
            raise RewritingBudgetExceeded(
                "rewriting incomplete within budget; pass "
                "require_complete=False for a sound approximation",
                partial_cqs=result.generated,
                depth_reached=result.depth_reached,
            )
