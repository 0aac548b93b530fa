"""The fast CQ-subsumption kernel behind UCQ minimization.

``q1 ⊑ q2`` (``q1`` is subsumed by the more general ``q2``) holds iff
there is a homomorphism from the body of ``q2`` into the *frozen* body
of ``q1`` mapping the answer tuple of ``q2`` position-wise onto the
frozen answer tuple of ``q1`` (the canonical-database method).  The
homomorphism search is the dominant cost of rewriting pipelines --
PerfectRef-style systems owe their practical speed to avoiding it --
so this module wraps it in three layers of avoidance:

* **necessary-condition filters** -- cheap properties any true
  subsumption pair must satisfy; a failing filter rejects the pair in
  O(1) without freezing or searching anything.  Every filter is proved
  *sound* (it never rejects a true pair) in its docstring, and the
  property suite re-checks that claim on random pairs.
* **per-CQ profiles with a freeze cache** -- relation signatures,
  fingerprints and the frozen canonical database are computed once per
  CQ (:class:`CQProfile`, held by a :class:`SubsumptionKernel`), not
  once per pair, so an all-pairs loop over *n* disjuncts freezes *n*
  bodies instead of *n²*.
* **bucketed candidate indexing** -- disjuncts are grouped by relation
  set; a subsumer's relations must be a subset of the subsumee's, so
  the all-pairs loop only visits buckets that can possibly contain a
  subsumer.

Minimization is one sequential pass in the calling thread.  The
all-pairs loop is pure Python, so a thread pool cannot overlap it, and
a process pool must pickle the disjuncts and profile them again in
every worker before it can start.

The naive reference implementations (:func:`naive_is_subsumed`,
:func:`naive_remove_subsumed`) are kept verbatim for differential
testing and for the speedup benchmarks: the optimized paths must
return exactly the same results.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence

from repro.data.database import Database
from repro.data.evaluation import all_homomorphisms
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery
from repro.lang.terms import Constant, Term, Variable


class _Frozen:
    """Private payload wrapping a frozen variable name.

    Wrapping guarantees frozen constants can never collide with real
    constants appearing in queries.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Frozen) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("_Frozen", self.name))

    def __repr__(self) -> str:
        return f"_Frozen({self.name!r})"

    def __str__(self) -> str:
        return f"«{self.name}»"

    def __lt__(self, other: "_Frozen") -> bool:
        return self.name < other.name


def freeze_term(term: Term) -> Term:
    """Map a variable to its private frozen constant; keep constants."""
    if isinstance(term, Variable):
        return Constant(_Frozen(term.name))
    return term


def freeze_body(body: Sequence[Atom]) -> Database:
    """The canonical database of *body* (variables frozen to constants)."""
    database = Database()
    for atom in body:
        database.add(Atom(atom.relation, [freeze_term(t) for t in atom.terms]))
    return database


class CQProfile:
    """Per-CQ data the kernel needs: signatures, fingerprints, freeze.

    Everything here is computed once per CQ.  The canonical database
    and frozen answer tuple are lazy -- pairs rejected by filters never
    pay for freezing at all.
    """

    __slots__ = (
        "query",
        "arity",
        "body_size",
        "relations",
        "relation_counts",
        "relation_arities",
        "constant_sites",
        "answer_pattern",
        "_frozen_answers",
        "_canonical",
    )

    def __init__(self, query: ConjunctiveQuery):
        self.query = query
        self.arity = query.arity
        body = query.body
        self.body_size = len(body)
        counts: dict[str, int] = {}
        arities: set[tuple[str, int]] = set()
        sites: set[tuple[str, int, Constant]] = set()
        for atom in body:
            counts[atom.relation] = counts.get(atom.relation, 0) + 1
            arities.add((atom.relation, atom.arity))
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    sites.add((atom.relation, position, term))
        # The relation *multiset* signature; only its key set is a
        # sound filter (homomorphisms may collapse same-relation
        # atoms), the counts order candidate scans.
        self.relation_counts = counts
        self.relations = frozenset(counts)
        self.relation_arities = frozenset(arities)
        self.constant_sites = frozenset(sites)
        # Equality pattern of the answer tuple: position -> first
        # position carrying the same term.
        terms = query.answer_terms
        self.answer_pattern = tuple(terms.index(t) for t in terms)
        self._frozen_answers: tuple[Term, ...] | None = None
        self._canonical: Database | None = None

    def frozen(self) -> tuple[Database, tuple[Term, ...]]:
        """The (cached) canonical database and frozen answer tuple."""
        if self._canonical is None:
            answers = tuple(freeze_term(t) for t in self.query.answer_terms)
            canonical = freeze_body(self.query.body)
            # Assign the guard field last so a concurrent reader that
            # observes a non-None _canonical also sees the answers.
            self._frozen_answers = answers
            self._canonical = canonical
        assert self._frozen_answers is not None
        return self._canonical, self._frozen_answers


# --------------------------------------------------------------------- #
# Necessary-condition filters                                             #
# --------------------------------------------------------------------- #
#
# Each predicate takes (subsumee, subsumer) profiles and returns True
# when the pair can be rejected WITHOUT a homomorphism search.  All of
# them are necessary conditions for ``subsumee ⊑ subsumer``: a True
# return proves no qualifying homomorphism exists.


def signature_rejects(subsumee: CQProfile, subsumer: CQProfile) -> bool:
    """Relation-signature filter.

    A homomorphism maps every subsumer body atom onto a subsumee fact
    with the *same* relation, so the subsumer's relation set must be a
    subset of the subsumee's.  (Only the set projection of the multiset
    signature is sound: non-injective homomorphisms may collapse two
    same-relation atoms onto one fact.)
    """
    return not subsumer.relations <= subsumee.relations


def size_rejects(subsumee: CQProfile, subsumer: CQProfile) -> bool:
    """Arity/size filter.

    Queries of different answer arity are never comparable, and every
    subsumer atom needs a target fact of the same relation *and* the
    same width -- the (relation, arity) pairs of the subsumer must all
    occur in the subsumee's body.
    """
    if subsumee.arity != subsumer.arity:
        return True
    return not subsumer.relation_arities <= subsumee.relation_arities


def fingerprint_rejects(subsumee: CQProfile, subsumer: CQProfile) -> bool:
    """Constant/answer fingerprint filter.

    Homomorphisms fix constants, so a subsumer atom carrying constant
    ``c`` at position ``p`` of relation ``r`` can only map onto a
    subsumee fact with ``c`` at the same (r, p) site.  On the answer
    tuple: a constant answer term of the subsumer must literally equal
    the subsumee's term at that position (frozen variables are private
    constants, never equal to a real one), and two equal subsumer
    answer terms have equal images, so the subsumee's answer terms at
    those positions must be equal too.

    Assumes :func:`size_rejects` ran first (equal arities).
    """
    if not subsumer.constant_sites <= subsumee.constant_sites:
        return True
    subsumee_answers = subsumee.query.answer_terms
    for position, term in enumerate(subsumer.query.answer_terms):
        if isinstance(term, Constant) and subsumee_answers[position] != term:
            return True
    pattern = subsumee.answer_pattern
    for position, first in enumerate(subsumer.answer_pattern):
        if first != position and pattern[position] != pattern[first]:
            return True
    return False


def filters_reject(subsumee: CQProfile, subsumer: CQProfile) -> bool:
    """All filters, cheapest first; True ⇒ the pair cannot subsume."""
    return (
        size_rejects(subsumee, subsumer)
        or signature_rejects(subsumee, subsumer)
        or fingerprint_rejects(subsumee, subsumer)
    )


# --------------------------------------------------------------------- #
# Naive reference implementations                                         #
# --------------------------------------------------------------------- #


def naive_is_subsumed(
    subsumee: ConjunctiveQuery, subsumer: ConjunctiveQuery
) -> bool:
    """Reference subsumption check: freeze and search, no shortcuts."""
    if subsumee.arity != subsumer.arity:
        return False
    canonical = freeze_body(subsumee.body)
    frozen_answers = tuple(freeze_term(t) for t in subsumee.answer_terms)
    return _hom_exists(subsumer, canonical, frozen_answers)


def _hom_exists(
    subsumer: ConjunctiveQuery,
    canonical: Database,
    frozen_answers: tuple[Term, ...],
) -> bool:
    for hom in all_homomorphisms(list(subsumer.body), canonical):
        image = tuple(
            hom[t] if isinstance(t, Variable) else t
            for t in subsumer.answer_terms
        )
        if image == frozen_answers:
            return True
    return False


def naive_remove_subsumed(
    queries: Sequence[ConjunctiveQuery],
) -> tuple[ConjunctiveQuery, ...]:
    """Reference minimization: the quadratic all-pairs loop, re-freezing
    every pair.  The optimized :func:`kernel_remove_subsumed` must
    return exactly this (same queries, same order)."""
    queries = list(queries)
    rank = {i: (len(query.body), i) for i, query in enumerate(queries)}
    kept: list[ConjunctiveQuery] = []
    for i, query in enumerate(queries):
        dominated = False
        for j, other in enumerate(queries):
            if i == j:
                continue
            if not naive_is_subsumed(query, other):
                continue
            if naive_is_subsumed(other, query):
                if rank[j] < rank[i]:
                    dominated = True
                    break
            else:
                dominated = True
                break
        if not dominated:
            kept.append(query)
    return tuple(kept)


# --------------------------------------------------------------------- #
# The kernel                                                              #
# --------------------------------------------------------------------- #


class SubsumptionKernel:
    """Profile cache + filter pipeline + tallies for subsumption checks.

    One kernel serves one batch of related checks (a minimization call,
    a rewriting run, or the module-level shared kernel behind the
    public ``is_subsumed`` helper).  Tallies are plain integers so the
    hot loop stays free of instrumentation calls; callers emit them
    once via :meth:`flush_counters`.
    """

    __slots__ = (
        "_profiles",
        "_max_profiles",
        "pairs",
        "pairs_skipped",
        "hom_checks",
        "cache_hits",
        "cache_misses",
    )

    def __init__(self, max_profiles: int | None = None):
        self._profiles: dict[ConjunctiveQuery, CQProfile] = {}
        self._max_profiles = max_profiles
        self.pairs = 0
        self.pairs_skipped = 0
        self.hom_checks = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def profile(self, query: ConjunctiveQuery) -> CQProfile:
        """The cached profile of *query* (computed on first sight)."""
        profile = self._profiles.get(query)
        if profile is not None:
            self.cache_hits += 1
            return profile
        self.cache_misses += 1
        if (
            self._max_profiles is not None
            and len(self._profiles) >= self._max_profiles
        ):
            # Bounded mode (the shared kernel): drop the oldest quarter
            # so long-running processes cannot grow without limit.
            for key in list(self._profiles)[: max(1, self._max_profiles // 4)]:
                del self._profiles[key]
        profile = CQProfile(query)
        self._profiles[query] = profile
        return profile

    def is_subsumed(
        self, subsumee: ConjunctiveQuery, subsumer: ConjunctiveQuery
    ) -> bool:
        """Filtered, freeze-cached ``subsumee ⊑ subsumer``."""
        self.pairs += 1
        subsumee_profile = self.profile(subsumee)
        subsumer_profile = self.profile(subsumer)
        if filters_reject(subsumee_profile, subsumer_profile):
            self.pairs_skipped += 1
            return False
        self.hom_checks += 1
        canonical, frozen_answers = subsumee_profile.frozen()
        return _hom_exists(subsumer, canonical, frozen_answers)

    def skip_bucket(self, count: int) -> None:
        """Record *count* pairs rejected wholesale by the bucket index.

        Skipping a whole bucket is the signature filter applied to all
        its members at once; tallying the pairs keeps
        ``minimize.subsumption_checks`` meaning "pairs considered"
        regardless of which layer rejected them.
        """
        self.pairs += count
        self.pairs_skipped += count

    def flush_counters(self) -> None:
        """Emit the tallies as ``minimize.*`` counters and reset them."""
        from repro import obs

        if self.pairs:
            obs.count("minimize.subsumption_checks", self.pairs)
        if self.pairs_skipped:
            obs.count("minimize.pairs_skipped", self.pairs_skipped)
        if self.hom_checks:
            obs.count("minimize.hom_checks", self.hom_checks)
        if self.cache_hits:
            obs.count("minimize.freeze_cache_hits", self.cache_hits)
        if self.cache_misses:
            obs.count("minimize.freeze_cache_misses", self.cache_misses)
        self.pairs = 0
        self.pairs_skipped = 0
        self.hom_checks = 0
        self.cache_hits = 0
        self.cache_misses = 0


# The shared kernel behind the public ``is_subsumed`` helper: external
# callers that loop over a fixed subsumee (lint passes, the checkers
# estimator) hit the bounded profile cache instead of re-freezing the
# same canonical database on every call.
_SHARED_PROFILE_LIMIT = 4096
_shared_kernel = SubsumptionKernel(max_profiles=_SHARED_PROFILE_LIMIT)
_shared_lock = threading.Lock()


def shared_is_subsumed(
    subsumee: ConjunctiveQuery, subsumer: ConjunctiveQuery
) -> bool:
    """Kernel-backed check through the process-wide shared cache."""
    with _shared_lock:
        return _shared_kernel.is_subsumed(subsumee, subsumer)


def shared_kernel_info() -> dict[str, int]:
    """Cache statistics of the shared kernel (for tests/diagnostics)."""
    with _shared_lock:
        return {
            "profiles": len(_shared_kernel._profiles),
            "cache_hits": _shared_kernel.cache_hits,
            "cache_misses": _shared_kernel.cache_misses,
            "pairs_skipped": _shared_kernel.pairs_skipped,
            "hom_checks": _shared_kernel.hom_checks,
        }


# --------------------------------------------------------------------- #
# Bucketed all-pairs minimization                                         #
# --------------------------------------------------------------------- #


def _build_index(
    profiles: Sequence[CQProfile],
) -> tuple[dict[frozenset, list[int]], list[tuple[int, int]]]:
    """Bucket query indices by relation set; rank = (body size, index)."""
    rank = [(profile.body_size, i) for i, profile in enumerate(profiles)]
    buckets: dict[frozenset, list[int]] = {}
    for i, profile in enumerate(profiles):
        buckets.setdefault(profile.relations, []).append(i)
    # Likely dominators first: small bodies tend to be more general
    # and are cheaper to search.  Candidate order cannot change the
    # result (domination is an existential), only how fast it's found.
    for ids in buckets.values():
        ids.sort(key=lambda i: rank[i])
    return buckets, rank


def _dominated(
    i: int,
    queries: Sequence[ConjunctiveQuery],
    profiles: Sequence[CQProfile],
    rank: Sequence[tuple[int, int]],
    buckets: dict[frozenset, list[int]],
    kernel: SubsumptionKernel,
) -> bool:
    """True iff some other input query dominates ``queries[i]``.

    Exactly the predicate of the naive loop: strictly subsumed, or
    equivalent to a better-ranked (smaller-body, earlier) query.  Only
    buckets whose relation set is a subset of query *i*'s are visited
    -- by :func:`signature_rejects` no other bucket can hold a
    subsumer.
    """
    query = queries[i]
    relations = profiles[i].relations
    for key, ids in buckets.items():
        if not key <= relations:
            kernel.skip_bucket(len(ids))
            continue
        for j in ids:
            if j == i:
                continue
            if not kernel.is_subsumed(query, queries[j]):
                continue
            if not kernel.is_subsumed(queries[j], query):
                return True
            if rank[j] < rank[i]:
                return True
    return False


def kernel_remove_subsumed(
    queries: Sequence[ConjunctiveQuery],
    kernel: SubsumptionKernel | None = None,
) -> tuple[ConjunctiveQuery, ...]:
    """Bucketed, freeze-cached equivalent of :func:`naive_remove_subsumed`.

    Returns exactly the same tuple (same survivors, same input order);
    the regression suite pins this.
    """
    queries = list(queries)
    kernel = kernel or SubsumptionKernel()
    profiles = [kernel.profile(query) for query in queries]
    buckets, rank = _build_index(profiles)
    return tuple(
        query
        for i, query in enumerate(queries)
        if not _dominated(i, queries, profiles, rank, buckets, kernel)
    )


# --------------------------------------------------------------------- #
# Incremental frontier                                                    #
# --------------------------------------------------------------------- #


class SubsumptionFrontier:
    """A bucketed, incrementally minimal set of CQs (an antichain).

    The rewriting loops use it to check newly generated CQs against the
    already-minimal frontier instead of re-minimizing the whole
    generated set each round:

    * :meth:`covers` -- is the new CQ subsumed by a member? (the prune
      test);
    * :meth:`add` -- insert a non-covered CQ, evicting members it
      strictly subsumes (the rewriter discipline: equivalents never
      reach ``add`` because ``covers`` already holds for them);
    * :meth:`admit` -- rank-aware insertion implementing the exact
      batch ``remove_subsumed`` semantics (strictly subsumed CQs are
      rejected, equivalent CQs keep the smaller-body/earlier one) --
      the PerfectRef discipline, where equivalent factorization
      products may legitimately replace their larger parents.

    Members iterate in insertion order, so downstream output stays
    deterministic.
    """

    def __init__(self, kernel: SubsumptionKernel | None = None):
        self.kernel = kernel or SubsumptionKernel()
        self._members: dict[int, ConjunctiveQuery] = {}
        self._ranks: dict[int, tuple[int, int]] = {}
        self._buckets: dict[frozenset, list[int]] = {}
        self._arrivals = 0

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self._members.values())

    def queries(self) -> list[ConjunctiveQuery]:
        """The members, oldest first."""
        return list(self._members.values())

    def covers(self, query: ConjunctiveQuery) -> bool:
        """True iff some member subsumes *query* (``query ⊑ member``)."""
        profile = self.kernel.profile(query)
        kernel = self.kernel
        members = self._members
        for key, ids in self._buckets.items():
            if not key <= profile.relations:
                kernel.skip_bucket(len(ids))
                continue
            for member_id in ids:
                if kernel.is_subsumed(query, members[member_id]):
                    return True
        return False

    def add(self, query: ConjunctiveQuery) -> None:
        """Insert *query*; evict members it strictly subsumes.

        Caller contract: *query* is not covered (or the caller accepts
        equivalent members coexisting until a final batch pass).
        """
        profile = self.kernel.profile(query)
        self._evict_dominated(query, profile, None)
        self._insert(query, profile, (profile.body_size, self._arrivals))

    def admit(self, query: ConjunctiveQuery) -> bool:
        """Rank-aware insertion (batch ``remove_subsumed`` semantics).

        Returns False -- and leaves the frontier unchanged -- when an
        existing member dominates *query*: strictly subsumes it, or is
        equivalent with a better (smaller-body, earlier) rank.
        Otherwise inserts *query*, evicts every member it dominates,
        and returns True.
        """
        profile = self.kernel.profile(query)
        rank = (profile.body_size, self._arrivals)
        kernel = self.kernel
        members = self._members
        for key, ids in self._buckets.items():
            if not key <= profile.relations:
                kernel.skip_bucket(len(ids))
                continue
            for member_id in ids:
                member = members[member_id]
                if not kernel.is_subsumed(query, member):
                    continue
                if not kernel.is_subsumed(member, query):
                    return False  # strictly subsumed
                if self._ranks[member_id] < rank:
                    return False  # equivalent, member ranks better
        self._evict_dominated(query, profile, rank)
        self._insert(query, profile, rank)
        return True

    def _evict_dominated(
        self,
        query: ConjunctiveQuery,
        profile: CQProfile,
        rank: tuple[int, int] | None,
    ) -> None:
        """Remove members dominated by *query*.

        With ``rank=None`` only strict subsumption evicts (the ``add``
        discipline); with a rank, equivalence is settled by it (the
        ``admit`` discipline).
        """
        kernel = self.kernel
        doomed: list[tuple[frozenset, int]] = []
        for key, ids in self._buckets.items():
            if not profile.relations <= key:
                kernel.skip_bucket(len(ids))
                continue
            for member_id in ids:
                member = self._members[member_id]
                if not kernel.is_subsumed(member, query):
                    continue
                if not kernel.is_subsumed(query, member):
                    doomed.append((key, member_id))
                elif rank is not None and rank < self._ranks[member_id]:
                    doomed.append((key, member_id))
        for key, member_id in doomed:
            self._buckets[key].remove(member_id)
            if not self._buckets[key]:
                del self._buckets[key]
            del self._members[member_id]
            del self._ranks[member_id]

    def _insert(
        self,
        query: ConjunctiveQuery,
        profile: CQProfile,
        rank: tuple[int, int],
    ) -> None:
        member_id = self._arrivals
        self._arrivals += 1
        self._members[member_id] = query
        self._ranks[member_id] = rank
        self._buckets.setdefault(profile.relations, []).append(member_id)


def profile_pairs(
    queries: Iterable[ConjunctiveQuery],
    kernel: SubsumptionKernel | None = None,
) -> list[CQProfile]:
    """Profiles for a batch of queries (helper for tests/benches)."""
    kernel = kernel or SubsumptionKernel()
    return [kernel.profile(query) for query in queries]
