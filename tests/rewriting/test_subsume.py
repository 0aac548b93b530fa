"""The subsumption kernel: filters are sound, fast paths are drop-in.

Three layers of guarantees:

* every necessary-condition filter (signature, size, fingerprint) is
  *sound* -- it never rejects a pair that actually subsumes -- checked
  both on hand-built adversarial pairs (the ones that famously break
  naive "optimizations", e.g. non-injective homomorphisms collapsing
  same-relation atoms) and on hypothesis-constructed true pairs;
* the optimized paths (kernel check, bucketed batch, incremental
  frontier) return *exactly* what the naive
  reference implementations return, including output order;
* the public ``is_subsumed`` helper runs through the shared kernel, so
  loops over a fixed subsumee reuse its cached canonical database
  (the re-freezing bugfix).
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.lang.atoms import Atom
from repro.lang.parser import parse_query
from repro.lang.queries import ConjunctiveQuery
from repro.lang.substitution import Substitution
from repro.lang.terms import Constant, Variable
from repro.rewriting.minimize import is_subsumed, remove_subsumed
from repro.rewriting.subsume import (
    SubsumptionFrontier,
    SubsumptionKernel,
    fingerprint_rejects,
    filters_reject,
    kernel_remove_subsumed,
    naive_is_subsumed,
    naive_remove_subsumed,
    shared_kernel_info,
    signature_rejects,
    size_rejects,
)

# --------------------------------------------------------------------- #
# Strategies                                                             #
# --------------------------------------------------------------------- #

RELATIONS = (("a", 1), ("b", 1), ("r", 2), ("s", 2), ("t", 3))
VARS = [Variable(f"V{i}") for i in range(4)]
CONSTANTS = [Constant("c1"), Constant("c2")]


@st.composite
def cqs(draw, max_atoms: int = 3):
    """A small random CQ whose answer variables occur in the body."""
    body = []
    for _ in range(draw(st.integers(1, max_atoms))):
        relation, arity = draw(st.sampled_from(RELATIONS))
        terms = [
            draw(st.sampled_from(VARS + CONSTANTS)) for _ in range(arity)
        ]
        body.append(Atom(relation, terms))
    body_vars = sorted(
        {v for atom in body for v in atom.variables()},
        key=lambda v: v.name,
    )
    answer_count = draw(st.integers(0, min(2, len(body_vars))))
    return ConjunctiveQuery(body_vars[:answer_count], body)


@st.composite
def true_subsumption_pairs(draw):
    """A pair ``(subsumee, subsumer)`` with ``subsumee ⊑ subsumer``
    guaranteed by construction.

    The subsumee is built from the subsumer by substituting non-answer
    variables (with variables or constants) and appending extra atoms;
    the identity on answer variables makes the substitution itself the
    qualifying homomorphism.
    """
    subsumer = draw(cqs())
    answer_vars = set(subsumer.answer_variables)
    mapping = {}
    for var in subsumer.body_variables():
        if var in answer_vars:
            continue
        if draw(st.booleans()):
            mapping[var] = draw(st.sampled_from(VARS + CONSTANTS))
    specialized = subsumer.apply(Substitution(mapping))
    extra = []
    for _ in range(draw(st.integers(0, 2))):
        relation, arity = draw(st.sampled_from(RELATIONS))
        terms = [
            draw(st.sampled_from(VARS + CONSTANTS)) for _ in range(arity)
        ]
        extra.append(Atom(relation, terms))
    subsumee = ConjunctiveQuery(
        specialized.answer_terms, list(specialized.body) + extra
    )
    return subsumee, subsumer


def pool(seed: int, size: int) -> list[ConjunctiveQuery]:
    """A deterministic pool of small CQs with plenty of subsumptions."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        n = rng.randint(1, 4)
        atoms = []
        for _ in range(n):
            relation, arity = rng.choice(RELATIONS)
            atoms.append(
                Atom(
                    relation,
                    [rng.choice(VARS + CONSTANTS) for _ in range(arity)],
                )
            )
        body_vars = sorted(
            {v for atom in atoms for v in atom.variables()},
            key=lambda v: v.name,
        )
        answers = body_vars[: rng.randint(0, min(1, len(body_vars)))]
        out.append(ConjunctiveQuery(answers, atoms))
    return out


def profiles(kernel: SubsumptionKernel, *queries):
    return [kernel.profile(query) for query in queries]


# --------------------------------------------------------------------- #
# Filter soundness                                                       #
# --------------------------------------------------------------------- #


@settings(max_examples=150, deadline=None)
@given(true_subsumption_pairs())
def test_filters_never_reject_true_pairs(pair):
    subsumee, subsumer = pair
    assert naive_is_subsumed(subsumee, subsumer)  # construction worked
    kernel = SubsumptionKernel()
    ee, er = profiles(kernel, subsumee, subsumer)
    assert not signature_rejects(ee, er)
    assert not size_rejects(ee, er)
    assert not fingerprint_rejects(ee, er)
    assert not filters_reject(ee, er)
    assert kernel.is_subsumed(subsumee, subsumer)


def test_filters_survive_atom_collapse():
    """The classic trap: a *larger* body can subsume a smaller one via a
    non-injective homomorphism, so neither body size nor the relation
    multiset may be used for rejection."""
    small = parse_query("q() :- r(X, X).")
    large = parse_query("q() :- r(X, Y), r(Y, Z).")
    assert naive_is_subsumed(small, large)
    kernel = SubsumptionKernel()
    ee, er = profiles(kernel, small, large)
    assert not filters_reject(ee, er)
    assert kernel.is_subsumed(small, large)


def test_filters_survive_constant_repetition():
    subsumee = parse_query("q(X) :- r(X, c1), s(c1, X).")
    subsumer = parse_query("q(X) :- r(X, c1).")
    assert naive_is_subsumed(subsumee, subsumer)
    kernel = SubsumptionKernel()
    ee, er = profiles(kernel, subsumee, subsumer)
    assert not filters_reject(ee, er)


def test_filters_reject_obvious_non_pairs():
    kernel = SubsumptionKernel()
    ee, er = profiles(
        kernel,
        parse_query("q(X) :- a(X)."),
        parse_query("q(X) :- b(X)."),
    )
    assert signature_rejects(ee, er)
    arity_ee, arity_er = profiles(
        kernel,
        parse_query("q(X) :- r(X, Y)."),
        parse_query("q(X, Y) :- r(X, Y)."),
    )
    assert size_rejects(arity_ee, arity_er)
    const_ee, const_er = profiles(
        kernel,
        parse_query("q(X) :- r(X, c1)."),
        parse_query("q(X) :- r(X, c2)."),
    )
    assert fingerprint_rejects(const_ee, const_er)


@settings(max_examples=150, deadline=None)
@given(cqs(), cqs())
def test_kernel_check_matches_naive(first, second):
    kernel = SubsumptionKernel()
    assert kernel.is_subsumed(first, second) == naive_is_subsumed(
        first, second
    )
    assert kernel.is_subsumed(second, first) == naive_is_subsumed(
        second, first
    )


# --------------------------------------------------------------------- #
# Batch minimization: exact drop-in equivalence + determinism            #
# --------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(st.lists(cqs(), min_size=0, max_size=10))
def test_bucketed_batch_matches_naive(queries):
    assert kernel_remove_subsumed(queries) == naive_remove_subsumed(queries)


def test_batch_matches_naive_on_dense_pools():
    for seed in range(6):
        queries = pool(seed, 40)
        expected = naive_remove_subsumed(queries)
        assert kernel_remove_subsumed(queries) == expected
        assert remove_subsumed(queries) == expected


def test_output_order_is_deterministic_under_bucketing():
    """Survivors come out in input order, independent of how the bucket
    index groups them -- re-running and re-ordering agree with naive."""
    queries = pool(99, 30)
    first = remove_subsumed(queries)
    assert remove_subsumed(queries) == first  # stable across runs
    shuffled = list(queries)
    random.Random(5).shuffle(shuffled)
    assert remove_subsumed(shuffled) == naive_remove_subsumed(shuffled)


def test_equivalent_queries_keep_smallest_then_earliest():
    general = parse_query("q(X) :- r(X, Y).")
    padded = parse_query("q(X) :- r(X, Y), r(X, Z).")
    specific = parse_query("q(X) :- r(X, c1).")
    assert remove_subsumed([padded, general, specific]) == (general,)
    # Among equal-size equivalents the earlier one survives.
    twin = parse_query("q(A) :- r(A, B).")
    assert remove_subsumed([general, twin]) == (general,)
    assert remove_subsumed([twin, general]) == (twin,)


# --------------------------------------------------------------------- #
# Incremental frontier                                                   #
# --------------------------------------------------------------------- #


def test_frontier_covers_add_matches_streaming_discipline():
    """covers()/add() over a stream reproduces the rewriter's old
    one-directional pruning, and the final minimal sets agree."""
    queries = pool(11, 40)
    kept = []
    frontier = SubsumptionFrontier()
    for query in queries:
        covered_old = any(naive_is_subsumed(query, other) for other in kept)
        assert frontier.covers(query) == covered_old
        if not covered_old:
            kept.append(query)
            frontier.add(query)
    assert naive_remove_subsumed(kept) == naive_remove_subsumed(
        frontier.queries()
    )


def test_frontier_admit_equals_batch_remove_subsumed():
    for seed in (21, 22, 23):
        queries = pool(seed, 40)
        frontier = SubsumptionFrontier()
        for query in queries:
            frontier.admit(query)
        assert tuple(frontier.queries()) == naive_remove_subsumed(queries)


def test_frontier_admit_prefers_smaller_equivalent():
    frontier = SubsumptionFrontier()
    padded = parse_query("q(X) :- r(X, Y), r(X, Z).")
    general = parse_query("q(X) :- r(X, Y).")
    assert frontier.admit(padded)
    assert frontier.admit(general)  # evicts the padded equivalent
    assert frontier.queries() == [general]
    assert not frontier.admit(padded)  # and stays evicted
    assert len(frontier) == 1


# --------------------------------------------------------------------- #
# The shared-kernel public helper (re-freezing bugfix)                   #
# --------------------------------------------------------------------- #


def test_public_is_subsumed_reuses_frozen_subsumee():
    subsumee = parse_query("q(X) :- r(X, Y), s(Y, Z), a(Z).")
    subsumers = [
        parse_query(f"q(X) :- r(X, V{i}).") for i in range(6)
    ]
    before = shared_kernel_info()
    for subsumer in subsumers:
        assert is_subsumed(subsumee, subsumer)
    after = shared_kernel_info()
    # One profile per distinct query; the fixed subsumee hits the cache
    # on every call after the first.
    assert after["cache_hits"] - before["cache_hits"] >= len(subsumers) - 1
    assert (
        after["cache_misses"] - before["cache_misses"]
        <= len(subsumers) + 1
    )


def test_public_is_subsumed_agrees_with_naive():
    queries = pool(31, 15)
    for first in queries:
        for second in queries:
            assert is_subsumed(first, second) == naive_is_subsumed(
                first, second
            )
