"""Differential property suite: optimized minimization == naive.

The subsumption kernel (filters + freeze cache + bucketed index +
incremental frontier) must be a *drop-in* replacement
for the naive quadratic minimizer.  This suite pins that on realistic
workloads: CQ pools drawn from actual rewriting runs over stratified
(hence SWR, hence terminating) generated programs, padded with random
specializations of their own disjuncts so the pools contain genuine
subsumption redundancy -- exactly the population the rewriter's
minimization loop sees.

"Equivalent UCQ" is checked in the strongest possible form: the
optimized paths return the *identical* tuple (same disjuncts, same
order) as the naive reference.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery
from repro.lang.substitution import Substitution
from repro.lang.terms import Constant, Variable
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.rewriter import rewrite
from repro.rewriting.subsume import (
    SubsumptionFrontier,
    kernel_remove_subsumed,
    naive_is_subsumed,
    naive_remove_subsumed,
)

# Stratified relation order (see test_differential_answers.py): a
# rule's body relations strictly precede its head relation, so every
# generated program is non-recursive and SWR -- rewriting terminates.
ORDER = ("a", "r", "b", "s", "c")
ARITY = {"a": 1, "r": 2, "b": 1, "s": 2, "c": 1}

BODY_VARS = [Variable(f"V{i}") for i in range(4)]
EXIST_VARS = [Variable("E0"), Variable("E1")]
QUERY_VARS = [Variable(f"X{i}") for i in range(3)]
CONSTANTS = [Constant("c1"), Constant("c2")]


@st.composite
def stratified_tgds(draw):
    head_index = draw(st.integers(1, len(ORDER) - 1))
    body = []
    for _ in range(draw(st.integers(1, 2))):
        relation = ORDER[draw(st.integers(0, head_index - 1))]
        body.append(
            Atom(
                relation,
                [
                    draw(st.sampled_from(BODY_VARS))
                    for _ in range(ARITY[relation])
                ],
            )
        )
    body_vars = sorted(
        {v for atom in body for v in atom.variables()},
        key=lambda v: v.name,
    )
    head_relation = ORDER[head_index]
    head_terms = [
        draw(st.sampled_from(body_vars + EXIST_VARS))
        for _ in range(ARITY[head_relation])
    ]
    if not (set(head_terms) & set(body_vars)):
        head_terms[0] = body_vars[0]
    return TGD(body, [Atom(head_relation, head_terms)])


@st.composite
def programs(draw):
    return draw(st.lists(stratified_tgds(), min_size=1, max_size=4))


@st.composite
def queries(draw, max_atoms: int = 2):
    body = []
    for _ in range(draw(st.integers(1, max_atoms))):
        relation = draw(st.sampled_from(ORDER))
        body.append(
            Atom(
                relation,
                [
                    draw(st.sampled_from(QUERY_VARS + CONSTANTS[:1]))
                    for _ in range(ARITY[relation])
                ],
            )
        )
    body_vars = sorted(
        {v for atom in body for v in atom.variables()},
        key=lambda v: v.name,
    )
    answer_count = draw(st.integers(0, min(2, len(body_vars))))
    return ConjunctiveQuery(body_vars[:answer_count], body)


@st.composite
def rewriting_pools(draw):
    """A CQ pool as the minimizer sees it: the disjuncts a real
    rewriting run generates, plus random specializations of them."""
    rules = draw(programs())
    query = draw(queries())
    result = rewrite(
        query, rules, RewritingBudget(max_depth=6, max_cqs=200)
    )
    disjuncts = list(result.ucq)[:12]
    specialized = []
    for cq in disjuncts:
        if not draw(st.booleans()):
            continue
        answer_vars = set(cq.answer_variables)
        mapping = {}
        for var in cq.body_variables():
            if var not in answer_vars and draw(st.booleans()):
                mapping[var] = draw(
                    st.sampled_from(BODY_VARS + CONSTANTS)
                )
        extra_relation = draw(st.sampled_from(ORDER))
        extra = Atom(
            extra_relation,
            [
                draw(st.sampled_from(QUERY_VARS + CONSTANTS))
                for _ in range(ARITY[extra_relation])
            ],
        )
        base = cq.apply(Substitution(mapping))
        specialized.append(
            ConjunctiveQuery(
                base.answer_terms, list(base.body) + [extra]
            )
        )
    combined = disjuncts + specialized
    draw(st.randoms(use_true_random=False)).shuffle(combined)
    return combined


@settings(max_examples=50, deadline=None)
@given(rewriting_pools())
def test_optimized_minimization_equals_naive_on_swr_pools(queries):
    expected = naive_remove_subsumed(queries)
    assert kernel_remove_subsumed(queries) == expected


@settings(max_examples=40, deadline=None)
@given(rewriting_pools())
def test_incremental_frontier_equals_batch_on_swr_pools(queries):
    frontier = SubsumptionFrontier()
    for query in queries:
        frontier.admit(query)
    assert tuple(frontier.queries()) == naive_remove_subsumed(queries)


@settings(max_examples=30, deadline=None)
@given(rewriting_pools())
def test_frontier_covers_matches_one_directional_pruning(queries):
    """The rewriter's prune test: frontier.covers == any(old check)."""
    kept = []
    frontier = SubsumptionFrontier()
    for query in queries:
        covered = any(naive_is_subsumed(query, other) for other in kept)
        assert frontier.covers(query) == covered
        if not covered:
            kept.append(query)
            frontier.add(query)
