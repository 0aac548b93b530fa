"""Unit tests for the incrementally maintained chase core."""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.data.evaluation import evaluate_cq
from repro.hybrid import MaterializedCore
from repro.hybrid.maintain import _certain_shape
from repro.lang.atoms import Atom
from repro.lang.errors import ChaseBudgetExceeded
from repro.lang.parser import parse_program
from repro.lang.terms import Constant, Null
from repro.obs import InMemorySink
from repro.workloads.ontologies import (
    university_data,
    university_ontology,
    university_queries,
)

HIERARCHY = parse_program(
    """
    H1: lvl0(X) -> lvl1(X).
    H2: lvl1(X) -> lvl2(X).
    """
)

EXISTENTIAL = parse_program("E: person(X) -> hasId(X, Y).")

# Two independent derivations of the same head relation.
DIAMOND = parse_program(
    """
    D1: a(X) -> c(X).
    D2: b(X) -> c(X).
    """
)

# A body/head cycle on null-free atoms: the classic trap where naive
# support counting lets facts keep each other alive after the base
# fact is gone.
CYCLE = parse_program(
    """
    C1: a(X) -> b(X).
    C2: b(X) -> a(X).
    """
)

# s(_) has two derivations that share the null: deleting c(k) retracts
# the first, and the second must fire with its frontier bound to it.
NULL_FRONTIER = parse_program(
    """
    N1: a(X) -> r(X, Y).
    N2: r(X, Y), c(X) -> s(Y).
    N3: r(X, Y), b(X) -> t(Y).
    N4: t(Y) -> s(Y).
    """
)


def fact(relation: str, *names: str) -> Atom:
    return Atom(relation, tuple(Constant(name) for name in names))


def test_build_saturates_to_the_chase_closure():
    core = MaterializedCore(HIERARCHY, [fact("lvl0", "e")])
    assert fact("lvl2", "e") in core.instance
    assert core.derived_count == 2
    assert core.check_consistency() == []


def test_insert_propagates_semi_naively():
    core = MaterializedCore(HIERARCHY, [fact("lvl0", "a")])
    result = core.apply_insert([fact("lvl0", "b")])
    assert fact("lvl2", "b") in core.instance
    assert set(result.added) >= {
        fact("lvl0", "b"), fact("lvl1", "b"), fact("lvl2", "b")
    }
    assert core.check_consistency() == []


def test_insert_of_entailed_fact_is_a_noop_delta():
    core = MaterializedCore(HIERARCHY, [fact("lvl0", "a")])
    before = len(core)
    result = core.apply_insert([fact("lvl0", "a")])
    assert result.added == ()
    assert len(core) == before
    # The fact is now *base* as well as derived, though: deleting the
    # lvl1 projection later cannot remove it.
    result = core.apply_insert([fact("lvl1", "a")])
    assert result.added == ()
    assert core.check_consistency() == []


def test_delete_retracts_downstream_derivations():
    core = MaterializedCore(
        HIERARCHY, [fact("lvl0", "a"), fact("lvl0", "b")]
    )
    result = core.apply_delete([fact("lvl0", "a")])
    assert fact("lvl2", "a") not in core.instance
    assert fact("lvl2", "b") in core.instance
    assert set(result.removed) == {
        fact("lvl0", "a"), fact("lvl1", "a"), fact("lvl2", "a")
    }
    assert core.check_consistency() == []


def test_delete_rederives_alternatively_supported_facts():
    core = MaterializedCore(DIAMOND, [fact("a", "x"), fact("b", "x")])
    result = core.apply_delete([fact("a", "x")])
    # c(x) is over-deleted with its a-derivation but immediately
    # re-derived from b(x): the net removal is a(x) alone.
    assert fact("c", "x") in core.instance
    assert set(result.removed) == {fact("a", "x")}
    assert core.check_consistency() == []


def test_delete_breaks_mutual_support_cycles():
    core = MaterializedCore(CYCLE, [fact("a", "x")])
    assert fact("b", "x") in core.instance
    core.apply_delete([fact("a", "x")])
    # Neither a(x) nor b(x) may survive on circular support.
    assert len(core.instance) == 0
    assert core.check_consistency() == []


def test_existential_consequences_are_invented_and_retracted():
    core = MaterializedCore(EXISTENTIAL, [fact("person", "ada")])
    ids = [f for f in core.instance.facts() if f.relation == "hasId"]
    assert len(ids) == 1
    assert isinstance(ids[0].terms[1], Null)
    core.apply_delete([fact("person", "ada")])
    assert len(core.instance) == 0
    assert core.check_consistency() == []


def test_delete_rederives_a_fact_whose_frontier_holds_a_null():
    core = MaterializedCore(
        NULL_FRONTIER, [fact("a", "k"), fact("b", "k"), fact("c", "k")]
    )
    (derived,) = [f for f in core.instance.facts() if f.relation == "s"]
    assert isinstance(derived.terms[0], Null)
    result = core.apply_delete([fact("c", "k")])
    assert derived in core.instance
    assert set(result.removed) == {fact("c", "k")}
    assert core.check_consistency() == []


def test_small_deltas_never_trigger_rechase():
    sink = InMemorySink()
    core = MaterializedCore(HIERARCHY, [fact("lvl0", "seed")])
    with obs.use(sink, inherit=False):
        for i in range(5):
            core.apply_insert([fact("lvl0", f"n{i}")])
        for i in range(5):
            core.apply_delete([fact("lvl0", f"n{i}")])
    counters = sink.counters()
    assert sink.spans("hybrid.rebuild") == []
    assert counters["hybrid.delta_applied"] == 10
    assert _certain_shape(core.instance) == _certain_shape(
        core.rechase_reference()
    )


def test_chase_budget_is_enforced():
    with pytest.raises(ChaseBudgetExceeded):
        MaterializedCore(
            HIERARCHY,
            [fact("lvl0", f"n{i}") for i in range(10)],
            max_steps=3,
        )


def test_mixed_mutation_sequence_stays_consistent():
    core = MaterializedCore(
        parse_program(
            """
            E: emp(X) -> person(X).
            P: person(X) -> hasId(X, Y).
            M: hasId(X, Y), emp(X) -> verified(X).
            """
        ),
        [fact("emp", "a"), fact("emp", "b")],
    )
    core.apply_insert([fact("emp", "c")])
    core.apply_delete([fact("emp", "a")])
    core.apply_insert([fact("person", "d")])
    core.apply_delete([fact("emp", "b"), fact("person", "d")])
    assert core.check_consistency() == []
    shape = _certain_shape(core.instance)
    assert fact("verified", "c") in shape
    assert fact("person", "a") not in shape


# --------------------------------------------------------------------- #
# The university ontology: recursion (U6/U8) and existential heads       #
# --------------------------------------------------------------------- #


def university_fact(rng: random.Random, size: int, fresh: str) -> Atom:
    """A random base fact over ``university_data(size)``'s constants, or
    about the fresh person *fresh*."""
    professor = f"person{rng.randrange(size // 2)}"
    grad = f"person{rng.randrange(size // 2, (3 * size) // 4)}"
    course = f"course{rng.randrange(max(1, size // 2))}"
    dept = f"dept{rng.randrange(max(1, size // 5))}"
    return rng.choice(
        [
            fact("teaches", professor, course),
            fact("worksFor", professor, dept),
            fact("hasAdvisor", grad, professor),
            fact("gradStudent", fresh),
            fact("takes", fresh, course),
            fact("fullProfessor", fresh),
            fact("department", fresh),
        ]
    )


def provenance_sizes(core: MaterializedCore) -> tuple[int, int, int]:
    return core.firing_count(), len(core._supports), len(core._uses)


def test_provenance_returns_to_its_size_after_insert_delete_pairs():
    rules = university_ontology()
    core = MaterializedCore(rules, university_data(200))
    built = provenance_sizes(core)
    rng = random.Random(7)
    pairs = 0
    while pairs < 200:
        new = university_fact(rng, 200, f"fresh{pairs}")
        if new in core.base:
            continue
        core.apply_insert([new])
        core.apply_delete([new])
        pairs += 1
    assert provenance_sizes(core) == built
    assert core.check_consistency() == []
    reference = core.rechase_reference()
    for name, query in university_queries():
        assert evaluate_cq(query, core.instance, certain=True) == evaluate_cq(
            query, reference, certain=True
        ), name


@pytest.mark.parametrize("seed", range(20))
def test_recursive_ontology_tapes_stay_consistent(seed):
    rng = random.Random(seed)
    core = MaterializedCore(university_ontology(), university_data(40, seed))
    for step in range(12):
        if rng.random() < 0.5:
            batch = [
                university_fact(rng, 40, f"fresh{step}_{i}")
                for i in range(rng.randint(1, 4))
            ]
            core.apply_insert(batch)
        else:
            facts = sorted(core.base.facts(), key=str)
            core.apply_delete(rng.sample(facts, rng.randint(1, 4)))
        assert core.check_consistency() == [], f"seed {seed}, step {step}"


def test_one_fact_delete_checks_few_triggers():
    core = MaterializedCore(university_ontology(), university_data(200))
    for relation in ("teaches", "worksFor", "hasAdvisor", "takes", "gradStudent"):
        victim = min(
            (f for f in core.base.facts() if f.relation == relation), key=str
        )
        sink = InMemorySink()
        with obs.use(sink, inherit=False):
            result = core.apply_delete([victim])
        assert sink.counters()["hybrid.rederive.triggers"] <= 50, relation
        attrs = sink.span("hybrid.delete")["attrs"]
        assert attrs["removed"] >= 1
        assert attrs["rederived"] == len(result.added)
    assert core.check_consistency() == []
