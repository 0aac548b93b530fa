"""Tests for repro.data.saturate (the shared semi-naive loop)."""

import pytest

from repro.chase.chase import oblivious_chase, restricted_chase
from repro.chase.skolem import skolem_chase
from repro.data.database import Database
from repro.data.evaluation import all_homomorphisms
from repro.data.saturate import add_head, saturate
from repro.hybrid import MaterializedCore
from repro.lang.errors import ChaseBudgetExceeded
from repro.lang.parser import parse_database, parse_program

# Suppressed triggers occur both before and after the last firing of
# the restricted policies: E3's head already holds, and E4's head is
# met by the worksAt fact that produced each org.
PROGRAM = parse_program(
    """
    E1: person(X) -> worksAt(X, Y).
    E2: worksAt(X, Y) -> org(Y).
    E3: employee(X) -> person(X).
    E4: org(Y) -> worksAt(Z, Y).
    """
)
FACTS = "person(ada). employee(ada). worksAt(bob, lab)."

PATHS = parse_program(
    """
    edge(X, Y) -> path(X, Y).
    path(X, Y), path(Y, Z) -> path(X, Z).
    """
)


def db(text):
    return Database(parse_database(text))


def _chase_steps(chase):
    def run(max_steps):
        return chase(PROGRAM, db(FACTS), max_steps=max_steps, strict=True).steps

    return run


def _core_build_steps(max_steps):
    core = MaterializedCore(PROGRAM, db(FACTS), max_steps=max_steps)
    return core.firing_count()


def _core_insert_steps(max_steps):
    core = MaterializedCore(PROGRAM, [], max_steps=max_steps)
    return core.apply_insert(parse_database(FACTS)).firings


def _core_delete_steps(max_steps):
    # Deleting person(ada) over-deletes it, worksAt(ada, _) and that
    # org; E3 re-derives person(ada) in the backward step, and E1 and
    # E2 re-fire in the forward step: one budget covers all three.
    core = MaterializedCore(PROGRAM, db(FACTS))
    core.max_steps = max_steps
    return core.apply_delete(parse_database("person(ada).")).firings


BUDGETED = {
    "restricted": _chase_steps(restricted_chase),
    "oblivious": _chase_steps(oblivious_chase),
    "skolem": _chase_steps(skolem_chase),
    "core-build": _core_build_steps,
    "core-delete": _core_delete_steps,
    "core-insert": _core_insert_steps,
}


@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_budget_boundary(name):
    run = BUDGETED[name]
    needed = run(10_000)
    assert needed >= 3
    assert run(needed) == needed
    with pytest.raises(ChaseBudgetExceeded):
        run(needed - 1)


@pytest.mark.parametrize(
    "chase", [restricted_chase, oblivious_chase, skolem_chase]
)
def test_non_strict_truncation_reports_the_budget(chase):
    needed = chase(PROGRAM, db(FACTS)).steps
    result = chase(PROGRAM, db(FACTS), max_steps=needed - 1)
    assert not result.fixpoint
    assert result.steps == needed - 1


def _fire_into(instance, fired):
    def fire(rule_index, rule, hom):
        fired.append((rule_index, tuple(hom[v] for v in rule.body_variables())))
        return add_head(instance, rule, hom)

    return fire


def test_every_trigger_is_enumerated_once():
    instance = db("edge(a, b). edge(b, c). edge(c, d). edge(d, a).")
    fired = []
    run = saturate(PATHS, instance, _fire_into(instance, fired))
    assert run.fixpoint
    assert instance.count("path") == 16
    assert len(fired) == len(set(fired)) == run.steps == run.triggers
    final = sum(
        len(list(all_homomorphisms(rule.body, instance))) for rule in PATHS
    )
    assert run.steps == final


def test_delta_anchors_the_first_round():
    instance = db("edge(a, b). path(a, b). edge(b, c).")
    fired = []
    run = saturate(
        PATHS, instance, _fire_into(instance, fired),
        delta=parse_database("edge(b, c)."),
    )
    # Only edge(b, c) is new: path(a, b) and its trigger are settled.
    assert fired[0] == (0, tuple(parse_database("edge(b, c).")[0].terms))
    assert instance.count("path") == 3
    assert run.added == list(parse_database("path(b, c). path(a, c)."))
