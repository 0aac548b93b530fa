"""Unit matrix for the hybrid cost model (repro.hybrid.cost)."""

from __future__ import annotations

import pytest

from repro.analysis.separability import separate
from repro.hybrid.cost import (
    DEFAULT_UNIT_COSTS,
    HybridChoice,
    HybridDecision,
    decide,
)
from repro.lang.parser import parse_program, parse_query

# Terminating (weakly acyclic), with a modest static disjunct bound.
HIERARCHY = parse_program(
    """
    H1: lvl0(X) -> lvl1(X).
    H2: lvl1(X) -> lvl2(X).
    """
)
HIERARCHY_QUERY = parse_query("q(X) :- lvl2(X)")

# Non-terminating but separable: the emp->person rule is a chase-safe
# core, the person/knows existential cycle stays residual.
SEPARABLE = parse_program(
    """
    E: emp(X) -> person(X).
    K: person(X) -> knows(X, Y).
    B: knows(X, Y) -> person(Y).
    """
)

# Non-terminating and inseparable: no chase-safe stratified core.
INSEPARABLE = parse_program(
    """
    K: person(X) -> knows(X, Y).
    B: knows(X, Y) -> person(Y).
    """
)


def test_auto_prefers_rewriting_for_query_sparse_workloads():
    partition = separate(HIERARCHY, [HIERARCHY_QUERY])
    decision = decide(
        partition=partition, data_size=1000, workload_weight=1
    )
    assert decision.choice is HybridChoice.REWRITE
    assert not decision.forced
    assert "rewrite" in decision.feasible
    assert decision.estimates["rewrite"] < decision.estimates["materialize"]


def test_auto_amortizes_materialization_over_hot_workloads():
    partition = separate(HIERARCHY, [HIERARCHY_QUERY])
    decision = decide(
        partition=partition, data_size=4, workload_weight=10_000
    )
    assert decision.choice is HybridChoice.MATERIALIZE
    assert decision.workload_weight == 10_000


def test_auto_never_offers_materialize_without_certificate():
    partition = separate(INSEPARABLE)
    decision = decide(
        partition=partition, data_size=10, workload_weight=10_000
    )
    assert decision.choice is HybridChoice.REWRITE
    assert "materialize" not in decision.feasible
    assert "split" not in decision.feasible


def test_auto_offers_split_only_on_proper_partitions():
    separable = separate(SEPARABLE)
    assert separable.proper
    decision = decide(
        partition=separable, data_size=10, workload_weight=10_000
    )
    assert "split" in decision.feasible
    inseparable = separate(INSEPARABLE)
    assert not inseparable.proper
    decision = decide(
        partition=inseparable, data_size=10, workload_weight=10_000
    )
    assert "split" not in decision.feasible


def test_auto_never_prefers_unbounded_rewrite_over_split():
    # Without a workload the partition has no static disjunct bounds,
    # so REWRITE and SPLIT both estimate at the UNBOUNDED ceiling.
    separable = separate(SEPARABLE)
    assert separable.proper and separable.full_bound is None
    decision = decide(partition=separable, data_size=10)
    assert decision.choice is HybridChoice.SPLIT
    assert decision.estimates["rewrite"] <= decision.estimates["split"]
    assert "no static disjunct bound" in decision.reason
    # Inseparable: REWRITE stays the fallback, bound or no bound.
    inseparable = separate(INSEPARABLE)
    assert decide(partition=inseparable).choice is HybridChoice.REWRITE


def test_split_core_share_uses_live_relation_sizes():
    # With a workload, the residual disjunct bound is finite and the
    # core-share term is what distinguishes the estimates.
    partition = separate(SEPARABLE, [parse_query("q(X) :- person(X)")])
    assert partition.residual_bound is not None
    # The core's body only reads `emp`; with live cardinalities the
    # split estimate should ignore the huge person relation, and come
    # out exactly 9_995 chase-fact units cheaper than the blind
    # whole-database pricing.
    blind = decide(
        partition=partition, data_size=10_000, workload_weight=100
    )
    informed = decide(
        partition=partition,
        data_size=10_000,
        relation_sizes={"emp": 5, "person": 9_995},
        workload_weight=100,
    )
    saved = blind.estimates["split"] - informed.estimates["split"]
    assert saved == 9_995 * DEFAULT_UNIT_COSTS["chase_fact"]


def test_pinned_mode_is_forced():
    partition = separate(HIERARCHY, [HIERARCHY_QUERY])
    decision = decide(partition=partition, mode="materialize")
    assert decision.choice is HybridChoice.MATERIALIZE
    assert decision.forced


def test_pinned_materialize_falls_back_without_certificate():
    partition = separate(INSEPARABLE)
    decision = decide(partition=partition, mode="materialize")
    assert decision.choice is HybridChoice.REWRITE
    assert decision.forced
    assert "falling back" in decision.reason


def test_pinned_split_falls_back_on_improper_partitions():
    terminating = separate(HIERARCHY, [HIERARCHY_QUERY])
    assert not terminating.proper  # residual is empty: whole set chases
    decision = decide(partition=terminating, mode="split")
    assert decision.choice is HybridChoice.MATERIALIZE
    assert decision.forced
    inseparable = separate(INSEPARABLE)
    decision = decide(partition=inseparable, mode="split")
    assert decision.choice is HybridChoice.REWRITE


def test_unknown_mode_raises():
    partition = separate(HIERARCHY)
    with pytest.raises(ValueError):
        decide(partition=partition, mode="chaotic")


def test_decision_to_dict_round_trips_the_choice():
    partition = separate(HIERARCHY, [HIERARCHY_QUERY])
    decision = decide(partition=partition, data_size=10)
    payload = decision.to_dict()
    assert payload["choice"] == decision.choice.value
    assert payload["feasible"] == list(decision.feasible)
    assert isinstance(payload["estimates"], dict)


def test_pinned_constructor_marks_forced():
    decision = HybridDecision.pinned(HybridChoice.SPLIT, "because")
    assert decision.forced
    assert decision.feasible == ("split",)
