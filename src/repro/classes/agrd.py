"""Acyclic Graph of Rule Dependencies (aGRD), Baget et al. [2].

Rule ``R2`` *depends on* rule ``R1`` when an application of ``R1`` can
trigger a new application of ``R2`` -- witnessed by a unifier between
some head atom of ``R1`` and some body atom of ``R2`` that respects
existential variables (an existential head variable of ``R1`` denotes
a fresh null, so it cannot be required to equal a constant, a frontier
variable, or another existential variable: the null rule of
:func:`repro.lang.unify.null_clash`).  A TGD set is aGRD when the
dependency graph has no directed cycle; aGRD sets are FO-rewritable
(the rewriting saturation visits each rule at most once along any
derivation path).

The test unifies one head atom with one body atom.  Every
piece-unifier contains such a pair, so the graph over-approximates the
piece-unifier dependencies: a set reported aGRD is aGRD.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from repro.classes.base import ClassCheck, label_of
from repro.lang.tgd import TGD
from repro.lang.unify import null_clash, term_classes


def _may_trigger(producer: TGD, consumer: TGD) -> bool:
    """True iff firing *producer* can enable a new match of *consumer*.

    Some head atom of *producer* must unify with some body atom of
    *consumer* under the null rule.
    """
    fresh_consumer = consumer.rename_apart(producer.variables())
    existential = set(producer.existential_head_variables())
    frontier = set(producer.distinguished_variables())
    for head_atom in producer.head:
        for body_atom in fresh_consumer.body:
            if (
                head_atom.relation != body_atom.relation
                or head_atom.arity != body_atom.arity
            ):
                continue
            classes = term_classes(zip(head_atom.terms, body_atom.terms))
            if classes is not None and not any(
                null_clash(group, existential, frontier) for group in classes
            ):
                return True
    return False


def rule_dependency_graph(rules: Sequence[TGD]) -> nx.DiGraph:
    """The GRD: nodes are rule indexes; edge i→j iff rule j depends on i."""
    rules = tuple(rules)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(rules)))
    for i, producer in enumerate(rules):
        for j, consumer in enumerate(rules):
            if _may_trigger(producer, consumer):
                graph.add_edge(i, j)
    return graph


def is_agrd(rules: Sequence[TGD]) -> ClassCheck:
    """The graph of rule dependencies is acyclic."""
    rules = tuple(rules)
    graph = rule_dependency_graph(rules)
    try:
        cycle = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return ClassCheck("aGRD", True)
    rendered = " -> ".join(
        label_of(rules[source], source + 1) for source, _ in cycle
    )
    first = cycle[0][0]
    rendered += f" -> {label_of(rules[first], first + 1)}"
    return ClassCheck(
        "aGRD", False, (f"dependency cycle: {rendered}",)
    )
