"""The shared, digest-cached position dependency graph.

Every termination criterion in :mod:`repro.analysis.termination` (and
:func:`repro.chase.termination.is_weakly_acyclic`, which delegates
here) reads the same position dependency graph, and only this module
constructs it.  Building it is linear in the program size, but the
lattice, separability and ``repro check`` passes each consult it, so
the graph is built once per rule set and cached under the
rule-order-insensitive ontology digest of :mod:`repro.rewriting.store`.

The graph is a :class:`~repro.graphs.cycles.LabeledGraph` rather than a
raw ``networkx`` multigraph so that every edge carries rule provenance
and the label machinery can extract deterministic witness cycles: a
weak-acyclicity violation is exactly a cycle through a
``special``-labeled edge, and :meth:`LabeledGraph.find_labeled_cycle`
returns it ready for diagnostics.

Cache hits and misses are observable as ``analysis.graph_cache_hits`` /
``analysis.graph_cache_misses`` counters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.graphs.cycles import LabeledEdge, LabeledGraph
from repro.lang.atoms import Position
from repro.lang.terms import Variable
from repro.lang.tgd import TGD
from repro.rewriting.store import ontology_digest

#: Edge label marking value invention (an existential head position).
SPECIAL = "special"

#: Maximum number of dependency graphs kept alive (LRU).
_CACHE_LIMIT = 64


def rule_name(rule: TGD, index: int) -> str:
    """Stable provenance key for *rule*: its label or ``#<index>``.

    The positional fallback is relative to the rule tuple the graph was
    built from, so unlabeled rules should be passed in a stable order.
    """
    return rule.label or f"#{index}"


def rules_by_name(rules: Sequence[TGD]) -> dict[str, TGD]:
    """provenance key -> rule, using the same enumeration as the graph."""
    return {
        rule_name(rule, index): rule
        for index, rule in enumerate(rules, start=1)
    }


def derivers(rules: Sequence[TGD]) -> dict[str, dict[str, TGD]]:
    """relation -> {provenance key: rule} of the rules deriving it.

    Relations and rules appear in program order; a key seen twice keeps
    its first rule.
    """
    out: dict[str, dict[str, TGD]] = {}
    for index, rule in enumerate(rules, start=1):
        name = rule_name(rule, index)
        for atom in rule.head:
            out.setdefault(atom.relation, {}).setdefault(name, rule)
    return out


@dataclass(frozen=True)
class DependencyGraph:
    """The position dependency graph of one TGD set.

    Attributes:
        digest: the ontology digest the graph is cached under.
        rules: the rule tuple the graph was built from.
        graph: nodes are :class:`Position` objects; an edge carries the
            ``special`` label iff it tracks value invention, and the
            provenance keys of every rule that contributed it.
    """

    digest: str
    rules: tuple[TGD, ...]
    graph: LabeledGraph

    def weak_acyclicity_witness(self) -> tuple[LabeledEdge, ...] | None:
        """A cycle through a special edge, or None when weakly acyclic."""
        return self.graph.find_labeled_cycle((SPECIAL,))

    @property
    def weakly_acyclic(self) -> bool:
        return self.weak_acyclicity_witness() is None


def _build(rules: tuple[TGD, ...]) -> LabeledGraph:
    graph = LabeledGraph()
    for index, rule in enumerate(rules, start=1):
        name = rule_name(rule, index)
        frontier = set(rule.distinguished_variables())
        existential = set(rule.existential_head_variables())
        head_sites: dict[Variable, list[Position]] = {}
        existential_sites: list[Position] = []
        for atom in rule.head:
            for position, term in enumerate(atom.terms, start=1):
                if isinstance(term, Variable):
                    site = Position(atom.relation, position)
                    if term in existential:
                        existential_sites.append(site)
                    else:
                        head_sites.setdefault(term, []).append(site)
        for atom in rule.body:
            for position, term in enumerate(atom.terms, start=1):
                if not isinstance(term, Variable) or term not in frontier:
                    continue
                source = Position(atom.relation, position)
                for target in head_sites.get(term, ()):
                    graph.add_edge(source, target, rules=(name,))
                for target in existential_sites:
                    graph.add_edge(
                        source, target, labels=(SPECIAL,), rules=(name,)
                    )
    return graph


_cache: OrderedDict[str, DependencyGraph] = OrderedDict()


def dependency_graph(rules: Sequence[TGD]) -> DependencyGraph:
    """The (cached) position dependency graph of *rules*."""
    rules = tuple(rules)
    digest = ontology_digest(rules)
    cached = _cache.get(digest)
    if cached is not None:
        _cache.move_to_end(digest)
        obs.count("analysis.graph_cache_hits")
        return cached
    obs.count("analysis.graph_cache_misses")
    with obs.span("analysis.depgraph.build", rules=len(rules)):
        built = DependencyGraph(
            digest=digest, rules=rules, graph=_build(rules)
        )
    _cache[digest] = built
    while len(_cache) > _CACHE_LIMIT:
        _cache.popitem(last=False)
    return built


def clear_graph_cache() -> None:
    """Drop every cached dependency graph (tests and benchmarks)."""
    _cache.clear()


def graph_cache_size() -> int:
    """Number of dependency graphs currently cached."""
    return len(_cache)
