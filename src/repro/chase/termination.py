"""Weak acyclicity: the classical chase-termination guarantee.

Weak acyclicity (Fagin et al., data exchange) is orthogonal to the
paper's FO-rewritability classes but essential infrastructure here: the
test suite and benches use the chase as ground truth for certain
answers, which requires knowing the chase terminates.  A TGD set is
weakly acyclic when its *position dependency graph* has no cycle
through a special edge.

The graph has one node per position ``r[i]`` and, for every rule and
every body occurrence of a frontier variable ``x`` at position ``p``:

* a **regular** edge ``p -> q`` for every head occurrence of ``x`` at
  position ``q``;
* a **special** edge ``p -> q`` for every head position ``q`` holding
  an existential head variable (a value invented from ``x``'s value).

Only :mod:`repro.analysis.depgraph` constructs that graph.
"""

from __future__ import annotations

from typing import Sequence

from repro.lang.tgd import TGD


def is_weakly_acyclic(rules: Sequence[TGD]) -> bool:
    """True iff no cycle of the dependency graph uses a special edge.

    Delegates to the digest-cached dependency graph of
    :mod:`repro.analysis.depgraph`, so repeated checks of one rule set
    build the graph once; cache traffic shows up as
    ``analysis.graph_cache_hits``.
    """
    from repro.analysis.depgraph import dependency_graph

    return dependency_graph(rules).weakly_acyclic
