"""Static rewriting-size estimation from ``AG(P)`` fan-out.

PerfectRef-style saturation multiplies the UCQ frontier by (at most)
the number of applicable rules per atom each round; the number of
effective rounds is bounded by the longest derivation chain of the
query's relations.  Both quantities are readable off the dependency
structure *before* any rewriting runs, which is exactly the
succinctness observation of Gottlob & Schwentick (*Rewriting
Ontological Queries into Small Nonrecursive Datalog Programs*) and
Kikot et al. (*On the Succinctness of Query Rewriting ...*): blowup is
predictable from the rule graph.

:func:`estimate_disjunct_bound` turns that into a concrete (crude but
sound-as-an-upper-bound) disjunct-count estimate together with the
*offending rule chain* -- the derivation path realising the depth --
so a blowup report can name the rules to restructure.  It is the one
static blowup estimator: it backs the ``RL105`` check pass, lint's
``RL021`` warning and the per-query choice of ``target="auto"``
(:meth:`repro.rewriting.engine.FORewritingEngine.resolve_target`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.depgraph import derivers
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget

#: Cap on the estimate so the arithmetic stays exact but bounded.
ESTIMATE_CAP = 10**18


@dataclass(frozen=True)
class BlowupEstimate:
    """Outcome of the static disjunct-count estimation.

    Attributes:
        bound: estimated upper bound on the UCQ disjunct count
            (capped at :data:`ESTIMATE_CAP`).
        per_round: the per-round multiplier ``1 + Σ_α b(rel(α))``.
        depth: assumed number of rewriting rounds.
        cyclic: True when the derivation graph of the query's relations
            is cyclic (the depth is then a configured assumption, not a
            structural bound).
        chain: labels of the rules along the derivation path realising
            *depth* (for cyclic inputs: the rules closing the cycle).
    """

    bound: int
    per_round: int
    depth: int
    cyclic: bool
    chain: tuple[str, ...]

    @property
    def capped(self) -> bool:
        """True when the bound saturated at :data:`ESTIMATE_CAP`."""
        return self.bound >= ESTIMATE_CAP

    def render_bound(self) -> str:
        """``~N`` or ``>=10^18`` when saturated."""
        return ">=10^18" if self.capped else f"~{self.bound}"


def _longest_chain(
    roots: Sequence[str],
    deriving: dict[str, dict[str, TGD]],
) -> tuple[int, tuple[str, ...], bool]:
    """(depth, rule chain, cyclic) of the longest derivation path.

    Depth counts "is rewritten into" steps: a relation depends on the
    body relations of every rule deriving it.  On a cycle the depth is
    unbounded; the chain then names the rules traversed up to (and
    closing) the first cycle found, and ``cyclic`` is True.
    """
    memo: dict[str, tuple[int, tuple[str, ...]]] = {}
    in_progress: dict[str, str | None] = {}
    cycle_chain: list[str] = []

    def visit(relation: str) -> tuple[int, tuple[str, ...]] | None:
        if relation in in_progress:
            # Close the witness chain with the labels currently on the
            # recursion stack from the repeated relation onwards.
            stack = list(in_progress)
            for rel in stack[stack.index(relation):]:
                label = in_progress[rel]
                if label is not None and label not in cycle_chain:
                    cycle_chain.append(label)
            return None
        if relation in memo:
            return memo[relation]
        in_progress[relation] = None
        best = 0
        best_chain: tuple[str, ...] = ()
        for label, rule in deriving.get(relation, {}).items():
            in_progress[relation] = label
            for atom in rule.body:
                sub = visit(atom.relation)
                if sub is None:
                    in_progress.pop(relation, None)
                    return None
                depth, chain = sub
                if 1 + depth > best:
                    best = 1 + depth
                    best_chain = (label,) + chain
        in_progress.pop(relation, None)
        memo[relation] = (best, best_chain)
        return memo[relation]

    depth = 0
    chain: tuple[str, ...] = ()
    for root in sorted(set(roots)):
        result = visit(root)
        if result is None:
            return 0, tuple(cycle_chain), True
        if result[0] > depth:
            depth, chain = result
    return depth, chain, False


def _alternatives(
    relation: str,
    deriving: dict[str, dict[str, TGD]],
    memo: dict[str, int],
    in_progress: set[str],
) -> int:
    """Number of alternative rewritten forms of one atom over *relation*.

    ``A(r) = 1 + Σ_{rules deriving r} Π_{body atoms} A(rel)`` -- the
    size of the UCQ rewriting of the atomic query over ``r`` (each rule
    application replaces the atom with its body, whose atoms rewrite
    independently).  Cycles saturate at :data:`ESTIMATE_CAP`.
    """
    if relation in memo:
        return memo[relation]
    if relation in in_progress:
        return ESTIMATE_CAP
    in_progress.add(relation)
    total = 1
    for rule in deriving.get(relation, {}).values():
        contribution = 1
        for atom in rule.body:
            contribution = min(
                contribution
                * _alternatives(atom.relation, deriving, memo, in_progress),
                ESTIMATE_CAP,
            )
        total = min(total + contribution, ESTIMATE_CAP)
    in_progress.discard(relation)
    memo[relation] = total
    return total


def estimate_combination_bound(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries,
    rules: Sequence[TGD],
) -> int:
    """Per-atom combination estimate of the UCQ rewriting size.

    The round-based bound of :func:`estimate_disjunct_bound` tracks
    derivation *depth* and misses the cross-product blowup of wide
    conjunctions: ``n`` joined atoms with ``k`` derivers each explode
    to ``(k+1)^n`` disjuncts while every derivation chain has length 1.
    This estimate multiplies the per-atom alternative counts instead
    (summed over disjuncts), which is exact for factorizable queries --
    the family the nonrecursive-Datalog target collapses to
    ``n(k+1) + 1`` rules.  Deterministic in (query, rules), so the
    engine's ``target="auto"`` resolves identically in every process.
    """
    deriving = derivers(rules)
    ucq = UnionOfConjunctiveQueries.of(query)
    memo: dict[str, int] = {}
    total = 0
    for cq in ucq:
        product = 1
        for atom in cq.body:
            product = min(
                product
                * _alternatives(atom.relation, deriving, memo, set()),
                ESTIMATE_CAP,
            )
        total = min(total + product, ESTIMATE_CAP)
    return total


def estimate_disjunct_bound(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries,
    rules: Sequence[TGD],
    budget: RewritingBudget | None = None,
    default_depth: int = 10,
) -> BlowupEstimate:
    """Static upper-bound estimate of the rewriting's disjunct count.

    One rewriting round can rewrite each atom of a disjunct with any
    rule deriving its relation, multiplying the frontier by at most
    ``1 + Σ_α b(rel(α))``; the number of effective rounds is the
    longest derivation chain of the query's relations.  When that chain
    is cyclic, the budget's ``max_depth`` (or *default_depth*) is
    assumed instead.  For a UCQ the per-disjunct estimates add up and
    the reported chain is the worst disjunct's.
    """
    budget = budget or RewritingBudget.default()
    deriving = derivers(rules)
    ucq = UnionOfConjunctiveQueries.of(query)

    total = 0
    worst: BlowupEstimate | None = None
    for cq in ucq:
        per_round = 1 + sum(
            len(deriving.get(atom.relation, {})) for atom in cq.body
        )
        depth, chain, cyclic = _longest_chain(
            [atom.relation for atom in cq.body], deriving
        )
        if cyclic:
            depth = (
                budget.max_depth
                if budget.max_depth is not None
                else default_depth
            )
        bound = 1
        for _ in range(depth):
            bound *= per_round
            if bound > ESTIMATE_CAP:
                bound = ESTIMATE_CAP
                break
        estimate = BlowupEstimate(
            bound=bound,
            per_round=per_round,
            depth=depth,
            cyclic=cyclic,
            chain=chain,
        )
        total = min(total + bound, ESTIMATE_CAP)
        if worst is None or estimate.bound > worst.bound:
            worst = estimate
    assert worst is not None  # a UCQ has at least one disjunct
    return BlowupEstimate(
        bound=total,
        per_round=worst.per_round,
        depth=worst.depth,
        cyclic=worst.cyclic,
        chain=worst.chain,
    )
