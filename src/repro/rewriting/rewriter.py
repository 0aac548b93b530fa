"""The UCQ rewriting engine.

Breadth-first saturation of the input UCQ under two operations:

* **piece rewriting** (:mod:`repro.rewriting.pieces`): resolve a piece
  of a CQ against a rule head and replace it with the rule body;
* **factorization**: merge unifiable atoms of a CQ, enabling rule heads
  with repeated/shared existential variables.

Newly generated CQs are minimized (core computation), deduplicated by
canonical form and -- except for factorizations, which must be kept as
intermediates for completeness -- pruned when subsumed by an already
known CQ.  The final result additionally removes subsumed disjuncts, so
the returned UCQ is a minimal sound-and-complete FO-rewriting whenever
the run completes.

On inputs that are not FO-rewritable the saturation does not terminate;
budgets turn it into an anytime procedure whose partial output is still
*sound* (every disjunct only produces certain answers).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.lang.errors import RewritingBudgetExceeded
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.minimize import minimize_cq, remove_subsumed
from repro.rewriting.pieces import factorizations, piece_rewritings
from repro.rewriting.subsume import SubsumptionFrontier


@dataclass(frozen=True)
class RewritingResult:
    """Outcome of one rewriting run.

    Attributes:
        ucq: the final (subsumption-minimized) UCQ rewriting.
        complete: True iff saturation finished within budget; when
            False the UCQ is a sound under-approximation.
        depth_reached: number of breadth-first rounds performed.
        generated: number of distinct CQs generated (after dedup).
        explored: number of CQs whose rewritings were expanded.
        per_depth: number of *new* CQs discovered at each round
            (index 0 counts the input disjuncts); this is the growth
            series used to exhibit the paper's "unbounded chain" of
            Example 2.
        lineage: canonical-key -> (parent canonical-key or None, step
            description) for every generated CQ; the provenance record
            behind :meth:`derivation_of`.
    """

    ucq: UnionOfConjunctiveQueries
    complete: bool
    depth_reached: int
    generated: int
    explored: int
    per_depth: tuple[int, ...] = field(default_factory=tuple)
    lineage: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        """Number of disjuncts of the final rewriting."""
        return len(self.ucq)

    @property
    def max_body_atoms(self) -> int:
        """Largest disjunct body size (join width) in the rewriting."""
        return max(len(cq.body) for cq in self.ucq)

    def derivation_of(self, cq: ConjunctiveQuery) -> tuple[str, ...]:
        """The rule-application chain that produced *cq*.

        Returns step descriptions from the original query to *cq*
        (oldest first); the empty tuple for an input disjunct.  Raises
        ``KeyError`` for CQs this run never generated.
        """
        key = cq.canonical()
        if key not in self.lineage:
            raise KeyError(f"no derivation recorded for {cq}")
        steps: list[str] = []
        while True:
            parent, step = self.lineage[key]
            if parent is None:
                break
            steps.append(step)
            key = parent
        return tuple(reversed(steps))


def _parser_safe_names(cq: ConjunctiveQuery) -> ConjunctiveQuery:
    """Rename internal ``~``-suffixed variables to clean fresh names.

    Standardizing rules apart introduces names like ``Y1~2`` that the
    concrete syntax deliberately reserves; the final rewriting is a
    user-facing artifact (printed, stored, re-parsed), so it must use
    only parser-legal names.
    """
    from repro.lang.substitution import Substitution
    from repro.lang.terms import Variable

    dirty = [v for v in cq.body_variables() if "~" in v.name or "#" in v.name]
    if not dirty:
        return cq
    taken = {v.name for v in cq.body_variables()}
    mapping: dict[Variable, Variable] = {}
    counter = 0
    for var in dirty:
        while True:
            counter += 1
            candidate = f"W{counter}"
            if candidate not in taken:
                break
        taken.add(candidate)
        mapping[var] = Variable(candidate)
    return cq.apply(Substitution(mapping))


def rewrite(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries,
    rules: Sequence[TGD],
    budget: RewritingBudget | None = None,
    prune_subsumed: bool = True,
    factorize: bool = True,
    minimize: bool = True,
) -> RewritingResult:
    """Compute the UCQ rewriting of *query* with respect to *rules*.

    Raises :class:`RewritingBudgetExceeded` only when ``budget.strict``;
    otherwise budget exhaustion is reported via ``complete=False``.

    The ablation switches exist for the ablation benches and should
    stay at their defaults in normal use.  Redundancy elimination
    (*minimize* + *prune_subsumed*) is what makes saturation terminate
    on sets with harmless recursion: with both disabled, ever-longer
    subsumed CQs keep appearing even on the paper's SWR Example 1.
    *factorize* adds explicit atom-merging steps; the piece unifier's
    forced aggregation already covers the known factorization cases
    (the A2 ablation bench documents this redundancy), so the step is
    kept as a safety net at negligible cost.
    """
    budget = budget or RewritingBudget.default()
    deadline = (
        _time.monotonic() + budget.max_seconds
        if budget.max_seconds is not None
        else None
    )
    rules = list(rules)

    def normalize(cq: ConjunctiveQuery) -> ConjunctiveQuery:
        cq = cq.dedupe_body()
        return minimize_cq(cq) if minimize else cq

    with obs.span("rewrite", rules=len(rules)) as span:
        initial = [
            normalize(cq) for cq in UnionOfConjunctiveQueries.of(query)
        ]
        span.set(disjuncts=len(initial))

        seen: dict[tuple, ConjunctiveQuery] = {}
        lineage: dict[tuple, tuple] = {}
        # The incrementally minimal set of subsumption representatives:
        # new CQs are checked against it (covers) and evict members
        # they strictly subsume (add), so the final pass starts from an
        # already-near-minimal antichain instead of every kept CQ.
        kept = SubsumptionFrontier()
        frontier: list[ConjunctiveQuery] = []
        for cq in initial:
            key = cq.canonical()
            if key not in seen:
                seen[key] = cq
                lineage[key] = (None, "input")
                kept.add(cq)
                frontier.append(cq)


        per_depth = [len(frontier)]
        depth = 0
        explored = 0
        complete = True
        tallies = {"explored": 0, "candidates": 0, "duplicates": 0, "pruned": 0}

        while frontier:
            if budget.max_depth is not None and depth >= budget.max_depth:
                complete = False
                break
            depth += 1
            with obs.span(
                "rewrite.round", depth=depth, frontier=len(frontier)
            ) as round_span:
                next_frontier, overflow = _expand_round(
                    frontier, rules, budget, deadline, normalize,
                    factorize, prune_subsumed, seen, lineage, kept, tallies,
                )
                round_span.set(new=len(next_frontier))
            per_depth.append(len(next_frontier))
            frontier = next_frontier
            if overflow:
                complete = False
                break

        explored = tallies["explored"]
        obs.count("rewrite.candidates", tallies["candidates"])
        obs.count("rewrite.duplicates", tallies["duplicates"])
        obs.count("rewrite.subsumption_pruned", tallies["pruned"])
        obs.count("rewrite.cqs_generated", len(seen))
        obs.count("rewrite.cqs_explored", explored)
        span.set(complete=complete, depth=depth, generated=len(seen))

        if not complete and budget.strict:
            raise RewritingBudgetExceeded(
                f"rewriting exceeded budget (depth={depth}, cqs={len(seen)})",
                partial_cqs=len(seen),
                depth_reached=depth,
            )

        with obs.span("rewrite.finalize", kept=len(kept)) as fin:
            final = [
                _parser_safe_names(cq)
                for cq in remove_subsumed(kept.queries(), kernel=kept.kernel)
            ]
            fin.set(size=len(final))
        span.set(size=len(final))
        return RewritingResult(
            ucq=UnionOfConjunctiveQueries(list(final)),
            complete=complete,
            depth_reached=depth,
            generated=len(seen),
            explored=explored,
            per_depth=tuple(per_depth),
            lineage=lineage,
        )


def _expand_round(
    frontier: list[ConjunctiveQuery],
    rules: Sequence[TGD],
    budget: RewritingBudget,
    deadline: float | None,
    normalize,
    factorize: bool,
    prune_subsumed: bool,
    seen: dict,
    lineage: dict,
    kept: SubsumptionFrontier,
    tallies: dict[str, int],
) -> tuple[list[ConjunctiveQuery], bool]:
    """One breadth-first saturation round: expand every frontier CQ.

    Mutates *seen*, *lineage*, *kept* and *tallies* in place; returns
    ``(next_frontier, overflow)`` where *overflow* signals a tripped
    time or CQ-count budget.
    """
    next_frontier: list[ConjunctiveQuery] = []
    overflow = False
    for cq in frontier:
        if deadline is not None and _time.monotonic() > deadline:
            overflow = True
            break
        tallies["explored"] += 1
        parent_key = cq.canonical()
        candidates: list[tuple[ConjunctiveQuery, bool, str]] = []
        for rule in rules:
            for step in piece_rewritings(cq, rule):
                label = rule.label or str(rule)
                candidates.append((step.query, False, f"apply {label}"))
        if factorize:
            for factored in factorizations(cq):
                candidates.append((factored, True, "factorize"))
        tallies["candidates"] += len(candidates)
        for candidate, is_factorization, step_name in candidates:
            if deadline is not None and _time.monotonic() > deadline:
                overflow = True
                break
            candidate = normalize(candidate)
            key = candidate.canonical()
            if key in seen:
                tallies["duplicates"] += 1
                continue
            if prune_subsumed and not is_factorization and kept.covers(
                candidate
            ):
                # Subsumed by an explored (or to-be-explored) more
                # general CQ; its rewritings are covered.
                tallies["pruned"] += 1
                seen[key] = candidate
                lineage[key] = (parent_key, step_name)
                continue
            seen[key] = candidate
            lineage[key] = (parent_key, step_name)
            if not is_factorization:
                kept.add(candidate)
            next_frontier.append(candidate)
            if len(seen) > budget.max_cqs:
                overflow = True
                break
        if overflow:
            break
    return next_frontier, overflow
