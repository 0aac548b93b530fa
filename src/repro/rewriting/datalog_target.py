"""The nonrecursive-Datalog rewriting target.

The UCQ rewriting of a query w.r.t. a TGD set is worst-case exponential
because saturation multiplies the rewriting choices of every body atom
into explicit disjuncts.  Gottlob & Schwentick ("Rewriting Ontological
Queries into Small Nonrecursive Datalog Programs") observe that the
same certain answers admit a polynomial-size *nonrecursive Datalog*
presentation: give every atom's rewriting its own intermediate
predicate once, and join the intermediates instead of distributing the
union over the conjunction.

This module implements that target on top of the existing UCQ rewriter:

* every body atom of an input disjunct is abstracted to a *pattern*
  (relation, which argument places carry exported variables, local
  existentials or constants); renaming-equivalent atoms across all
  disjuncts share one pattern;
* each pattern gets an auxiliary predicate ``aux<i>`` defined by the
  (complete) UCQ rewriting of its *atomic* projection query -- one rule
  per rewritten disjunct;
* each input disjunct becomes a single *goal rule* joining its atoms'
  auxiliary predicates on the shared answer variables.

The per-atom factorization is sound **and** complete exactly when the
disjunct has no NLE variables (existential variables joining two
distinct atoms): atom-local existentials let the certain-answer
condition distribute over the conjunction, ``chase |= ∃ē ⋀ᵢ αᵢ[ā]  iff
⋀ᵢ chase |= ∃ēᵢ αᵢ[ā]``.  Disjuncts *with* NLE variables fall back to
their full UCQ rewriting, emitted as direct goal rules, so the target
is sound and complete on every input and polynomial precisely on the
blowup families (per-atom cartesian products) the estimator flags.

The emitted program is nonrecursive by construction (goal rules read
auxiliary predicates, auxiliary rules read only base relations), so
:func:`repro.data.evaluation.evaluate_nonrecursive` answers it in
memory in one pass -- each rule once, in dependency order, through the
UCQ join kernel, with no copy of the data and no fixpoint -- and
:func:`repro.data.sql.datalog_to_sql` compiles it to a ``WITH`` query
(one CTE per auxiliary predicate, ``UNION ALL`` over the goal rules).
On both paths the auxiliary and goal relations hide data relations of
the same name.

Determinism: auxiliary predicates are numbered in sorted pattern
order, every rule body is put into the canonical atom order of
:meth:`~repro.lang.queries.ConjunctiveQuery.canonical_order` with
variables renamed ``V0, V1, ...``, and rules are sorted by their
printed text -- the same program bytes come out regardless of hash
seed, rule order or disjunct order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro import obs
from repro.data.database import Database
from repro.data.evaluation import evaluate_nonrecursive
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.substitution import Substitution
from repro.lang.terms import Term, Variable
from repro.lang.tgd import TGD
from repro.rewriting.budget import RewritingBudget
from repro.rewriting.rewriter import rewrite

#: A pattern cell: ("out", i) for the i-th exported slot, ("ex", j) for
#: the j-th atom-local existential, ("const", term) for a constant.
Cell = Union[Tuple[str, int], Tuple[str, Term]]

#: A pattern: (relation, cells) -- the renaming-equivalence class of an
#: atom relative to the answer variables of its disjunct.
Pattern = Tuple[str, Tuple[Cell, ...]]


@dataclass(frozen=True)
class DatalogRewriting:
    """A stratified nonrecursive-Datalog rewriting of one (U)CQ.

    Attributes:
        goal: the goal predicate; its derived facts are the answers.
        arity: the query arity (the goal predicate's arity).
        aux_rules: definitions of the shared auxiliary predicates, one
            full TGD per rewritten disjunct of an atomic pattern query.
        goal_rules: rules deriving the goal predicate -- joins of
            auxiliary predicates for factorized disjuncts, direct
            rewritten bodies for NLE-fallback disjuncts.
        complete: True iff every sub-rewriting finished within budget;
            when False the program computes a sound subset of the
            certain answers.
        depth_reached: maximum breadth-first depth over sub-rewritings.
        generated: total CQs generated across all sub-rewritings.
        fallback_disjuncts: input disjuncts that needed the full-UCQ
            fallback (had NLE variables).
    """

    goal: str
    arity: int
    aux_rules: Tuple[TGD, ...]
    goal_rules: Tuple[TGD, ...]
    complete: bool
    depth_reached: int
    generated: int
    fallback_disjuncts: int = 0

    @property
    def rules(self) -> Tuple[TGD, ...]:
        """The full program, auxiliary definitions first."""
        return self.aux_rules + self.goal_rules

    @property
    def size(self) -> int:
        """Total rule count (the Datalog analogue of UCQ disjuncts)."""
        return len(self.aux_rules) + len(self.goal_rules)

    @property
    def max_body_atoms(self) -> int:
        """Largest rule body (join width) in the program."""
        return max(len(rule.body) for rule in self.rules)

    @property
    def predicates(self) -> Tuple[str, ...]:
        """The auxiliary predicate names, in definition order."""
        seen: Dict[str, None] = {}
        for rule in self.aux_rules:
            seen.setdefault(rule.head[0].relation)
        return tuple(seen)

    def base_atoms(self) -> Tuple[Atom, ...]:
        """Every body atom over a *base* (non-intermediate) relation.

        These are the relations a SQL backend must have tables for
        before executing :meth:`to_sql` (the auxiliary and goal
        predicates are CTEs, not tables).
        """
        intermediates = set(self.predicates)
        intermediates.add(self.goal)
        seen: Dict[Atom, None] = {}
        for rule in self.rules:
            for atom in rule.body:
                if atom.relation not in intermediates:
                    seen.setdefault(atom)
        return tuple(seen)

    def answer(self, database: Database) -> frozenset[Tuple[Term, ...]]:
        """Certain answers over *database*: the goal's derived rows.

        One pass over the data: each rule runs once, in dependency
        order, through the in-memory join kernel
        (:func:`~repro.data.evaluation.evaluate_nonrecursive`).  Nothing
        is copied and *database* is left unchanged.  The auxiliary and
        goal relations are the program's own, so a data relation that
        shares one of their names is hidden, not read.
        """
        with obs.span(
            "datalog_target.answer", rules=self.size, goal=self.goal
        ) as span:
            answers = evaluate_nonrecursive(self.rules, database, self.goal)
            span.set(answers=len(answers))
        return answers

    def to_sql(self) -> str:
        """The SQL ``WITH`` (CTE) query this program compiles to."""
        from repro.data.sql import datalog_to_sql

        return datalog_to_sql(self)

    def __str__(self) -> str:
        from repro.lang.printer import format_program

        return format_program(self.rules)


def _atom_pattern(
    atom: Atom, answer_vars: frozenset[Variable]
) -> Tuple[Pattern, Tuple[Variable, ...]]:
    """The pattern of *atom* and its exported variables (slot order).

    Exported slots are numbered by first occurrence of each distinct
    answer variable, local existentials likewise; constants are kept
    verbatim.  Two atoms with equal patterns are renamings of each
    other and can share one auxiliary predicate.
    """
    out_index: Dict[Variable, int] = {}
    ex_index: Dict[Variable, int] = {}
    cells: List[Cell] = []
    for term in atom.terms:
        if isinstance(term, Variable) and term in answer_vars:
            cells.append(("out", out_index.setdefault(term, len(out_index))))
        elif isinstance(term, Variable):
            cells.append(("ex", ex_index.setdefault(term, len(ex_index))))
        else:
            cells.append(("const", term))
    return (atom.relation, tuple(cells)), tuple(out_index)


def _pattern_sort_key(pattern: Pattern) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """A total, type-stable ordering key for patterns."""
    relation, cells = pattern
    rendered = tuple(
        (kind, f"{payload:06d}" if isinstance(payload, int)
         else f"{type(payload).__name__}:{payload}")
        for kind, payload in cells
    )
    return (relation, rendered)


def _pattern_query(pattern: Pattern, name: str) -> ConjunctiveQuery:
    """The atomic projection query an auxiliary predicate rewrites.

    Exported slots become answer variables ``X0, X1, ...``, local
    existentials ``E0, E1, ...``, constants stay inline.
    """
    relation, cells = pattern
    terms: List[Term] = []
    out_count = 0
    for kind, payload in cells:
        if kind == "out":
            assert isinstance(payload, int)
            terms.append(Variable(f"X{payload}"))
            out_count = max(out_count, payload + 1)
        elif kind == "ex":
            assert isinstance(payload, int)
            terms.append(Variable(f"E{payload}"))
        else:
            assert not isinstance(payload, int)
            terms.append(payload)
    answers = [Variable(f"X{i}") for i in range(out_count)]
    return ConjunctiveQuery(answers, [Atom(relation, terms)], name=name)


def _normal_form(cq: ConjunctiveQuery, name: str) -> ConjunctiveQuery:
    """*cq* with canonical atom order and variables renamed ``V0..Vn``.

    Two CQs with equal canonical keys map to the *same* normal form,
    which is what makes the emitted program (and its SQL) byte-stable
    under hash-seed variation and input permutation.
    """
    ordered = cq.canonical_order()
    mapping: Dict[Variable, Variable] = {}

    def note(term: Term) -> None:
        if isinstance(term, Variable) and term not in mapping:
            mapping[term] = Variable(f"V{len(mapping)}")

    for term in cq.answer_terms:
        note(term)
    for atom in ordered:
        for term in atom.terms:
            note(term)
    substitution = Substitution(mapping)
    return ConjunctiveQuery(
        [substitution.apply_term(t) for t in cq.answer_terms],
        substitution.apply_atoms(ordered),
        name=name,
    )


def _fresh_prefix(
    rules: Sequence[TGD], ucq: UnionOfConjunctiveQueries
) -> str:
    """A predicate-name prefix colliding with no existing relation."""
    taken = set()
    for rule in rules:
        for atom in rule.body + rule.head:
            taken.add(atom.relation)
    for cq in ucq:
        for atom in cq.body:
            taken.add(atom.relation)
    prefix = "aux"
    while any(name.startswith(prefix) for name in taken):
        prefix += "x"
    return prefix


def rewrite_datalog(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries,
    rules: Sequence[TGD],
    budget: RewritingBudget | None = None,
) -> DatalogRewriting:
    """Compute the nonrecursive-Datalog rewriting of *query*.

    Auxiliary predicates are shared across disjuncts by pattern, so a
    conjunction of ``n`` atoms with ``b`` rewriting choices each costs
    ``O(n * b)`` rules where the UCQ target pays ``O(b^n)`` disjuncts.
    Budget exhaustion in any sub-rewriting degrades ``complete`` to
    False; the program then computes a sound subset of the certain
    answers (each auxiliary predicate under-approximates its atom).
    """
    ucq = UnionOfConjunctiveQueries.of(query)
    budget = budget or RewritingBudget.default()
    rules = tuple(rules)
    prefix = _fresh_prefix(rules, ucq)
    goal = f"{prefix}_ans"

    with obs.span(
        "rewrite_datalog", rules=len(rules), disjuncts=len(ucq)
    ) as span:
        patterns: Dict[Pattern, None] = {}
        factorized: List[Tuple[ConjunctiveQuery, List[Tuple[Pattern, Tuple[Variable, ...]]]]] = []
        fallback: List[ConjunctiveQuery] = []
        for cq in ucq:
            cq = cq.dedupe_body()
            if cq.nle_variables():
                fallback.append(cq)
                continue
            answer_vars = frozenset(cq.answer_variables)
            entries: List[Tuple[Pattern, Tuple[Variable, ...]]] = []
            for atom in cq.body:
                pattern, outs = _atom_pattern(atom, answer_vars)
                patterns.setdefault(pattern)
                entries.append((pattern, outs))
            factorized.append((cq, entries))

        complete = True
        depth_reached = 0
        generated = 0

        # One auxiliary predicate per pattern, numbered in sorted
        # pattern order (independent of input disjunct/rule order).
        ordered_patterns = sorted(patterns, key=_pattern_sort_key)
        aux_name = {
            pattern: f"{prefix}{index}"
            for index, pattern in enumerate(ordered_patterns)
        }
        aux_rules: List[TGD] = []
        for pattern in ordered_patterns:
            name = aux_name[pattern]
            atomic = _pattern_query(pattern, name)
            sub = rewrite(atomic, rules, budget)
            complete = complete and sub.complete
            depth_reached = max(depth_reached, sub.depth_reached)
            generated += sub.generated
            definitions = sorted(
                (_normal_form(cq, name) for cq in sub.ucq), key=str
            )
            aux_rules.extend(
                TGD(cq.body, [Atom(name, cq.answer_terms)])
                for cq in definitions
            )

        goal_bodies: List[ConjunctiveQuery] = []
        for cq, entries in factorized:
            body: List[Atom] = []
            for pattern, outs in entries:
                atom = Atom(aux_name[pattern], outs)
                if atom not in body:
                    body.append(atom)
            goal_bodies.append(
                ConjunctiveQuery(cq.answer_terms, body, name=goal)
            )
        for cq in fallback:
            sub = rewrite(cq, rules, budget)
            complete = complete and sub.complete
            depth_reached = max(depth_reached, sub.depth_reached)
            generated += sub.generated
            goal_bodies.extend(
                ConjunctiveQuery(d.answer_terms, d.body, name=goal)
                for d in sub.ucq
            )
        normalized: Dict[str, ConjunctiveQuery] = {}
        for cq in goal_bodies:
            normal = _normal_form(cq, goal)
            normalized.setdefault(str(normal), normal)
        goal_rules = tuple(
            TGD(normalized[key].body, [Atom(goal, normalized[key].answer_terms)])
            for key in sorted(normalized)
        )

        result = DatalogRewriting(
            goal=goal,
            arity=ucq.arity,
            aux_rules=tuple(aux_rules),
            goal_rules=goal_rules,
            complete=complete,
            depth_reached=depth_reached,
            generated=generated,
            fallback_disjuncts=len(fallback),
        )
        span.set(
            rules_emitted=result.size,
            aux_predicates=len(ordered_patterns),
            fallback=len(fallback),
            complete=complete,
        )
        obs.count("datalog_target.rules_emitted", result.size)
        return result
