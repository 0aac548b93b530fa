"""Conjunctive queries and unions of conjunctive queries.

A CQ (Section 3) has the form ``q(x) :- α1, ..., αn`` where ``x`` are
the distinguished (free) variables, each of which must occur in the
body.  Existential variables of the query occurring in more than one
body atom are the *NLE-variables* ("non-linear existential") -- the
variables whose "splitting" the position graph tracks.

The answer tuple is a tuple of *terms*, not necessarily distinct
variables: query rewriting specialises queries, so a rewriting step may
identify two answer variables (head ``r(u,u)``) or bind an answer
variable to a constant.  Surface-syntax queries written by users have
distinct-variable answer tuples; rewritten disjuncts may not.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.lang.atoms import Atom
from repro.lang.errors import SafetyError
from repro.lang.spans import Span
from repro.lang.substitution import Substitution, rename_apart
from repro.lang.terms import Constant, Null, Term, Variable


class ConjunctiveQuery:
    """An immutable conjunctive query.

    Equality is structural over the answer tuple and the body treated
    as an ordered tuple of atoms; use :meth:`canonical` for an order-
    and renaming-insensitive key.  The optional *span* is parse
    provenance, ignored by equality and hashing.
    """

    __slots__ = ("name", "answer_terms", "body", "span", "_hash")

    def __init__(
        self,
        answer_terms: Sequence[Term],
        body: Sequence[Atom],
        name: str = "q",
        span: Span | None = None,
    ):
        if not body:
            raise SafetyError("a CQ must have a non-empty body")
        self.name = name
        self.answer_terms = tuple(answer_terms)
        self.body = tuple(body)
        self.span = span
        body_vars = set(self.body_variables())
        for term in self.answer_terms:
            if isinstance(term, Null):
                raise SafetyError(f"labeled null {term} in answer tuple")
            if isinstance(term, Variable) and term not in body_vars:
                raise SafetyError(
                    f"answer variable {term} does not occur in the body"
                )
        self._hash = hash((self.answer_terms, self.body))

    def __reduce__(self):
        # Rebuild through the constructor: the cached hash is only valid
        # in the process that computed it (str hashes are salted).
        return (
            ConjunctiveQuery,
            (self.answer_terms, self.body, self.name, self.span),
        )

    @property
    def arity(self) -> int:
        """Number of answer positions."""
        return len(self.answer_terms)

    @property
    def answer_variables(self) -> tuple[Variable, ...]:
        """Distinct answer variables in order of first occurrence."""
        seen: dict[Variable, None] = {}
        for term in self.answer_terms:
            if isinstance(term, Variable):
                seen.setdefault(term)
        return tuple(seen)

    def is_boolean(self) -> bool:
        """True iff the query has no answer positions."""
        return not self.answer_terms

    # ----------------------------------------------------------------- #
    # Variable classification                                            #
    # ----------------------------------------------------------------- #

    def body_variables(self) -> tuple[Variable, ...]:
        """All body variables in occurrence order, without repeats."""
        seen: dict[Variable, None] = {}
        for atom in self.body:
            for var in atom.variables():
                seen.setdefault(var)
        return tuple(seen)

    def existential_variables(self) -> tuple[Variable, ...]:
        """Body variables that are not answer variables."""
        answers = set(self.answer_variables)
        return tuple(v for v in self.body_variables() if v not in answers)

    def nle_variables(self) -> tuple[Variable, ...]:
        """Existential variables occurring in more than one body atom.

        These are the query's join variables on unknowns; the paper
        calls them NLE-variables.
        """
        counts: dict[Variable, int] = {}
        for atom in self.body:
            for var in set(atom.variables()):
                counts[var] = counts.get(var, 0) + 1
        answers = set(self.answer_variables)
        return tuple(
            v for v in self.body_variables()
            if v not in answers and counts[v] > 1
        )

    def constants(self) -> tuple[Constant, ...]:
        """All constants of the body and answer tuple, in order."""
        seen: dict[Constant, None] = {}
        for term in self.answer_terms:
            if isinstance(term, Constant):
                seen.setdefault(term)
        for atom in self.body:
            for const in atom.constants():
                seen.setdefault(const)
        return tuple(seen)

    def atom_occurrences(self, var: Variable) -> tuple[Atom, ...]:
        """The body atoms in which *var* occurs."""
        return tuple(a for a in self.body if var in a.variables())

    # ----------------------------------------------------------------- #
    # Transformation                                                     #
    # ----------------------------------------------------------------- #

    def apply(self, substitution: Substitution) -> "ConjunctiveQuery":
        """Apply a substitution to the body and the answer tuple."""
        new_answers = [substitution.apply_term(t) for t in self.answer_terms]
        return ConjunctiveQuery(
            new_answers,
            substitution.apply_atoms(self.body),
            name=self.name,
            span=self.span,
        )

    def rename_apart(self, taken: Iterable[Variable]) -> "ConjunctiveQuery":
        """A variant sharing no variable name with *taken*."""
        renaming = rename_apart(self.body_variables(), taken)
        if not renaming:
            return self
        return self.apply(renaming)

    def dedupe_body(self) -> "ConjunctiveQuery":
        """Remove duplicate body atoms, keeping first occurrences."""
        seen: dict[Atom, None] = {}
        for atom in self.body:
            seen.setdefault(atom)
        if len(seen) == len(self.body):
            return self
        return ConjunctiveQuery(
            self.answer_terms, tuple(seen), name=self.name, span=self.span
        )

    def canonical(self) -> tuple:
        """A renaming- and body-order-insensitive key for this CQ.

        Two CQs equal up to injective variable renaming and body
        reordering receive the same key; distinct keys imply the
        queries are not such variants of each other (the key is exact
        unless a pathological symmetry exceeds the permutation cap
        below, in which case it may split an isomorphism class --
        never merge two distinct ones).

        Construction: atoms are sorted by a rename-insensitive
        *invariant* (relation, constants, within-atom equality pattern,
        and the full occurrence profile of each variable); atoms whose
        invariants tie are disambiguated by trying every permutation of
        the tie groups and keeping the lexicographically smallest
        greedy encoding.
        """
        return self._encode_body(list(self.canonical_order()))

    def canonical_order(self) -> tuple[Atom, ...]:
        """The deduplicated body in the atom order :meth:`canonical` uses.

        Exposed so callers that need a concrete *representative* of the
        canonical form (not just the opaque key) -- e.g. the normal-form
        printer of :mod:`repro.rewriting.datalog_target` -- order and
        rename atoms exactly the way the canonical key does.
        """
        def shape_of(term: Term) -> str:
            return f"{type(term).__name__}:{term}"

        body = sorted(set(self.body), key=Atom.sort_key)

        # Rename-insensitive profile of each variable: where it occurs
        # in the answer tuple and at which (relation, position) sites.
        profiles: dict[Variable, tuple] = {}
        for var in {v for a in body for v in a.variables()}:
            answer_slots = tuple(
                i for i, t in enumerate(self.answer_terms) if t == var
            )
            sites = tuple(
                sorted(
                    (a.relation, p)
                    for a in body
                    for p in a.positions_of(var)
                )
            )
            profiles[var] = (answer_slots, sites)

        def atom_invariant(atom: Atom) -> tuple:
            locals_seen: dict[Term, int] = {}
            cells = []
            for term in atom.terms:
                locals_seen.setdefault(term, len(locals_seen))
                if isinstance(term, Variable):
                    cells.append(("v", locals_seen[term], profiles[term]))
                else:
                    cells.append(("c", locals_seen[term], shape_of(term)))
            return (atom.relation, tuple(cells))

        decorated = sorted(
            (atom_invariant(atom), atom) for atom in body
        )

        # Group atoms with identical invariants; only their relative
        # order is ambiguous.
        groups: list[list[Atom]] = []
        previous = None
        for invariant, atom in decorated:
            if invariant != previous:
                groups.append([])
                previous = invariant
            groups[-1].append(atom)

        import itertools
        import math

        permutations = math.prod(
            math.factorial(len(group)) for group in groups
        )
        # Exact tie-breaking is quadratic-ish in the permutation count
        # times the body size; cap it tightly so pathological symmetric
        # bodies (which arise in diverging rewritings) fall back to the
        # cheap greedy order instead of dominating the run time.
        if permutations == 1 or permutations > 24 or len(body) > 12:
            return tuple(atom for group in groups for atom in group)
        candidates = itertools.product(
            *(itertools.permutations(group) for group in groups)
        )
        return tuple(
            min(
                ([atom for group in candidate for atom in group]
                 for candidate in candidates),
                key=self._encode_body,
            )
        )

    def _encode_body(self, ordered: list[Atom]) -> tuple:
        """Greedy variable-numbering encoding of one body ordering."""
        def shape_of(term: Term) -> str:
            return f"{type(term).__name__}:{term}"

        order: dict[Variable, int] = {}
        for term in self.answer_terms:
            if isinstance(term, Variable):
                order.setdefault(term, len(order))
        rows = []
        for atom in ordered:
            cells: list = [atom.relation]
            for term in atom.terms:
                if isinstance(term, Variable):
                    order.setdefault(term, len(order))
                    cells.append(("v", order[term]))
                else:
                    cells.append(("c", shape_of(term)))
            rows.append(tuple(cells))
        answers = tuple(
            ("v", order[t])
            if isinstance(t, Variable)
            else ("c", shape_of(t))
            for t in self.answer_terms
        )
        return (answers, tuple(rows))

    # ----------------------------------------------------------------- #
    # Dunder plumbing                                                    #
    # ----------------------------------------------------------------- #

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and self._hash == other._hash
            and self.answer_terms == other.answer_terms
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"ConjunctiveQuery({list(self.answer_terms)!r}, "
            f"{list(self.body)!r}, name={self.name!r})"
        )

    def __str__(self) -> str:
        answers = ", ".join(str(t) for t in self.answer_terms)
        body = ", ".join(str(a) for a in self.body)
        return f"{self.name}({answers}) :- {body}"


class UnionOfConjunctiveQueries:
    """A UCQ: a set of CQs of the same arity (Section 3).

    Iteration order is the insertion order with canonical duplicates
    removed, so printed rewritings are stable run to run.
    """

    __slots__ = ("name", "arity", "disjuncts", "_hash")

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery], name: str | None = None):
        if not disjuncts:
            raise SafetyError("a UCQ must contain at least one CQ")
        arity = disjuncts[0].arity
        kept: list[ConjunctiveQuery] = []
        seen_keys: set = set()
        for cq in disjuncts:
            if cq.arity != arity:
                raise SafetyError(
                    f"UCQ mixes arities {arity} and {cq.arity} ({cq})"
                )
            key = cq.canonical()
            if key in seen_keys:
                continue
            seen_keys.add(key)
            kept.append(cq)
        self.name = name or kept[0].name
        self.arity = arity
        self.disjuncts = tuple(kept)
        self._hash = hash(frozenset(cq.canonical() for cq in kept))

    def __reduce__(self):
        return (UnionOfConjunctiveQueries, (self.disjuncts, self.name))

    @classmethod
    def of(cls, query: "ConjunctiveQuery | UnionOfConjunctiveQueries") -> "UnionOfConjunctiveQueries":
        """Lift a CQ to a singleton UCQ; UCQs pass through unchanged."""
        if isinstance(query, UnionOfConjunctiveQueries):
            return query
        return cls([query])

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnionOfConjunctiveQueries):
            return False
        return frozenset(cq.canonical() for cq in self.disjuncts) == frozenset(
            cq.canonical() for cq in other.disjuncts
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"UnionOfConjunctiveQueries({list(self.disjuncts)!r})"

    def __str__(self) -> str:
        return "\n".join(str(cq) for cq in self.disjuncts)
