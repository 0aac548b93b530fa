"""In-memory relational database with per-position hash indexes.

A :class:`Database` stores ground atoms (facts) grouped by relation.
Terms in facts are constants or labeled nulls -- nulls appear when the
database is a chase instance.  The store maintains, lazily, one hash
index per (relation, position) pair mapping each term to the facts that
carry it at that position; the CQ evaluator uses these indexes for its
join plans.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.lang.atoms import Atom
from repro.lang.errors import SafetyError
from repro.lang.signature import Signature
from repro.lang.terms import Constant, Null, Term


class Database:
    """A mutable set of facts with indexed access paths.

    The class behaves as a collection of :class:`Atom` objects
    (``len``, ``in``, iteration) and offers relation-level and
    index-level access for evaluators.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        self._relations: dict[str, set[tuple[Term, ...]]] = {}
        self._indexes: dict[tuple[str, int], dict[Term, list[tuple[Term, ...]]]] = {}
        self._signature = Signature()
        for fact in facts:
            self.add(fact)

    # ----------------------------------------------------------------- #
    # Mutation                                                           #
    # ----------------------------------------------------------------- #

    def add(self, fact: Atom) -> bool:
        """Insert *fact*; return True iff it was not already present."""
        if not fact.is_ground():
            raise SafetyError(f"cannot store non-ground atom {fact}")
        self._signature.observe_atom(fact)
        rows = self._relations.setdefault(fact.relation, set())
        if fact.terms in rows:
            return False
        rows.add(fact.terms)
        for position in range(1, fact.arity + 1):
            index = self._indexes.get((fact.relation, position))
            if index is not None:
                index.setdefault(fact.terms[position - 1], []).append(fact.terms)
        return True

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Insert many facts; return the number actually added."""
        return sum(1 for fact in facts if self.add(fact))

    def discard(self, fact: Atom) -> bool:
        """Remove *fact* if present; return True iff it was present."""
        rows = self._relations.get(fact.relation)
        if rows is None or fact.terms not in rows:
            return False
        rows.remove(fact.terms)
        for position in range(1, fact.arity + 1):
            index = self._indexes.get((fact.relation, position))
            if index is not None:
                key = fact.terms[position - 1]
                bucket = index.get(key)
                if bucket is not None:
                    bucket.remove(fact.terms)
                    if not bucket:
                        del index[key]
        return True

    # ----------------------------------------------------------------- #
    # Access                                                             #
    # ----------------------------------------------------------------- #

    @property
    def signature(self) -> Signature:
        """The signature induced by the stored facts."""
        return self._signature

    def relations(self) -> tuple[str, ...]:
        """Relation symbols with at least one stored fact, sorted."""
        return tuple(sorted(r for r, rows in self._relations.items() if rows))

    def rows(self, relation: str) -> frozenset[tuple[Term, ...]]:
        """All tuples of *relation* (empty when unknown)."""
        return frozenset(self._relations.get(relation, ()))

    def has_row(self, relation: str, row: tuple[Term, ...]) -> bool:
        """True iff *row* is a stored tuple of *relation*."""
        rows = self._relations.get(relation)
        return rows is not None and row in rows

    def count(self, relation: str) -> int:
        """Number of stored tuples of *relation*."""
        return len(self._relations.get(relation, ()))

    def lookup(
        self, relation: str, position: int, term: Term
    ) -> tuple[tuple[Term, ...], ...]:
        """All tuples of *relation* with *term* at 1-based *position*.

        Builds the (relation, position) hash index on first use.
        """
        key = (relation, position)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for row in self._relations.get(relation, ()):
                index.setdefault(row[position - 1], []).append(row)
            self._indexes[key] = index
        return tuple(index.get(term, ()))

    def facts(self) -> Iterator[Atom]:
        """Iterate over all stored facts as atoms."""
        for relation, rows in self._relations.items():
            for row in rows:
                yield Atom(relation, row)

    def constants(self) -> frozenset[Constant]:
        """The active domain restricted to constants."""
        out: set[Constant] = set()
        for rows in self._relations.values():
            for row in rows:
                out.update(t for t in row if isinstance(t, Constant))
        return frozenset(out)

    def nulls(self) -> frozenset[Null]:
        """All labeled nulls occurring in the stored facts."""
        out: set[Null] = set()
        for rows in self._relations.values():
            for row in rows:
                out.update(t for t in row if isinstance(t, Null))
        return frozenset(out)

    def copy(self) -> "Database":
        """An independent copy of this database (indexes not copied)."""
        clone = Database()
        for relation, rows in self._relations.items():
            target = clone._relations.setdefault(relation, set())
            target.update(rows)
            if rows:
                arity = len(next(iter(rows)))
                clone._signature.declare(relation, arity)
        return clone

    # ----------------------------------------------------------------- #
    # Collection protocol                                                #
    # ----------------------------------------------------------------- #

    def __contains__(self, fact: Atom) -> bool:
        return self.has_row(fact.relation, fact.terms)

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._relations.values())

    def __iter__(self) -> Iterator[Atom]:
        return self.facts()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine: Mapping[str, set] = {
            r: rows for r, rows in self._relations.items() if rows
        }
        theirs: Mapping[str, set] = {
            r: rows for r, rows in other._relations.items() if rows
        }
        return mine == theirs

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{r}:{len(rows)}" for r, rows in sorted(self._relations.items())
        )
        return f"Database({sizes})"
