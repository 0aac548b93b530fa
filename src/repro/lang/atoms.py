"""Atoms and positions.

An atom is an expression ``r(t1, ..., tk)`` where ``r`` is a relation
symbol of arity ``k`` and each ``ti`` is a term (Section 3 of the
paper).  A *position* (Definition 2) is either ``r[i]`` -- the *i*-th
argument place of relation ``r`` -- or the "generic" position ``r[ ]``
denoting the relation as a whole; positions are the nodes of the
position graph.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.lang.spans import Span
from repro.lang.terms import (
    Constant,
    Null,
    Term,
    Variable,
    is_ground,
    term_sort_key,
)


class Atom:
    """An atom ``relation(terms...)``; immutable and hashable.

    Positions inside an atom are numbered from 1, following the paper's
    convention (``α[i]`` is the term at position ``i``).

    The optional *span* records where the atom was parsed from; it is
    provenance only and does not participate in equality or hashing
    (two occurrences of ``r(X)`` at different source locations are the
    same atom).
    """

    __slots__ = ("relation", "terms", "span", "_hash")

    def __init__(
        self,
        relation: str,
        terms: Sequence[Term],
        span: Span | None = None,
    ):
        if not relation:
            raise ValueError("relation symbol must be non-empty")
        self.relation = relation
        self.terms = tuple(terms)
        self.span = span
        self._hash = hash((self.relation, self.terms))

    def __reduce__(self):
        # Rebuild through the constructor: the cached hash is only valid
        # in the process that computed it (str hashes are salted).
        return (Atom, (self.relation, self.terms, self.span))

    @property
    def arity(self) -> int:
        """Number of argument places of this atom's relation symbol."""
        return len(self.terms)

    def __getitem__(self, i: int) -> Term:
        """Return the term at 1-based position *i* (paper convention)."""
        if not 1 <= i <= len(self.terms):
            raise IndexError(f"position {i} out of range for {self}")
        return self.terms[i - 1]

    def variables(self) -> tuple[Variable, ...]:
        """All variables, in order of first occurrence, without repeats."""
        seen: dict[Variable, None] = {}
        for term in self.terms:
            if isinstance(term, Variable):
                seen.setdefault(term)
        return tuple(seen)

    def constants(self) -> tuple[Constant, ...]:
        """All constants, in order of first occurrence, without repeats."""
        seen: dict[Constant, None] = {}
        for term in self.terms:
            if isinstance(term, Constant):
                seen.setdefault(term)
        return tuple(seen)

    def nulls(self) -> tuple[Null, ...]:
        """All labeled nulls, in order of first occurrence."""
        seen: dict[Null, None] = {}
        for term in self.terms:
            if isinstance(term, Null):
                seen.setdefault(term)
        return tuple(seen)

    def positions_of(self, term: Term) -> tuple[int, ...]:
        """All 1-based positions at which *term* occurs in this atom.

        With repeated variables an atom may contain the same term more
        than once; the paper's ``Pos(x, β)`` is single-valued only for
        *simple* TGDs, so the library exposes the full tuple.
        """
        return tuple(i for i, t in enumerate(self.terms, start=1) if t == term)

    def has_repeated_variable(self) -> bool:
        """True iff some variable occurs at two positions of this atom.

        Simple TGDs (Section 5) forbid this.
        """
        seen: set[Variable] = set()
        for term in self.terms:
            if isinstance(term, Variable):
                if term in seen:
                    return True
                seen.add(term)
        return False

    def is_ground(self) -> bool:
        """True iff the atom contains no variables (it is a *fact*)."""
        return all(is_ground(t) for t in self.terms)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self._hash == other._hash
            and self.relation == other.relation
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Atom") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        """Deterministic sorting key (relation, then term keys)."""
        return (self.relation, tuple(term_sort_key(t) for t in self.terms))

    def __repr__(self) -> str:
        return f"Atom({self.relation!r}, {list(self.terms)!r})"

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({args})"


class Position:
    """A position ``r[i]`` or the generic position ``r[ ]`` (Definition 2).

    ``index is None`` encodes the generic form ``r[ ]``.
    """

    __slots__ = ("relation", "index", "_hash")

    def __init__(self, relation: str, index: int | None = None):
        if not relation:
            raise ValueError("relation symbol must be non-empty")
        if index is not None and index < 1:
            raise ValueError(f"position index must be >= 1, got {index}")
        self.relation = relation
        self.index = index
        self._hash = hash(("Position", relation, index))

    def __reduce__(self):
        return (Position, (self.relation, self.index))

    @property
    def is_generic(self) -> bool:
        """True for the ``r[ ]`` form, False for ``r[i]``."""
        return self.index is None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Position)
            and self.relation == other.relation
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Position") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        return (self.relation, -1 if self.index is None else self.index)

    def __repr__(self) -> str:
        return f"Position({self.relation!r}, {self.index!r})"

    def __str__(self) -> str:
        if self.index is None:
            return f"{self.relation}[ ]"
        return f"{self.relation}[{self.index}]"
