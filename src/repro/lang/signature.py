"""Relational signatures: relation symbols with fixed arities.

A signature records the arity of every relation symbol in use and
rejects inconsistent reuse (``SignatureError``).  Most library entry
points build signatures implicitly from the rules, queries and facts
they receive; the class is public so applications can validate inputs
eagerly and enumerate their schema.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.lang.atoms import Atom
from repro.lang.errors import SignatureError
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.tgd import TGD


class Signature(Mapping[str, int]):
    """A mapping ``relation symbol -> arity`` with consistency checks."""

    __slots__ = ("_arities",)

    def __init__(self, arities: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        self._arities: dict[str, int] = {}
        for relation, arity in dict(arities).items():
            self.declare(relation, arity)

    def declare(self, relation: str, arity: int) -> None:
        """Register *relation* with *arity*; reject inconsistent reuse."""
        if arity < 0:
            raise SignatureError(f"negative arity for {relation}: {arity}")
        known = self._arities.get(relation)
        if known is not None and known != arity:
            raise SignatureError(
                f"relation {relation} used with arity {arity} but declared {known}"
            )
        self._arities[relation] = arity

    def observe_atom(self, atom: Atom) -> None:
        """Declare the relation of *atom* from its argument count."""
        self.declare(atom.relation, atom.arity)

    def observe_tgd(self, rule: TGD) -> None:
        """Declare every relation occurring in *rule*."""
        for atom in rule.body + rule.head:
            self.observe_atom(atom)

    def observe_query(
        self, query: ConjunctiveQuery | UnionOfConjunctiveQueries
    ) -> None:
        """Declare every relation occurring in *query*."""
        for cq in UnionOfConjunctiveQueries.of(query):
            for atom in cq.body:
                self.observe_atom(atom)

    @classmethod
    def from_rules(cls, rules: Iterable[TGD]) -> "Signature":
        """Signature of every relation mentioned in *rules*."""
        sig = cls()
        for rule in rules:
            sig.observe_tgd(rule)
        return sig

    def max_arity(self) -> int:
        """The largest declared arity (0 for an empty signature).

        Definition 6 uses this as the size ``k`` of the canonical
        variable pool ``XP = {z, x1, ..., xk}``.
        """
        return max(self._arities.values(), default=0)

    def relations(self) -> tuple[str, ...]:
        """All declared relation symbols, sorted."""
        return tuple(sorted(self._arities))

    def __getitem__(self, relation: str) -> int:
        return self._arities[relation]

    def get(self, relation: str, default: int | None = None) -> int | None:
        return self._arities.get(relation, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._arities)

    def __len__(self) -> int:
        return len(self._arities)

    def __repr__(self) -> str:
        inner = ", ".join(f"{r}/{a}" for r, a in sorted(self._arities.items()))
        return f"Signature({{{inner}}})"
