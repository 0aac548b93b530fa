"""Substitutions: finite mappings from variables to terms.

A substitution is applied simultaneously (not iterated to fixpoint); use
:meth:`Substitution.compose` to chain substitutions.  Substitutions are
immutable so they can be shared safely across rewriting branches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.lang.atoms import Atom
from repro.lang.terms import Term, Variable


class Substitution(Mapping[Variable, Term]):
    """An immutable mapping ``{variable -> term}``.

    Identity bindings (``x -> x``) are dropped at construction, so the
    empty substitution is the unique identity element of composition.
    """

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping: Mapping[Variable, Term] | Iterable[tuple[Variable, Term]] = ()):
        items = dict(mapping)
        for var in items:
            if not isinstance(var, Variable):
                raise TypeError(f"substitution domain must be variables, got {var!r}")
        self._map: dict[Variable, Term] = {
            var: term for var, term in items.items() if var != term
        }
        self._hash: int | None = None

    def __reduce__(self):
        # Rebuild through the constructor: a cached hash is only valid in
        # the process that computed it (str hashes are salted).
        return (Substitution, (self._map,))

    @classmethod
    def identity(cls) -> "Substitution":
        """The empty (identity) substitution."""
        return _IDENTITY

    def __getitem__(self, var: Variable) -> Term:
        return self._map[var]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {t}" for v, t in sorted(
            self._map.items(), key=lambda item: item[0].name))
        return f"{{{inner}}}"

    def apply_term(self, term: Term) -> Term:
        """Image of a single term (non-variables map to themselves)."""
        if isinstance(term, Variable):
            return self._map.get(term, term)
        return term

    def apply_atom(self, atom: Atom) -> Atom:
        """Image of an atom under this substitution."""
        return Atom(atom.relation, [self.apply_term(t) for t in atom.terms])

    def apply_atoms(self, atoms: Iterable[Atom]) -> tuple[Atom, ...]:
        """Image of a sequence of atoms, preserving order."""
        return tuple(self.apply_atom(a) for a in atoms)

    def compose(self, other: "Substitution") -> "Substitution":
        """Return ``other ∘ self``: apply *self* first, then *other*.

        ``(self.compose(other)).apply_term(t) ==
        other.apply_term(self.apply_term(t))`` for every term ``t``.
        """
        combined: dict[Variable, Term] = {
            var: other.apply_term(term) for var, term in self._map.items()
        }
        for var, term in other._map.items():
            combined.setdefault(var, term)
        return Substitution(combined)

    def bind(self, var: Variable, term: Term) -> "Substitution":
        """Return a copy with the extra binding ``var -> term``.

        Existing bindings of *var* are overwritten; prefer
        :meth:`compose` when triangularity must be preserved.
        """
        updated = dict(self._map)
        updated[var] = term
        return Substitution(updated)

    def restrict(self, variables: Iterable[Variable]) -> "Substitution":
        """Return the restriction of this substitution to *variables*."""
        keep = set(variables)
        return Substitution({v: t for v, t in self._map.items() if v in keep})

    def is_renaming(self) -> bool:
        """True iff this substitution is an injective variable renaming."""
        images = list(self._map.values())
        if not all(isinstance(t, Variable) for t in images):
            return False
        return len(set(images)) == len(images)


_IDENTITY = Substitution()


def rename_apart(
    variables: Iterable[Variable], taken: Iterable[Variable], prefix: str = "R"
) -> Substitution:
    """Build a renaming of *variables* avoiding every name in *taken*.

    Used to standardize a rule apart from a query before unification.
    The renaming is deterministic given its inputs: each clashing
    variable ``x`` becomes ``x~1``, ``x~2``, ... choosing the first
    suffix free in *taken* (the ``~`` character cannot appear in parsed
    identifiers, so renamed variables never collide with user input).
    """
    taken_names = {v.name for v in taken}
    mapping: dict[Variable, Term] = {}
    for var in variables:
        if var.name not in taken_names:
            continue
        suffix = 1
        while f"{var.name}~{suffix}" in taken_names:
            suffix += 1
        fresh_name = f"{var.name}~{suffix}"
        taken_names.add(fresh_name)
        mapping[var] = Variable(fresh_name)
    return Substitution(mapping)
