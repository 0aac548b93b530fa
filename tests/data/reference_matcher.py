"""The per-row greedy matcher the compiled join kernel replaced.

Kept verbatim as the reference for the kernel's differential tests:
:func:`match_body` re-picks the join order for every partial binding
and copies the binding for every candidate row, so it is slow but
obviously faithful to the greedy rule the kernel compiles once.
"""

from __future__ import annotations

from typing import Iterator

from repro.data.database import Database
from repro.lang.atoms import Atom
from repro.lang.terms import Term, Variable


def match_body(
    atoms: list[Atom],
    database: Database,
    binding: dict[Variable, Term],
) -> Iterator[dict[Variable, Term]]:
    """Backtracking join: yield every extension of *binding* matching *atoms*."""
    if not atoms:
        yield dict(binding)
        return
    index = pick_next(atoms, database, binding)
    atom = atoms[index]
    rest = atoms[:index] + atoms[index + 1:]
    for row in candidate_rows(atom, database, binding):
        extension = match_atom(atom, row, binding)
        if extension is None:
            continue
        yield from match_body(rest, database, extension)


def pick_next(
    atoms: list[Atom], database: Database, binding: dict[Variable, Term]
) -> int:
    """Greedy join order: prefer atoms with bound arguments, then small relations."""
    best_index = 0
    best_key: tuple[int, int] | None = None
    for i, atom in enumerate(atoms):
        bound = sum(
            1
            for t in atom.terms
            if not isinstance(t, Variable) or t in binding
        )
        key = (-bound, database.count(atom.relation))
        if best_key is None or key < best_key:
            best_key = key
            best_index = i
    return best_index


def candidate_rows(
    atom: Atom, database: Database, binding: dict[Variable, Term]
) -> tuple[tuple[Term, ...], ...]:
    """Rows of the atom's relation worth trying under *binding*.

    Probes the hash index on the first bound argument position, falling
    back to a full relation scan when nothing is bound.
    """
    for position, term in enumerate(atom.terms, start=1):
        if isinstance(term, Variable):
            value = binding.get(term)
            if value is not None:
                return database.lookup(atom.relation, position, value)
        else:
            return database.lookup(atom.relation, position, term)
    return tuple(database.rows(atom.relation))


def match_atom(
    atom: Atom, row: tuple[Term, ...], binding: dict[Variable, Term]
) -> dict[Variable, Term] | None:
    """Extend *binding* so that *atom* maps onto *row*, or None."""
    if len(row) != atom.arity:
        return None
    extension = dict(binding)
    for term, value in zip(atom.terms, row):
        if isinstance(term, Variable):
            bound = extension.get(term)
            if bound is None:
                extension[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return extension
