"""The unifier: term classes, the null rule and class representatives.

Unification here is first-order unification without function symbols,
so the occurs check is unnecessary: terms are variables, constants or
nulls, never compound.  Ground terms (constants and nulls) unify only
with themselves (Unique Name Assumption) and with variables.

Every unifier of the library is built from three primitives:

* :func:`term_classes` -- the classes of terms a set of pairs forces
  equal (a union-find), or None on a ground clash;
* :func:`null_clash` -- the null rule: an existential head variable of
  a rule denotes an invented null, and a null equals no constant, no
  frontier value and no other null;
* :func:`class_substitution` -- the substitution onto one
  representative per class.

Their callers are the piece rewriter and factorization
(:mod:`repro.rewriting.pieces`), the PerfectRef baseline
(:mod:`repro.rewriting.perfectref`), the P-node graph
(:mod:`repro.graphs.pnode_graph`) and the graph of rule dependencies
(:mod:`repro.classes.agrd`).  Each adds only its own conditions.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from repro.lang.atoms import Atom
from repro.lang.substitution import Substitution
from repro.lang.terms import Term, Variable


def term_classes(
    pairs: Iterable[tuple[Term, Term]],
) -> list[list[Term]] | None:
    """The classes of terms that *pairs* force equal, or None.

    Classes and the terms inside each class are listed in order of
    first occurrence in *pairs*.  None means some class holds two
    distinct ground terms, which can never be equal.
    """
    seen: dict[Term, None] = {}
    link: dict[Term, Term] = {}

    def find(term: Term) -> Term:
        while term in link:
            term = link[term]
        return term

    for left, right in pairs:
        seen[left] = seen[right] = None
        left, right = find(left), find(right)
        if left == right:
            continue
        # A class's root is its ground term when it has one, so two
        # ground roots meeting is the only possible clash.
        if isinstance(left, Variable):
            link[left] = right
        elif isinstance(right, Variable):
            link[right] = left
        else:
            return None
    classes: dict[Term, list[Term]] = {}
    for term in seen:
        classes.setdefault(find(term), []).append(term)
    return list(classes.values())


def null_clash(
    group: Sequence[Term],
    existential: Collection[Variable],
    frontier: Collection[Variable],
) -> bool:
    """True iff *group* equates an invented null with what it cannot equal.

    The *existential* head variables of a rule denote invented nulls;
    a class holding one must hold no ground term, no *frontier*
    variable and no second existential variable.
    """
    nulls = sum(1 for term in group if term in existential)
    return nulls > 1 or (
        nulls == 1
        and any(
            not isinstance(term, Variable) or term in frontier for term in group
        )
    )


def class_substitution(
    classes: Iterable[Sequence[Term]],
    prefer: Collection[Variable] = (),
    avoid: Collection[Variable] = (),
) -> Substitution:
    """Map every variable of each class onto the class's representative.

    The representative is the class's ground term if it has one;
    otherwise the least-named *prefer* variable, then the least-named
    variable in neither collection, then the least-named *avoid*
    variable.
    """

    def rank(term: Term) -> tuple[int, str]:
        if not isinstance(term, Variable):
            return (0, "")
        if term in prefer:
            return (1, term.name)
        if term in avoid:
            return (3, term.name)
        return (2, term.name)

    mapping: dict[Variable, Term] = {}
    for group in classes:
        representative = min(group, key=rank)
        for term in group:
            if isinstance(term, Variable):
                mapping[term] = representative
    return Substitution(mapping)


def mgu(pairs: Iterable[tuple[Term, Term]]) -> Substitution | None:
    """Most general unifier of a set of term pairs, or None.

    The unifier is idempotent: it maps each class onto its ground term,
    or else onto its least-named variable.
    """
    classes = term_classes(pairs)
    return None if classes is None else class_substitution(classes)


def mgu_atoms(first: Atom, second: Atom) -> Substitution | None:
    """Most general unifier of two atoms, or None.

    Atoms unify only when they share relation symbol and arity.
    """
    if first.relation != second.relation or first.arity != second.arity:
        return None
    return mgu(zip(first.terms, second.terms))


def unifiable(first: Atom, second: Atom) -> bool:
    """True iff the two atoms have a unifier."""
    return mgu_atoms(first, second) is not None
