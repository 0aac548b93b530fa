"""Beyond DL-Lite: qualified existentials and disjointness.

Section 6 reports that the WR class "allows for the identification of
new FO-rewritable Description Logic languages".  This module supplies
the concrete instance used by experiment E13:

* **qualified existential restrictions** ``∃R.B`` on either side of a
  concept inclusion.  On the right-hand side they translate to
  *multi-atom-head* TGDs with a shared existential variable
  (``A(x) -> R(x,y), B(y)``) -- outside DL-Lite_R and outside every
  single-head class, yet WR; on the left-hand side to two-atom bodies
  (``R(x,y), B(y) -> A(x)``).
* **negative inclusions** ``B1 ⊑ ¬B2`` (concept disjointness).  They
  do not generate TGDs; instead each one yields a boolean *violation
  query*, and ontology satisfiability reduces to certain answering of
  those queries -- itself done by FO rewriting, so satisfiability is
  AC0 in the data as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.dlite.syntax import (
    AtomicConcept,
    AtomicRole,
    Concept,
    ConceptInclusion,
    Exists,
    Role,
    RoleInclusion,
)
from repro.lang.atoms import Atom
from repro.lang.queries import ConjunctiveQuery
from repro.lang.terms import Variable
from repro.lang.tgd import TGD


@dataclass(frozen=True)
class QualifiedExists:
    """The qualified existential restriction ``∃Q.B``."""

    role: Role
    filler: AtomicConcept

    def __str__(self) -> str:
        return f"exists {self.role}.{self.filler}"


ExtendedConcept = Union[Concept, QualifiedExists]


@dataclass(frozen=True)
class Disjointness:
    """A negative inclusion ``B1 ⊑ ¬B2``."""

    first: ExtendedConcept
    second: ExtendedConcept

    def __str__(self) -> str:
        return f"{self.first} ⊑ ¬{self.second}"


@dataclass(frozen=True)
class ExtendedConceptInclusion:
    """A positive inclusion over extended concepts."""

    sub: ExtendedConcept
    sup: ExtendedConcept

    def __str__(self) -> str:
        return f"{self.sub} ⊑ {self.sup}"


ExtendedAxiom = Union[
    ExtendedConceptInclusion, ConceptInclusion, RoleInclusion, Disjointness
]


@dataclass(frozen=True)
class ExtendedTBox:
    """A TBox over the extended language."""

    axioms: tuple[ExtendedAxiom, ...]

    def __iter__(self):
        return iter(self.axioms)

    def __len__(self) -> int:
        return len(self.axioms)

    def positive_axioms(self) -> tuple[ExtendedAxiom, ...]:
        """Axioms that generate TGDs."""
        return tuple(
            a for a in self.axioms if not isinstance(a, Disjointness)
        )

    def negative_axioms(self) -> tuple[Disjointness, ...]:
        """The disjointness axioms."""
        return tuple(a for a in self.axioms if isinstance(a, Disjointness))


_X, _Y, _Z = Variable("X"), Variable("Y"), Variable("Zf")


def _role_atom(role: Role, first: Variable, second: Variable) -> Atom:
    if isinstance(role, AtomicRole):
        return Atom(role.name, [first, second])
    return Atom(role.role.name, [second, first])


def _concept_atoms(
    concept: ExtendedConcept, subject: Variable, fresh: Variable
) -> list[Atom]:
    """Atoms asserting *subject* ∈ *concept* (1 atom, or 2 when qualified)."""
    if isinstance(concept, AtomicConcept):
        return [Atom(concept.name, [subject])]
    if isinstance(concept, Exists):
        return [_role_atom(concept.role, subject, fresh)]
    if isinstance(concept, QualifiedExists):
        return [
            _role_atom(concept.role, subject, fresh),
            Atom(concept.filler.name, [fresh]),
        ]
    raise TypeError(f"unsupported concept {concept!r}")


def extended_tbox_to_tgds(tbox: ExtendedTBox) -> tuple[TGD, ...]:
    """Translate the positive axioms of *tbox* into TGDs.

    Qualified existentials on the right produce multi-atom heads with
    a shared existential variable; on the left, two-atom bodies.
    """
    rules: list[TGD] = []
    for index, axiom in enumerate(tbox.positive_axioms(), start=1):
        label = f"X{index}"
        if isinstance(axiom, RoleInclusion):
            rules.append(
                TGD(
                    [_role_atom(axiom.sub, _X, _Y)],
                    [_role_atom(axiom.sup, _X, _Y)],
                    label=label,
                )
            )
            continue
        body = _concept_atoms(axiom.sub, _X, _Y)
        head = _concept_atoms(axiom.sup, _X, _Z)
        rules.append(TGD(body, head, label=label))
    return tuple(rules)


def violation_queries(tbox: ExtendedTBox) -> tuple[ConjunctiveQuery, ...]:
    """One boolean CQ per disjointness axiom, true iff it is violated."""
    queries: list[ConjunctiveQuery] = []
    for index, axiom in enumerate(tbox.negative_axioms(), start=1):
        first = _concept_atoms(axiom.first, _X, Variable("Y1"))
        second = _concept_atoms(axiom.second, _X, Variable("Y2"))
        queries.append(
            ConjunctiveQuery([], first + second, name=f"unsat{index}")
        )
    return tuple(queries)


def is_satisfiable(
    tbox: ExtendedTBox,
    abox,
    rules: Sequence[TGD] | None = None,
) -> tuple[bool, tuple[str, ...]]:
    """Check ABox satisfiability w.r.t. the TBox by FO rewriting.

    Returns ``(satisfiable, violated-axiom descriptions)``.  *abox* is
    a :class:`~repro.data.database.Database` over the DL vocabulary;
    *rules* may be passed to reuse an existing translation.
    """
    from repro.api.session import Session

    if rules is None:
        rules = extended_tbox_to_tgds(tbox)
    violated: list[str] = []
    with Session(rules) as session:
        for axiom, query in zip(
            tbox.negative_axioms(), violation_queries(tbox)
        ):
            if session.answer(query, abox):
                violated.append(str(axiom))
    return (not violated, tuple(violated))
