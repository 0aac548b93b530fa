"""GAV mapping assertions between a source database and an ontology.

A mapping assertion relates a conjunctive query over the *source*
schema to an atom template over the *ontology* schema (global-as-view):
for every source answer, one ontology fact is produced.  This is the
"additional layer of information between the ontology and the data
sources" of Section 1.

Mappings are applied by materialisation here (producing the virtual
ABox as actual facts); since GAV mappings are safe CQs this is simply a
query evaluation per assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.data.database import Database
from repro.data.evaluation import all_homomorphisms
from repro.data.saturate import instantiate
from repro.lang.atoms import Atom
from repro.lang.errors import SafetyError
from repro.lang.terms import Variable


@dataclass(frozen=True)
class MappingAssertion:
    """One GAV mapping: source CQ body -> ontology atom template.

    Every variable of *target* must occur in *source_body* (safety);
    constants in the target are allowed.
    """

    source_body: tuple[Atom, ...]
    target: Atom

    def __post_init__(self) -> None:
        if not self.source_body:
            raise SafetyError("mapping source must have at least one atom")
        source_vars = {
            v for atom in self.source_body for v in atom.variables()
        }
        for var in self.target.variables():
            if var not in source_vars:
                raise SafetyError(
                    f"mapping target variable {var} not bound by the source"
                )

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.source_body)
        return f"{body} ~> {self.target}"


def apply_mappings(
    mappings: Sequence[MappingAssertion], source: Database
) -> Database:
    """Materialise the virtual ABox induced by *mappings* over *source*."""
    abox = Database()
    for mapping in mappings:
        for hom in all_homomorphisms(list(mapping.source_body), source):
            abox.add(instantiate(mapping.target, hom))
    return abox


def parse_mappings(text: str) -> tuple[MappingAssertion, ...]:
    """Parse a mapping file: one ``source_body ~> target_atom`` per
    statement, separated by periods/newlines, ``%`` comments allowed.

    Example::

        % people come from two source tables
        person_row(Id, Name) ~> person(Id).
        staff_row(Id, Dept)  ~> person(Id).
    """
    from repro.lang.parser import _Parser

    parser = _Parser(text)
    out: list[MappingAssertion] = []
    while not parser.at_end():
        body, target = parser.mapping()
        parser.statement_separator()
        out.append(MappingAssertion(source_body=tuple(body), target=target))
    return tuple(out)


def identity_mappings(
    relations: Iterable[tuple[str, int]]
) -> tuple[MappingAssertion, ...]:
    """Mappings copying each source relation verbatim to the ontology."""
    out: list[MappingAssertion] = []
    for relation, arity in relations:
        variables = [Variable(f"X{i}") for i in range(1, arity + 1)]
        atom = Atom(relation, variables)
        out.append(MappingAssertion(source_body=(atom,), target=atom))
    return tuple(out)
