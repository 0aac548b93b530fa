"""Tuple-generating dependencies (TGDs, a.k.a. existential rules).

A TGD (Section 3) is an expression ``β1, ..., βn -> α1, ..., αm`` with

* *distinguished variables*: occur in both body and head (elsewhere in
  the literature called the *frontier*);
* *existential body variables*: occur only in the body;
* *existential head variables*: occur only in the head (the
  "value-invention" variables, implicitly ∃-quantified).

A TGD is *simple* (Section 5) when (i) no atom contains a repeated
variable, (ii) no atom contains a constant, and (iii) the head is a
single atom.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.lang.atoms import Atom
from repro.lang.errors import SafetyError
from repro.lang.spans import Span
from repro.lang.substitution import Substitution, rename_apart
from repro.lang.terms import Constant, Variable


class TGD:
    """An immutable tuple-generating dependency.

    The optional *label* names the rule in printouts (``R1``, ``R2``,
    ...); it does not affect equality, which is structural over
    body and head treated as ordered tuples.  The optional *span*
    records where the rule was parsed from (provenance only, likewise
    ignored by equality and hashing).
    """

    __slots__ = (
        "body",
        "head",
        "label",
        "span",
        "_hash",
        "_body_vars",
        "_head_vars",
        "_distinguished",
    )

    def __init__(
        self,
        body: Sequence[Atom],
        head: Sequence[Atom],
        label: str | None = None,
        span: Span | None = None,
    ):
        if not body:
            raise SafetyError("a TGD must have a non-empty body")
        if not head:
            raise SafetyError("a TGD must have a non-empty head")
        self.body = tuple(body)
        self.head = tuple(head)
        self.label = label
        self.span = span
        self._hash = hash((self.body, self.head))
        self._body_vars = _ordered_variables(self.body)
        self._head_vars = _ordered_variables(self.head)
        body_set = set(self._body_vars)
        self._distinguished = tuple(
            v for v in self._head_vars if v in body_set
        )

    def __reduce__(self):
        # Rebuild through the constructor: the cached hash is only valid
        # in the process that computed it (str hashes are salted).
        return (TGD, (self.body, self.head, self.label, self.span))

    # ----------------------------------------------------------------- #
    # Variable classification (Section 3)                                #
    # ----------------------------------------------------------------- #

    def variables(self) -> tuple[Variable, ...]:
        """All variables of the rule, body first, in occurrence order."""
        seen: dict[Variable, None] = {}
        for var in self._body_vars + self._head_vars:
            seen.setdefault(var)
        return tuple(seen)

    def body_variables(self) -> tuple[Variable, ...]:
        """Variables occurring in the body, in occurrence order."""
        return self._body_vars

    def head_variables(self) -> tuple[Variable, ...]:
        """Variables occurring in the head, in occurrence order."""
        return self._head_vars

    def distinguished_variables(self) -> tuple[Variable, ...]:
        """Variables occurring in both head and body (the frontier)."""
        return self._distinguished

    def existential_body_variables(self) -> tuple[Variable, ...]:
        """Variables occurring only in the body."""
        head = set(self._head_vars)
        return tuple(v for v in self._body_vars if v not in head)

    def existential_head_variables(self) -> tuple[Variable, ...]:
        """Variables occurring only in the head (value invention)."""
        body = set(self._body_vars)
        return tuple(v for v in self._head_vars if v not in body)

    def constants(self) -> tuple[Constant, ...]:
        """All constants of the rule, in occurrence order."""
        seen: dict[Constant, None] = {}
        for atom in self.body + self.head:
            for const in atom.constants():
                seen.setdefault(const)
        return tuple(seen)

    # ----------------------------------------------------------------- #
    # Shape predicates                                                   #
    # ----------------------------------------------------------------- #

    def is_simple(self) -> bool:
        """True iff the rule is *simple* in the sense of Section 5."""
        return not self.simplicity_violations()

    def simplicity_violations(self) -> tuple[str, ...]:
        """Human-readable reasons why the rule is not simple (if any)."""
        return tuple(
            reason for reason, _atom in self.simplicity_violation_atoms()
        )

    def simplicity_violation_atoms(
        self,
    ) -> tuple[tuple[str, Atom | None], ...]:
        """Simplicity violations paired with the offending atom.

        Each entry is ``(reason, atom)``; the multi-atom-head violation
        carries ``None`` since it concerns the rule as a whole.  The
        atom gives diagnostics a precise source span when the rule was
        parsed from text.
        """
        reasons: list[tuple[str, Atom | None]] = []
        for atom in self.body + self.head:
            if atom.has_repeated_variable():
                reasons.append((f"repeated variable in atom {atom}", atom))
            if atom.constants():
                reasons.append((f"constant in atom {atom}", atom))
        if len(self.head) > 1:
            reasons.append(
                (f"head has {len(self.head)} atoms (must be 1)", None)
            )
        return tuple(reasons)

    def single_head(self) -> Atom:
        """The unique head atom; raises if the head has several atoms."""
        if len(self.head) != 1:
            raise SafetyError(
                f"rule {self.label or self} has a multi-atom head"
            )
        return self.head[0]

    def is_datalog(self) -> bool:
        """True iff the rule has no existential head variables."""
        return not self.existential_head_variables()

    def is_full(self) -> bool:
        """Synonym of :meth:`is_datalog` (a *full* dependency)."""
        return self.is_datalog()

    # ----------------------------------------------------------------- #
    # Renaming                                                           #
    # ----------------------------------------------------------------- #

    def rename_apart(self, taken: Iterable[Variable]) -> "TGD":
        """A variant of this rule sharing no variable name with *taken*."""
        renaming = rename_apart(self.variables(), taken)
        if not renaming:
            return self
        return self.apply(renaming)

    def apply(self, substitution: Substitution) -> "TGD":
        """Apply a substitution to both body and head."""
        return TGD(
            substitution.apply_atoms(self.body),
            substitution.apply_atoms(self.head),
            label=self.label,
            span=self.span,
        )

    # ----------------------------------------------------------------- #
    # Dunder plumbing                                                    #
    # ----------------------------------------------------------------- #

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TGD)
            and self._hash == other._hash
            and self.body == other.body
            and self.head == other.head
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TGD({list(self.body)!r}, {list(self.head)!r}, label={self.label!r})"

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        head = ", ".join(str(a) for a in self.head)
        rule = f"{body} -> {head}"
        if self.label:
            return f"{self.label}: {rule}"
        return rule


def _ordered_variables(atoms: Sequence[Atom]) -> tuple[Variable, ...]:
    seen: dict[Variable, None] = {}
    for atom in atoms:
        for var in atom.variables():
            seen.setdefault(var)
    return tuple(seen)


def normalize_to_single_head(rules: Sequence[TGD]) -> tuple[TGD, ...]:
    """Split multi-atom heads into single-head rules when harmless.

    A head ``α1, ..., αm`` can be split into ``m`` single-head rules
    only when no existential head variable is shared between two head
    atoms (otherwise splitting loses the join on the invented value).
    Rules whose head atoms share an existential variable are returned
    unchanged; callers that require single heads should check
    :meth:`TGD.single_head` afterwards.
    """
    out: list[TGD] = []
    for rule in rules:
        if len(rule.head) == 1:
            out.append(rule)
            continue
        existential = set(rule.existential_head_variables())
        shared = False
        seen: set[Variable] = set()
        for atom in rule.head:
            here = {v for v in atom.variables() if v in existential}
            if here & seen:
                shared = True
                break
            seen |= here
        if shared:
            out.append(rule)
            continue
        for i, atom in enumerate(rule.head, start=1):
            label = f"{rule.label}.{i}" if rule.label else None
            out.append(TGD(rule.body, [atom], label=label))
    return tuple(out)
