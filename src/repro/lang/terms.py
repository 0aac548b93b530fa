"""Terms of the logical language: variables, constants and labeled nulls.

The paper's Section 3 interprets TGDs under the Unique Name Assumption:
distinct constant symbols denote distinct domain elements.  Labeled
nulls are *not* part of the surface syntax -- they are the fresh
witnesses invented by the chase for existential head variables -- but
they live here because they are terms wherever atoms are manipulated.

All term types are immutable, hashable and totally ordered (ordering is
by kind first, then by name/value), so they can be used freely in sets,
dict keys and sorted output.  Each term computes its hash once, at
construction, and pickles through its constructor: Python salts ``str``
hashes per process, so a hash carried across a pickle would be wrong in
the process that loads it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Union


class Variable:
    """A first-order variable, identified by its name.

    Two variables with the same name are the same variable.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not name:
            raise ValueError("variable name must be non-empty")
        self.name = name
        self._hash = hash(("Variable", name))

    def __reduce__(self):
        return (Variable, (self.name,))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Term") -> bool:
        return _sort_key(self) < _sort_key(other)


class Constant:
    """A constant symbol.

    The payload may be any hashable Python value (str, int, ...); under
    the Unique Name Assumption two constants are equal iff their
    payloads are equal.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value):
        self.value = value
        self._hash = hash(("Constant", value))

    def __reduce__(self):
        return (Constant, (self.value,))

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Term") -> bool:
        return _sort_key(self) < _sort_key(other)


class Null:
    """A labeled null: a fresh witness invented by the chase.

    Nulls compare equal iff they carry the same label.  They behave like
    constants for unification *of facts* (they denote a specific, if
    unknown, element of the chase instance) but are filtered out of
    certain answers: a tuple mentioning a null is not a certain answer.
    """

    __slots__ = ("label", "_hash")

    def __init__(self, label: str):
        if not label:
            raise ValueError("null label must be non-empty")
        self.label = label
        self._hash = hash(("Null", label))

    def __reduce__(self):
        return (Null, (self.label,))

    def __repr__(self) -> str:
        return f"Null({self.label!r})"

    def __str__(self) -> str:
        return f"_:{self.label}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null) and self.label == other.label

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Term") -> bool:
        return _sort_key(self) < _sort_key(other)


Term = Union[Variable, Constant, Null]

_KIND_ORDER = {Constant: 0, Null: 1, Variable: 2}


def _sort_key(term: Term) -> tuple:
    """Total-order key: kind, then a string rendering of the payload."""
    kind = _KIND_ORDER[type(term)]
    if isinstance(term, Variable):
        payload = term.name
    elif isinstance(term, Constant):
        payload = (type(term.value).__name__, str(term.value))
    else:
        payload = term.label
    return (kind, payload)


def term_sort_key(term: Term) -> tuple:
    """Public sorting key for terms (stable across kinds)."""
    return _sort_key(term)


def is_variable(term: Term) -> bool:
    """True iff *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: Term) -> bool:
    """True iff *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


def is_null(term: Term) -> bool:
    """True iff *term* is a labeled :class:`Null`."""
    return isinstance(term, Null)


def is_ground(term: Term) -> bool:
    """True iff *term* contains no variable (constants and nulls)."""
    return not isinstance(term, Variable)


class _FreshCounter:
    """Thread-safe monotone counter for fresh-symbol generation."""

    def __init__(self):
        self._counter = itertools.count()
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            return next(self._counter)


_fresh_vars = _FreshCounter()
_fresh_nulls = _FreshCounter()


def fresh_variable(prefix: str = "V") -> Variable:
    """Return a variable guaranteed not to clash with earlier fresh ones.

    Freshness is global to the process; user-written variables should
    avoid the reserved ``<prefix>#<n>`` shape (the parser rejects ``#``
    in identifiers, so parsed input can never collide).
    """
    return Variable(f"{prefix}#{_fresh_vars.next()}")


def fresh_null(prefix: str = "n") -> Null:
    """Return a labeled null with a globally fresh label."""
    return Null(f"{prefix}{_fresh_nulls.next()}")
