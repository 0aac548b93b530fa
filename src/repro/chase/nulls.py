"""Deterministic labeled-null generation for chase runs.

Each chase run owns a :class:`NullFactory` so null labels are stable
and reproducible (``n1, n2, ...``) within the run, independent of any
global state.  Reproducible labels make chase instances comparable in
tests and keep golden outputs stable.
"""

from __future__ import annotations

from repro.lang.terms import Null


class NullFactory:
    """Produces ``n1, n2, ...`` labeled nulls, one run at a time.

    *created* resumes a run that had already handed out that many
    nulls: the next label is ``n{created + 1}``.
    """

    def __init__(self, prefix: str = "n", created: int = 0) -> None:
        self._prefix = prefix
        self._count = created

    def fresh(self) -> Null:
        """The next unused null of this factory."""
        self._count += 1
        return Null(f"{self._prefix}{self._count}")

    @property
    def created(self) -> int:
        """How many nulls this factory has handed out."""
        return self._count
