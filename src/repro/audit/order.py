"""The sanctioned lock acquisition order of this codebase.

Locks are grouped by the module that allocates them; the list below is
the *outer-to-inner* order in which a single thread may hold them.
Acquiring a lock from an earlier group while holding one from a later
group is an inversion -- the runtime sanitizer
(:mod:`repro.audit.sanitizer`) fails the test suite on it, and
``docs/concurrency.md`` documents the rationale per group.

The order follows the request path of the serving layer::

    TenantRegistry -> Session -> PreparedQuery (held across a
        compilation) -> RewritingCache (persistent tier)
        -> subsumption kernel -> SQLiteBackend -> fresh-symbol counters

plus the admission controller, whose lock is independent (held only
for counter updates, never across a call into the session layer); it
sits between the registry and the session so holding it while
touching either direction is flagged.

Modules not listed are unordered: the sanitizer still detects cycles
among them (observed-inversion check) but no declared-order violation
applies.
"""

from __future__ import annotations

#: Outer-to-inner module groups of every lock in the codebase.
DECLARED_ORDER: tuple[str, ...] = (
    "repro.serve.tenants",
    "repro.serve.admission",
    "repro.api.session",
    "repro.api.prepared",
    "repro.api.cache",
    "repro.rewriting.subsume",
    "repro.data.sql",
    "repro.lang.terms",
)


def group_of(site: str) -> str | None:
    """The declared-order group of an allocation site (module prefix).

    *site* is ``<module>:<lineno>`` as recorded by the sanitizer; the
    group is the longest declared module that prefixes it.
    """
    module = site.rsplit(":", 1)[0]
    best: str | None = None
    for candidate in DECLARED_ORDER:
        if module == candidate or module.startswith(candidate + "."):
            if best is None or len(candidate) > len(best):
                best = candidate
    return best


def rank_of(site: str) -> int | None:
    """Index of *site*'s group in :data:`DECLARED_ORDER`, or None."""
    group = group_of(site)
    if group is None:
        return None
    return DECLARED_ORDER.index(group)
