"""Per-tenant ontology isolation for the serving layer.

One server process serves many tenants; each tenant is an ontology
(plus optional data and mappings) with its own
:class:`~repro.api.Session` -- engine, handle table and SQLite
mirror.  Isolation comes for free from the cache architecture: the
persistent tier keys every entry by ontology digest, so all tenants
share one cache *file* while never sharing an *entry*.

The registry keeps at most ``max_live`` sessions open (LRU).  An
evicted session is only *closed* -- its definition stays registered
and the next request lazily reopens it, warm from the shared
persistent cache.  Removing a tenant, by contrast, is permanent: the
session is closed, the definition dropped, and the persistent tier's
entries owned by that ontology -- every row its sessions wrote, split
residuals and core snapshots included -- reclaimed via
:meth:`~repro.api.RewritingCache.evict_ontologies` (unless another
registered tenant still uses the same ontology).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.api.cache import RewritingCache
from repro.api.options import EngineOptions
from repro.api.session import Session
from repro.data.database import Database
from repro.lang.errors import ReproError
from repro.lang.tgd import TGD
from repro.obda.mappings import MappingAssertion


class _TenantDef:
    __slots__ = ("ontology", "data", "mappings")

    def __init__(
        self,
        ontology: tuple[TGD, ...],
        data: Database | None,
        mappings: tuple[MappingAssertion, ...] | None,
    ) -> None:
        self.ontology = ontology
        self.data = data
        self.mappings = mappings


class TenantRegistry:
    """Named tenants -> live sessions, LRU-bounded, eviction-aware."""

    def __init__(
        self,
        *,
        cache_dir: str | Path | None = None,
        options: EngineOptions | None = None,
        max_live: int = 8,
    ) -> None:
        if max_live < 1:
            raise ValueError(f"max_live must be >= 1, got {max_live}")
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._options = options if options is not None else EngineOptions()
        self._max_live = max_live
        self._lock = threading.RLock()
        self._defs: dict[str, _TenantDef] = {}
        # Insertion order is the LRU order: oldest first.
        self._live: dict[str, Session] = {}

    @property
    def options(self) -> EngineOptions:
        """The engine options every tenant session is opened with."""
        return self._options

    @property
    def cache_dir(self) -> Path | None:
        return self._cache_dir

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._defs))

    def register(
        self,
        name: str,
        ontology: Sequence[TGD],
        data: Database | None = None,
        mappings: Sequence[MappingAssertion] | None = None,
    ) -> str:
        """Add (or replace) a tenant; returns its ontology digest."""
        definition = _TenantDef(
            tuple(ontology),
            data,
            tuple(mappings) if mappings is not None else None,
        )
        with self._lock:
            previous = self._live.pop(name, None)
            self._defs[name] = definition
        if previous is not None:
            previous.close()
        obs.event("serve.tenant.registered", tenant=name)
        return self.session(name).ontology_digest

    def session(self, name: str) -> Session:
        """The tenant's live session, opening (or reopening) it lazily."""
        with self._lock:
            definition = self._defs.get(name)
            if definition is None:
                raise ReproError(f"unknown tenant {name!r}")
            session = self._live.pop(name, None)
            if session is not None:
                # Re-insert at the tail: most recently used.
                self._live[name] = session
                return session
            session = Session(
                definition.ontology,
                definition.data,
                mappings=definition.mappings,
                cache_dir=self._cache_dir,
                options=self._options,
            )
            self._live[name] = session
            obs.count("serve.tenant.opened")
            evicted = []
            while len(self._live) > self._max_live:
                victim_name = next(iter(self._live))
                evicted.append(self._live.pop(victim_name))
                obs.count("serve.tenant.lru_closed")
        for victim in evicted:
            victim.close()
        return session

    def warm_all(self) -> int:
        """Warm every registered tenant from the persistent tier.

        The server's boot path: re-prepares every stored rewriting of
        every tenant's ontology so first requests hit a warm handle
        table (zero fresh rewrites).  Returns total entries warmed.
        """
        if self._cache_dir is None:
            return 0
        warmed = 0
        for name in self.names():
            warmed += self.session(name).warm_up()
        obs.event("serve.warmup", entries=warmed)
        return warmed

    def remove(self, name: str) -> int:
        """Drop a tenant and reclaim its persistent-cache entries.

        Returns the number of cache rows evicted (0 when the ontology
        is still used by another tenant, or without a cache dir).
        """
        with self._lock:
            definition = self._defs.pop(name, None)
            if definition is None:
                raise ReproError(f"unknown tenant {name!r}")
            session = self._live.pop(name, None)
            remaining = {_digest(d.ontology) for d in self._defs.values()}
        if session is not None:
            session.close()
        evicted = 0
        if self._cache_dir is not None:
            # A transient handle: live sessions keep their own handles
            # to the same file, and SQLite's locking arbitrates.
            with RewritingCache(self._cache_dir) as cache:
                evicted = cache.evict_ontologies(keep=remaining)
        obs.event("serve.tenant.removed", tenant=name, evicted=evicted)
        return evicted

    def close(self) -> None:
        """Close every live session (definitions are kept)."""
        with self._lock:
            sessions = list(self._live.values())
            self._live.clear()
        for session in sessions:
            session.close()

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _digest(ontology: tuple[TGD, ...]) -> str:
    from repro.rewriting.store import ontology_digest

    return ontology_digest(ontology)
