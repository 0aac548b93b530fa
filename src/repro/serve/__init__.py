"""Async query-serving layer: the ``repro serve`` HTTP/JSON front end.

The paper's architecture compiles a query once and pushes evaluation
down to a DBMS; this package is the layer that makes that story hold
under real concurrent traffic.  It wires four pieces over the
:class:`~repro.api.Session` machinery:

* :mod:`repro.serve.http` -- a minimal asyncio HTTP/1.1 codec (no
  external dependencies; stdlib only);
* :mod:`repro.serve.admission` -- bounded-queue request admission with
  graceful shedding (429 + ``Retry-After``) and the ``serve.*``
  counters;
* :mod:`repro.serve.tenants` -- per-tenant ontology isolation: one
  session (engine + caches + backend) per tenant, LRU-bounded, with
  persistent-cache eviction on tenant removal;
* :mod:`repro.serve.server` -- the :class:`ReproServer` event loop
  tying them together, plus :class:`BackgroundServer` for tests and
  the load harness.

Compilation stays single-flight per tenant: concurrent cold requests
for one (query, target) collapse onto one compilation, run under the
lock the query's prepared handles share, and a restarted server warms
its handle table from the persistent SQLite cache before accepting
traffic (:meth:`repro.api.Session.warm_up`).  ``docs/serving.md`` has
the deployment guide and counter catalogue.
"""

from __future__ import annotations

from repro.serve.admission import AdmissionController, AdmissionTicket
from repro.serve.server import BackgroundServer, ReproServer, ServeConfig
from repro.serve.tenants import TenantRegistry

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "BackgroundServer",
    "ReproServer",
    "ServeConfig",
    "TenantRegistry",
]
