"""Cost-based hybrid answering: partial materialization + maintenance.

The paper's central trade-off — rewrite at query time vs. chase at
load time — becomes a per-(ontology, workload) *decision* here instead
of a global switch:

* :mod:`repro.hybrid.cost` ranks REWRITE / SPLIT / MATERIALIZE with an
  explainable cost model fed by the separability partition, the static
  disjunct-bound estimator, and live relation cardinalities;
* :mod:`repro.hybrid.maintain` owns the materialized chase core and
  keeps it fresh under ABox inserts/deletes with a provenance-tracked
  delta chase (semi-naive inserts, DRed deletes) instead of a full
  re-chase;
* :mod:`repro.hybrid.store` snapshots a built core into the persistent
  rewriting cache so later processes skip the initial chase.

:class:`repro.api.Session` is the integration point (``options.hybrid``
plus ``Session.insert`` / ``Session.delete``); ``repro classify
--explain`` prints the decision.
"""

from repro.hybrid.cost import HybridChoice, HybridDecision, decide
from repro.hybrid.maintain import MaintenanceResult, MaterializedCore
from repro.hybrid.store import (
    abox_digest,
    core_key,
    decode_core,
    encode_core,
    load_or_build,
)

__all__ = [
    "HybridChoice",
    "HybridDecision",
    "MaintenanceResult",
    "MaterializedCore",
    "abox_digest",
    "core_key",
    "decode_core",
    "decide",
    "encode_core",
    "load_or_build",
]
