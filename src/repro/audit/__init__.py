"""Concurrency/async static analyzer + runtime lock-order sanitizer.

``repro audit <path>`` runs the RL300--RL314 pass family over Python
source trees (the project's own code, or user extension code) and
reports through the shared lint diagnostic stack: same renderers
(text/json/sarif), same ``--strict`` exit-code contract.

See ``docs/lint.md`` for the code catalogue and ``docs/concurrency.md``
for the lock inventory and sanctioned acquisition order the passes and
the sanitizer enforce.
"""

from repro.audit.engine import AUDIT, audit_files, audit_paths
from repro.audit.model import AuditFile, iter_python_files, load_audit_file
from repro.audit.order import DECLARED_ORDER, group_of, rank_of

__all__ = [
    "AUDIT",
    "AuditFile",
    "DECLARED_ORDER",
    "audit_files",
    "audit_paths",
    "group_of",
    "iter_python_files",
    "load_audit_file",
    "rank_of",
]
