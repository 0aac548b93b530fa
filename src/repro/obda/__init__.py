"""The OBDA mapping layer around the ontology.

The paper's architecture (Section 1): an ontology holds the
intensional knowledge, a DBMS manages the extensional data, and an
optional mapping layer relates the two "through mapping assertions
[14]".  This package holds that GAV mapping layer
(:mod:`repro.obda.mappings`).  :class:`repro.api.Session` assembles
the three layers, and its one planning step answers each query by FO
rewriting, over a materialized chase, by SPLIT, or approximately
(Section 7's procedure; see ``docs/hybrid.md``).
"""

from repro.obda.mappings import (
    MappingAssertion,
    apply_mappings,
    identity_mappings,
    parse_mappings,
)

__all__ = [
    "MappingAssertion",
    "apply_mappings",
    "identity_mappings",
    "parse_mappings",
]
