"""The OBDA layers around the ontology: mappings and strategy.

The paper's architecture (Section 1): an ontology holds the
intensional knowledge, a DBMS manages the extensional data, and an
optional mapping layer relates the two "through mapping assertions
[14]".  This package holds that GAV mapping layer
(:mod:`repro.obda.mappings`) and the Section-7 decision procedure
(:mod:`repro.obda.strategy`).  :class:`repro.api.Session` assembles
the three layers and answers UCQs by FO rewriting (with a chase-based
oracle available for validation).
"""

from repro.obda.mappings import (
    MappingAssertion,
    apply_mappings,
    identity_mappings,
    parse_mappings,
)
from repro.obda.strategy import Strategy, StrategyReport, answer_with_best_strategy

__all__ = [
    "MappingAssertion",
    "Strategy",
    "StrategyReport",
    "answer_with_best_strategy",
    "apply_mappings",
    "identity_mappings",
    "parse_mappings",
]
