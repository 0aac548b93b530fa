"""The chase: model-theoretic substrate for certain answers.

The paper defines certain answers ``cert(q, P, D)`` as the tuples true
in *every* database extending ``D`` and satisfying the TGDs ``P``
(Section 3).  The chase constructs a universal such model by repeatedly
firing TGDs and inventing labeled nulls for existential head variables;
evaluating the query over the (terminating) chase and discarding tuples
with nulls yields exactly the certain answers.  The library uses the
chase as ground truth to validate the FO-rewriting engine.
"""

from repro.chase.certain import certain_answers, certain_answers_via_chase
from repro.chase.chase import (
    ChaseResult,
    oblivious_chase,
    restricted_chase,
)
from repro.chase.nulls import NullFactory
from repro.chase.skolem import skolem_chase
from repro.chase.termination import is_weakly_acyclic

__all__ = [
    "ChaseResult",
    "NullFactory",
    "certain_answers",
    "certain_answers_via_chase",
    "is_weakly_acyclic",
    "oblivious_chase",
    "restricted_chase",
    "skolem_chase",
]
