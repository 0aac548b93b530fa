"""The Skolem (semi-oblivious) chase.

Between the oblivious and restricted chases sits the *semi-oblivious*
(Skolem) chase: each existential head variable is replaced by a Skolem
term over the rule's frontier, so a trigger invents the *same* null
whenever it fires on the same frontier values.  Equivalently: run the
oblivious chase but reuse nulls per (rule, head variable, frontier
binding).

Properties exercised by the tests:

* it is insensitive to firing order (the instance is a function of the
  input, unlike the restricted chase whose *size* can depend on order);
* it lies between the two other chases:
  ``restricted ⊆ skolem ⊆ oblivious`` in instance size;
* certain answers over its fixpoint (null-free filter) coincide with
  the restricted chase's.
"""

from __future__ import annotations

from typing import Sequence

from repro.chase.chase import DEFAULT_MAX_STEPS, ChaseResult, _chase
from repro.data.database import Database
from repro.data.saturate import Binding, add_head
from repro.lang.atoms import Atom
from repro.lang.terms import Null, Term
from repro.lang.tgd import TGD


def skolem_chase(
    rules: Sequence[TGD],
    database: Database,
    max_steps: int = DEFAULT_MAX_STEPS,
    strict: bool = False,
) -> ChaseResult:
    """Run the Skolem chase up to *max_steps* trigger firings."""
    instance = database.copy()
    skolem_table: dict[tuple[int, str, tuple[Term, ...]], Null] = {}

    def fire(rule_index: int, rule: TGD, hom: Binding) -> list[Atom]:
        frontier_values = tuple(hom[v] for v in rule.distinguished_variables())
        assignment = dict(hom)
        for var in rule.existential_head_variables():
            key = (rule_index, var.name, frontier_values)
            null = skolem_table.get(key)
            if null is None:
                null = Null(
                    f"f{rule_index}_{var.name}"
                    + "".join(f"_{t}" for t in frontier_values)
                )
                skolem_table[key] = null
            assignment[var] = null
        return add_head(instance, rule, assignment)

    return _chase(
        "skolem", rules, instance, fire, None, lambda: len(skolem_table),
        max_steps, strict,
    )
