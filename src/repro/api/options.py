"""One frozen bundle for every engine-tuning option of a session.

Before this module the options steering a :class:`~repro.api.Session`'s
rewriting engine -- budget, rewriting target, hybrid regime -- were
threaded positionally through ``Session.__init__``, the batch pool's
worker initializer and every CLI subcommand, each spelling the
defaults again.
:class:`EngineOptions` collects them in a single immutable value:

* one definition of the defaults, shared by API, pool workers and CLI;
* picklable, so process-pool workers and the serving layer rebuild an
  identical engine from one object;
* a single :meth:`EngineOptions.from_args` adapter mapping the CLI's
  shared *engine options* argument group onto the dataclass.

``Session(..., options=EngineOptions(...))`` is the only way to pass
them; ``docs/api.md`` maps the removed per-keyword spelling onto it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.rewriting.budget import RewritingBudget

if TYPE_CHECKING:  # pragma: no cover - typing only
    import argparse

_HYBRID_MODES = ("off", "auto", "rewrite", "split", "materialize")


@dataclass(frozen=True)
class EngineOptions:
    """Everything that tunes a session's rewriting engine, in one value.

    Attributes:
        budget: rewriting budget every compilation runs under
            (default: :meth:`RewritingBudget.default`).
        target: rewriting target -- ``"ucq"``, ``"datalog"`` or
            ``"auto"`` (see :data:`repro.rewriting.engine.TARGETS`).
        hybrid: hybrid answering mode -- ``"off"`` (default; pure
            rewriting), ``"auto"`` (cost model picks REWRITE / SPLIT /
            MATERIALIZE per workload), or one of ``"rewrite"`` /
            ``"split"`` / ``"materialize"`` to pin the regime (see
            :mod:`repro.hybrid`).
    """

    budget: RewritingBudget = field(default_factory=RewritingBudget.default)
    target: str = "ucq"
    hybrid: str = "off"

    def __post_init__(self) -> None:
        from repro.rewriting.engine import TARGETS

        if self.target not in TARGETS:
            raise ValueError(
                f"unknown rewriting target {self.target!r}; "
                f"expected one of {TARGETS}"
            )
        if self.hybrid not in _HYBRID_MODES:
            raise ValueError(
                f"unknown hybrid mode {self.hybrid!r}; "
                f"expected one of {_HYBRID_MODES}"
            )
        if not isinstance(self.budget, RewritingBudget):
            raise TypeError(
                f"budget must be a RewritingBudget, got {self.budget!r}"
            )

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def with_deadline(self, seconds: float | None) -> "EngineOptions":
        """A copy whose budget's wall-clock ceiling is at most *seconds*.

        The serving layer maps per-request deadlines onto the budget
        machinery with this: a compilation admitted under a deadline
        must not run past it, so the budget's ``max_seconds`` is
        tightened (never loosened) to the deadline.
        """
        if seconds is None:
            return self
        current = self.budget.max_seconds
        ceiling = seconds if current is None else min(current, seconds)
        if ceiling == current:
            return self
        return self.replace(
            budget=dataclasses.replace(self.budget, max_seconds=ceiling)
        )

    @classmethod
    def from_args(cls, args: "argparse.Namespace") -> "EngineOptions":
        """Build options from the CLI's shared *engine options* group.

        The single adapter between ``argparse`` and the engine: every
        subcommand that accepts engine flags (answer, batch, trace,
        rewrite, serve, lint, check) resolves them here, so flag
        semantics cannot drift between commands.  Absent attributes
        fall back to the dataclass defaults, which lets callers reuse
        the adapter with partial namespaces (``lint`` and ``check``
        define no ``--target``).
        """
        budget = RewritingBudget(
            max_depth=getattr(args, "max_depth", None),
            max_cqs=getattr(args, "max_cqs", 100_000),
            max_seconds=getattr(args, "max_seconds", None),
            strict=False,
        )
        return cls(
            budget=budget,
            target=getattr(args, "target", "ucq"),
            hybrid=getattr(args, "hybrid", "off"),
        )
