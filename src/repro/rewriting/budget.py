"""Budgets for the rewriting engine.

Deciding FO-rewritability of an arbitrary TGD set is undecidable
(Section 2 of the paper, citing Beeri–Vardi), so the rewriter is a
semi-decision procedure: it terminates on well-behaved inputs (SWR, WR
and the classes they subsume) and must be bounded on everything else.
A :class:`RewritingBudget` caps the resolution depth (number of
breadth-first rewriting rounds), the number of generated CQs and the
wall-clock time; a run it cuts short returns its sound partial
rewriting with ``complete=False``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass


@dataclass(frozen=True)
class RewritingBudget:
    """Resource limits for one rewriting run.

    Attributes:
        max_depth: maximum number of breadth-first rewriting rounds
            (None means unlimited -- use only when termination is
            guaranteed, e.g. after an SWR/WR membership check).
        max_cqs: maximum number of distinct CQs generated in total.
        max_seconds: wall-clock ceiling for the saturation (None means
            unlimited).  The count budgets bound *work items*, not
            time -- a diverging rewriting whose CQs keep growing can
            burn minutes well under ``max_cqs`` -- so time-sensitive
            callers (probes, tests, interactive tools) should set this.

    The constructor also takes ``strict``, which is not a field: False
    is accepted because ``benchmarks/e2e/make_pool.py`` still passes
    it, and True raises :class:`TypeError` -- exactness is decided
    when answering (``require_complete``, ``AnswerPlan.exact``).
    """

    max_depth: int | None = None
    max_cqs: int = 100_000
    max_seconds: float | None = None
    strict: InitVar[bool] = False

    def __post_init__(self, strict: bool) -> None:
        if strict:
            raise TypeError(
                "strict=True is removed; use require_complete=True"
            )
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.max_cqs < 1:
            raise ValueError(f"max_cqs must be >= 1, got {self.max_cqs}")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError(
                f"max_seconds must be positive, got {self.max_seconds}"
            )

    @classmethod
    def default(cls) -> "RewritingBudget":
        """A budget generous enough for every workload in this repo."""
        return cls(max_depth=None, max_cqs=100_000)

    @classmethod
    def shallow(cls, depth: int) -> "RewritingBudget":
        """A depth-capped budget for approximation experiments."""
        return cls(max_depth=depth, max_cqs=100_000)
