"""Exception hierarchy for the repro library.

Every exception raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.  Errors that can point at
a region of source text carry an optional
:class:`~repro.lang.spans.Span` in their ``span`` attribute, which the
diagnostics layer (:mod:`repro.lint`) uses to annotate findings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.lang.spans import Span


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    The optional *span* locates the error in its source text when the
    raiser knows it; it defaults to None and is ignored by ``str()``.
    """

    span: "Span | None"

    def __init__(self, *args: object, span: "Span | None" = None):
        self.span = span
        super().__init__(*args)


class ParseError(ReproError):
    """Raised when the textual Datalog±-style syntax cannot be parsed.

    Carries the offending text and, when available, the position at
    which parsing failed, so error messages can point at the problem;
    ``span`` is derived from them (a one-character span at *pos*).
    """

    def __init__(self, message: str, text: str | None = None, pos: int | None = None):
        self.text = text
        self.pos = pos
        span = None
        if text is not None and pos is not None:
            from repro.lang.spans import Span

            span = Span.from_offsets(text, pos, min(pos + 1, len(text)))
            snippet = text[max(0, pos - 20):pos + 20]
            message = (
                f"{message} (line {span.line}, column {span.column}, "
                f"at offset {pos}: ...{snippet!r}...)"
            )
        super().__init__(message, span=span)


class SignatureError(ReproError):
    """Raised when a relation symbol is used with inconsistent arity."""


class SafetyError(ReproError):
    """Raised when a rule or query violates a safety condition.

    Examples: a TGD with an empty body or head, a CQ whose distinguished
    variable does not occur in its body (Section 3 requires every
    distinguished variable to occur at least once in the body).
    """


class RewritingBudgetExceeded(ReproError):
    """Raised when an answer must be exact but the budget cut its
    rewriting short (:meth:`repro.api.AnswerPlan.require_exact`).

    FO-rewritability of an arbitrary TGD set is undecidable, so the
    rewriter accepts explicit budgets (maximum resolution depth and
    maximum number of generated CQs).  Exceeding a budget does *not*
    mean the input is not FO-rewritable -- only that this run could not
    confirm it within the allotted resources.
    """

    def __init__(self, message: str, partial_cqs: int = 0, depth_reached: int = 0):
        self.partial_cqs = partial_cqs
        self.depth_reached = depth_reached
        super().__init__(message)


class ChaseBudgetExceeded(ReproError):
    """Raised when the chase engine exceeds its step budget.

    The chase of a TGD set need not terminate; engines therefore take a
    maximum number of applications and raise this error when it runs
    out before reaching a fixpoint.
    """


class NotSupportedError(ReproError):
    """Raised when an operation is asked of an input outside its scope.

    For example, requesting the position graph of TGDs with multi-atom
    heads (the position graph is defined for single-head TGDs only).
    """
