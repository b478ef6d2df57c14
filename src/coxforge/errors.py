"""Structured exception types shared by every module.

The CLI maps these onto exit codes (precondition violation -> 1, exhausted
search/orbit cap -> 2), so library code always raises one of the classes
below instead of bare ValueError/RuntimeError.
"""

from __future__ import annotations


class CoxforgeError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(CoxforgeError, ValueError):
    """A documented precondition was violated; names the offending field."""

    def __init__(self, field: str, detail: str):
        self.field = field
        self.detail = detail
        super().__init__(f"{field}: {detail}")


class CapExceeded(CoxforgeError, RuntimeError):
    """A bounded search or orbit enumeration hit its cap."""

    def __init__(self, what: str, cap: int):
        self.what = what
        self.cap = cap
        super().__init__(f"{what}: cap of {cap} exhausted")
