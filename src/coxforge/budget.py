"""Node caps for the bounded searches (orbits, saturation, backtracking).

Every cap resolves in this order: explicit argument, COXFORGE_CAP
environment variable, built-in default.
"""

from __future__ import annotations

import os

from .errors import PreconditionError

DEFAULT_CAP = 10 ** 6
ENV_VAR = "COXFORGE_CAP"


def effective_cap(explicit: int | None = None, default: int = DEFAULT_CAP) -> int:
    if explicit is not None:
        if not isinstance(explicit, int) or isinstance(explicit, bool) or explicit < 1:
            raise PreconditionError("cap", f"must be a positive integer, got {explicit!r}")
        return explicit
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise PreconditionError(ENV_VAR, f"must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise PreconditionError(ENV_VAR, f"must be a positive integer, got {raw!r}")
    return value
