"""The size cap on level enumerations, per-level arrays, scans and draws.

Everything that materialises a full tree level, a level of ``ucp`` state
classes or a batch of random draws is checked against one cap, so that an
accidental ``m**n`` blow-up fails fast with a clear message instead of
exhausting memory.  The cap is ``2**31`` values unless the
``PHTREE_SIZE_CAP`` environment variable sets it; there is no other way
to set it.  The cap counts values, not bytes: a field build fills each
level `BLOCK` values at a time, so its peak is the field's own bytes plus
one block.
"""

from __future__ import annotations

import os

from .errors import CapacityError, ValidationError

DEFAULT_SIZE_CAP = 2**31

#: values per block of boundary sampling and of the operator sweep
BLOCK = 1 << 13

_ENV_VAR = "PHTREE_SIZE_CAP"


def size_cap() -> int:
    """The active size cap: the environment variable, else the default."""
    env = os.environ.get(_ENV_VAR)
    if env is None:
        return DEFAULT_SIZE_CAP
    try:
        value = int(env)
    except ValueError as exc:
        raise ValidationError(f"{_ENV_VAR} must be an integer, got {env!r}") from exc
    if value < 1:
        raise ValidationError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def exceeded(what: str, cap: int) -> CapacityError:
    """The error for a request `what` that does not fit under `cap`."""
    return CapacityError(f"{what}, exceeding the size cap of {cap} (set {_ENV_VAR} to raise it)")


def check_level_size(m: int, k: int) -> int:
    """Return ``m**k`` if it fits under the cap, else raise CapacityError."""
    cap = size_cap()
    count = m**k
    if count > cap:
        raise exceeded(f"level {k} of the {m}-branching tree has {count} vertices", cap)
    return count


def blocks(count: int):
    """Slices that cover ``range(count)`` `BLOCK` items at a time."""
    return (slice(start, min(start + BLOCK, count)) for start in range(0, count, BLOCK))


def max_level(m: int) -> int:
    """The deepest level k whose ``m**k`` vertices fit under the cap (0 if
    not even level 1 fits)."""
    cap = size_cap()
    k = 0
    while m ** (k + 1) <= cap:
        k += 1
    return k
