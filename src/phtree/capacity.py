"""The size cap on level enumerations, per-level arrays, scans and draws.

Everything that materialises a full tree level, a level of ``ucp`` state
classes or a batch of random draws is checked against one cap, so that an
accidental ``m**n`` blow-up fails fast with a clear message instead of
exhausting memory.  The cap is ``2**31`` values unless the
``PHTREE_SIZE_CAP`` environment variable sets it; there is no other way
to set it.  The cap counts values, not bytes: a field build fills each
level `BLOCK` values at a time, so its peak is the field's own bytes plus
one block.  `BLOCK` also sizes the blocks of rows in which reports are
formatted and written: a report goes to its destination one block at a
time, so its peak is the result it prints plus one block, not its text.
"""

from __future__ import annotations

import math
import os

from .errors import CapacityError, ValidationError

DEFAULT_SIZE_CAP = 2**31

#: values per block of boundary sampling, of the operator sweep and of report rows and writes
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


def decimal(count: int) -> str:
    """`count` in decimal, or ``about 10**e`` where it has more digits than
    Python turns into a str (``sys.get_int_max_str_digits``)."""
    try:
        return str(count)
    except ValueError:
        return f"about 10**{math.log10(count):.0f}"


def check_level_size(m: int, k: int) -> int:
    """Return ``m**k`` if it fits under the cap, else raise CapacityError."""
    cap = size_cap()
    if k > max_level(m):
        # a count past the 4,300 digits Python prints by default is not
        # formed at all: 3**10**8 alone takes minutes
        digits = k * math.log10(m)
        count = decimal(m**k) if digits < 4300 else f"about 10**{digits:.0f}"
        raise exceeded(f"level {k} of the {m}-branching tree has {count} vertices", cap)
    return m**k


def blocks(count: int, width: int = 1):
    """Slices that cover ``range(count)`` one block of `BLOCK` values at a
    time, for items of `width` values each (at least one item a block)."""
    step = max(1, BLOCK // width)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def max_level(m: int) -> int:
    """The deepest level k whose ``m**k`` vertices fit under the cap (0 if
    not even level 1 fits)."""
    cap = size_cap()
    k = 0
    while m ** (k + 1) <= cap:
        k += 1
    return k
