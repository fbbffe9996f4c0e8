"""Report text of float64 arrays: the exact bytes of ``"%.17g" % v``.

``write_rows(write, columns)`` passes the text of a table to a ``write``
callable, one block of ``capacity.BLOCK`` rows at a time, so a report is
never held whole: its destination gets each block as it is formatted.
Each row is the concatenation of its columns: a str column is written as
it is on every row, and a float64 array column (the only kind of float
column) gives that row's value as ``"%.17g" % v``, byte for byte what the
``%`` operator gives value by value.  A block is one ``(rows, width)``
matrix of little-endian 8-byte words in which every column has fixed
places and unused bytes are NUL; deleting the NUL bytes in one
``translate`` gives the block's text, which ``write`` gets in one call.

The kernel covers +-0.0 and 1e-4 <= |x| < 1e15, where "%.17g" uses fixed
notation.  There x = f * 2**e with a 53-bit integer f.  With E the decimal
exponent of x, the 17 significant digits are
D = round-half-even(f * 5**s / 2**k), where s = 16 - E and k = -(e + s);
in this range 1 <= k <= 46, and f * 5**s < 2**100 is formed exactly from
32-bit limbs in uint64 arithmetic (not ``np.longdouble``, which is a plain
double on some platforms).  E is read exactly from a table of the least
double >= 10**E; no double of the range rounds up to 10**17.  The
digits become ASCII through a table of the 10**4 four-digit groups, and
trailing zeros (with a bare ".") are dropped by a last-nonzero-digit mask.

Every other value (exponent notation, subnormal, huge, inf and nan) is
formatted by "%.17g" itself, in one bulk ``%`` call per block over just
those values, so the output is ``"%.17g" % v`` for every float64.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .capacity import blocks

#: the decimal exponents of the kernel's range, 1e-4 <= |x| < 1e15
_LOW_E, _HIGH_E = -4, 15


def _least_double_at_least(e: int) -> float:
    """The least double >= 10**e, for -22 <= e <= 22."""
    t = float(f"1e{e}")
    num, den = t.as_integer_ratio()
    if e < 0 and num * 10**-e < den:
        t = float(np.nextafter(t, np.inf))
    return t


#: _TENS[i] is the least double >= 10**(i + _LOW_E); the kernel's range is
#: _TENS[0] <= |x| < _TENS[-1], that is 1e-4 <= |x| < 1e15
_TENS = np.array([_least_double_at_least(e) for e in range(_LOW_E, _HIGH_E + 1)])
_POW5 = np.array([5**s for s in range(16 - _LOW_E + 1)], dtype=np.uint64)
#: 8-byte words of the little-endian row matrix; a value's slot is _SLOT_WORDS of them
_WORD = np.dtype("<u8")
#: the four decimal digits of each 0 <= g < 10**4, most significant first
_GROUP_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
#: ``_QUADS[g]`` spreads the four ASCII digits of g over the low bytes of four
#: 16-bit lanes; each lane's high byte is a slot for "."
_QUADS = (_GROUP_DIGITS + ord("0")).astype("<u2", order="C").view(_WORD)[:, 0]
#: position 1..4 of the last nonzero digit of each group, 0 for 0
_LAST_NONZERO = ((_GROUP_DIGITS != 0) * np.arange(1, 5, dtype=np.int8)).max(axis=1)
#: ``_LANES[c]`` keeps the first c lanes of a word
_LANES = np.array([(1 << 16 * c) - 1 for c in range(5)], dtype=np.uint64)
_EXPONENTS = range(_LOW_E, _HIGH_E)
#: by E - _LOW_E: the bytes "0.000"[:1 - E] at bytes 1.. of word 0 (below 1)
_PREFIXES = np.array(
    [sum(ord("0.000"[j]) << 8 * (1 + j) for j in range(1 - e if e < 0 else 0)) for e in _EXPONENTS],
    dtype=np.uint64,
)
#: by word and E - _LOW_E: the "." after digit E, if it falls in that word;
#: the last column, for a value with no ".", is 0
_DOTS = np.array(
    [[ord(".") << 56 if e == 0 else 0 for e in _EXPONENTS] + [0]]
    + [
        [ord(".") << 16 * ((e - 1) % 4) + 8 if 1 <= e and (e - 1) // 4 == w else 0 for e in _EXPONENTS]
        + [0]
        for w in range(4)
    ],
    dtype=np.uint64,
)
_LOW32 = np.uint64(0xFFFF_FFFF)
_MANTISSA = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
#: longest "%.17g" text, as in "-2.2250738585072014e-308"
_FALLBACK_WIDTH = 24
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")

#: words of one value's slot in a block.  Word 0 holds the sign, "0.000"[:p]
#: (fixed notation below 1), the first digit and a slot for "."; words 1..4
#: hold digits 1..16 in the low bytes of their lanes, each lane's high byte
#: a slot for "."
_SLOT_WORDS = 5


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decimal exponent E and 17 significant digits D of each a in the
    kernel's range (positive): a = D * 10**(E - 16), correctly rounded."""
    bits = a.view(np.uint64)
    biased = (bits >> 52).astype(np.int64)
    # floor(log10(a)) is floor(b * log10(2)) or one more, for 2**b <= a < 2**(b + 1)
    exp10 = ((biased - 1023) * 78913) >> 18
    exp10 += a >= _TENS[exp10 + (1 - _LOW_E)]
    f = (bits & _MANTISSA) | _HIDDEN
    s = 16 - exp10
    # k = -(e + s), where e = biased - 1075
    k = (1075 - s - biased).astype(np.uint64)
    p5 = _POW5[s]
    f0, f1 = f & _LOW32, f >> 32
    g0, g1 = p5 & _LOW32, p5 >> 32
    low = f0 * g0
    mid = f0 * g1 + f1 * g0 + (low >> 32)
    hi = f1 * g1 + (mid >> 32)
    lo = (mid << 32) | (low & _LOW32)
    # floor((hi * 2**64 + lo) / 2**k), then round half to even on the remainder
    q = (hi << (64 - k)) | (lo >> k)
    rem = lo & ((1 << k) - 1)
    half = 1 << (k - 1)
    # no carry to 10**17: the largest double below 10**(E + 1) lies more
    # than half a unit of the 17th digit below it for every E of the range
    q += (rem > half) | ((rem == half) & (q & 1 == 1))
    return exp10, q


def _put_floats(out: np.ndarray, x: np.ndarray) -> None:
    """Write ``"%.17g" % v`` of each value of the float64 array `x` into the
    rows of `out`, a ``(len(x), _SLOT_WORDS)`` view of little-endian words;
    bytes left unused are NUL."""
    a = np.abs(x)
    zero = a == 0.0
    fixed = (a >= _TENS[0]) & (a < _TENS[-1])
    other = np.flatnonzero(~(fixed | zero))
    # rows outside the range get the digits of 1.0, overwritten below
    _put_fixed(out, x, np.where(fixed, a, 1.0), zero)
    if other.size:
        _put_fallback(out, other, x[other].tolist())


def _put_fallback(out: np.ndarray, rows, values: list[float]) -> None:
    """Write ``"%.17g" % v`` of `values` into `rows` of `out` by one ``%`` call."""
    # "%-24.17g" pads with spaces, which "%.17g" never writes
    text = (f"%-{_FALLBACK_WIDTH}.17g" * len(values)) % tuple(values)
    words = np.frombuffer(text.encode("ascii").translate(_SPACE_TO_NUL), _WORD)
    out[rows, : _FALLBACK_WIDTH // 8] = words.reshape(len(values), -1)
    out[rows, _FALLBACK_WIDTH // 8 :] = 0


def _put_fixed(out: np.ndarray, x: np.ndarray, a: np.ndarray, zero: np.ndarray) -> None:
    """`_put_floats` for values whose magnitude `a` is in the kernel's range,
    or is 1.0 where `zero` marks a 0.0."""
    exp10, d = _digits(a)
    d[zero] = 0
    exp10[zero] = 0
    # int64 digit groups index the tables without a conversion; D < 10**17
    lead, rest = np.divmod(d.view(np.int64), 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = (*np.divmod(upper, 10**4), *np.divmod(lower, 10**4))
    # the position of the last nonzero digit (0 for 0.0); digits after it
    # and after the integer part are dropped, and so is a "." with no
    # digit after it
    last = np.zeros(len(x), dtype=np.int8)
    for w, g in enumerate(groups):
        nonzero = _LAST_NONZERO.take(g)
        np.copyto(last, nonzero + np.int8(4 * w), where=nonzero != 0)
    kept = np.maximum(last, exp10)
    e = exp10 - _LOW_E
    dot = np.where((exp10 >= 0) & (last > exp10), e, len(_EXPONENTS))
    out[:, 0] = (
        (x.view(np.uint64) >> 63) * np.uint64(ord("-"))
        | _PREFIXES.take(e)
        | ((lead.view(np.uint64) + ord("0")) << 48)
        | _DOTS[0].take(dot)
    )
    for w, g in enumerate(groups):
        out[:, w + 1] = _QUADS.take(g) & _LANES.take(kept - 4 * w, mode="clip") | _DOTS[w + 1].take(dot)


def _const_words(text: str) -> np.ndarray:
    """`text` as little-endian words, NUL-padded to whole words."""
    data = text.encode("ascii")
    return np.frombuffer(data + bytes(-len(data) % 8), _WORD)


def write_rows(write: Callable[[bytes], object], columns: Sequence[str | np.ndarray]) -> None:
    """Pass the text of a table to `write`, one block of rows per call.

    Each row is the concatenation of `columns`: a str (ASCII, no NUL) on
    every row, or the row's element of a float64 column as ``"%.17g" % v``.
    A float column is an array, or any sized object whose slice by a block
    of rows is one.  All float columns have the same length; a table of no
    rows makes no call.  Each block's text goes to `write` as soon as it is
    formatted, so no block outlives its own step.
    """
    consts = [_const_words(c) if isinstance(c, str) else None for c in columns]
    count = min(len(c) for c, words in zip(columns, consts) if words is None)
    width = sum(_SLOT_WORDS if words is None else len(words) for words in consts)
    for rows in blocks(count):
        # the matrix lives in a bytearray, which translate reads without a copy
        buffer = bytearray(8 * width * (rows.stop - rows.start))
        block = np.frombuffer(buffer, _WORD).reshape(-1, width)
        col = 0
        for column, words in zip(columns, consts):
            if words is None:
                _put_floats(block[:, col : col + _SLOT_WORDS], column[rows])
                col += _SLOT_WORDS
            else:
                block[:, col : col + len(words)] = words
                col += len(words)
        write(buffer.translate(None, b"\0"))
