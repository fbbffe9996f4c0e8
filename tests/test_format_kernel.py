"""The report number kernels against ``format(x, ".17g")`` and ``str(j)``,
value by value.

``_format.write_rows`` renders ±0.0 and 1e-4 <= |x| < 1e15 with exact integer
arithmetic and every other value with "%.17g" itself; either way each
value's bytes must be those of ``format(x, ".17g")``.  A range column's
integers are digits in a slot as wide as its largest value.  A one-byte
separator after a number rides in the number slot's last byte and must land
right after the number's text.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phtree import _format, capacity


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


POWERS_OF_TEN = np.array([v for e in range(-6, 18) for v in _neighbours(10.0**e)])

#: raw 64-bit patterns, and patterns whose biased exponent puts them in or
#: next to the kernel's range (2**-15 .. 2**51), where raw patterns rarely fall
bit_patterns = st.integers(0, 2**64 - 1) | st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1),
    st.integers(1023 - 15, 1023 + 51),
    st.integers(0, 2**52 - 1),
)
float_arrays = st.lists(bit_patterns, min_size=1, max_size=64).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)
)


def rendered(values):
    """Each value's text; the "\n" after it rides in the value's slot."""
    text = bytearray()
    _format.write_rows(text.extend, [values, "\n"])
    return text.decode().split("\n")[:-1]


@settings(max_examples=300, deadline=None)
@given(values=float_arrays)
# round half to even at the 17th digit
@example(values=np.array([1234567890123.03125, 1234567890123.09375, -1234567890123.03125]))
# both sides of each edge of the kernel's range
@example(values=np.array([1e-4, np.nextafter(1e-4, 0), 9.9999999999999995e-05, -1e-4]))
@example(values=np.array([1e15, np.nextafter(1e15, 0), -1e15, -np.nextafter(1e15, 0)]))
@example(values=POWERS_OF_TEN)
@example(values=-POWERS_OF_TEN)
@example(values=np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]))
def test_kernel_matches_format(values):
    assert rendered(values) == [format(x, ".17g") for x in values.tolist()]


@settings(max_examples=200, deadline=None)
@given(start=st.integers(0, 2**31 - 1), size=st.integers(1, 30), block=st.integers(1, 8))
# 0 and the one- and two-digit edges
@example(start=0, size=11, block=4)
# 9999 fills a word, 10**4 takes a second
@example(start=9990, size=10, block=4)
@example(start=9990, size=20, block=8)
# 10**8 - 1 fills two words, 10**8 takes a third
@example(start=10**8 - 5, size=5, block=2)
@example(start=10**8 - 5, size=10, block=3)
# the deepest index under the default size cap
@example(start=2**31 - 8, size=8, block=5)
def test_integer_column_matches_str(start, size, block):
    """Rows of a range, whatever block of it a slice starts mid-range, next
    to a narrower one; the separator after each integer rides in its slot,
    whose last lane the largest value fills."""
    column = range(start, start + size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capacity, "BLOCK", block)
        text = bytearray()
        _format.write_rows(text.extend, [column, ";", range(size), "\n"])
    assert text.decode() == "".join(f"{j};{i}\n" for i, j in enumerate(column))


def test_columns_of_a_row():
    values = np.array([0.5, -2.0, 1e-300])
    text = bytearray()
    _format.write_rows(text.extend, ["<", values, ",", values[::-1], ">\n"])
    assert text.decode() == "<0.5,1e-300>\n<-2,-2>\n<1e-300,0.5>\n"
    # one one-byte str rides after a number; a second, or a longer str, is a column
    text = bytearray()
    _format.write_rows(text.extend, [range(9998, 10001), ",", ";", values, ", ", range(3), "\n"])
    assert text.decode() == "9998,;0.5, 0\n9999,;-2, 1\n10000,;1e-300, 2\n"
