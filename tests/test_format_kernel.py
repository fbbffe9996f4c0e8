"""The report float kernel against ``format(x, ".17g")``, value by value.

``_format.write_rows`` renders ±0.0 and 1e-4 <= |x| < 1e15 with exact integer
arithmetic and every other value with "%.17g" itself; either way each
value's bytes must be those of ``format(x, ".17g")``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phtree import _format


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


def test_columns_of_a_row():
    values = np.array([0.5, -2.0, 1e-300])
    text = bytearray()
    _format.write_rows(text.extend, ["<", values, ",", values[::-1], ">\n"])
    assert text.decode() == "<0.5,1e-300>\n<-2,-2>\n<1e-300,0.5>\n"
