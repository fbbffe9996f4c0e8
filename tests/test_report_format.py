"""Bulk report formatting against element-wise reference renderings.

``canonical_json`` formats a float array a block of items at a time and
``field_to_csv`` formats whole blocks of rows at once; both must give the
bytes of the one-value-at-a-time formatting they replace.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phtree import BoundarySpec, GameParams, build_un, capacity
from phtree.cli import canonical_json
from phtree.solver import LevelField, field_to_csv


def json_text(obj) -> str:
    buf = bytearray()
    canonical_json(obj, buf.extend)
    return buf.decode()


def csv_text(field) -> str:
    buf = bytearray()
    field_to_csv(field, buf.extend)
    return buf.decode()


def reference_json(obj, indent=0):
    """Element-wise rendering: every list item formatted on its own."""
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if isinstance(obj, dict):
        items = [
            f'{child_pad}"{key}": {reference_json(obj[key], indent + 1)}' for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if obj else "{}"
    if isinstance(obj, list):
        items = [child_pad + reference_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if obj else "[]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format(obj, ".17g")
    return str(obj)


def reference_csv_rows(field):
    m = field.params.m
    return [
        f"{k},{j},{format(j / m**k, '.17g')},{format(float(v), '.17g')}"
        for k, arr in enumerate(field.levels)
        for j, v in enumerate(arr)
    ]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 1 / 3]
)
scalars = (
    finite
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | finite.map(np.float64)
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(finite, max_size=40) | st.lists(scalars, max_size=40))
def test_canonical_json_matches_element_wise(values):
    # a float list also goes in as an array, which the kernel renders
    arrays = [np.array(values, dtype=float)] if all(type(v) is float for v in values) else []
    for items in [values, *arrays]:
        for obj, expected in (
            (items, values),
            ({"levels": [items, items], "n": len(values)}, {"levels": [values, values], "n": len(values)}),
        ):
            text = json_text(obj)
            assert text == reference_json(expected)
            assert json.loads(text, parse_constant=_reject_constant) == expected


@pytest.mark.parametrize("size", [0, 1, 5, 6])
def test_canonical_json_of_arrays_in_blocks_of_5(monkeypatch, size):
    """Arrays of no item, one item, one block and one block plus one, where a
    block is 5 items: each array's last item, written alone, closes it."""
    monkeypatch.setattr(capacity, "BLOCK", 5)
    values = [1 / 3, -0.0, 1e-300, 2.5e20, -123.456, 7.0][:size]
    array = np.array(values)
    obj = {"levels": [array, array], "root": array}
    assert json_text(obj) == reference_json({"levels": [values, values], "root": values})


@st.composite
def fields(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(0, 3))
    levels = tuple(
        np.array(draw(st.lists(finite, min_size=m**k, max_size=m**k)), dtype=float)
        for k in range(n + 1)
    )
    params = GameParams(m, 0.5, 0.5)
    return LevelField(params=params, n=n, levels=levels)


@settings(max_examples=100, deadline=None)
@given(field=fields())
def test_field_to_csv_matches_element_wise(field):
    lines = csv_text(field).split("\n")
    assert lines[0] == "level,index,psi_left,value"
    assert lines[1:] == reference_csv_rows(field) + [""]


def test_field_to_csv_spans_several_blocks():
    field = build_un(BoundarySpec.quadratic_centered(), GameParams(3, 0.3, 0.7), 10)
    assert field.levels[-1].size > capacity.BLOCK
    assert csv_text(field).split("\n")[1:-1] == reference_csv_rows(field)
