"""Bulk report formatting against element-wise reference renderings.

``canonical_json`` formats a list of floats with one %-format call and
``field_to_csv`` formats whole blocks of rows at once; both must give the
bytes of the one-value-at-a-time formatting they replace.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phtree import BoundarySpec, GameParams, build_un
from phtree.boundary import SampledBoundary
from phtree.cli import canonical_json
from phtree.solver import CSV_BLOCK_ROWS, LevelField, field_to_csv


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
    for obj in (values, {"levels": [values, values], "n": len(values)}):
        text = canonical_json(obj)
        assert text == reference_json(obj)
        assert json.loads(text, parse_constant=_reject_constant) == obj


@st.composite
def fields(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(0, 3))
    levels = tuple(
        np.array(draw(st.lists(finite, min_size=m**k, max_size=m**k)), dtype=float)
        for k in range(n + 1)
    )
    params = GameParams(m, 0.5, 0.5)
    boundary = SampledBoundary(m=m, n=n, values=levels[-1])
    return LevelField(params=params, n=n, levels=levels, boundary=boundary)


@settings(max_examples=100, deadline=None)
@given(field=fields())
def test_field_to_csv_matches_element_wise(field):
    lines = field_to_csv(field).split("\n")
    assert lines[0] == "level,index,psi_left,value"
    assert lines[1:] == reference_csv_rows(field) + [""]


def test_field_to_csv_spans_several_blocks():
    field = build_un(BoundarySpec.quadratic_centered(), GameParams(3, 0.3, 0.7), 10)
    assert field.levels[-1].size > CSV_BLOCK_ROWS
    assert field_to_csv(field).split("\n")[1:-1] == reference_csv_rows(field)
