"""The report writer: ``cli.json_text`` is ``json.dumps(x, indent=2)``.

Reports and suite verdicts are printed through it, so its text must be the
encoder's byte for byte, and it must raise wherever the encoder raises.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zdgraph.cli import json_text

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e300, 2**53 + 0.5]),
    st.text(), st.text(alphabet="aé€\U0001f600\"\\\n\t\x00/", max_size=6),
)
keys = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.booleans(), st.none(),
                 st.floats(allow_nan=True, allow_infinity=True))
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.lists(scalars, max_size=4), max_size=4),  # edges, ideals
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(payloads)
def test_writer_is_the_indent_2_encoder(x):
    assert json_text(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("x", [
    [], {}, (), [[]], [{}], {"a": []}, [[1, "x"], [2.5, None]], [True, 1, False, 0],
    {1: "int", True: "bool", None: "none", 1.5: "float", "s": "str"},
    {math.nan: 0, math.inf: 1, -math.inf: 2}, "é€\U0001f600", [math.nan, -math.inf],
])
def test_writer_on_edge_payloads(x):
    assert json_text(x) == json.dumps(x, indent=2)


class Count(int):
    pass


def test_subclasses_get_the_encoder_text():
    # json.dumps writes an int subclass as int.__repr__ does; the writer
    # leaves every type it does not know by exact type to the encoder
    x = {"n": Count(3), "l": [Count(4), "a"], "t": (Count(5),)}
    assert json_text(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("x", [
    {"a": {1, 2}}, [np.int64(3)], {(1, 2): "tuple key"}, [[1, object()]], {"x": b"bytes"},
])
def test_writer_raises_the_encoders_type_error(x):
    with pytest.raises(TypeError) as want:
        json.dumps(x, indent=2)
    with pytest.raises(TypeError) as got:
        json_text(x)
    assert str(got.value) == str(want.value)


def test_writer_raises_the_encoders_error_on_a_cycle():
    x = [1]
    x.append({"again": x})
    with pytest.raises(ValueError, match="Circular reference detected"):
        json_text(x)
