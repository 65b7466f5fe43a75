"""Property tests for the columnar wire codec.

A star phase's scatter ships its center relation as a ``WireBlock``, and
the score and rebuild steps read the rows back from it, so the codec must
be a lossless round trip.  It charges nothing: both engines price the
wire from ``ProtocolPlan.tuple_bits``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semiring import WireBlock

VALUES = st.one_of(
    st.integers(-(2 ** 40), 2 ** 40),
    st.text(max_size=6),
    st.booleans(),
)


@st.composite
def row_sets(draw):
    arity = draw(st.integers(1, 4))
    schema = tuple(f"v{i}" for i in range(arity))
    rows = draw(
        st.lists(st.tuples(*[VALUES] * arity), max_size=40)
    )
    return schema, rows


@given(row_sets())
@settings(max_examples=120, deadline=None)
def test_encode_decode_identity(schema_rows):
    schema, rows = schema_rows
    block = WireBlock.encode_rows(schema, rows)
    assert len(block) == len(rows)
    assert block.decode_rows() == rows


def test_strings_ending_in_nul_round_trip():
    # NumPy's fixed-width strings strip trailing NULs; such a column
    # must take the generic encoder (hypothesis found ``'\x00' -> ''``).
    rows = [("\x00",), ("a\x00",), ("a",), ("",)]
    assert WireBlock.encode_rows(("v0",), rows).decode_rows() == rows


def test_ragged_block_rejected():
    with pytest.raises(ValueError, match="ragged"):
        WireBlock(
            ("A", "B"),
            [np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64)],
            [[0], [0]],
        )
