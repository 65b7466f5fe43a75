"""Property tests for the columnar wire codec (the data-plane contract).

The codec must be a lossless round trip and must charge exactly the
Model 2.1 per-tuple costs the generator engine charges — these are the
two invariants the compiled engine's bit-accounting parity rests on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faq import bcq
from repro.hypergraph import Hypergraph
from repro.semiring import (
    BOOLEAN,
    COUNTING,
    ColumnarFactor,
    Factor,
    WireBlock,
    encode_wire_block,
)

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
    block = encode_wire_block(schema, rows)
    assert len(block) == len(rows)
    assert block.decode_rows() == rows


def test_strings_ending_in_nul_round_trip():
    # NumPy's fixed-width strings strip trailing NULs; such a column
    # must take the generic encoder (hypothesis found ``'\x00' -> ''``).
    rows = [("\x00",), ("a\x00",), ("a",), ("",)]
    assert encode_wire_block(("v0",), rows).decode_rows() == rows


@given(row_sets(), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_wire_bits_charge_tuple_bits_per_row(schema_rows, tuple_bits):
    schema, rows = schema_rows
    block = encode_wire_block(schema, rows)
    assert block.wire_bits(tuple_bits) == len(rows) * tuple_bits


@given(row_sets(), st.integers(0, 50), st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_slicing_is_consistent_with_row_slicing(schema_rows, a, b):
    schema, rows = schema_rows
    start, stop = sorted((min(a, len(rows)), min(b, len(rows))))
    block = encode_wire_block(schema, rows)
    assert block.slice(start, stop).decode_rows() == rows[start:stop]


def test_wire_bits_match_query_bits_per_tuple():
    """The codec's charge equals the paper's O(r log D) per-tuple cost
    used by both engines."""
    h = Hypergraph({"R": ("A", "B"), "S": ("B", "C")})
    domains = {v: tuple(range(16)) for v in "ABC"}
    factors = {
        "R": Factor.from_tuples(("A", "B"), {(0, 1), (2, 3), (4, 5)}, name="R"),
        "S": Factor.from_tuples(("B", "C"), {(1, 2)}, name="S"),
    }
    query = bcq(h, factors, domains)
    block = encode_wire_block(("A", "B"), factors["R"].tuples())
    assert block.wire_bits(query.bits_per_tuple()) == 3 * query.bits_per_tuple()


def test_encode_factor_roundtrips_annotations():
    factor = Factor(
        ("A", "B"), {(0, 1): 3, (2, 0): 5, (1, 1): 7}, COUNTING, "R"
    )
    block = WireBlock.encode_factor(factor)
    assert dict(block.decode_items()) == dict(factor.rows)
    # value bits are charged on top of tuple bits
    assert block.wire_bits(10, value_bits=32) == 3 * (10 + 32)


def test_encode_factor_zero_copy_for_columnar():
    factor = ColumnarFactor(
        ("A",), {(0,): True, (1,): True}, BOOLEAN, "R"
    )
    block = WireBlock.encode_factor(factor)
    assert block.codes[0] is factor.codes[0]
    assert block.dictionaries[0] is factor.dictionaries[0]
    assert block.values is factor.values


def test_ragged_block_rejected():
    import numpy as np

    with pytest.raises(ValueError, match="ragged"):
        WireBlock(
            ("A", "B"),
            [np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64)],
            [[0], [0]],
        )


def test_decode_items_requires_annotations():
    block = encode_wire_block(("A",), [(1,), (2,)])
    with pytest.raises(ValueError, match="no annotations"):
        block.decode_items()
