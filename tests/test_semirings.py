"""Unit and property tests for repro.semiring.semirings."""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.semiring import (
    BOOLEAN,
    BUILTIN_SEMIRINGS,
    COUNTING,
    GF2,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    REAL,
    check_semiring_axioms,
    get_semiring,
)

SAMPLES = {
    "boolean": [False, True],
    "counting": [0, 1, 2, 3, 7],
    "real": [0.0, 1.0, 0.5, 2.25],
    "min-plus": [math.inf, 0.0, 1.0, 2.5],
    "max-plus": [-math.inf, 0.0, 1.0, 2.5],
    "max-times": [0.0, 1.0, 0.25, 0.75],
    "gf2": [0, 1],
}


@pytest.mark.parametrize("name", sorted(BUILTIN_SEMIRINGS))
def test_builtin_semirings_satisfy_axioms(name):
    check_semiring_axioms(BUILTIN_SEMIRINGS[name], SAMPLES[name])


def test_axiom_checker_raises_under_python_O():
    # ⊕ = |a - b| has the identity 0 and commutes, but is not
    # associative: ||1 - 1| - 2| = 2 while |1 - |1 - 2|| = 0.  The
    # checker must say so even when ``assert`` statements are stripped.
    code = (
        "from repro.semiring import Semiring, check_semiring_axioms\n"
        "broken = Semiring('abs-diff', 0, 1, lambda a, b: abs(a - b),"
        " lambda a, b: a * b)\n"
        "try:\n"
        "    check_semiring_axioms(broken, [0, 1, 2])\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True,
    ).stdout
    assert out.strip() == "abs-diff: + not associative for (1, 1, 2)"


def test_get_semiring_roundtrip():
    for name in BUILTIN_SEMIRINGS:
        assert get_semiring(name).name == name


def test_get_semiring_unknown_raises():
    with pytest.raises(KeyError):
        get_semiring("no-such-semiring")


def test_sum_and_product_folds():
    assert COUNTING.sum([1, 2, 3]) == 6
    assert COUNTING.product([2, 3, 4]) == 24
    assert BOOLEAN.sum([]) is False
    assert BOOLEAN.product([]) is True
    assert MIN_PLUS.sum([3.0, 1.0, 2.0]) == 1.0
    assert MIN_PLUS.product([3.0, 1.0]) == 4.0


def test_sum_repeat_counting():
    assert COUNTING.sum_repeat(5, 0) == 0
    assert COUNTING.sum_repeat(5, 1) == 5
    assert COUNTING.sum_repeat(5, 7) == 35
    assert COUNTING.sum_repeat(3, 1000) == 3000


def test_sum_repeat_idempotent():
    assert BOOLEAN.sum_repeat(True, 100) is True
    assert BOOLEAN.sum_repeat(True, 0) is False
    assert MIN_PLUS.sum_repeat(2.0, 9) == 2.0


def test_sum_repeat_negative_raises():
    with pytest.raises(ValueError):
        COUNTING.sum_repeat(1, -1)


def test_gf2_is_a_field_fragment():
    assert GF2.add(1, 1) == 0
    assert GF2.add(1, 0) == 1
    assert GF2.mul(1, 1) == 1
    assert GF2.mul(1, 0) == 0
    assert GF2.sum_repeat(1, 2) == 0
    assert GF2.sum_repeat(1, 3) == 1


def test_real_eq_tolerates_float_noise():
    assert REAL.eq(0.1 + 0.2, 0.3)
    assert not REAL.eq(0.1, 0.2)


def test_is_zero():
    assert BOOLEAN.is_zero(False)
    assert not BOOLEAN.is_zero(True)
    assert MIN_PLUS.is_zero(math.inf)
    assert MAX_PLUS.is_zero(-math.inf)
    assert MAX_TIMES.is_zero(0.0)


@given(st.integers(0, 10_000), st.integers(0, 50))
def test_sum_repeat_matches_naive_counting(value, times):
    assert COUNTING.sum_repeat(value, times) == value * times


@given(st.booleans(), st.booleans(), st.booleans())
def test_boolean_distributivity_property(a, b, c):
    lhs = BOOLEAN.mul(a, BOOLEAN.add(b, c))
    rhs = BOOLEAN.add(BOOLEAN.mul(a, b), BOOLEAN.mul(a, c))
    assert lhs == rhs


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=20)
)
def test_real_sum_matches_math_fsum(values):
    assert math.isclose(REAL.sum(values), math.fsum(values), rel_tol=1e-9, abs_tol=1e-6)
