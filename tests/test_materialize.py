"""Relations are columnar from birth, and are the relations they always were.

The generators draw their randomness in bulk (one ``getrandbits`` call
per chunk of Mersenne Twister words) and build
:class:`~repro.semiring.ColumnarFactor` relations without a dict.  The
oracle is the per-tuple stdlib loop they replaced, which lives only
here:

* every bulk draw is the ``random.choice`` / ``randint`` draw of the
  running interpreter, and the TRIBES shuffle is ``random.Random.shuffle``
  (CI runs this file on 3.10 and 3.12);
* every relation holds the reference's rows in the reference's order,
  and its codes and dictionaries are what encoding the reference gives;
* built through :mod:`repro.pipeline`, every fuzz identity and the
  ledger's two shapes give the reference query's rows on the columnar
  plane, and the dict plane receives a ``Factor`` equal to the
  reference's, row order and value types included.
"""

import contextlib
import random
from unittest import mock

import numpy as np
import pytest

from repro.lab.generate import generate_scenarios
from repro.lab.spec import ScenarioSpec
from repro.lab.suites import DEFAULT_SEED
from repro.lowerbounds import forest_embedding, tribes
from repro.pipeline import build_query
from repro.semiring import (
    BOOLEAN, COUNTING, GF2, MIN_PLUS, REAL, ColumnarFactor, Factor,
)
from repro.workloads import generators, random_relation, random_weighted_relation
from repro.workloads.generators import _attempts, _first_attempts, make_rng

# ---------------------------------------------------------------------------
# The reference builders: the per-tuple loops the generators replaced
# ---------------------------------------------------------------------------


def reference_relation(schema, domains, size, seed=None, semiring=BOOLEAN, name=None):
    rng = make_rng(seed)
    schema = tuple(schema)
    tuples = set()
    capacity = 1
    for v in schema:
        capacity *= len(domains[v])
    target = min(size, capacity)
    columns = [list(domains[v]) for v in schema]
    while len(tuples) < target:
        tuples.add(tuple(rng.choice(column) for column in columns))
    return Factor.from_tuples(schema, tuples, semiring, name)


def reference_weighted_relation(
    schema, domains, size, semiring, seed=None, name=None,
    low=0.1, high=1.0, exact=False,
):
    rng = make_rng(seed)
    base = reference_relation(schema, domains, size, seed=rng.randrange(2**30))
    if exact:
        rows = {t: float(rng.randint(1, 8)) for t in base.tuples()}
    else:
        rows = {t: rng.uniform(low, high) for t in base.tuples()}
    return Factor(base.schema, rows, semiring, name)


def reference_shuffled_range(rng, n):
    elements = list(range(n))
    rng.shuffle(elements)
    return elements


def reference_planted_factor(schema, free_var, values, filler, name):
    # The embedding hands over sorted TRIBES sets as arrays; the loop
    # took them as lists of ints.
    values = np.asarray(values).tolist()
    columns = [[filler] * len(values)] * len(schema)
    columns[schema.index(free_var)] = values
    return Factor.from_tuples(schema, zip(*columns), BOOLEAN, name)


def listing(factor):
    """Rows in order, with the type of every value and annotation."""
    return [
        (row, tuple(map(type, row)), value, type(value))
        for row, value in factor.rows.items()
    ]


def assert_encodes(factor, reference):
    """``factor`` is columnar and holds exactly what encoding
    ``reference`` gives: codes, dictionaries, values, dtype."""
    encoded = ColumnarFactor.from_factor(reference)
    assert isinstance(factor, ColumnarFactor)
    assert factor.schema == encoded.schema and factor.name == encoded.name
    assert factor.semiring is encoded.semiring
    assert factor.dictionaries == encoded.dictionaries
    assert [list(map(type, d)) for d in factor.dictionaries] == [
        list(map(type, d)) for d in encoded.dictionaries
    ]
    assert all(map(np.array_equal, factor.codes, encoded.codes))
    assert factor.values.dtype == encoded.values.dtype
    assert np.array_equal(factor.values, encoded.values)


# ---------------------------------------------------------------------------
# Bulk draws are the stdlib draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bounds",
    [(1,), (2,), (63,), (64,), (65,), (1, 2, 63, 64, 65), (65, 3, 1, 64),
     (7, 200, 2**20, 2**32 - 1)],
)
@pytest.mark.parametrize("seed", [0, 1, DEFAULT_SEED])
def test_bulk_draws_are_the_stdlib_draws(bounds, seed):
    count = 300
    stdlib = random.Random(seed)
    by_choice = [
        [stdlib.choice(range(b)) for b in bounds] for _ in range(count)
    ]
    stdlib = random.Random(seed)
    by_randint = [
        [stdlib.randint(0, b - 1) for b in bounds] for _ in range(count)
    ]
    assert by_choice == by_randint
    # A first batch of about ten attempts: the rest arrive in batches
    # that continue the stream, which must not show.
    drawn = _first_attempts(random.Random(seed), list(bounds), count)
    assert drawn.tolist() == by_choice
    batches = _attempts(random.Random(seed), list(bounds), 10)
    drawn = [next(batches)]
    assert 0 < len(drawn[0]) < count
    while sum(map(len, drawn)) < count:
        drawn.append(next(batches))
    assert np.concatenate(drawn)[:count].tolist() == by_choice


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 8192],
)
@pytest.mark.parametrize("seed", [0, 1, 2, DEFAULT_SEED])
def test_tribes_shuffle_is_the_stdlib_shuffle(n, seed):
    stdlib, drawn = random.Random(seed), random.Random(seed)
    expected = reference_shuffled_range(stdlib, n)
    assert tribes._shuffled_range(drawn, n) == expected
    # Same draws taken, so the generator goes on from the same state.
    assert drawn.getrandbits(64) == stdlib.getrandbits(64)
    assert drawn.getstate() == stdlib.getstate()


DOMAINS = {
    "ints": {"A": tuple(range(64)), "B": tuple(range(64)), "C": tuple(range(64))},
    "unequal": {"A": (1,), "B": tuple(range(2)), "C": tuple(range(65))},
    "strings": {"A": ("x", "y", "zz"), "B": tuple("abcdefg"), "C": ("",)},
    "mixed": {
        "A": (0, "0", (0,), None, 2.5, True),
        "B": tuple(range(63)),
        "C": (-0.0, float("inf"), 3),
    },
    "array": {"A": np.arange(5), "B": np.arange(64), "C": np.arange(2)},
}


@pytest.mark.parametrize("domains", sorted(DOMAINS))
@pytest.mark.parametrize("size", [0, 1, 7, 40, 200, 10**6])
@pytest.mark.parametrize("seed", [3, 11])
def test_random_relation_is_the_reference_loop(domains, size, seed):
    doms = DOMAINS[domains]
    for schema in (("A",), ("B", "A"), ("A", "B", "C")):
        if len(schema) == 3 and size == 10**6 and domains == "ints":
            continue  # 262,144 rows: the coupon collector's tail
        expected = reference_relation(schema, doms, size, seed, BOOLEAN, "R")
        built = random_relation(schema, doms, size, seed, BOOLEAN, "R")
        assert listing(built) == listing(expected)
        assert_encodes(built, expected)


@pytest.mark.parametrize("semiring", [BOOLEAN, COUNTING, REAL, MIN_PLUS, GF2])
def test_random_relation_over_every_semiring(semiring):
    doms = DOMAINS["unequal"]
    expected = reference_relation(("C", "A", "B"), doms, 50, 5, semiring, "R")
    built = random_relation(("C", "A", "B"), doms, 50, 5, semiring, "R")
    assert listing(built) == listing(expected)
    if semiring is GF2:
        assert type(built) is Factor  # no vector profile: dict-backed
    else:
        assert_encodes(built, expected)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("semiring", [REAL, MIN_PLUS, COUNTING, BOOLEAN, GF2])
@pytest.mark.parametrize("size", [0, 1, 30, 5000])
def test_weighted_relation_is_the_reference(exact, semiring, size):
    doms = DOMAINS["ints"]
    expected = reference_weighted_relation(
        ("A", "B"), doms, size, semiring, seed=9, name="W", exact=exact,
    )
    built = random_weighted_relation(
        ("A", "B"), doms, size, semiring, seed=9, name="W", exact=exact,
    )
    assert listing(built) == listing(expected)
    if semiring in (REAL, MIN_PLUS):
        assert_encodes(built, expected)
    else:
        # Float weights over an integer, Boolean or profile-less
        # semiring stay dict-backed, annotations as drawn.
        assert type(built) is Factor


def test_weighted_relation_drops_zero_annotations_as_factor_does():
    doms = {"A": tuple(range(40))}
    expected = reference_weighted_relation(
        ("A",), doms, 40, REAL, seed=2, low=0.0, high=2e-12,
    )
    built = random_weighted_relation(
        ("A",), doms, 40, REAL, seed=2, low=0.0, high=2e-12,
    )
    assert 0 < len(expected) < 40
    assert listing(built) == listing(expected)
    assert_encodes(built, expected)


# ---------------------------------------------------------------------------
# Built through the pipeline: every fuzz identity, the ledger's shapes
# ---------------------------------------------------------------------------


def _ledger_shapes():
    """The two pipeline workloads of the benchmark, at small N."""
    plane = dict(backend="columnar", engine="compiled", solver="compiled")
    stream = ScenarioSpec(
        family="stream-line", query="hard-star", query_params={"arms": 4},
        topology="line", topology_params={"n": 4}, n=256,
        assignment="worst-case", seed=7, **plane,
    )
    wide = ScenarioSpec(
        family="wide-expander", query="acyclic",
        query_params={"edges": 8, "arity": 3}, topology="expander",
        topology_params={"n": 64, "degree": 4, "seed": 1}, n=500,
        domain_size=64, semiring="counting", seed=3, **plane,
    )
    return [stream, stream.with_(n=1024, seed=8), wide, wide.with_(n=64)]


PIPELINE_SPECS = (
    list(generate_scenarios(DEFAULT_SEED, 25))
    + list(generate_scenarios(777, 100))
    + _ledger_shapes()
)


@contextlib.contextmanager
def reference_builders():
    """Inside, :mod:`repro.pipeline` builds with the reference loops."""
    with contextlib.ExitStack() as stack:
        for module, name, reference in (
            (generators, "random_relation", reference_relation),
            (generators, "random_weighted_relation", reference_weighted_relation),
            (forest_embedding, "_planted_factor", reference_planted_factor),
            (tribes, "_shuffled_range", reference_shuffled_range),
        ):
            stack.enter_context(mock.patch.object(module, name, reference))
        yield


def reference_query(spec):
    """The spec's query as the reference builders make it."""
    with reference_builders():
        return build_query(spec).query


def test_pipeline_specs_cover_every_query_family():
    families = {spec.query for spec in PIPELINE_SPECS}
    assert families >= {
        "hard-star", "hard-path", "hard-forest", "degenerate", "acyclic",
        "tree", "forest",
    }


def assert_reference_rows(built, expected):
    """``built`` is born columnar with ``expected``'s rows, in order, and
    its dict plane decodes factors equal to ``expected``'s."""
    assert all(type(f) is Factor for f in expected.factors.values())
    assert list(built.factors) == list(expected.factors)
    assert built.domains == expected.domains
    as_dict = built.with_backend("dict")
    columnar = built.with_backend("columnar")
    for name, reference in expected.factors.items():
        assert listing(built.factors[name]) == listing(reference)
        assert_encodes(built.factors[name], reference)
        assert columnar.factors[name] is built.factors[name]
        decoded = as_dict.factors[name]
        assert type(decoded) is Factor and decoded == reference
        assert listing(decoded) == listing(reference)


@pytest.mark.parametrize("spec", PIPELINE_SPECS, ids=lambda s: s.label)
def test_pipeline_relations_equal_the_reference_builders(spec):
    assert_reference_rows(build_query(spec).query, reference_query(spec))
