"""Materialization at seconds scale: relations drawn in bulk, born columnar.

A cold run starts by building the paper's inputs.  This bench times the
three layers of that start on the benchmark's two pipeline shapes, at the
sizes where a run lasts seconds:

* ``wide-expander`` — ``acyclic(edges=8, arity=3)`` counting FAQ,
  ``domain_size=64``, N = 32,000 (eight ``random_relation`` draws);
* ``stream-line-xl`` — the Lemma 4.4 hard star (TRIBES planted in
  ``star(4)``), N = 262,144.

The layers are ``build`` (``repro.pipeline.build_query``: the generators
and the query's own validation), ``convert`` (``with_backend("columnar")``,
the product plane) and ``validate`` (``FAQQuery.validate`` alone, a
second time), each the best of ``REPEATS`` cold calls.  For scale it also times the per-tuple
reference builders of ``tests/test_materialize.py`` (the stdlib loops the
generators replaced) followed by the dict -> columnar encode they need.

Before anything is timed, every relation is checked against the
reference, row for row (order, value types, codes and dictionaries), and
the dict plane's decode against the reference ``Factor``.  With
``--quick`` only that check runs (CI); nothing here gates on wall-clock.

    PYTHONPATH=src python -m pytest benchmarks/bench_materialize.py -q -s
    PYTHONPATH=src python -m pytest benchmarks/bench_materialize.py -q -s --quick
"""

import os
import sys
import time

import pytest

from repro.lab.spec import ScenarioSpec
from repro.pipeline import build_query

from conftest import print_banner

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from test_materialize import assert_reference_rows, reference_query  # noqa: E402

REPEATS = 3

_PLANE = dict(backend="columnar", engine="compiled", solver="compiled")
SHAPES = {
    "wide-expander": ScenarioSpec(
        family="wide-expander", query="acyclic",
        query_params={"edges": 8, "arity": 3}, topology="expander",
        topology_params={"n": 64, "degree": 4, "seed": 1}, n=32_000,
        domain_size=64, semiring="counting", seed=3, **_PLANE,
    ),
    "stream-line-xl": ScenarioSpec(
        family="stream-line-xl", query="hard-star", query_params={"arms": 4},
        topology="line", topology_params={"n": 4}, n=262_144,
        assignment="worst-case", seed=7, **_PLANE,
    ),
}


def _layers(build):
    """Best ``(build, convert, validate)`` ms over ``REPEATS`` cold
    calls of ``build() -> FAQQuery``."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        query = build()
        built = time.perf_counter()
        query.with_backend("columnar")
        converted = time.perf_counter()
        query.validate()
        samples.append(
            (built - start, converted - built, time.perf_counter() - converted)
        )
    return [1e3 * min(layer) for layer in zip(*samples)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_materialize(shape, request):
    spec = SHAPES[shape]
    assert_reference_rows(build_query(spec).query, reference_query(spec))
    print(f"{shape}: N={spec.n}, rows equal the reference builders")
    if request.config.getoption("--quick"):
        return
    born = _layers(lambda: build_query(spec).query)
    reference = _layers(lambda: reference_query(spec))
    print_banner(f"{shape}, N={spec.n}: best of {REPEATS} cold calls (ms)")
    print(f"{'path':<28}{'build':>10}{'convert':>10}{'validate':>10}{'sum':>10}")
    for label, (build, convert, validate) in (
        ("columnar-born", born), ("reference loop + encode", reference),
    ):
        print(f"{label:<28}{build:>10.1f}{convert:>10.1f}{validate:>10.1f}"
              f"{build + convert:>10.1f}")
