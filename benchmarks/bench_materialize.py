"""Materialization at seconds scale: relations drawn in bulk, born columnar.

A cold run starts by building the paper's inputs.  This bench times the
layers of that start on the benchmark's two pipeline shapes, at the
sizes where a run lasts seconds:

* ``wide-expander`` — ``acyclic(edges=8, arity=3)`` counting FAQ,
  ``domain_size=64``, N = 32,000 (eight ``random_relation`` draws);
* ``stream-line-xl`` — the Lemma 4.4 hard star (TRIBES planted in
  ``star(4)``), N = 262,144.

Two layers are ``build`` (``repro.pipeline.build_query``) and
``convert`` (``with_backend("columnar")``, the product plane).  Inside
``build`` it times ``validate`` (``FAQQuery.validate`` as the query's
construction runs it) and, on ``stream-line-xl``, ``draw``
(``hard_tribes``) and ``embed`` (``embed_tribes_in_forest``); the rest
of ``build`` is ``relations`` (the generators) or ``other``.  Each
layer is the best of ``REPEATS`` cold calls.  For scale it also times
the per-tuple reference builders of ``tests/test_materialize.py`` (the
stdlib loops and shuffle the generators replaced) followed by the
dict -> columnar encode they need.

Before anything is timed, every relation is checked against the
reference, row for row (order, value types, codes and dictionaries), and
the dict plane's decode against the reference ``Factor``.  With
``--quick`` only that check runs (CI); nothing here gates on wall-clock.

    PYTHONPATH=src python -m pytest benchmarks/bench_materialize.py -q -s
    PYTHONPATH=src python -m pytest benchmarks/bench_materialize.py -q -s --quick
"""

import contextlib
import os
import sys
import time
from unittest import mock

import pytest

from repro import pipeline
from repro.faq import FAQQuery
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


#: The calls timed inside ``build``, per shape: (layer, owner, attribute).
INNER = {
    "wide-expander": [("validate", FAQQuery, "validate")],
    "stream-line-xl": [
        ("draw", pipeline, "hard_tribes"),
        ("embed", pipeline, "embed_tribes_in_forest"),
        ("validate", FAQQuery, "validate"),
    ],
}


def _layers(build, inner):
    """Best ms per layer over ``REPEATS`` cold calls of ``build() ->
    FAQQuery``: each ``inner`` call, the rest of ``build``, ``convert``."""
    spent = {}

    def timed(layer, call):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - start
        return wrapper

    samples = []
    with contextlib.ExitStack() as stack:
        for layer, owner, name in inner:
            stack.enter_context(mock.patch.object(
                owner, name, timed(layer, getattr(owner, name))
            ))
        for _ in range(REPEATS):
            spent.update((layer, 0.0) for layer, _, _ in inner)
            start = time.perf_counter()
            query = build()
            built = time.perf_counter()
            inside = [spent[layer] for layer, _, _ in inner]
            query.with_backend("columnar")
            converted = time.perf_counter()
            samples.append(
                inside + [built - start - sum(inside), converted - built]
            )
    return [1e3 * min(layer) for layer in zip(*samples)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_materialize(shape, request):
    spec = SHAPES[shape]
    assert_reference_rows(build_query(spec).query, reference_query(spec))
    print(f"{shape}: N={spec.n}, rows equal the reference builders")
    if request.config.getoption("--quick"):
        return
    inner = INNER[shape]
    born = _layers(lambda: build_query(spec).query, inner)
    reference = _layers(lambda: reference_query(spec), inner)
    rest = "other" if shape == "stream-line-xl" else "relations"
    names = [layer for layer, _, _ in inner] + [rest, "convert"]
    print_banner(f"{shape}, N={spec.n}: best of {REPEATS} cold calls (ms)")
    print(f"{'path':<28}" + "".join(f"{name:>10}" for name in names)
          + f"{'sum':>10}")
    for label, layers in (
        ("columnar-born", born), ("reference loop + encode", reference),
    ):
        print(f"{label:<28}" + "".join(f"{ms:>10.1f}" for ms in layers)
              + f"{sum(layers):>10.1f}")
