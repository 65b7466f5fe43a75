"""Backend comparison — dict vs columnar data plane on Table-1-scale inputs.

Every Table 1 workload bottoms out in the factor algebra of
``repro.faq.operations`` (join, ⊕-marginalization, projection).  This bench
pits the two storage backends against each other on exactly that hot path,
at the listing sizes the Table 1 rows use (N in the 10^5 range after the
join fan-out):

* **operator workload** — a counting-semiring chain join
  ``R(A,B) ⋈ S(B,C)`` followed by ⊕-marginalizing ``B`` and projecting to
  ``A``: the inner loop of every FAQ solver;
* **solver workload** — a full natural-join query solved end-to-end via
  ``solve_variable_elimination(query, backend=...)``.

It prints a comparison table and asserts:

* both backends return **byte-identical** answers (exact dict equality on
  integer counting annotations, not tolerance equality);
* the columnar backend is **at least 5x faster** on the operator workload
  (13-15x on a shared 2-core Linux x86-64 host, where it was about 23x
  before the dict kernels read row keys with ``itemgetter``; the 5x
  floor keeps the assertion robust on slow or noisy CI machines) and at
  least 2x on the solver workload (10-13x there, from 28x);
* the one-time dict->columnar encoding cost is itself far below a single
  dict-path run, so converting *pays off within one operator*.
"""

import json
import random
import time

from repro.faq import join, marginalize, natural_join_query, project, solve_variable_elimination
from repro.hypergraph import Hypergraph
from repro.lab import get_suite, run_suite
from repro.semiring import (
    BACKEND_COLUMNAR,
    BACKEND_DICT,
    COUNTING,
    ColumnarFactor,
    Factor,
)

from conftest import print_banner

# Table-1-scale: ~1e5-row inputs, join fan-out ~10 => ~1e6-row intermediate.
N_ROWS = 80_000
JOIN_KEY_DOMAIN = 8_000
VALUE_DOMAIN = 40_000
SPEEDUP_FLOOR = 5.0


def _counting_relation(schema, key_positions, size, seed):
    """A random counting-semiring relation; join keys drawn from the
    smaller JOIN_KEY_DOMAIN so the join fans out ~size/JOIN_KEY_DOMAIN."""
    rng = random.Random(seed)
    rows = {}
    while len(rows) < size:
        key = tuple(
            rng.randrange(JOIN_KEY_DOMAIN if i in key_positions else VALUE_DOMAIN)
            for i in range(len(schema))
        )
        rows[key] = rng.randint(1, 9)
    return Factor(schema, rows, COUNTING)


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _operator_pipeline(r, s):
    joined = join(r, s)
    reduced = marginalize(joined, "B")
    return project(reduced, ("A",)), len(joined)


def test_operator_workload_speedup_and_identical_answers():
    r_dict = _counting_relation(("A", "B"), {1}, N_ROWS, seed=1)
    s_dict = _counting_relation(("B", "C"), {0}, N_ROWS, seed=2)

    t0 = time.perf_counter()
    r_col = ColumnarFactor.from_factor(r_dict)
    s_col = ColumnarFactor.from_factor(s_dict)
    encode_s = time.perf_counter() - t0

    dict_s, (dict_answer, joined_rows) = _best_of(
        lambda: _operator_pipeline(r_dict, s_dict), repeats=1
    )
    col_s, (col_answer, col_joined_rows) = _best_of(
        lambda: _operator_pipeline(r_col, s_col), repeats=3
    )
    speedup = dict_s / col_s

    print_banner("backend comparison — operator hot path (counting semiring)")
    print(f"  inputs: 2 x {N_ROWS} rows, join fan-out ~{N_ROWS // JOIN_KEY_DOMAIN}, "
          f"joined rows = {joined_rows}")
    print(f"  {'backend':<10} {'join+marg+proj':>16} {'encode':>10}")
    print(f"  {'dict':<10} {dict_s:>14.3f}s {'-':>10}")
    print(f"  {'columnar':<10} {col_s:>14.3f}s {encode_s:>9.3f}s")
    print(f"  speedup: {speedup:.1f}x (floor asserted: {SPEEDUP_FLOOR}x)")

    # Byte-identical answers: exact equality of the row dicts — integer
    # counting annotations, no tolerance involved.
    assert isinstance(col_answer, ColumnarFactor)
    assert joined_rows == col_joined_rows
    assert dict_answer.schema == col_answer.schema
    assert dict_answer.rows == col_answer.rows
    assert all(type(v) is int for v in col_answer.rows.values())

    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar backend only {speedup:.1f}x faster (< {SPEEDUP_FLOOR}x)"
    )
    # Converting to columnar pays for itself within one dict-path run.
    assert encode_s < dict_s


def test_solver_workload_parity_and_speedup():
    h = Hypergraph({"R1": ("X1", "X2"), "R2": ("X2", "X3")})
    rng = random.Random(7)
    size, key_dom = 30_000, 3_000
    factors = {}
    for name, schema in (("R1", ("X1", "X2")), ("R2", ("X2", "X3"))):
        rows = set()
        while len(rows) < size:
            rows.add((rng.randrange(key_dom if schema[0] == "X2" else VALUE_DOMAIN),
                      rng.randrange(key_dom if schema[1] == "X2" else VALUE_DOMAIN)))
        factors[name] = Factor.from_tuples(schema, rows, name=name)
    domains = {"X1": range(VALUE_DOMAIN), "X2": range(key_dom), "X3": range(VALUE_DOMAIN)}
    query = natural_join_query(h, factors, domains)

    dict_s, dict_answer = _best_of(
        lambda: solve_variable_elimination(query, backend=BACKEND_DICT), repeats=1
    )
    col_s, col_answer = _best_of(
        lambda: solve_variable_elimination(query, backend=BACKEND_COLUMNAR), repeats=2
    )
    speedup = dict_s / col_s

    print_banner("backend comparison — solve_variable_elimination(natural join)")
    print(f"  inputs: 2 x {size} rows; output rows = {len(dict_answer)}")
    print(f"  dict: {dict_s:.3f}s   columnar: {col_s:.3f}s   speedup: {speedup:.1f}x")

    # Byte-identical Boolean answers (True annotations, exact dict equality;
    # the columnar solve also pays its own encode cost inside the timing).
    assert dict_answer.schema == col_answer.schema
    assert dict_answer.rows == col_answer.rows
    assert speedup >= 2.0, f"solver speedup only {speedup:.1f}x"


def test_backend_parity_end_to_end_via_lab():
    """The ``backend-compare`` lab suite: full distributed executions on
    identical scenarios, dict vs columnar.  Answers (by content digest),
    round counts and correctness must match pairwise — the backend is a
    data-plane choice and must never change protocol behaviour."""
    run = run_suite(get_suite("backend-compare"))
    pairs = {}
    for result in run.results:
        spec = result.spec.to_json_dict()
        backend = spec.pop("backend")
        pairs.setdefault(json.dumps(spec, sort_keys=True), {})[backend] = result

    print_banner("backend parity — distributed protocol via repro.lab")
    assert pairs and all(len(group) == 2 for group in pairs.values())
    for group in pairs.values():
        a, b = group["dict"], group["columnar"]
        print(
            f"  {a.query_name:<16} {a.topology_name:<16} rounds={a.measured_rounds}"
        )
        assert a.correct and b.correct
        assert a.measured_rounds == b.measured_rounds
        assert a.answer_digest == b.answer_digest
