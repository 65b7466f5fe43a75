"""Workload generators for tests and benchmarks.

Produces the query shapes the paper evaluates (stars, paths, trees,
d-degenerate graphs, bounded-arity hypergraphs) and random input relations
in listing representation, including the skew-free "matching" databases of
the MPC comparison (Appendix A.1.2).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import warnings
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hypergraph import Hypergraph
from ..semiring import BOOLEAN, ColumnarFactor, Factor, Semiring
from ..semiring.backend import profile_for, supports_columnar
from ..semiring.columnar import dictionary_array

#: Seed space for derived child seeds.  Kept at 2**30 so seeds survive a
#: JSON round-trip on every platform and stay comfortably inside the
#: int range of ``random.Random`` seeding.
SEED_SPACE = 2**30


def make_rng(seed: Optional[int]) -> random.Random:
    """A deterministic RNG for a generator call.

    ``None`` silently aliases every seedless call site to the *same*
    stream (seed 0), which makes experiments irreproducible as soon as
    two call sites race or reorder.  The experiment lab
    (:mod:`repro.lab`) therefore always passes explicit seeds (see
    :func:`spawn_seeds`); seedless calls keep the legacy seed-0 behaviour
    for backward compatibility but now warn.
    """
    if seed is None:
        # stacklevel=3: blame the seedless caller of the generator, not
        # the generator's internal make_rng call.
        warnings.warn(
            "make_rng(None) aliases to seed 0; pass an explicit seed "
            "(e.g. from spawn_seeds) for reproducible experiments",
            stacklevel=3,
        )
        return random.Random(0)
    return random.Random(seed)


def spawn_seeds(master_seed: int, n: int) -> Tuple[int, ...]:
    """Derive ``n`` independent child seeds from one master seed.

    The experiment boundary's answer to seedless nondeterminism: a
    scenario carries one explicit ``master_seed`` and every generator
    call site (query structure, per-relation tuples, topology sampling)
    gets its own deterministic child seed, so adding or reordering call
    sites never perturbs sibling streams.

    Raises:
        ValueError: if ``master_seed`` is None (the whole point) or
            ``n`` is negative.
    """
    if master_seed is None:
        raise ValueError("master_seed must be an explicit int, not None")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = random.Random(master_seed)
    return tuple(rng.randrange(SEED_SPACE) for _ in range(n))


# ---------------------------------------------------------------------------
# Query-shape generators
# ---------------------------------------------------------------------------


def random_tree_query(num_edges: int, seed: Optional[int] = None) -> Hypergraph:
    """A random tree-shaped simple-graph query with ``num_edges`` edges."""
    if num_edges < 1:
        raise ValueError("need at least one edge")
    rng = make_rng(seed)
    edges = {}
    for i in range(num_edges):
        parent = rng.randrange(i + 1)
        edges[f"R{i}"] = (f"v{parent}", f"v{i + 1}")
    return Hypergraph(edges)


def random_forest_query(
    num_trees: int, edges_per_tree: int, seed: Optional[int] = None
) -> Hypergraph:
    """A disjoint union of random trees."""
    if num_trees < 1 or edges_per_tree < 1:
        raise ValueError("need at least one tree of at least one edge")
    rng = make_rng(seed)
    edges = {}
    for t in range(num_trees):
        for i in range(edges_per_tree):
            parent = rng.randrange(i + 1)
            edges[f"T{t}R{i}"] = (f"t{t}v{parent}", f"t{t}v{i + 1}")
    return Hypergraph(edges)


def random_d_degenerate_query(
    num_vertices: int, d: int, seed: Optional[int] = None
) -> Hypergraph:
    """A d-degenerate simple graph built by the standard insertion process.

    Vertex ``i`` connects to ``min(i, d)`` uniformly random earlier
    vertices, which guarantees degeneracy at most ``d`` and typically
    exactly ``d`` for ``num_vertices >> d``.
    """
    if num_vertices < 2 or d < 1:
        raise ValueError("need at least two vertices and d >= 1")
    rng = make_rng(seed)
    edges: Dict[str, Tuple[str, str]] = {}
    idx = 0
    for i in range(1, num_vertices):
        targets = rng.sample(range(i), min(i, d))
        for j in targets:
            edges[f"R{idx}"] = (f"v{j}", f"v{i}")
            idx += 1
    return Hypergraph(edges)


def random_acyclic_hypergraph(
    num_edges: int,
    arity: int,
    seed: Optional[int] = None,
) -> Hypergraph:
    """A random connected alpha-acyclic hypergraph with bounded arity.

    Grows a hypertree: each new edge shares a random non-empty subset of an
    existing edge and adds fresh vertices up to ``arity``.
    """
    if num_edges < 1:
        raise ValueError("need at least one edge")
    if arity < 2:
        raise ValueError("arity must be at least 2")
    rng = make_rng(seed)
    fresh = 0

    def new_vertices(n: int) -> List[str]:
        nonlocal fresh
        out = [f"x{fresh + i}" for i in range(n)]
        fresh += n
        return out

    edges: Dict[str, Tuple[str, ...]] = {"E0": tuple(new_vertices(arity))}
    for i in range(1, num_edges):
        host = rng.choice(list(edges.values()))
        share = rng.randint(1, min(arity - 1, len(host)))
        shared = tuple(rng.sample(list(host), share))
        edges[f"E{i}"] = shared + tuple(new_vertices(arity - share))
    return Hypergraph(edges)


#: Named query-structure generators, the dispatch surface the lab's
#: query-family builders (:mod:`repro.lab.runner`) go through.  Each value
#: is ``(generator, parameter names)``; every generator takes its
#: parameters positionally plus a ``seed`` keyword.
STRUCTURE_KINDS: Dict[str, Tuple[Any, Tuple[str, ...]]] = {
    "tree": (random_tree_query, ("num_edges",)),
    "forest": (random_forest_query, ("num_trees", "edges_per_tree")),
    "degenerate": (random_d_degenerate_query, ("num_vertices", "d")),
    "acyclic": (random_acyclic_hypergraph, ("num_edges", "arity")),
}


def random_query_structure(
    kind: str, seed: Optional[int] = None, **params: int
) -> Hypergraph:
    """Generate a random query hypergraph of the named structure ``kind``.

    The uniform entry point over :data:`STRUCTURE_KINDS` (what the lab
    runner's tree/forest/degenerate/acyclic/hard-forest families call):
    looks up the generator, checks the parameter names, and forwards the
    seed.  The
    structural invariant each kind claims (tree/forest acyclicity,
    d-degeneracy, alpha-acyclicity with bounded arity) is property-tested
    in ``tests/test_workloads.py``.

    Raises:
        ValueError: on an unknown kind or wrong parameter names.
    """
    try:
        generator, names = STRUCTURE_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(STRUCTURE_KINDS))
        raise ValueError(f"unknown structure kind {kind!r}; known: {known}")
    if set(params) != set(names):
        raise ValueError(
            f"structure kind {kind!r} takes parameters {names}, "
            f"got {tuple(sorted(params))}"
        )
    return generator(*(params[name] for name in names), seed=seed)


# ---------------------------------------------------------------------------
# Relation generators
# ---------------------------------------------------------------------------


def _attempts(
    rng: random.Random, bounds: Sequence[int], count: int
) -> Iterator[np.ndarray]:
    """``[rng.randrange(b) for b in bounds]``, attempt after attempt, in
    batches of ``(attempts, len(bounds))`` arrays drawn in bulk, the
    first sized for about ``count`` attempts.

    ``randrange(n)`` (so ``choice`` and ``randint`` too) takes one
    32-bit word per try, keeps its top ``n.bit_length()`` bits and tries
    again while they are ``>= n``; ``getrandbits(32 * m)`` is the next
    ``m`` words, least significant first.  Each batch continues where
    the last attempt of the one before ended; the words past the last
    attempt a caller takes are lost, so callers own ``rng``.
    """
    per_attempt = sum((1 << b.bit_length()) / b for b in bounds)
    words = np.empty(0, dtype=np.uint32)
    while True:
        fresh = int(count * per_attempt * 1.1) + 64
        data = rng.getrandbits(32 * fresh).to_bytes(4 * fresh, "little")
        words = np.concatenate([words, np.frombuffer(data, dtype="<u4")])
        if len(set(bounds)) == 1:
            # One test for every try: attempt i is accepted words
            # r·i .. r·i + r - 1.
            top = words >> (32 - bounds[0].bit_length())
            accepted = np.flatnonzero(top < bounds[0])
            r = len(bounds)
            taken = accepted[: len(accepted) // r * r]
            yield top[taken].reshape(-1, r).astype(np.int64)
            used = int(taken[-1]) + 1 if len(taken) else 0
        else:
            tops = [(words >> (32 - b.bit_length())).tolist() for b in bounds]
            drawn, row, used = [], [], 0
            for at, tries in enumerate(zip(*tops)):
                j = len(row)
                if tries[j] < bounds[j]:
                    row.append(tries[j])
                    if len(row) == len(bounds):
                        drawn.append(row)
                        row, used = [], at + 1
            yield np.array(drawn, dtype=np.int64).reshape(-1, len(bounds))
        words = words[used:]


def _first_attempts(
    rng: random.Random, bounds: Sequence[int], count: int
) -> np.ndarray:
    """The first ``count`` attempts of :func:`_attempts`."""
    batches = _attempts(rng, bounds, count)
    drawn = [next(batches)]
    while sum(map(len, drawn)) < count:
        drawn.append(next(batches))
    return np.concatenate(drawn)[:count]


def _exact_view(domain: Sequence[Any]) -> Optional[np.ndarray]:
    """The array whose ``tolist()`` is ``domain``, value types included,
    or ``None`` (always for an array: its elements are NumPy scalars)."""
    return None if isinstance(domain, np.ndarray) else dictionary_array(domain)


def _random_rows(
    rng: random.Random,
    schema: Tuple[str, ...],
    domains: Mapping[str, Sequence[Any]],
    size: int,
) -> List[Tuple[Any, ...]]:
    """Up to ``size`` distinct uniform tuples, in the order of the set
    the reference loop builds::

        while len(rows) < target:
            rows.add(tuple(rng.choice(domains[v]) for v in schema))

    from the same draws: adding ``target - len(rows)`` attempts at a
    time never overshoots, so the set takes exactly its attempts.
    """
    columns = [domains[v] for v in schema]
    capacity = math.prod(len(c) for c in columns)
    target = min(size, capacity)
    if target == 0 or not columns:
        return [()] * target
    # Expected attempts to see ``target`` of ``capacity`` rows.
    expected = capacity * (
        -math.log1p(-target / capacity) if target < capacity
        else math.log(capacity) + 1
    )
    views = [_exact_view(c) for c in columns]
    batches = _attempts(rng, [len(c) for c in columns], int(expected))
    rows: set = set()
    while len(rows) < target:
        indices = next(batches)
        tuples = zip(*(
            view[idx].tolist() if view is not None
            else [column[i] for i in idx.tolist()]
            for column, view, idx in zip(columns, views, indices.T)
        ))
        left = len(indices)
        while left and len(rows) < target:
            take = min(left, target - len(rows))
            rows.update(itertools.islice(tuples, take))
            left -= take
    return list(rows)


#: Domain dtypes a column is read into directly: as the encoder would
#: read the same values from a list.
_COLUMN_DTYPES = (np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.bool_))


def _listing(
    schema: Tuple[str, ...],
    domains: Mapping[str, Sequence[Any]],
    rows: List[Tuple[Any, ...]],
    values: np.ndarray,
    semiring: Semiring,
    name: Optional[str],
) -> Factor:
    """``rows`` annotated ``values``: columnar when the semiring's
    vector dtype is ``values``' own (so annotations decode as drawn),
    dict-backed otherwise; zero annotations dropped, as
    :class:`Factor`'s constructor drops them."""
    if not (supports_columnar(semiring)
            and values.dtype == profile_for(semiring).dtype):
        return Factor(schema, zip(rows, values.tolist()), semiring, name)
    zero = profile_for(semiring).is_zero_mask(values)
    if zero.any():
        rows = [row for row, drop in zip(rows, zero.tolist()) if not drop]
        values = values[~zero]
    columns = []
    for j, v in enumerate(schema):
        column = map(operator.itemgetter(j), rows)
        view = _exact_view(domains[v])
        if view is not None and view.dtype in _COLUMN_DTYPES:
            columns.append(np.fromiter(column, view.dtype, len(rows)))
        else:
            columns.append(list(column))
    return ColumnarFactor.from_columns(schema, columns, values, semiring, name)


def random_relation(
    schema: Sequence[str],
    domains: Mapping[str, Sequence[Any]],
    size: int,
    seed: Optional[int] = None,
    semiring: Semiring = BOOLEAN,
    name: Optional[str] = None,
) -> Factor:
    """A uniform random relation of (up to) ``size`` distinct tuples.

    Columnar (:class:`~repro.semiring.ColumnarFactor`) over the
    semirings that have a vector profile, dict-backed over the others.
    """
    schema = tuple(schema)
    rows = _random_rows(make_rng(seed), schema, domains, size)
    dtype = profile_for(semiring).dtype if supports_columnar(semiring) else object
    return _listing(
        schema, domains, rows, np.full(len(rows), semiring.one, dtype),
        semiring, name,
    )


def random_weighted_relation(
    schema: Sequence[str],
    domains: Mapping[str, Sequence[Any]],
    size: int,
    semiring: Semiring,
    seed: Optional[int] = None,
    name: Optional[str] = None,
    low: float = 0.1,
    high: float = 1.0,
    exact: bool = False,
) -> Factor:
    """A random relation with uniform float annotations in [low, high].

    With ``exact=True`` annotations are instead small integers (1..8, as
    floats): every product and sum of such values stays well inside the
    53-bit double mantissa, so non-associative float folds (the real
    semiring's ⊕ over different backends/solvers) agree *byte-for-byte*
    regardless of reduction order.  The differential fuzz plane requires
    this — with uniform doubles, dict and columnar marginalization would
    legitimately differ in the last ulp and parity would be noise.

    The tuples are :func:`random_relation`'s under a child seed; the
    annotations follow in its row order (``exact`` ones are
    ``float(rng.randint(1, 8))`` per row, drawn in bulk).
    """
    rng = make_rng(seed)
    schema = tuple(schema)
    rows = _random_rows(
        make_rng(rng.randrange(2**30)), schema, domains, size
    )
    if exact:
        weights = 1.0 + _first_attempts(rng, [8], len(rows))[:, 0]
    else:
        weights = np.array([rng.uniform(low, high) for _ in rows], dtype=float)
    return _listing(schema, domains, rows, weights, semiring, name)


def matching_relation(
    schema: Sequence[str],
    size: int,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> Factor:
    """A skew-free "matching" relation: each value occurs in one tuple.

    This is the input class of the MPC(0) comparison (Appendix A.1.2):
    tuple ``i`` is ``(pi_1(i), pi_2(i), ...)`` for per-column random
    permutations ``pi_j`` of ``[size]``.
    """
    rng = make_rng(seed)
    schema = tuple(schema)
    columns = []
    for _ in schema:
        perm = list(range(size))
        rng.shuffle(perm)
        columns.append(perm)
    tuples = [tuple(col[i] for col in columns) for i in range(size)]
    return Factor.from_tuples(schema, tuples, BOOLEAN, name)


def domains_for(
    hypergraph: Hypergraph, domain_size: int
) -> Dict[str, Tuple[int, ...]]:
    """Uniform integer domains ``[0, domain_size)`` for every variable."""
    dom = tuple(range(domain_size))
    return {v: dom for v in hypergraph.vertices}


def random_instance(
    hypergraph: Hypergraph,
    domain_size: int,
    relation_size: int,
    seed: Optional[int] = None,
    semiring: Semiring = BOOLEAN,
    weighted: bool = False,
    exact: bool = False,
) -> Tuple[Dict[str, Factor], Dict[str, Tuple[int, ...]]]:
    """Random factors + domains for every hyperedge of ``hypergraph``.

    ``exact`` is forwarded to :func:`random_weighted_relation`: integral
    annotations whose folds are order-independent in double precision
    (what the lab's byte-identical parity contract needs on the real
    semiring).

    Returns:
        ``(factors, domains)`` ready to build an
        :class:`~repro.faq.query.FAQQuery`.
    """
    rng = make_rng(seed)
    domains = domains_for(hypergraph, domain_size)
    factors = {}
    for name, verts in hypergraph.edges():
        schema = tuple(sorted(verts, key=str))
        sub_seed = rng.randrange(2**30)
        if weighted:
            factors[name] = random_weighted_relation(
                schema, domains, relation_size, semiring, sub_seed, name,
                exact=exact,
            )
        else:
            factors[name] = random_relation(
                schema, domains, relation_size, sub_seed, semiring, name
            )
    return factors, domains
