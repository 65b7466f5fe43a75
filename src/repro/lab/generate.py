"""Seeded random scenario generation — the fuzzed scenario plane.

Turns the ROADMAP's "as many scenarios as you can imagine" into a
generator: one master seed deterministically produces a stream of valid
:class:`~repro.lab.spec.ScenarioSpec`s by sampling a query structure
(random trees, forests, d-degenerate graphs, bounded-arity acyclic
hypergraphs, and TRIBES-embedded hard instances over random forests), a
topology family (line/ring/clique/star/grid/tree/hypercube/expander/
random-regular/barbell), a semiring (the aggregate), sizes and an
assignment policy.

Every sampled scenario is a *certifiable* experiment:

* hard (TRIBES-embedded) scenarios under worst-case placement must
  satisfy the Theorem 4.1/5.2 formula lower bound;
* every multi-player scenario must satisfy the Lemma 4.4 cut-accounting
  bound (rounds >= one direction's crossing bits / (cut * B));

and :func:`fuzz_suite` expands each scenario across the full
engine x solver x backend differential grid, so one fuzz run
exercises all eight planes against the paper's bounds at once.

Determinism contract: all sampling goes through child seeds from
:func:`repro.workloads.spawn_seeds` — the same ``(master_seed, count)``
yields byte-identical suites in any process, and each scenario's own
``seed`` field makes its instance reproducible in isolation
(``python -m repro.lab run fuzz --seed <master>`` re-derives everything).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from ..workloads import spawn_seeds
from .spec import ScenarioSpec, SuiteSpec

#: Semirings the fuzz plane samples (the "aggregate" axis).  All six are
#: supported by every engine/solver/backend plane with byte-identical
#: parity; GF2 is excluded because the columnar kernels fall back for it,
#: which would make the backend axis a no-op comparison.
FUZZ_SEMIRINGS: Tuple[str, ...] = (
    "boolean", "counting", "real", "min-plus", "max-plus", "max-times",
)

#: Relation-size and domain-size pools (kept small: a fuzz scenario must
#: run in milliseconds so hundreds of them sweep all eight planes fast).
FUZZ_SIZES: Tuple[int, ...] = (8, 16, 32, 48)
FUZZ_DOMAIN_SIZES: Tuple[int, ...] = (4, 8, 16)
FUZZ_HARD_SIZES: Tuple[int, ...] = (16, 32, 64)


def _sample_random_query(rng: random.Random) -> Tuple[str, Dict[str, int]]:
    """A random-instance query family plus structure parameters."""
    kind = rng.choice(("tree", "forest", "degenerate", "acyclic"))
    if kind == "tree":
        return kind, {"edges": rng.randint(2, 6)}
    if kind == "forest":
        return kind, {"trees": rng.randint(2, 3), "edges": rng.randint(1, 3)}
    if kind == "degenerate":
        return kind, {"vertices": rng.randint(4, 7), "d": rng.randint(1, 3)}
    return kind, {"edges": rng.randint(3, 5), "arity": rng.randint(2, 4)}


def _sample_hard_query(rng: random.Random) -> Tuple[str, Dict[str, int]]:
    """A TRIBES-embedded hard query family plus structure parameters."""
    kind = rng.choice(("hard-star", "hard-path", "hard-forest"))
    if kind == "hard-star":
        params: Dict[str, int] = {"arms": rng.randint(2, 6)}
    elif kind == "hard-path":
        params = {"length": rng.randint(2, 6)}
    else:
        # edges >= 2 per tree: each tree needs an internal vertex to
        # plant a TRIBES pair on.
        params = {"trees": rng.randint(1, 3), "edges": rng.randint(2, 4)}
    if rng.random() < 0.25:
        # Occasionally pin the TRIBES answer to 0 — the protocol must
        # report the negative answer just as exactly.
        params["value"] = False
    return kind, params


#: Topology samplers.  Each returns valid params for its family;
#: expander/regular keep ``n * degree`` even (a regular graph needs it) and
#: derive their internal wiring seed from the scenario stream.
_TOPOLOGY_SAMPLERS: Tuple[Tuple[str, Callable[[random.Random], Dict[str, int]]], ...] = (
    ("line", lambda rng: {"n": rng.randint(2, 6)}),
    ("ring", lambda rng: {"n": rng.randint(3, 6)}),
    ("clique", lambda rng: {"n": rng.randint(3, 6)}),
    ("star", lambda rng: {"leaves": rng.randint(2, 5)}),
    ("grid", lambda rng: {"rows": 2, "cols": rng.randint(2, 3)}),
    ("tree", lambda rng: {"branching": 2, "depth": rng.randint(1, 2)}),
    ("hypercube", lambda rng: {"dim": rng.randint(1, 3)}),
    (
        "expander",
        lambda rng: {
            "n": 2 * rng.randint(2, 4), "degree": 3, "seed": rng.randrange(100),
        },
    ),
    (
        "regular",
        lambda rng: {
            "n": 2 * rng.randint(2, 4), "degree": 3, "seed": rng.randrange(100),
        },
    ),
    (
        "barbell",
        lambda rng: {"clique_size": 3, "path_len": rng.randint(1, 2)},
    ),
)


def sample_topology(rng: random.Random) -> Tuple[str, Dict[str, int]]:
    """A random topology family plus valid parameters."""
    name, sampler = _TOPOLOGY_SAMPLERS[rng.randrange(len(_TOPOLOGY_SAMPLERS))]
    return name, sampler(rng)


def sample_scenario(seed: int) -> ScenarioSpec:
    """One random, valid, certifiable scenario from one child seed.

    The spec's own ``seed`` field is ``seed`` itself, so the sampled
    scenario is exactly as reproducible as a hand-written one.  Roughly
    a third of scenarios are hard (TRIBES-embedded, worst-case placed,
    formula-certified); the rest are random instances over a random
    semiring, placed round-robin with an occasional co-located
    (``single``) zero-communication case.
    """
    rng = random.Random(seed)
    topology, topology_params = sample_topology(rng)
    if rng.random() < 1 / 3:
        query, query_params = _sample_hard_query(rng)
        return ScenarioSpec(
            family=f"fuzz-{query}",
            query=query,
            query_params=query_params,
            topology=topology,
            topology_params=topology_params,
            n=rng.choice(FUZZ_HARD_SIZES),
            assignment="worst-case",
            seed=seed,
        )
    query, query_params = _sample_random_query(rng)
    return ScenarioSpec(
        family=f"fuzz-{query}",
        query=query,
        query_params=query_params,
        topology=topology,
        topology_params=topology_params,
        n=rng.choice(FUZZ_SIZES),
        domain_size=rng.choice(FUZZ_DOMAIN_SIZES),
        semiring=rng.choice(FUZZ_SEMIRINGS),
        assignment="single" if rng.random() < 0.1 else "round-robin",
        seed=seed,
    )


def generate_scenarios(master_seed: int, count: int) -> Tuple[ScenarioSpec, ...]:
    """``count`` random scenarios, deterministically from ``master_seed``.

    Child seeds come from :func:`repro.workloads.spawn_seeds`, so the
    stream has the usual prefix stability: growing ``count`` appends
    scenarios without perturbing earlier ones.
    """
    return tuple(
        sample_scenario(child) for child in spawn_seeds(master_seed, count)
    )


def fuzz_suite(
    master_seed: int,
    count: int,
    name: str = "fuzz",
    axes: bool = True,
) -> SuiteSpec:
    """The fuzzed differential suite: ``count`` generated scenarios,
    each swept across engine x solver x backend (8 planes) when ``axes``
    is set.

    Consecutive blocks of 8 differ only in the axis fields, so
    :func:`repro.lab.report.axis_pairs` pairs them for the parity gate,
    and every individual run feeds the bound-certification oracle.
    """
    from .suites import with_axes  # deferred: suites imports this module

    base = SuiteSpec(
        name=name,
        scenarios=generate_scenarios(master_seed, count),
        description=f"{count} seeded random scenarios (master seed "
        f"{master_seed}) with lower-bound certification",
    )
    if not axes:
        return base
    return with_axes(
        base,
        name,
        f"{base.description}, each on every engine x solver x backend plane",
    )
