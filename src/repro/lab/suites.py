"""The named-suite registry and the built-in suites.

Built-ins:

* ``smoke`` — a fast cross-section (4 scenario families, 4 query
  families x 4 topology families, both storage backends) for CI;
* ``table1`` — the paper's Table 1 sweep: one block of scenarios per
  row (line, arbitrary topology, d-degenerate, hypergraph), each run
  gated by ``lab run`` on its row's gap budget;
* ``backend-compare`` — every scenario twice, once per storage backend,
  so answer digests and round counts can be asserted pairwise identical;
* ``scaling`` — size and player-count sweeps for perf trajectories;
* ``solver-scaling`` — the FAQ solver axis: sweeps sized so the
  reference solve dominates (``lab run solver-scaling --solver both``
  pairs them across ``solver="operator"``/``"compiled"``; ``--engine
  both`` does the same for the protocol engines);
* ``fuzz`` / ``fuzz-smoke`` — the fuzzed scenario plane
  (:mod:`repro.lab.generate`): seeded random scenarios, each swept
  across the full engine x solver x backend grid, with lower-bound
  certification on every run (re-seedable via ``run fuzz --seed N``).

Register custom suites with :func:`register_suite`; builders are lazy so
importing this module stays cheap.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Tuple

from ..faq import SOLVERS
from ..protocols.faq_protocol import ENGINES
from ..semiring import BACKENDS
from .spec import ScenarioSpec, SuiteSpec, expand_grid

#: Master seed for the built-in suites (the paper's PODS'19 publication
#: date) — any fixed value works; it only has to be explicit.
DEFAULT_SEED = 20190625

_REGISTRY: Dict[str, Callable[..., SuiteSpec]] = {}


def register_suite(
    name: str, builder: Callable[..., SuiteSpec], overwrite: bool = False
) -> None:
    """Register a lazy suite builder under ``name``.

    A builder may accept a ``seed`` keyword; :func:`get_suite` forwards
    an explicit seed to those (the fuzz suites regenerate their whole
    scenario stream from it).
    """
    if not overwrite and name in _REGISTRY:
        raise ValueError(f"suite {name!r} is already registered")
    _REGISTRY[name] = builder


def _accepts_seed(builder: Callable[..., SuiteSpec]) -> bool:
    try:
        return "seed" in inspect.signature(builder).parameters
    except (TypeError, ValueError):  # builtins without signatures
        return False


def get_suite(name: str, seed: Optional[int] = None) -> SuiteSpec:
    """Build the registered suite ``name``.

    Args:
        name: Registered suite name.
        seed: Optional master seed override for generated (fuzz) suites.

    Raises:
        ValueError: on an unknown name, or when ``seed`` is passed for a
            fixed (non-generated) suite — silently ignoring it would
            misreport what actually ran.
    """
    try:
        builder = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown suite {name!r}; known suites: {known}")
    if seed is None:
        return builder()
    if not _accepts_seed(builder):
        raise ValueError(
            f"suite {name!r} is a fixed suite and takes no seed; only "
            f"generated suites (fuzz*) are re-seedable"
        )
    return builder(seed=seed)


def suite_names() -> List[str]:
    """All registered suite names, sorted."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Table 1: one block of scenarios per row
# ---------------------------------------------------------------------------


def _table1_line() -> Tuple[ScenarioSpec, ...]:
    """Row 1 — the hard star BCQ on the line G1 under the Lemma 4.4
    placement, N doubling: rounds ~ Θ(N), gap Õ(1)."""
    return expand_grid(
        dict(
            family="faq-line",
            query="hard-star",
            query_params={"arms": 4},
            topology="line",
            topology_params={"n": 4},
            assignment="worst-case",
            seed=DEFAULT_SEED,
        ),
        n=[64, 128, 256],
    )


def _table1_arbitrary() -> Tuple[ScenarioSpec, ...]:
    """Row 2 — the same O(1)-degenerate hard path BCQ across line, ring,
    clique, grid and barbell: gap Õ(1) on every topology."""
    topologies = [
        ("line", {"n": 5}),
        ("ring", {"n": 5}),
        ("clique", {"n": 5}),
        ("grid", {"rows": 2, "cols": 3}),
        ("barbell", {"clique_size": 3, "path_len": 1}),
    ]
    return tuple(
        ScenarioSpec(
            family="faq-arbitrary",
            query="hard-path",
            query_params={"length": 4},
            topology=topo,
            topology_params=params,
            n=128,
            assignment="worst-case",
            seed=DEFAULT_SEED,
        )
        for topo, params in topologies
    )


def _table1_degenerate() -> Tuple[ScenarioSpec, ...]:
    """Row 3 — random d-degenerate BCQs on a clique: gap Õ(d)."""
    return expand_grid(
        dict(
            family="bcq-degenerate",
            query="degenerate",
            topology="clique",
            topology_params={"n": 4},
            n=96,
            domain_size=96,
            seed=DEFAULT_SEED,
        ),
        query_params=[{"vertices": 6, "d": d} for d in (1, 2, 3)],
    )


def _table1_hypergraph() -> Tuple[ScenarioSpec, ...]:
    """Row 4 — random acyclic arity-r FAQ-SS counting queries on a
    clique: gap Õ(d²r²)."""
    return expand_grid(
        dict(
            family="faq-hypergraph",
            query="acyclic",
            topology="clique",
            topology_params={"n": 5},
            n=64,
            domain_size=16,
            semiring="counting",
            seed=DEFAULT_SEED,
        ),
        query_params=[{"edges": 5, "arity": r} for r in (2, 3, 4)],
    )


def _table1_suite() -> SuiteSpec:
    return SuiteSpec(
        name="table1",
        scenarios=_table1_line()
        + _table1_arbitrary()
        + _table1_degenerate()
        + _table1_hypergraph(),
        description="The full Table 1 sweep: all four rows' scenarios",
    )


def _smoke_suite() -> SuiteSpec:
    """Small but representative: 4 scenario families over 4 query and 4
    topology families, both storage backends — fast enough for CI."""
    scenarios = (
        ScenarioSpec(
            family="faq-line",
            query="hard-star",
            query_params={"arms": 4},
            topology="line",
            topology_params={"n": 4},
            n=32,
            assignment="worst-case",
            seed=DEFAULT_SEED,
        ),
        ScenarioSpec(
            family="faq-arbitrary",
            query="hard-path",
            query_params={"length": 4},
            topology="hypercube",
            topology_params={"dim": 3},
            n=32,
            assignment="worst-case",
            seed=DEFAULT_SEED,
        ),
    ) + expand_grid(
        dict(
            family="bcq-degenerate",
            query="degenerate",
            query_params={"vertices": 5, "d": 2},
            topology="clique",
            topology_params={"n": 4},
            n=32,
            domain_size=32,
            seed=DEFAULT_SEED,
        ),
        backend=["dict", "columnar"],
    ) + expand_grid(
        dict(
            family="faq-hypergraph",
            query="acyclic",
            query_params={"edges": 4, "arity": 3},
            topology="expander",
            topology_params={"n": 8, "degree": 3, "seed": 1},
            n=32,
            domain_size=8,
            semiring="counting",
            seed=DEFAULT_SEED,
        ),
        backend=["dict", "columnar"],
    )
    return SuiteSpec(
        name="smoke",
        scenarios=scenarios,
        description="CI cross-section: 4 scenario families, hard + random "
        "workloads, 4 topology families, both backends",
    )


def _backend_compare_suite() -> SuiteSpec:
    """Every scenario twice — dict vs columnar — for pairwise parity."""
    scenarios = ()
    for family, query, query_params, topology, topology_params, semiring in (
        (
            "backend-degenerate", "degenerate", {"vertices": 6, "d": 2},
            "clique", {"n": 4}, "boolean",
        ),
        (
            "backend-acyclic", "acyclic", {"edges": 4, "arity": 3},
            "hypercube", {"dim": 3}, "counting",
        ),
        (
            "backend-tree", "tree", {"edges": 5},
            "expander", {"n": 8, "degree": 3, "seed": 1}, "counting",
        ),
    ):
        scenarios += expand_grid(
            dict(
                family=family,
                query=query,
                query_params=query_params,
                topology=topology,
                topology_params=topology_params,
                semiring=semiring,
                n=48,
                domain_size=24,
                seed=DEFAULT_SEED,
            ),
            backend=["dict", "columnar"],
        )
    return SuiteSpec(
        name="backend-compare",
        scenarios=scenarios,
        description="dict vs columnar storage on identical scenarios; "
        "answer digests and round counts must match pairwise",
    )


def _scaling_suite() -> SuiteSpec:
    """Size and player-count sweeps (the persisted perf trajectory)."""
    scenarios = expand_grid(
        dict(
            family="scaling-n",
            query="hard-star",
            query_params={"arms": 4},
            topology="line",
            topology_params={"n": 4},
            assignment="worst-case",
            seed=DEFAULT_SEED,
        ),
        n=[32, 64, 128, 256, 1024],
    ) + expand_grid(
        # The headline streaming workload on the columnar data plane —
        # the rows the engine-speedup criterion is measured on.
        dict(
            family="scaling-xl",
            query="hard-star",
            query_params={"arms": 4},
            topology="line",
            topology_params={"n": 4},
            assignment="worst-case",
            backend="columnar",
            seed=DEFAULT_SEED,
        ),
        n=[2048, 8192],
    ) + expand_grid(
        dict(
            family="scaling-players",
            query="hard-path",
            query_params={"length": 4},
            topology="hypercube",
            n=64,
            assignment="worst-case",
            seed=DEFAULT_SEED,
        ),
        topology_params=[{"dim": dim} for dim in (2, 3, 4)],
    ) + expand_grid(
        dict(
            family="scaling-acyclic",
            query="acyclic",
            query_params={"edges": 5, "arity": 3},
            topology="expander",
            topology_params={"n": 8, "degree": 3, "seed": 1},
            domain_size=16,
            semiring="counting",
            backend="columnar",
            seed=DEFAULT_SEED,
        ),
        n=[32, 64, 128],
    )
    return SuiteSpec(
        name="scaling",
        scenarios=scenarios,
        description="N doubling and player-count sweeps across two query "
        "families; the artifact is the perf trajectory",
    )


def _solver_scaling_suite() -> SuiteSpec:
    """Solver-axis scaling rows: sizes where the reference solve is the
    hot loop.  The protocol runs on the compiled engine throughout, so
    within a solver pair only the FAQ solver varies."""
    scenarios = expand_grid(
        dict(
            family="solver-xl",
            query="hard-star",
            query_params={"arms": 4},
            topology="line",
            topology_params={"n": 4},
            assignment="worst-case",
            backend="columnar",
            engine="compiled",
            seed=DEFAULT_SEED,
        ),
        n=[2048, 8192, 32768],
    ) + expand_grid(
        dict(
            family="solver-acyclic",
            query="acyclic",
            query_params={"edges": 5, "arity": 3},
            topology="expander",
            topology_params={"n": 8, "degree": 3, "seed": 1},
            domain_size=16,
            semiring="counting",
            backend="columnar",
            engine="compiled",
            seed=DEFAULT_SEED,
        ),
        n=[128, 512],
    )
    return SuiteSpec(
        name="solver-scaling",
        scenarios=scenarios,
        description="N doubling sweeps sized so the FAQ solver dominates; "
        "the artifact is the solver perf trajectory",
    )


#: The three accounting-neutral axes and their values.  Every scenario
#: identity can be swept across any of them; the planes must agree on
#: answer digest, round count and total bits (the ``parity`` gate).
AXES = {
    "engine": ENGINES,
    "solver": SOLVERS,
    "backend": BACKENDS,
}


def with_axis(
    suite: SuiteSpec, axis: str, name: str, description: str
) -> SuiteSpec:
    """Pair every scenario of ``suite`` across every value of ``axis``.

    Consecutive scenarios differ only in ``axis``, so reports read as
    pairs and the ``parity`` command (and tests) can assert digest +
    rounds + bits equality pairwise.
    """
    scenarios = tuple(
        spec.with_(**{axis: value})
        for spec in suite.scenarios
        for value in AXES[axis]
    )
    return SuiteSpec(name=name, scenarios=scenarios, description=description)


def with_engines(suite: SuiteSpec, name: str, description: str) -> SuiteSpec:
    return with_axis(suite, "engine", name, description)


def with_solvers(suite: SuiteSpec, name: str, description: str) -> SuiteSpec:
    return with_axis(suite, "solver", name, description)


def with_backends(suite: SuiteSpec, name: str, description: str) -> SuiteSpec:
    return with_axis(suite, "backend", name, description)


# Inert; the frozen benchmark ledger imports it.  ROADMAP 1(d) retires it.
def with_kernels(suite: SuiteSpec, name: str, description: str) -> SuiteSpec:
    return suite


def with_axes(suite: SuiteSpec, name: str, description: str) -> SuiteSpec:
    """Sweep every scenario across the full engine x solver x backend
    grid (8 planes per scenario).

    Each consecutive block of 8 shares one scenario identity; the
    ``parity`` command and :func:`repro.lab.report.all_parity_failures`
    then assert the byte-identical contract pairwise along every axis.
    """
    for axis in AXES:
        suite = with_axis(suite, axis, name, description)
    return suite


def _fuzz_suite(seed: int = DEFAULT_SEED) -> SuiteSpec:
    from .generate import fuzz_suite

    # 25 identities x 8 axis planes = 200 certified runs.
    return fuzz_suite(master_seed=seed, count=25, name="fuzz")


def _fuzz_smoke_suite(seed: int = DEFAULT_SEED) -> SuiteSpec:
    from .generate import fuzz_suite

    return fuzz_suite(master_seed=seed, count=6, name="fuzz-smoke")


register_suite("smoke", _smoke_suite)
register_suite("table1", _table1_suite)
register_suite("backend-compare", _backend_compare_suite)
register_suite("scaling", _scaling_suite)
register_suite("solver-scaling", _solver_scaling_suite)
register_suite("fuzz", _fuzz_suite)
register_suite("fuzz-smoke", _fuzz_smoke_suite)
