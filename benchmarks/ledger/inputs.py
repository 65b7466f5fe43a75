"""Seeded workload inputs: the only thing the program under test receives.

Every function here is a pure function of ``(seed, sizes)`` and returns
plain :class:`~repro.lab.spec.ScenarioSpec` objects (plus, for the
serving workloads, a request schedule).

What the seed may and may not move was measured before it was fixed
(README, "Why the seed moves content, not structure"): a spec's single
``seed`` field drives both the random query *structure* and its
content, and structure moves the simulated rounds and the host time of a
scenario by integer factors.  A metric that must stay within a tenth
across seeds therefore needs a pinned structure, and the simulated
rounds and bits, which must repeat exactly, need pinned content too
wherever content moves them (one small pool ``hard-star`` sent 446 or
468 bits depending on its seed).  So the fuzz and session pools come
from fixed master seeds, and ``--seed`` drives the TRIBES content of
the benchmark's own large ``hard-star`` scenarios (rounds and bits
measured identical over fifteen seeds at every size used), the order of
the sweep, the session each request asks for, and the Poisson schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro import kernels
from repro.lab.generate import generate_scenarios
from repro.lab.spec import ScenarioSpec, SuiteSpec
from repro.lab.suites import with_backends, with_engines, with_kernels, with_solvers
from repro.workloads import spawn_seeds

#: Fixed structural master seeds of the two scenario pools.
FUZZ_POOL_SEED = 20260930
SERVE_POOL_SEED = 20260931

#: ``acyclic(edges=8, arity=3)`` draws its hypergraph from the spec seed;
#: seeds 1..8 gave 8017..20041 rounds and 0.09..1.7 s warm runs at
#: N=8000, so the structure seed is pinned.  Seed 3 is a structure whose
#: rounds are two thirds fast-forwarded and one third batched.
WIDE_STRUCTURE_SEED = 3

#: Open-loop arrival rates (requests per second) of ``serve-poisson``:
#: the first half of the window runs at the first rate, the second half
#: at the second.  The second is a fifth of the closed-loop capacity
#: measured here (250-330 req/s); at 100 req/s the median latency was
#: bistable (5.8 ms on one seed, 81 ms on the next), because a stacked
#: solve of the large sessions stalls the solver thread for 0.1-0.5 s
#: and the backlog it leaves feeds the next stack (README, "Sizing").
POISSON_RATES = (25.0, 50.0)


@dataclass(frozen=True)
class Sizes:
    stream_n: int
    wide_n: int
    fuzz_identities: int
    serve_pool_sessions: int
    serve_star_sizes: Tuple[int, ...]


#: The measured configuration (sizing rationale: README, "Sizing").
FULL = Sizes(
    stream_n=8192,
    wide_n=500,
    fuzz_identities=12,
    serve_pool_sessions=24,
    serve_star_sizes=(2048, 4096, 8192, 8192),
)

#: ``--selftest``: the same code paths in a few seconds.
TINY = Sizes(
    stream_n=256,
    wide_n=64,
    fuzz_identities=3,
    serve_pool_sessions=3,
    serve_star_sizes=(64, 128),
)

_FAST_PLANE = dict(backend="columnar", engine="compiled", solver="compiled")


def stream_spec(seed: int, sizes: Sizes) -> ScenarioSpec:
    """``stream-line-xl``: the Lemma 4.4 hard star streamed down a line."""
    return ScenarioSpec(
        family="ledger-stream-line", query="hard-star",
        query_params={"arms": 4}, topology="line", topology_params={"n": 4},
        n=sizes.stream_n, assignment="worst-case", seed=seed, **_FAST_PLANE,
    )


def wide_spec(seed: int, sizes: Sizes) -> ScenarioSpec:
    """``wide-expander``: a counting FAQ over a 64-node expander.

    ``seed`` is accepted for a uniform signature and deliberately
    unused: see :data:`WIDE_STRUCTURE_SEED`.
    """
    del seed
    return ScenarioSpec(
        family="ledger-wide-expander", query="acyclic",
        query_params={"edges": 8, "arity": 3}, topology="expander",
        topology_params={"n": 64, "degree": 4, "seed": 1},
        n=sizes.wide_n, domain_size=64, semiring="counting",
        seed=WIDE_STRUCTURE_SEED, **_FAST_PLANE,
    )


def jit_available() -> bool:
    """Whether ``kernels="jit"`` really runs numba here."""
    with kernels.use_tier("jit"):
        return kernels.resolved_tier() == "jit"


def fuzz_suite(seed: int, sizes: Sizes) -> Tuple[SuiteSpec, dict]:
    """``fuzz-sweep``: the pool x engine x solver x backend planes.

    The ``kernels="jit"`` planes are added only where numba runs;
    without it they would execute the numpy code path a second time.
    """
    identities = list(generate_scenarios(FUZZ_POOL_SEED, sizes.fuzz_identities))
    random.Random(seed).shuffle(identities)
    suite = SuiteSpec(name="ledger-fuzz-sweep", scenarios=tuple(identities))
    for sweep in (with_engines, with_solvers, with_backends):
        suite = sweep(suite, suite.name, "")
    jit = jit_available()
    if jit:
        suite = with_kernels(suite, suite.name, "")
    info = {
        "identities": len(identities),
        "jit_available": jit,
        "planes_dropped_as_clones": 0 if jit else len(suite),
    }
    return suite, info


def serve_sessions(seed: int, sizes: Sizes) -> List[ScenarioSpec]:
    """The registered sessions of both serving workloads: many tiny
    fuzz identities on the reference planes plus a few columnar
    hard-star sessions three orders of magnitude larger."""
    sessions = list(
        generate_scenarios(SERVE_POOL_SEED, sizes.serve_pool_sessions)
    )
    star_seeds = spawn_seeds(seed + 1, len(sizes.serve_star_sizes))
    for n, star_seed in zip(sizes.serve_star_sizes, star_seeds):
        sessions.append(ScenarioSpec(
            family="ledger-serve-star", query="hard-star",
            query_params={"arms": 4}, topology="line",
            topology_params={"n": 4}, n=n, assignment="worst-case",
            seed=star_seed, **_FAST_PLANE,
        ))
    return sessions


def poisson_schedule(seed: int, seconds: float) -> List[Tuple[float, int]]:
    """``(due time in seconds from the window start, phase)`` of the
    open-loop arrivals: exponential gaps, one phase of equal length per
    rate of :data:`POISSON_RATES`."""
    rng = random.Random(seed * 7919 + 17)
    length = seconds / len(POISSON_RATES)
    due = []
    for phase, rate in enumerate(POISSON_RATES):
        clock = phase * length + rng.expovariate(rate)
        while clock < (phase + 1) * length:
            due.append((clock, phase))
            clock += rng.expovariate(rate)
    return due
