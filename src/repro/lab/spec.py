"""Declarative scenario specs — the lab's hashable experiment descriptions.

A :class:`ScenarioSpec` is a pure-data description of one end-to-end
experiment: a query family with parameters, a topology family with
parameters, a semiring, a storage backend, an assignment policy, a size,
and an **explicit** seed.  Specs are frozen, hashable, JSON-serializable
and content-addressed (:meth:`ScenarioSpec.content_hash` keys the result
cache), so a suite of specs *is* the experiment — running it twice, in
any process order, yields byte-identical aggregated results.

A :class:`SuiteSpec` is a named, ordered collection of scenarios;
:func:`expand_grid` builds the cartesian sweeps the paper's Table 1 is
made of.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..faq import SOLVERS
from ..kernels import KERNEL_TIERS
from ..protocols.faq_protocol import ENGINES
from ..semiring import BACKENDS, BUILTIN_SEMIRINGS

#: Bumped whenever the result schema or scenario semantics change; part of
#: the content hash, so stale cache entries miss instead of lying.
#: v2: structure and instance generators get distinct child seeds.
#: v3: scenarios carry a protocol engine axis; results record bit totals
#: and link utilization.
#: v4: scenarios carry an FAQ solver axis (operator vs compiled plans).
#: v5: the fuzzed scenario plane — forest/hard-forest query families,
#: bound-certification fields on every result (certified lower bound,
#: cut-accounting transcript, violation flags).
#: v6: scenarios carry a kernel-tier axis (``numpy`` vs ``jit``) and the
#: deterministic counter whitelist grows the kernel/batch dispatch tags.
SPEC_VERSION = 6

#: Assignment policies the runner implements.
ASSIGNMENTS = ("round-robin", "single", "worst-case")

Params = Tuple[Tuple[str, Any], ...]


def _freeze_params(params: Optional[Mapping[str, Any]]) -> Params:
    """Normalize a params mapping to a sorted, hashable tuple of pairs."""
    if params is None:
        return ()
    items = params if isinstance(params, tuple) else tuple(dict(params).items())
    for key, value in items:
        if not isinstance(key, str):
            raise ValueError(f"param names must be strings, got {key!r}")
        if not isinstance(value, (int, float, str, bool)):
            raise ValueError(
                f"param {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
    return tuple(sorted(items))


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment, declaratively.

    Attributes:
        family: Scenario-family label ("faq-line", "bcq-degenerate", ...).
            Groups scenarios for aggregation and selects the Table 1 gap
            budget when the label matches a paper row.
        query: Query-family name in :data:`repro.pipeline.QUERY_FAMILIES`
            ("hard-star", "hard-path", "degenerate", "acyclic", "tree").
        query_params: Family-specific structure parameters (e.g. ``d``,
            ``arity``); stored as a sorted tuple of pairs so specs hash
            identically regardless of construction order.
        topology: Topology-family name in
            :data:`repro.pipeline.TOPOLOGY_FAMILIES` ("line", "clique",
            "hypercube", "expander", ...).
        topology_params: Topology parameters (e.g. ``n``, ``dim``).
        n: Instance size N (TRIBES universe / relation listing size).
        domain_size: Domain size for the random-instance families.
        semiring: Semiring name from ``BUILTIN_SEMIRINGS``.
        backend: Factor storage backend, "dict" or "columnar"; ``None``
            (reported as "native") runs the dict plane.
        assignment: Relation->player policy from :data:`ASSIGNMENTS`.
        seed: Master seed.  **Required** — the lab rejects ``seed=None``
            (seedless scenarios are irreproducible by construction).
        max_rounds: Simulator round cap.
        engine: Protocol execution engine (``"generator"`` or
            ``"compiled"``) — an explicit axis so engine-parity suites
            can pair otherwise-identical scenarios.
        solver: FAQ solver strategy (``"operator"`` or ``"compiled"``)
            used for the reference solve and all free internal
            computation — the solver-parity twin of the engine axis.
        kernels: Inert: every value runs the NumPy kernels
            (:mod:`repro.kernels`); the field stays in the spec's hash
            and label.
    """

    family: str
    query: str
    topology: str
    n: int
    seed: int
    query_params: Params = ()
    topology_params: Params = ()
    domain_size: int = 16
    semiring: str = "boolean"
    backend: Optional[str] = None
    assignment: str = "round-robin"
    max_rounds: int = 2_000_000
    engine: str = "generator"
    solver: str = "operator"
    # Inert; the frozen benchmark ledger reads it.  ROADMAP 1(d) retires it.
    kernels: str = "numpy"

    def __post_init__(self) -> None:
        object.__setattr__(self, "query_params", _freeze_params(self.query_params))
        object.__setattr__(
            self, "topology_params", _freeze_params(self.topology_params)
        )
        if self.seed is None or not isinstance(self.seed, int):
            raise ValueError(
                "ScenarioSpec.seed must be an explicit int; seed=None would "
                "make the scenario irreproducible"
            )
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.domain_size < 1:
            raise ValueError(f"domain_size must be positive, got {self.domain_size}")
        if self.semiring not in BUILTIN_SEMIRINGS:
            known = ", ".join(sorted(BUILTIN_SEMIRINGS))
            raise ValueError(f"unknown semiring {self.semiring!r}; known: {known}")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; known: {BACKENDS}")
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(
                f"unknown assignment policy {self.assignment!r}; known: {ASSIGNMENTS}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; known: {ENGINES}"
            )
        if self.solver not in SOLVERS:
            raise ValueError(
                f"unknown solver {self.solver!r}; known: {SOLVERS}"
            )
        if self.kernels not in KERNEL_TIERS:
            raise ValueError(
                f"unknown kernel tier {self.kernels!r}; known: {KERNEL_TIERS}"
            )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """A canonical, JSON-round-trippable view of the spec."""
        return {
            "version": SPEC_VERSION,
            "family": self.family,
            "query": self.query,
            "query_params": [list(kv) for kv in self.query_params],
            "topology": self.topology,
            "topology_params": [list(kv) for kv in self.topology_params],
            "n": self.n,
            "domain_size": self.domain_size,
            "semiring": self.semiring,
            "backend": self.backend,
            "assignment": self.assignment,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "engine": self.engine,
            "solver": self.solver,
            "kernels": self.kernels,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_json_dict` (ignores the version stamp)."""
        return cls(
            family=data["family"],
            query=data["query"],
            query_params=tuple((k, v) for k, v in data.get("query_params", ())),
            topology=data["topology"],
            topology_params=tuple(
                (k, v) for k, v in data.get("topology_params", ())
            ),
            n=data["n"],
            domain_size=data.get("domain_size", 16),
            semiring=data.get("semiring", "boolean"),
            backend=data.get("backend"),
            assignment=data.get("assignment", "round-robin"),
            seed=data["seed"],
            max_rounds=data.get("max_rounds", 2_000_000),
            engine=data.get("engine", "generator"),
            solver=data.get("solver", "operator"),
            kernels=data.get("kernels", "numpy"),
        )

    def content_hash(self) -> str:
        """A stable sha256 content address for this scenario.

        Hashes the canonical JSON form (sorted keys, version-stamped), so
        equal specs share cache entries across processes, machines and
        parameter-construction orders.
        """
        canon = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def param(self, name: str, default: Any = None) -> Any:
        """Look up a query param by name."""
        for key, value in self.query_params:
            if key == name:
                return value
        return default

    @property
    def label(self) -> str:
        """A compact human-readable scenario id (not the cache key)."""
        qp = ",".join(f"{k}={v}" for k, v in self.query_params)
        tp = ",".join(f"{k}={v}" for k, v in self.topology_params)
        backend = self.backend or "native"
        return (
            f"{self.family}:{self.query}({qp})@{self.topology}({tp})"
            f"/N={self.n}/{self.semiring}/{backend}/{self.assignment}"
            f"/{self.engine}/{self.solver}/{self.kernels}/s{self.seed}"
        )

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A modified copy (dataclasses.replace with param re-freezing)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SuiteSpec:
    """A named, ordered scenario collection.

    Order matters: reports and artifacts list scenarios in suite order, so
    a suite renders identically no matter which processes ran which
    scenario.
    """

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.name:
            raise ValueError("a suite needs a non-empty name")
        if not self.scenarios:
            raise ValueError(f"suite {self.name!r} has no scenarios")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    @property
    def families(self) -> Tuple[str, ...]:
        """Distinct scenario families, in first-appearance order."""
        seen = dict.fromkeys(s.family for s in self.scenarios)
        return tuple(seen)

    def merged_with(self, other: "SuiteSpec", name: Optional[str] = None) -> "SuiteSpec":
        """Concatenate two suites (deduplicating identical scenarios)."""
        seen = dict.fromkeys(self.scenarios + other.scenarios)
        return SuiteSpec(
            name=name or f"{self.name}+{other.name}",
            scenarios=tuple(seen),
            description=self.description,
        )


def expand_grid(
    base: Mapping[str, Any], **axes: Sequence[Any]
) -> Tuple[ScenarioSpec, ...]:
    """Cartesian sweep: one :class:`ScenarioSpec` per combination.

    ``base`` supplies the fixed fields; each keyword is a spec field name
    mapped to the values it sweeps over.  Axis order follows keyword
    order, and the rightmost axis varies fastest — the order is
    deterministic, so suites built from grids are reproducible.

    Example::

        expand_grid(
            dict(family="bcq-degenerate", query="degenerate",
                 topology="clique", topology_params={"n": 4},
                 domain_size=64, seed=7),
            query_params=[{"vertices": 6, "d": d} for d in (1, 2, 3)],
            n=[64, 128],
        )
    """
    names = list(axes)
    value_lists = [list(axes[name]) for name in names]
    for name, values in zip(names, value_lists):
        if not values:
            raise ValueError(f"grid axis {name!r} is empty")
    specs = []
    for combo in itertools.product(*value_lists):
        kwargs = dict(base)
        kwargs.update(zip(names, combo))
        specs.append(ScenarioSpec(**kwargs))
    return tuple(specs)
