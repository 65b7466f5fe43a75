"""Typed result records and deterministic aggregation.

A :class:`ScenarioResult` is everything one scenario execution produced:
the spec, the measured protocol rounds, the Theorem 4.1/5.2 formula
values, the Table 1 gap, a digest of the answer (so backend-parity suites
can assert byte-identical answers without shipping factors around), and
bookkeeping (wall time, cache provenance).

The record splits into a **deterministic** part — identical whether the
scenario ran serially, in a worker process, or came from the cache — and
a volatile part (``wall_time``, ``cached``) that never enters artifacts
or cache-equality checks.

:func:`aggregate` folds results into per-family summary rows
(median/p90/max of rounds and gap) with a pure-Python percentile, so
aggregates are bit-stable across NumPy versions and process counts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.analysis import Table1Row
from .spec import ScenarioSpec

#: Bump together with cache-incompatible result changes.
#: v2: records carry total_bits and link_utilization (the two-plane
#: engine's bit-accounting parity contract needs both in artifacts).
#: v3: records carry the bound-certification fields (certified lower
#: bound, cut-accounting transcript numbers, violation flags).
#: v4: records carry the ``cost_model`` block (symbolic cost-plane
#: predictions with per-run exact-match verdicts).
#: v5: records carry the ``observability`` block (deterministic kernel /
#: engine / dictionary-pool counters aggregated per scenario).
#: v7: the counter whitelist loses the engine's batched-round tag and
#: the two ``batch.*`` tags.
#: v8: the ``cost_model`` block loses its coverage ``cell``; every run is
#: priced, so ``exact_match`` is always a bool.
RESULT_SCHEMA = "repro.lab/result.v8"


@dataclass
class ScenarioResult:
    """One executed scenario.

    Attributes:
        spec: The scenario that produced this result.
        spec_hash: ``spec.content_hash()`` (the cache key).
        topology_name: The materialized topology's display name.
        query_name: The materialized query's display name.
        players: Number of players actually holding relations.
        d: Degeneracy component of the bound formulas.
        r: Arity component of the bound formulas.
        rows: Largest input listing size N of the materialized instance.
        measured_rounds: Simulator rounds of the protocol run.
        total_bits: Total bits the protocol carried over all edges — part
            of the engine-parity contract (generator and compiled runs
            of the same scenario must agree exactly).
        link_utilization: Peak per-round bits of the busiest directed
            edge divided by the capacity ``B`` (the Table 1 link column).
        upper_formula: Theorem 4.1/5.2 upper-bound value.
        lower_formula: Lower-bound value.
        gap: measured / lower, or None when the lower bound is 0
            (co-located runs) — kept None so artifacts stay strict JSON.
        gap_budget: The Table 1 gap-column budget for this family.
        lower_certified: The certified round lower bound for *this
            run*: the cut-accounting bound (crossing bits / (cut * B)).
            ``measured_rounds`` must never undercut it.
        formula_certified: Whether the Lemma 4.4 reduction applies to
            this run (hard-* query family under worst-case placement),
            i.e. the TRIBES bits floor is enforced.
        tribes_bits_floor: On formula-certified runs, the bits the
            embedded TRIBES instance must push across the min cut
            (``m * N``, constant 1); 0 otherwise.  ``cut_bits`` must
            never undercut it.
        bound_ok: The certification oracle: cut accounting held,
            ``measured_rounds >= lower_certified``, and ``cut_bits >=
            tribes_bits_floor``.  Any False is a bound violation — a
            bug, never a tolerable deviation.
        cut_bits: Bits the run actually sent across a minimum
            K-separating cut (the induced two-party transcript cost).
        cut_size: Number of crossing edges of that cut.
        cut_ok: The Lemma 4.4 accounting identity held
            (``cut_bits <= rounds * cut_size * B``).
        correct: Protocol answer matched the centralized solver.
        answer_digest: sha256 of the canonicalized answer factor.
        cost_model: The symbolic cost-plane verdict for this run: the
            ``predicted`` and ``measured`` metric payloads (rounds,
            total bits, busiest-link bits/round, per-edge digest),
            ``exact_match`` (a bool, gated on every run) and, when the
            model raised, its ``error`` with ``predicted`` None.
            ``covered`` is a constant True kept for the ledger.
        observability: Deterministic per-scenario counter deltas (the
            :data:`~repro.obs.counters.DETERMINISTIC_COUNTERS` whitelist
            only): columnar-kernel dispatch vs dict fallback, dictionary
            pooling paths, fused-solver dispatch, fast-forward
            engagements.  Volatile counters (e.g. plan-cache hit/miss,
            which depend on process warmth) are deliberately excluded so
            the record stays identical across serial, parallel and cached
            executions.
        trace: The per-run trace-verification verdict when the run was
            executed with ``--trace`` (volatile — cached results were not
            re-traced): event count, ``verified``, any ``mismatches``,
            the replayed totals and the cost-model cross-check.
        captured_logs: Log lines and warnings raised while executing the
            scenario (volatile) — captured in ProcessPool workers so
            parallel runs don't swallow them, re-emitted by the
            coordinator.
        wall_time: Seconds spent executing (volatile; excluded from the
            deterministic record).
        protocol_wall_time: Seconds spent in the protocol run alone
            (volatile) — what the engine axis actually changes.
        solver_wall_time: Seconds spent in the centralized reference
            solve alone (volatile) — what the solver axis actually
            changes.
        cached: True when served from the result cache (volatile).
    """

    spec: ScenarioSpec
    spec_hash: str
    topology_name: str
    query_name: str
    players: int
    d: float
    r: float
    rows: int
    measured_rounds: int
    total_bits: int
    link_utilization: float
    upper_formula: float
    lower_formula: float
    gap: Optional[float]
    gap_budget: float
    lower_certified: float
    formula_certified: bool
    tribes_bits_floor: int
    bound_ok: bool
    cut_bits: int
    cut_size: int
    cut_ok: bool
    correct: bool
    answer_digest: str
    cost_model: Dict[str, Any]
    observability: Optional[Dict[str, int]] = None
    trace: Optional[Dict[str, Any]] = None
    captured_logs: Optional[List[str]] = None
    wall_time: float = 0.0
    protocol_wall_time: float = 0.0
    solver_wall_time: float = 0.0
    cached: bool = False

    # ------------------------------------------------------------------
    # (De)serialization
    # ------------------------------------------------------------------
    def deterministic_record(self) -> Dict[str, Any]:
        """The reproducible part — what artifacts and the cache store."""
        return {
            "schema": RESULT_SCHEMA,
            "spec": self.spec.to_json_dict(),
            "spec_hash": self.spec_hash,
            "label": self.spec.label,
            "family": self.spec.family,
            "topology_name": self.topology_name,
            "query_name": self.query_name,
            "players": self.players,
            "d": self.d,
            "r": self.r,
            "rows": self.rows,
            "measured_rounds": self.measured_rounds,
            "total_bits": self.total_bits,
            "link_utilization": self.link_utilization,
            "upper_formula": self.upper_formula,
            "lower_formula": self.lower_formula,
            "gap": self.gap,
            "gap_budget": self.gap_budget,
            "lower_certified": self.lower_certified,
            "formula_certified": self.formula_certified,
            "tribes_bits_floor": self.tribes_bits_floor,
            "bound_ok": self.bound_ok,
            "cut_bits": self.cut_bits,
            "cut_size": self.cut_size,
            "cut_ok": self.cut_ok,
            "correct": self.correct,
            "answer_digest": self.answer_digest,
            "cost_model": self.cost_model,
            "observability": self.observability,
        }

    @classmethod
    def from_record(
        cls, record: Mapping[str, Any], cached: bool = False
    ) -> "ScenarioResult":
        """Rebuild a result from a deterministic record of the current
        :data:`RESULT_SCHEMA` (the cache drops rows of any other)."""
        return cls(
            spec=ScenarioSpec.from_json_dict(record["spec"]),
            spec_hash=record["spec_hash"],
            topology_name=record["topology_name"],
            query_name=record["query_name"],
            players=record["players"],
            d=record["d"],
            r=record["r"],
            rows=record["rows"],
            measured_rounds=record["measured_rounds"],
            total_bits=record["total_bits"],
            link_utilization=record["link_utilization"],
            upper_formula=record["upper_formula"],
            lower_formula=record["lower_formula"],
            gap=record["gap"],
            gap_budget=record["gap_budget"],
            lower_certified=record["lower_certified"],
            formula_certified=record["formula_certified"],
            tribes_bits_floor=record["tribes_bits_floor"],
            bound_ok=record["bound_ok"],
            cut_bits=record["cut_bits"],
            cut_size=record["cut_size"],
            cut_ok=record["cut_ok"],
            correct=record["correct"],
            answer_digest=record["answer_digest"],
            cost_model=record["cost_model"],
            observability=record["observability"],
            wall_time=0.0,
            cached=cached,
        )

    def to_table1_row(self) -> Table1Row:
        """Render as a :class:`~repro.core.analysis.Table1Row` so the
        lab reuses ``format_table``/``gap_within_budget`` unchanged.

        An undefined gap (lower bound 0, e.g. co-located runs) maps to
        ``inf`` so ``gap_within_budget`` fails loudly instead of passing
        vacuously — don't assert budgets on such scenarios."""
        return Table1Row(
            label=self.spec.family,
            query=self.query_name,
            topology=self.topology_name,
            d=self.d,
            r=self.r,
            n=self.rows,
            measured_rounds=self.measured_rounds,
            upper_formula=self.upper_formula,
            lower_formula=self.lower_formula,
            gap=self.gap if self.gap is not None else float("inf"),
            gap_budget=self.gap_budget,
            correct=self.correct,
            link_util=self.link_utilization,
        )


def answer_digest(schema: Sequence[str], rows: Mapping) -> str:
    """A stable content digest of an answer factor.

    Canonicalizes to sorted ``[key..., value]`` rows (repr-encoding any
    non-JSON value) so two backends agree iff their answers are
    value-identical.
    """
    canon = {
        "schema": list(schema),
        "rows": sorted(
            [[repr(k) for k in key] + [repr(value)] for key, value in rows.items()]
        ),
    }
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (NumPy's default), pure Python.

    Deterministic across platforms — aggregation must be byte-stable for
    the serial-vs-parallel equality guarantee.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


@dataclass
class FamilyAggregate:
    """Per-family summary row.

    Attributes:
        family: Scenario-family label.
        scenarios: Number of scenarios aggregated.
        correct: How many were correct.
        rounds_median / rounds_p90 / rounds_max: Round statistics.
        gap_median / gap_p90 / gap_max: Gap statistics over scenarios
            with a finite gap (None when no scenario had one).
        gap_min: The smallest gap — the certification-facing tail: on
            formula-certified families it must stay >= 1.
        gap_budget_max: The largest budget among the family's scenarios.
        bound_violations: Scenarios whose certification oracle failed
            (``bound_ok`` False).  Must be 0 everywhere.
    """

    family: str
    scenarios: int
    correct: int
    rounds_median: float
    rounds_p90: float
    rounds_max: int
    gap_median: Optional[float]
    gap_p90: Optional[float]
    gap_max: Optional[float]
    gap_min: Optional[float]
    gap_budget_max: float
    bound_violations: int

    def to_record(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "scenarios": self.scenarios,
            "correct": self.correct,
            "rounds_median": self.rounds_median,
            "rounds_p90": self.rounds_p90,
            "rounds_max": self.rounds_max,
            "gap_median": self.gap_median,
            "gap_p90": self.gap_p90,
            "gap_max": self.gap_max,
            "gap_min": self.gap_min,
            "gap_budget_max": self.gap_budget_max,
            "bound_violations": self.bound_violations,
        }


def aggregate(results: Sequence[ScenarioResult]) -> List[FamilyAggregate]:
    """Fold results into per-family rows, in first-appearance order."""
    by_family: Dict[str, List[ScenarioResult]] = {}
    for result in results:
        by_family.setdefault(result.spec.family, []).append(result)
    out = []
    for family, group in by_family.items():
        rounds = [float(r.measured_rounds) for r in group]
        gaps = [r.gap for r in group if r.gap is not None]
        out.append(
            FamilyAggregate(
                family=family,
                scenarios=len(group),
                correct=sum(1 for r in group if r.correct),
                rounds_median=percentile(rounds, 50.0),
                rounds_p90=percentile(rounds, 90.0),
                rounds_max=max(r.measured_rounds for r in group),
                gap_median=percentile(gaps, 50.0) if gaps else None,
                gap_p90=percentile(gaps, 90.0) if gaps else None,
                gap_max=max(gaps) if gaps else None,
                gap_min=min(gaps) if gaps else None,
                gap_budget_max=max(r.gap_budget for r in group),
                bound_violations=sum(1 for r in group if not r.bound_ok),
            )
        )
    return out
