"""Process-wide tagged counters for the repository's fast paths.

The cost model predicts *what* a run costs; these counters record *which
machinery* produced it: did a solve look its order up in the plan
cache, did an operator dispatch to the columnar kernel or fall back to
the dict path, did a compiled run's clock skip rounds.  Counting is a
dict upsert per event — cheap enough to stay always-on (unlike tracing,
which is opt-in per run).

The registry is per-process (lab workers each count their own work); the
lab snapshots it around each scenario execution and stores the **delta**
on the result.  Two determinism classes:

* :data:`DETERMINISTIC_COUNTERS` — a pure function of the scenario
  (kernel dispatch, NumPy kernel calls (``kernels.numpy``), a
  compiled run's skips — ``engine.fast_forward`` /
  ``engine.fast_forward_rounds``, read from its count-plane run, shared
  or not — plan-cache *lookups*).  These enter the deterministic result
  record and the BENCH artifact, so serial/parallel/batched runs stay
  byte-identical.
* Everything else is volatile: reported on stdout, never persisted.
  Whether a lookup *hit* depends on process warmth (which worker ran
  which scenario first), so cache hits and misses are not counters at
  all — :func:`repro.core.memo.memo_stats` reports them per memo.

:data:`COSTMODEL_COUNTERS` are deterministic per pricing — a pure
function of the plan skeleton — but a pricing runs outside the lab's
per-scenario window and is memoized across a scenario's planes, so they
are read process-wide (``repro.lab predict`` prints them) and never
enter a scenario record.

:data:`STEINER_COUNTERS` are volatile the same way: a Δ-scan of the
Steiner packer runs only on a packing-memo miss, so which scenario of
an identity's planes pays for it depends on run order
(``repro.lab run --timings`` prints them process-wide).
"""

from __future__ import annotations

from typing import Dict, Mapping

#: Counters that are a pure function of one scenario execution —
#: identical whether the scenario ran serially, on a worker, first or
#: last.  Only these may enter deterministic records and artifacts.
DETERMINISTIC_COUNTERS = (
    "engine.fast_forward",
    "engine.fast_forward_rounds",
    "kernel.columnar",
    "kernel.dict_fallback",
    "kernels.numpy",
    "solver.fused_vectorized",
    "solver.fused_fallback",
    "plan_cache.lookups",
    "plan_cache.uncacheable",
)

#: The timing recurrence's ledger, incremented once per
#: :func:`repro.costmodel.evaluate_timing` call: rounds priced, rounds in
#: which no stream stepped (every running one dormant), and leaf stream
#: steps.
COSTMODEL_COUNTERS = (
    "costmodel.rounds", "costmodel.fast_forward_rounds",
    "costmodel.stream_steps",
)

#: The Δ-scan's ledger (:func:`repro.network.steiner
#: .scan_steiner_packings`), one increment per greedy step: residual
#: states whose candidate trees were built, and steps that reused a
#: state another Δ of the same scan had already expanded.
STEINER_COUNTERS = ("steiner.states_expanded", "steiner.states_shared")


class CounterRegistry:
    """A flat name -> count map with snapshot/reset semantics."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def increment(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at 0)."""
        counts = self._counts
        counts[name] = counts.get(name, 0) + n

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """An immutable-by-copy view of every counter."""
        return dict(self._counts)

    def reset(self) -> None:
        """Zero every counter (tests and benchmarks isolate with this)."""
        self._counts.clear()


def counter_delta(
    before: Mapping[str, int], after: Mapping[str, int]
) -> Dict[str, int]:
    """Counters that advanced between two snapshots (positive deltas only)."""
    delta = {}
    for name, value in after.items():
        moved = value - before.get(name, 0)
        if moved:
            delta[name] = moved
    return delta


def deterministic_view(delta: Mapping[str, int]) -> Dict[str, int]:
    """The persistable subset of a delta, in canonical counter order."""
    return {
        name: delta[name]
        for name in DETERMINISTIC_COUNTERS
        if delta.get(name)
    }


#: The process-wide registry every hook site increments.
COUNTERS = CounterRegistry()
