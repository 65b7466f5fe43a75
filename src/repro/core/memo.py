"""Structural memoization — sharing pure graph work across axis planes.

Every scenario identity in a lab grid runs once per axis plane (engine ×
solver × backend), and the planes are *accounting-identical*
by construction (the parity gates enforce it).  The expensive inputs to
a plan, however, are pure functions of structure alone: Steiner tree
packings (:mod:`repro.network.steiner`), GYO-GHDs, the bound formulas,
the compiled protocol plan, the symbolic cost prediction of its
skeleton and the compiled solver's elimination orders.  Recomputing
them per plane is the dominant cost of a suite run — profiled at
roughly half of per-scenario wall time — so this module gives each such
function a process-wide LRU keyed on its *structural* inputs or on the
scenario identity.  There are eight, all of this one type, so
:func:`clear_all_memos` alone makes a process cold;
``docs/dataplane.md`` has each one's hits and misses, and a memo that
serves no repeat does not stay.  (The packing memo holds one entry per
(graph, terminals, Δ, limit); the residual states the Δ values of a
single scan share live on the scan's stack —
:func:`repro.network.steiner.scan_steiner_packings` — and are not a
memo.)

Two invariants make the memo plane safe:

* **Purity** — every memoized function is deterministic in its key; the
  memo can only substitute a value for the identical computation.
  Mutable results are defensively shallow-copied on every hit (the
  elements themselves — :class:`~repro.network.steiner.SteinerTree`,
  edge tuples, node names — are immutable).
* **Counter-neutrality** — none of the memoized code paths increment
  any :data:`~repro.obs.counters.DETERMINISTIC_COUNTERS` member, so a
  memo hit cannot perturb the per-scenario observability delta the lab
  snapshots; serial, parallel and batched runs stay byte-identical.
  (Tests grep-assert the second invariant indirectly: the full
  differential suite runs with the memo hot and cold.)

Keys for :class:`~repro.network.topology.Topology` arguments come from
:func:`topology_key` — the sorted edge tuple, cached on the instance —
so two structurally equal topologies share entries regardless of name.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Tuple

_MISSING = object()


@dataclass
class MemoStats:
    """A memo's lookups since its last :meth:`LRUMemo.clear`."""

    hits: int = 0
    misses: int = 0


class LRUMemo:
    """A tiny process-wide LRU map: ``get_or_compute(key, thunk)``.

    Thread-safe: the serving plane shares one process's memos across an
    asyncio front-end and its executor threads, so lookup/insert/clear
    hold a per-memo lock.  The thunk itself runs *outside* the lock —
    memoized functions are pure, so two threads racing on a cold key at
    worst compute the identical value twice (last insert wins); holding
    the lock through an arbitrary thunk would instead serialize every
    independent computation and invite lock-ordering deadlocks between
    memos.
    """

    __slots__ = ("name", "maxsize", "stats", "_data", "_lock")

    def __init__(self, name: str, maxsize: int = 4096) -> None:
        self.name = name
        self.maxsize = maxsize
        self.stats = MemoStats()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        _REGISTRY[name] = self

    def get_or_compute(self, key: Hashable, thunk: Callable[[], Any]) -> Any:
        data = self._data
        with self._lock:
            value = data.get(key, _MISSING)
            if value is not _MISSING:
                self.stats.hits += 1
                data.move_to_end(key)
                return value
            self.stats.misses += 1
        value = thunk()
        with self._lock:
            data[key] = value
            if len(data) > self.maxsize:
                data.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.stats = MemoStats()

    def __len__(self) -> int:
        return len(self._data)


#: All live memos by name — introspection for ``--timings`` and tests.
_REGISTRY: Dict[str, LRUMemo] = {}


def memo_stats() -> Dict[str, Dict[str, int]]:
    """Per-memo ``{hits, misses, size}`` — the ``--timings`` memo block."""
    return {
        name: {
            "hits": memo.stats.hits,
            "misses": memo.stats.misses,
            "size": len(memo),
        }
        for name, memo in sorted(_REGISTRY.items())
    }


def clear_all_memos() -> None:
    """Drop every entry and stat (test isolation; never needed for
    correctness — stale entries cannot exist, keys are structural)."""
    for memo in _REGISTRY.values():
        memo.clear()


def topology_key(topology) -> Tuple[Tuple[str, str], ...]:
    """The structural identity of a topology: its sorted edge tuple.

    Cached on the instance — building it is O(E log E) and every
    memoized call needs it.
    """
    key = getattr(topology, "_structural_key", None)
    if key is None:
        key = tuple(topology.edges())
        topology._structural_key = key
    return key


def hypergraph_key(hypergraph) -> Tuple:
    """The structural identity of a hypergraph: sorted (name, vertices).

    :class:`~repro.hypergraph.Hypergraph` is deliberately unhashable
    (edge *data* lives elsewhere), so memo keys use this explicit
    structural projection.  Vertices sort by ``repr`` to tolerate mixed
    vertex types; ``Hypergraph`` has ``__slots__``, so unlike
    :func:`topology_key` the key cannot be cached on the instance —
    fine, the grids only build small hypergraphs.
    """
    return tuple(
        (name, tuple(sorted(vs, key=repr)))
        for name, vs in sorted(hypergraph.edges(), key=lambda kv: kv[0])
    )
