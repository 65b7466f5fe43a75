"""Observability: protocol event tracing, kernel counters, exports.

The layer is deliberately dependency-free (stdlib only) so every other
subsystem — the network engines, the FAQ executor, the lab — can import
it without cycles.  Three planes:

* :mod:`repro.obs.trace` — typed per-round protocol events behind a
  ``Tracer`` interface whose disabled form costs one ``None`` check on
  the hot path (engines normalize a disabled tracer to ``None`` up
  front, so tracing off means *zero* calls per round).
* :mod:`repro.obs.counters` — process-wide tagged counters for the fast
  paths that are otherwise invisible (plan cache, columnar-vs-dict
  kernel dispatch, fused steps, cycle fast-forward).
* :mod:`repro.obs.export` / :mod:`repro.obs.verify` — trace
  serialization (JSONL, Chrome trace-event JSON for Perfetto, a terminal
  timeline) and the self-verification contract: replaying a trace's
  ``Send`` events must reproduce the engine's accounting exactly.
"""

from .counters import (
    COSTMODEL_COUNTERS,
    COUNTERS,
    DETERMINISTIC_COUNTERS,
    STEINER_COUNTERS,
    CounterRegistry,
    counter_delta,
)
from .trace import (
    ComputeStepEvent,
    CycleFastForwardEvent,
    PhaseTimerEvent,
    RecordingTracer,
    RoundStartEvent,
    RunStartEvent,
    SendEvent,
    Tracer,
)
from .verify import ReplayedTotals, TraceVerdict, replay_trace, verify_trace

__all__ = [
    "COSTMODEL_COUNTERS",
    "COUNTERS",
    "DETERMINISTIC_COUNTERS",
    "STEINER_COUNTERS",
    "CounterRegistry",
    "counter_delta",
    "Tracer",
    "RecordingTracer",
    "RunStartEvent",
    "RoundStartEvent",
    "SendEvent",
    "ComputeStepEvent",
    "CycleFastForwardEvent",
    "PhaseTimerEvent",
    "ReplayedTotals",
    "TraceVerdict",
    "replay_trace",
    "verify_trace",
]
