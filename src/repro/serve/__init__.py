"""Serving plane — a persistent FAQ/BCQ query service.

The lab executes scenarios as cold per-process runs; this package
promotes the Planner / order-cache stack into a long-lived service with
a strict offline/online split:

* :mod:`repro.serve.session` — the offline phase: materialization,
  decomposition search, protocol-plan compilation, elimination-order
  caching, dictionary interning (the compiled solver's interned
  factors, made once per query and kept on it; the operator solver, a
  reference, reads the factors as they are) and symbolic cost
  prediction, recorded in a session manifest.  The online phase touches
  only compiled kernels.
* :mod:`repro.serve.server` — the asyncio front-end: admission control
  priced by :func:`repro.costmodel.predict_costs` (zero execution),
  coalescing of identical queued requests onto one execution (each
  batch is whatever is queued when the solver frees up — no window),
  and one solver thread over the warm sessions.
* :mod:`repro.serve.store` — :class:`ServeError`, and a shared-memory
  relation store the service itself does not use (the layer ledger's
  serving probes time its publish and attach).

See ``docs/serving.md`` for the architecture; the ledger's
``serve-closed`` / ``serve-poisson`` workloads (``BENCHMARK.json``) are
the plane's benchmark.
"""

from .server import (
    AdmissionPolicy,
    QueryService,
    ServeResult,
    ServiceStats,
)
from .session import ServingSession, SessionManifest, session_id_of
from .store import (
    AttachedQuery,
    ServeError,
    SharedRelationStore,
    attach_query,
    live_segment_names,
    publish_query,
)

__all__ = [
    "AdmissionPolicy",
    "AttachedQuery",
    "QueryService",
    "ServeError",
    "ServeResult",
    "ServingSession",
    "SessionManifest",
    "ServiceStats",
    "SharedRelationStore",
    "attach_query",
    "live_segment_names",
    "publish_query",
    "session_id_of",
]
