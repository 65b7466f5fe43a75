"""The serving front-end: admission control, coalescing, warm workers.

:class:`QueryService` is a long-lived asyncio service over a
:class:`~repro.serve.store.SharedRelationStore`.  The request path:

1. **Admission** — every submitted spec resolves to a registered
   :class:`~repro.serve.session.ServingSession` (registering on first
   sight, on the solver thread: registration is the offline phase and
   amortizes to zero, and the event loop keeps serving meanwhile).
   The session's :func:`~repro.costmodel.predict_costs` metrics price
   the query *without executing anything*; the
   :class:`AdmissionPolicy` then admits, **rejects** (structured
   :class:`~repro.serve.store.ServeError`, code ``"rejected"``, with
   the predicted rounds/bits in ``detail``) or **defers** it to a
   low-priority lane drained only when the main queue is idle.
2. **Coalescing** — admitted requests enqueue; the batcher takes the
   next request plus whatever is *already* queued (it never waits for
   more: an idle service answers at once, and requests that arrive
   while a solve runs queue up and meet in the next batch anyway) and
   dedupes *identical* sessions onto one execution.
3. **Execution** — the distinct sessions of the batch are dispatched
   together, each through the one single-session path, in an executor
   so the event loop stays responsive: in-process mode (``workers=0``,
   default) uses one worker thread over the warm sessions (the
   thread-safe memo/plan caches are the satellite that makes this
   sound); pool mode
   (``workers>=1``) dispatches to warm processes that attached the
   shared-memory store at fork and cache planners per session — no
   factor pickling on the hot path.

Degradation is structured, never a hang: worker crashes surface as
``ServeError("worker-crashed")`` and the pool is rebuilt; a torn-down
store surfaces as ``ServeError("store-detached")``; closing the service
fails every pending future — queued or in the batch being solved — with
``ServeError("shutdown")``.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..lab.spec import ScenarioSpec
from ..pipeline import solve_scenario, worker_init
from .session import (
    ServingSession,
    SessionManifest,
    answer_payload,
    session_id_of,
)
from .store import ServeError, SharedRelationStore, attach_query


@dataclass(frozen=True)
class AdmissionPolicy:
    """Zero-execution admission control over predicted protocol costs.

    Attributes:
        max_predicted_bits: Reject/defer queries whose predicted
            ``total_bits`` exceeds this (``None`` = unlimited).
        max_predicted_rounds: Same for predicted ``rounds``.
        over_budget: ``"reject"`` (fail fast with the prediction in the
            error detail) or ``"defer"`` (serve from the low-priority
            lane once the interactive queue is idle).

    Registration rejects a session the cost model cannot price, so
    every manifest carries a prediction.
    """

    max_predicted_bits: Optional[int] = None
    max_predicted_rounds: Optional[int] = None
    over_budget: str = "reject"

    def decide(self, manifest: SessionManifest) -> Tuple[str, Dict[str, Any]]:
        """``("admit"|"defer"|"reject", detail)`` for one session."""
        predicted = manifest.predicted
        detail = {
            "predicted": {
                "rounds": predicted["rounds"],
                "total_bits": predicted["total_bits"],
            },
            "budget": {
                "max_predicted_bits": self.max_predicted_bits,
                "max_predicted_rounds": self.max_predicted_rounds,
            },
        }
        over = (
            self.max_predicted_bits is not None
            and predicted["total_bits"] > self.max_predicted_bits
        ) or (
            self.max_predicted_rounds is not None
            and predicted["rounds"] > self.max_predicted_rounds
        )
        if not over:
            return "admit", detail
        detail["reason"] = "predicted cost exceeds the admission budget"
        return ("defer", detail) if self.over_budget == "defer" else (
            "reject", detail
        )


@dataclass
class ServeResult:
    """One served answer plus its provenance."""

    session_id: str
    digest: str
    schema: List[str]
    rows: Dict[Tuple[Any, ...], Any]
    latency_s: float
    batch_size: int = 1
    coalesced: bool = False
    deferred: bool = False
    admission: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ServiceStats:
    """Cumulative service counters (the ledger's coalescing-rate source)."""

    submitted: int = 0
    served: int = 0
    rejected: int = 0
    deferred: int = 0
    failed: int = 0
    batches: int = 0
    coalesced_duplicates: int = 0
    # Never incremented.  It stays because the frozen
    # ``benchmarks/ledger/wl_serve.py`` reads ``stats["stacked_queries"]``
    # in its traced run; the ``benchmark`` PR of ROADMAP 1(c) retires it.
    stacked_queries: int = 0
    worker_crashes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# Warm-worker entry points (module level: picklable by reference)
# ---------------------------------------------------------------------------

#: Per-worker-process cache: published payloads and warm per-session
#: planners, populated lazily on first touch after the initializer.
_WORKER_STATE: Dict[str, Dict[str, Any]] = {"payloads": {}, "sessions": {}}


def _serve_worker_init(path: List[str], payloads: Dict[str, Dict[str, Any]]) -> None:
    """Pool initializer: import path + the (small) session payloads.

    The payloads carry segment *names*, not factor bytes — each worker
    attaches the shared-memory segments on first use of a session.
    """
    worker_init(path)
    _WORKER_STATE["payloads"] = dict(payloads)
    _WORKER_STATE["sessions"] = {}


def _worker_session(session_id: str):
    """This worker's warm (spec, planner) for a session, attaching once."""
    warm = _WORKER_STATE["sessions"].get(session_id)
    if warm is not None:
        return warm
    payload = _WORKER_STATE["payloads"].get(session_id)
    if payload is None:
        raise ServeError(
            "unknown-session",
            f"worker has no payload for session {session_id!r}",
            {"session_id": session_id},
        )
    attached = attach_query(payload)
    spec = ScenarioSpec.from_json_dict(payload["extra"]["spec"])
    # Apply the spec's backend conversion exactly as the Planner would
    # (identity when the attached storage already matches); the online
    # solve needs no topology, so no network objects are rebuilt here.
    query = attached.query
    if spec.backend is not None:
        query = query.with_backend(spec.backend)
    warm = (spec, query, attached)
    _WORKER_STATE["sessions"][session_id] = warm
    return warm


def _worker_execute(session_id: str) -> Dict[str, Any]:
    """Pool task: serve one session from this worker's warm state."""
    spec, query, _attached = _worker_session(session_id)
    answer = solve_scenario(spec, query)
    return answer_payload(answer.schema, answer.rows)


def _crash_worker() -> None:  # pragma: no cover - exercised via the pool
    """Test hook: die without cleanup, as a real segfault would."""
    os._exit(3)


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class _Request:
    __slots__ = ("session", "future", "enqueued", "deferred", "admission")

    def __init__(self, session, future, deferred, admission):
        self.session = session
        self.future = future
        self.enqueued = time.perf_counter()
        self.deferred = deferred
        self.admission = admission


def _fail_pending(
    requests: Sequence[_Request], code: str, message: str
) -> None:
    """Fail every request of ``requests`` that has no reply yet."""
    for request in requests:
        if not request.future.done():
            request.future.set_exception(ServeError(code, message, {}))


class QueryService:
    """A persistent query service over registered relations.

    Args:
        policy: Admission policy (default: admit everything).
        workers: ``0`` serves in-process from warm sessions (one solver
            thread over the shared thread-safe caches); ``N >= 1`` warms
            a process pool that attaches the shared-memory store.
        max_pending: Queue bound; submissions beyond it fail fast with
            ``ServeError("overloaded")``.
    """

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        workers: int = 0,
        max_pending: int = 1024,
    ) -> None:
        self.policy = policy or AdmissionPolicy()
        self.workers = int(workers)
        self.max_pending = int(max_pending)
        self.store = SharedRelationStore()
        self.sessions: Dict[str, ServingSession] = {}
        self.stats = ServiceStats()
        self._queue: Optional[asyncio.Queue] = None
        self._deferred: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._solver_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool: Optional[ProcessPoolExecutor] = None
        # Registration restarts the pool from the solver thread, and
        # close() shuts it down from the event loop.
        self._pool_lock = threading.Lock()
        self._closed = False

    # -- registration (offline) -----------------------------------------
    def register(self, spec: ScenarioSpec) -> SessionManifest:
        """Register one scenario identity (idempotent, offline phase)."""
        if self._closed:
            raise ServeError("shutdown", "service is closed", {})
        session_id = session_id_of(spec)
        session = self.sessions.get(session_id)
        if session is None:
            session = ServingSession.register(spec, self.store)
            self.sessions[session_id] = session
            if self._process_pool is not None:
                # Workers warm lazily: rebuild the pool's payload map so
                # *new* workers see the session; existing workers learn
                # it on their next init (simplest correct policy — the
                # bench registers everything before starting the pool).
                self._restart_pool()
        return session.manifest

    def manifest(self) -> Dict[str, Any]:
        """The service-level manifest: sessions + store summary."""
        return {
            "sessions": {
                sid: s.manifest.to_json_dict()
                for sid, s in sorted(self.sessions.items())
            },
            "store": self.store.describe(),
            "stats": self.stats.to_dict(),
        }

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "QueryService":
        if self._closed:
            raise ServeError("shutdown", "service is closed", {})
        if self._batcher is not None:
            return self
        self._queue = asyncio.Queue()
        self._deferred = asyncio.Queue()
        self._solver_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-solver"
        )
        if self.workers > 0:
            self._start_pool()
        self._batcher = asyncio.get_running_loop().create_task(
            self._batch_loop()
        )
        return self

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def _start_pool(self) -> None:
        payloads = {sid: s.payload for sid, s in self.sessions.items()}
        self._process_pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_serve_worker_init,
            initargs=(list(sys.path), payloads),
        )

    def _restart_pool(self) -> None:
        with self._pool_lock:
            pool, self._process_pool = self._process_pool, None
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            if not self._closed:
                self._start_pool()

    async def close(self) -> None:
        """Drain nothing, fail everything pending, release the store."""
        if self._closed:
            return
        self._closed = True
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except (asyncio.CancelledError, Exception):
                pass
            self._batcher = None
        for queue in (self._queue, self._deferred):
            if queue is not None:
                _fail_pending(
                    [queue.get_nowait() for _ in range(queue.qsize())],
                    "shutdown", "service closed",
                )
        with self._pool_lock:
            if self._process_pool is not None:
                self._process_pool.shutdown(wait=False, cancel_futures=True)
                self._process_pool = None
        if self._solver_pool is not None:
            self._solver_pool.shutdown(wait=False, cancel_futures=True)
            self._solver_pool = None
        self.store.close()

    # -- request path ----------------------------------------------------
    async def submit(self, spec: ScenarioSpec) -> ServeResult:
        """Serve one query; raises :class:`ServeError` when not served."""
        if self._closed or self._batcher is None:
            raise ServeError("shutdown", "service is not running", {})
        self.stats.submitted += 1
        session = self.sessions.get(session_id_of(spec))
        if session is not None:
            manifest = session.manifest
        else:
            # Registration is the whole offline phase: it runs on the
            # solver thread, so the event loop keeps admitting and
            # answering other requests meanwhile.  close() cancels one
            # still queued there, and one that finished meanwhile must
            # not reach a queue nobody drains.
            registration = asyncio.get_running_loop().run_in_executor(
                self._solver_pool, self.register, spec
            )
            await asyncio.wait([registration])
            if registration.cancelled():
                raise ServeError("shutdown", "service closed", {})
            manifest = registration.result()
            if self._closed:
                raise ServeError("shutdown", "service closed", {})
        decision, detail = self.policy.decide(manifest)
        if decision == "reject":
            self.stats.rejected += 1
            raise ServeError(
                "rejected",
                f"admission control rejected {manifest.session_id}",
                {"session_id": manifest.session_id, **detail},
            )
        pending = self._queue.qsize() + self._deferred.qsize()
        if pending >= self.max_pending:
            self.stats.rejected += 1
            raise ServeError(
                "overloaded",
                f"queue is full ({pending} pending)",
                {"max_pending": self.max_pending},
            )
        deferred = decision == "defer"
        future = asyncio.get_running_loop().create_future()
        request = _Request(
            self.sessions[manifest.session_id], future, deferred, detail
        )
        if deferred:
            self.stats.deferred += 1
            await self._deferred.put(request)
        else:
            await self._queue.put(request)
        return await future

    # -- batcher ---------------------------------------------------------
    async def _next_request(self) -> _Request:
        """Interactive queue first; the deferred lane only when idle."""
        if not self._queue.empty():
            return self._queue.get_nowait()
        if not self._deferred.empty():
            return self._deferred.get_nowait()
        interactive = asyncio.ensure_future(self._queue.get())
        low = asyncio.ensure_future(self._deferred.get())
        try:
            done, pending = await asyncio.wait(
                (interactive, low), return_when=asyncio.FIRST_COMPLETED
            )
        except asyncio.CancelledError:
            # close() while idle: a request a getter took in this very
            # tick goes back on its lane, where close() fails it.
            for getter, lane in (
                (interactive, self._queue), (low, self._deferred)
            ):
                if getter.done():
                    lane.put_nowait(getter.result())
                getter.cancel()
            raise
        for task in pending:
            task.cancel()
        # Both getters may complete in the same tick: serve the
        # interactive request and put the deferred one back on its lane.
        if interactive not in done:
            return low.result()
        if low in done:
            self._deferred.put_nowait(low.result())
        return interactive.result()

    async def _collect_batch(self) -> List[_Request]:
        """The next request plus whatever is already queued — no waiting."""
        batch = [await self._next_request()]
        while not self._queue.empty():
            batch.append(self._queue.get_nowait())
        return batch

    async def _batch_loop(self) -> None:
        while True:
            batch = await self._collect_batch()
            self.stats.batches += 1
            try:
                await self._execute_batch(batch)
            except asyncio.CancelledError:
                # close() mid-batch: these requests are off the queue,
                # so nobody else can fail them.
                _fail_pending(batch, "shutdown", "service closed")
                raise
            except Exception as exc:  # defensive: never kill the loop
                _fail_pending(batch, "execution-failed", str(exc))

    async def _execute_batch(self, batch: List[_Request]) -> None:
        """Coalesce identical sessions; one execution per distinct one,
        all dispatched together, each resolving its requests as soon as
        its own answer lands."""
        by_session: Dict[str, List[_Request]] = {}
        for request in batch:
            by_session.setdefault(request.session.session_id, []).append(
                request
            )
        self.stats.coalesced_duplicates += len(batch) - len(by_session)

        async def serve(session_id: str, requests: List[_Request]) -> None:
            answer = await self._run_session(session_id)
            self._resolve(requests, answer, len(batch))

        await asyncio.gather(*(
            serve(session_id, requests)
            for session_id, requests in by_session.items()
        ))

    def _resolve(
        self,
        requests: List[_Request],
        answer: Dict[str, Any],
        batch_size: int,
    ) -> None:
        now = time.perf_counter()
        for index, request in enumerate(requests):
            if request.future.done():
                continue
            if isinstance(answer, ServeError):
                self.stats.failed += 1
                request.future.set_exception(answer)
                continue
            self.stats.served += 1
            request.future.set_result(ServeResult(
                session_id=request.session.session_id,
                digest=answer["digest"],
                schema=list(answer["schema"]),
                rows=dict(answer["rows"]),
                latency_s=now - request.enqueued,
                batch_size=batch_size,
                coalesced=index > 0,
                deferred=request.deferred,
                admission=request.admission,
            ))

    # -- execution back ends ---------------------------------------------
    async def _run_session(self, session_id: str):
        """One session's answer payload, or the ServeError it died of."""
        loop = asyncio.get_running_loop()
        # Read once: a registration on the solver thread may swap the pool.
        pool = self._process_pool
        try:
            if pool is not None:
                return await loop.run_in_executor(
                    pool, _worker_execute, session_id
                )
            return await loop.run_in_executor(
                self._solver_pool, self.sessions[session_id].online_answer
            )
        except ServeError as exc:
            return exc
        except BrokenProcessPool:
            # A worker died mid-query.  Degrade structurally: rebuild
            # the pool so the *next* query finds warm workers, fail this
            # one fast with a typed error.
            self.stats.worker_crashes += 1
            self._restart_pool()
            return ServeError(
                "worker-crashed",
                "a warm worker died mid-query; the pool was rebuilt",
                {"workers": self.workers},
            )
        except Exception as exc:
            return ServeError("execution-failed", str(exc), {})
