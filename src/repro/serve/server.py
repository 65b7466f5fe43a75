"""The serving front-end: admission control, coalescing, one solver thread.

:class:`QueryService` is a long-lived asyncio service over registered
:class:`~repro.serve.session.ServingSession` objects.  The request path:

1. **Admission** — every submitted spec resolves to a registered
   session (registering on first sight, on the solver thread:
   registration is the offline phase and amortizes to zero, and the
   event loop keeps serving meanwhile).  The session's
   :func:`~repro.costmodel.predict_costs` metrics price the query
   *without executing anything*; the :class:`AdmissionPolicy` then
   admits or **rejects** it (structured
   :class:`~repro.serve.store.ServeError`, code ``"rejected"``, with
   the predicted rounds/bits in ``detail``).
2. **Coalescing** — admitted requests enqueue on one bounded queue; the
   batcher takes the next request plus whatever is *already* queued (it
   never waits for more: an idle service answers at once, and requests
   that arrive while a solve runs queue up and meet in the next batch
   anyway) and dedupes *identical* sessions onto one execution.
3. **Execution** — the distinct sessions of the batch are dispatched
   together, each through the one single-session path, on one solver
   thread over the warm sessions (the thread-safe memo/plan caches are
   what make this sound), so the event loop stays responsive.

Degradation is structured, never a hang: a session whose online solve
raises fails its own requests with ``ServeError("execution-failed")``
and the rest of the batch is served; closing the service fails every
pending future — queued or in the batch being solved — with
``ServeError("shutdown")``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..lab.spec import ScenarioSpec
from .session import ServingSession, SessionManifest, session_id_of
from .store import ServeError


@dataclass(frozen=True)
class AdmissionPolicy:
    """Zero-execution admission control over predicted protocol costs.

    Attributes:
        max_predicted_bits: Reject queries whose predicted
            ``total_bits`` exceeds this (``None`` = unlimited).
        max_predicted_rounds: Same for predicted ``rounds``.

    Registration rejects a session the cost model cannot price, so
    every manifest carries a prediction.
    """

    max_predicted_bits: Optional[int] = None
    max_predicted_rounds: Optional[int] = None

    def decide(self, manifest: SessionManifest) -> Tuple[str, Dict[str, Any]]:
        """``("admit"|"reject", detail)`` for one session."""
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
        return "reject", detail


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
    admission: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ServiceStats:
    """Cumulative service counters (the ledger's coalescing-rate source)."""

    submitted: int = 0
    served: int = 0
    rejected: int = 0
    failed: int = 0
    batches: int = 0
    coalesced_duplicates: int = 0
    # Never incremented.  Both stay because the frozen
    # ``benchmarks/ledger/wl_serve.py`` reads them in its traced run;
    # the ``benchmark`` PR of ROADMAP 1(a) retires them.
    stacked_queries: int = 0
    worker_crashes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class _Request:
    __slots__ = ("session", "future", "enqueued", "admission")

    def __init__(self, session, future, admission):
        self.session = session
        self.future = future
        self.enqueued = time.perf_counter()
        self.admission = admission


def _fail_pending(
    requests: Sequence[_Request], code: str, message: str
) -> None:
    """Fail every request of ``requests`` that has no reply yet."""
    for request in requests:
        if not request.future.done():
            request.future.set_exception(ServeError(code, message, {}))


class QueryService:
    """A persistent query service over registered sessions.

    Args:
        policy: Admission policy (default: admit everything).
        max_pending: Queue bound; submissions beyond it fail fast with
            ``ServeError("overloaded")``.
    """

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        max_pending: int = 1024,
    ) -> None:
        self.policy = policy or AdmissionPolicy()
        self.max_pending = int(max_pending)
        self.sessions: Dict[str, ServingSession] = {}
        self.stats = ServiceStats()
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._solver_pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    # -- registration (offline) -----------------------------------------
    def register(self, spec: ScenarioSpec) -> SessionManifest:
        """Register one scenario identity (idempotent, offline phase)."""
        if self._closed:
            raise ServeError("shutdown", "service is closed", {})
        session_id = session_id_of(spec)
        session = self.sessions.get(session_id)
        if session is None:
            session = ServingSession.register(spec)
            self.sessions[session_id] = session
        return session.manifest

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "QueryService":
        if self._closed:
            raise ServeError("shutdown", "service is closed", {})
        if self._batcher is not None:
            return self
        self._queue = asyncio.Queue()
        self._solver_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-solver"
        )
        self._batcher = asyncio.get_running_loop().create_task(
            self._batch_loop()
        )
        return self

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain nothing, fail everything pending, stop the solver."""
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
        if self._queue is not None:
            _fail_pending(
                [self._queue.get_nowait() for _ in range(self._queue.qsize())],
                "shutdown", "service closed",
            )
        if self._solver_pool is not None:
            self._solver_pool.shutdown(wait=False, cancel_futures=True)
            self._solver_pool = None

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
            try:
                manifest = registration.result()
            except ServeError as err:
                if err.code == "rejected":  # the cost model cannot price it
                    self.stats.rejected += 1
                raise
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
        pending = self._queue.qsize()
        if pending >= self.max_pending:
            self.stats.rejected += 1
            raise ServeError(
                "overloaded",
                f"queue is full ({pending} pending)",
                {"max_pending": self.max_pending},
            )
        future = asyncio.get_running_loop().create_future()
        await self._queue.put(
            _Request(self.sessions[manifest.session_id], future, detail)
        )
        return await future

    # -- batcher ---------------------------------------------------------
    async def _collect_batch(self) -> List[_Request]:
        """The next request plus whatever is already queued — no waiting.

        ``Queue.get`` leaves a request on the queue when it is cancelled,
        so close() fails a request the idle batcher was just woken for.
        """
        batch = [await self._queue.get()]
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
                admission=request.admission,
            ))

    async def _run_session(self, session_id: str):
        """One session's answer payload, or the ServeError it died of.

        The one place a failed online solve becomes
        ``ServeError("execution-failed")``: catching it here fails only
        this session's requests, and the rest of the batch is served.
        """
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._solver_pool, self.sessions[session_id].online_answer
            )
        except Exception as exc:
            return ServeError(
                "execution-failed",
                f"online solve failed for {session_id}: {exc}",
                {"session_id": session_id},
            )
