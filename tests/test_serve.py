"""The serving plane's infrastructure contracts.

Covers the shared-memory relation store (publish/attach byte-identity,
pickled fallback, explicit lifecycle), a service lifetime that creates
no segment, structured degradation (``ServeError`` on detach / failed
solve / shutdown / overload), the submit accounting, the thread-safety
of the plan cache and structural memos the service shares across
threads, and admission control.  Answer-level parity lives in
``test_serving_parity.py``.
"""

import asyncio
import os
import pickle
import threading

import numpy as np
import pytest

from repro.core.memo import LRUMemo, clear_all_memos
from repro.faq.plan import PLAN_CACHE, PlanCache
from repro.lab.generate import generate_scenarios, sample_scenario
from repro.lab.runner import execute_scenario
from repro.pipeline import materialize_scenario
from repro.semiring import Factor, get_semiring
from repro.semiring.columnar import ColumnarFactor
from repro.serve import (
    AdmissionPolicy,
    QueryService,
    ServeError,
    SharedRelationStore,
    attach_query,
    live_segment_names,
    publish_query,
)
from repro.serve.session import ServingSession, session_id_of


def _shm_entries():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: fall back to our own registry
        return set(live_segment_names())


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_all_memos()
    PLAN_CACHE.clear()
    yield


# ---------------------------------------------------------------------------
# Store: publish/attach round trip
# ---------------------------------------------------------------------------


def test_store_roundtrip_is_byte_identical_across_fuzz_scenarios():
    """Attached factors reproduce storage backend, row order, codes and
    dictionary provenance exactly, for whatever the fuzz plane builds."""
    for spec in generate_scenarios(321, 12):
        built, _topology, _assignment = materialize_scenario(spec)
        with SharedRelationStore() as store:
            payload = pickle.loads(pickle.dumps(
                publish_query(store, "q", built.query)
            ))
            attached = attach_query(payload)
            original, rebuilt = built.query, attached.query
            assert dict(original.hypergraph.edges()) == dict(
                rebuilt.hypergraph.edges()
            )
            assert original.domains == rebuilt.domains
            assert original.free_vars == rebuilt.free_vars
            assert original.bound_order == rebuilt.bound_order
            assert original.semiring is rebuilt.semiring
            assert original.backend == rebuilt.backend
            for name, factor in original.factors.items():
                twin = rebuilt.factors[name]
                assert type(factor).__name__ == type(twin).__name__
                assert list(factor.rows.items()) == list(twin.rows.items())
                if isinstance(factor, ColumnarFactor):
                    for left, right in zip(factor.codes, twin.codes):
                        assert np.array_equal(left, right)
                    assert np.array_equal(factor.values, twin.values)
                    for dl, dr in zip(
                        factor.dictionaries, twin.dictionaries
                    ):
                        al = getattr(dl, "array", None)
                        ar = getattr(dr, "array", None)
                        assert (al is None) == (ar is None)
                        if al is not None:
                            assert al.dtype == ar.dtype
            attached.close()


def test_store_pickled_fallback_for_non_columnar_semiring():
    gf2 = get_semiring("gf2")
    factor = Factor(("x",), {(0,): 1, (1,): 0}, semiring=gf2, name="R")
    from repro.faq import FAQQuery
    from repro.hypergraph import Hypergraph

    query = FAQQuery(
        hypergraph=Hypergraph({"R": ("x",)}),
        factors={"R": factor},
        domains={"x": (0, 1)},
        free_vars=("x",),
        semiring=gf2,
    )
    with SharedRelationStore() as store:
        payload = publish_query(store, "q", query)
        assert payload["relations"]["R"]["kind"] == "pickled"
        attached = attach_query(payload)
        assert dict(attached.query.factors["R"].rows) == dict(factor.rows)
        attached.close()


# ---------------------------------------------------------------------------
# Lifecycle and leaks
# ---------------------------------------------------------------------------


def test_store_close_unlinks_everything_and_is_idempotent():
    before = _shm_entries()
    spec = sample_scenario(11)
    built, _t, _a = materialize_scenario(spec)
    store = SharedRelationStore()
    publish_query(store, "q", built.query)
    assert store.segment_names
    store.close()
    store.close()  # idempotent
    store.unlink()  # alias, also idempotent
    assert live_segment_names() == ()
    assert _shm_entries() == before
    with pytest.raises(ServeError) as err:
        publish_query(store, "q2", built.query)
    assert err.value.code == "shutdown"


def test_attach_after_teardown_raises_store_detached():
    spec = sample_scenario(13)
    built, _t, _a = materialize_scenario(spec)
    store = SharedRelationStore()
    payload = publish_query(store, "q", built.query)
    store.close()
    with pytest.raises(ServeError) as err:
        attach_query(payload)
    assert err.value.code == "store-detached"
    assert "segment" in err.value.detail


def test_no_segments_leak_across_a_service_lifetime():
    # Stronger than "nothing is left at close": no segment exists at any
    # point of a lifetime, because the service publishes nothing.
    registered, unregistered = generate_scenarios(123, 2)
    before = _shm_entries()

    async def main():
        service = QueryService()
        service.register(registered)
        assert live_segment_names() == ()
        await service.start()
        try:
            assert live_segment_names() == ()
            await service.submit(registered)
            await service.submit(unregistered)  # registers on the solver
            assert live_segment_names() == ()
            assert _shm_entries() == before
        finally:
            await service.close()
        assert live_segment_names() == ()

    asyncio.run(main())
    assert _shm_entries() == before


# ---------------------------------------------------------------------------
# Thread safety (the satellite the async server depends on)
# ---------------------------------------------------------------------------


def test_lru_memo_concurrent_access_is_consistent():
    memo = LRUMemo("test.concurrent", maxsize=64)
    errors = []

    def hammer(worker):
        try:
            for i in range(500):
                key = i % 97
                value = memo.get_or_compute(key, lambda k=key: k * 3)
                assert value == key * 3
                if i % 100 == 0:
                    memo.clear()
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append((worker, exc))

    threads = [
        threading.Thread(target=hammer, args=(n,)) for n in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # The memo still behaves after the storm (clear() resets counters,
    # so only behaviour — not totals — is assertable here).
    assert memo.get_or_compute("after", lambda: 42) == 42
    assert len(memo._data) <= memo.maxsize


def test_plan_cache_concurrent_access_is_consistent():
    cache = PlanCache(maxsize=32)
    sentinel = object()
    errors = []

    def hammer(worker):
        try:
            for i in range(400):
                key = f"sig-{i % 53}"
                hit = cache.get(key)
                if hit is None:
                    cache.put(key, (key, sentinel))
                else:
                    assert hit[0] == key
                len(cache)
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append((worker, exc))

    threads = [
        threading.Thread(target=hammer, args=(n,)) for n in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(cache) <= 32  # eviction bound held under the race


# ---------------------------------------------------------------------------
# Admission control and service degradation
# ---------------------------------------------------------------------------


def _costly_spec():
    """A spec with a positive predicted cost."""
    for spec in generate_scenarios(7, 40):
        if ServingSession.register(spec).manifest.predicted["total_bits"] > 0:
            return spec
    raise RuntimeError("no costly spec in the sample")  # pragma: no cover


def test_admission_rejects_over_budget_with_prediction_detail():
    spec = _costly_spec()

    async def main():
        policy = AdmissionPolicy(max_predicted_bits=0)
        async with QueryService(policy=policy) as service:
            with pytest.raises(ServeError) as err:
                await service.submit(spec)
            assert err.value.code == "rejected"
            detail = err.value.detail
            assert detail["predicted"]["total_bits"] > 0
            assert detail["budget"]["max_predicted_bits"] == 0
            assert service.stats.rejected == 1

    asyncio.run(main())


def test_admission_policy_decisions_on_manifest_shapes():
    """Unit-level policy matrix."""
    manifest = ServingSession.register(sample_scenario(29)).manifest

    assert AdmissionPolicy().decide(manifest)[0] == "admit"
    bits = manifest.predicted["total_bits"]
    decision, detail = AdmissionPolicy(
        max_predicted_bits=bits
    ).decide(manifest)
    assert decision == "admit"  # budget is inclusive
    if bits > 0:
        decision, detail = AdmissionPolicy(
            max_predicted_bits=bits - 1
        ).decide(manifest)
        assert decision == "reject"
        assert detail["predicted"]["total_bits"] == bits


def test_a_session_the_cost_model_cannot_price_is_rejected(monkeypatch):
    from repro.costmodel import CostModelError

    def unpriceable(spec, plan, nodes):
        raise CostModelError("deliberately unpriceable")

    monkeypatch.setattr("repro.serve.session.predicted_metrics", unpriceable)
    spec = sample_scenario(29)

    async def main():
        async with QueryService() as service:
            with pytest.raises(ServeError) as err:
                service.register(spec)
            assert err.value.code == "rejected"
            assert err.value.detail == {
                "session_id": session_id_of(spec),
                "cost_model": "deliberately unpriceable",
            }
            assert service.sessions == {}

    asyncio.run(main())


def test_overloaded_queue_fails_fast():
    async def main():
        async with QueryService(max_pending=0) as service:
            with pytest.raises(ServeError) as err:
                await service.submit(sample_scenario(19))
            assert err.value.code == "overloaded"

    asyncio.run(main())


def test_submit_after_close_raises_shutdown():
    async def main():
        service = QueryService()
        await service.start()
        await service.close()
        with pytest.raises(ServeError) as err:
            await service.submit(sample_scenario(19))
        assert err.value.code == "shutdown"
        await service.close()  # idempotent

    asyncio.run(main())


def _hold_solver(session):
    """Block ``session``'s online solve on an event: ``(started, release)``."""
    started, release = threading.Event(), threading.Event()
    solve = session.online_answer

    def held():
        started.set()
        release.wait(60)
        return solve()

    session.online_answer = held
    return started, release


async def _solver_is_busy(started):
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, started.wait, 60)


def test_registration_leaves_the_event_loop_free(monkeypatch):
    # An unregistered spec brings the whole offline phase with it.  While
    # that registration is held, a request for a registered spec is still
    # admitted (here: rejected by the budget) at once.  Registering on the
    # event-loop thread would block it until the fallback timer fires.
    held, other = sample_scenario(19), _costly_spec()
    assert session_id_of(held) != session_id_of(other)
    release = threading.Event()
    fallback = threading.Timer(10, release.set)
    register = ServingSession.register

    def held_register(spec):
        if session_id_of(spec) == session_id_of(held):
            release.wait()
        return register(spec)

    monkeypatch.setattr(ServingSession, "register", held_register)

    async def main():
        async with QueryService(
            policy=AdmissionPolicy(max_predicted_bits=0)
        ) as service:
            service.register(other)
            fallback.start()
            try:
                first = asyncio.ensure_future(service.submit(held))
                await asyncio.sleep(0)  # its registration is under way
                with pytest.raises(ServeError) as err:
                    await service.submit(other)
                assert err.value.code == "rejected"
                assert not release.is_set()
            finally:
                release.set()
                fallback.cancel()
            await asyncio.gather(first, return_exceptions=True)
            assert session_id_of(held) in service.sessions

    asyncio.run(main())
    assert not live_segment_names()


def test_close_fails_the_submits_whose_registration_is_under_way(monkeypatch):
    # A close() while registrations run on the solver thread fails both
    # submits with ``shutdown``: the one whose registration then finishes
    # and the one still queued behind it.  Neither may be queued for a
    # batcher that is gone.
    first, second = generate_scenarios(123, 2)
    started, release = threading.Event(), threading.Event()
    register = ServingSession.register

    def held_register(spec):
        session = register(spec)
        started.set()
        release.wait(60)
        return session

    monkeypatch.setattr(ServingSession, "register", held_register)

    async def main():
        service = QueryService()
        await service.start()
        try:
            pending = [
                asyncio.ensure_future(service.submit(spec))
                for spec in (first, second)
            ]
            await _solver_is_busy(started)  # the first registration is held
            await service.close()
        finally:
            release.set()
        for request in pending:
            with pytest.raises(ServeError) as err:
                await asyncio.wait_for(request, 5)  # hang guard only
            assert err.value.code == "shutdown"

    asyncio.run(main())
    assert not live_segment_names()


def test_close_fails_the_batch_in_flight_with_shutdown():
    spec = sample_scenario(19)

    async def main():
        service = QueryService()
        await service.start()
        manifest = service.register(spec)
        started, release = _hold_solver(service.sessions[manifest.session_id])
        try:
            pending = asyncio.ensure_future(service.submit(spec))
            await _solver_is_busy(started)  # dequeued, mid-solve
            await service.close()
        finally:
            release.set()
        with pytest.raises(ServeError) as err:
            await asyncio.wait_for(pending, 5)  # hang guard only
        assert err.value.code == "shutdown"

    asyncio.run(main())
    assert not live_segment_names()


def test_close_fails_a_request_the_idle_batcher_just_took():
    spec = sample_scenario(19)

    async def main():
        service = QueryService()
        await service.start()
        service.register(spec)
        await asyncio.sleep(0)  # the batcher is idle, waiting on the queue
        pending = asyncio.ensure_future(service.submit(spec))
        await asyncio.sleep(0)  # enqueued: the batcher's get is about to wake
        await service.close()
        with pytest.raises(ServeError) as err:
            await asyncio.wait_for(pending, 5)  # hang guard only
        assert err.value.code == "shutdown"

    asyncio.run(main())
    assert not live_segment_names()


def test_a_batch_is_exactly_what_queued_while_the_solver_was_busy():
    blocker, repeated, *distinct = generate_scenarios(123, 5)
    k, m = 4, len(distinct)

    async def main():
        service = QueryService()
        for spec in (blocker, repeated, *distinct):
            service.register(spec)
        async with service:
            started, release = _hold_solver(
                service.sessions[session_id_of(blocker)]
            )
            try:
                first = asyncio.ensure_future(service.submit(blocker))
                await _solver_is_busy(started)
                queued = [
                    asyncio.ensure_future(service.submit(spec))
                    for spec in [repeated] * k + distinct
                ]
                await asyncio.sleep(0)
                assert service._queue.qsize() == k + m
            finally:
                release.set()
            alone = await first
            results = await asyncio.gather(*queued)
            # An idle service answered the first request at once, alone;
            # everything that queued behind it met in the next batch.
            assert alone.batch_size == 1
            assert [r.batch_size for r in results] == [k + m] * (k + m)
            assert sum(r.coalesced for r in results) == k - 1
            stats = service.stats
            assert stats.batches == 2
            assert stats.coalesced_duplicates == k - 1
            assert stats.served == 1 + k + m

    asyncio.run(main())


def test_the_distinct_sessions_of_a_batch_run_together(monkeypatch):
    # Awaiting one session's solve before starting the next would hold
    # every session's reply until the slowest one ahead of it lands.  The
    # fake solves yield to the event loop instead of blocking a thread,
    # so "in flight together" is a count, not a timing.
    from types import SimpleNamespace

    from repro.serve.server import _Request

    batch, in_flight, peak, seen = [], [0], [0], {}
    yields = {"fast": 1, "slow": 5}

    async def fake_run_session(self, session_id):
        in_flight[0] += 1
        peak[0] = max(peak[0], in_flight[0])
        for _ in range(yields[session_id]):
            await asyncio.sleep(0)
        in_flight[0] -= 1
        seen[session_id] = [r.future.done() for r in batch]
        return {"digest": session_id, "schema": [], "rows": {}}

    monkeypatch.setattr(QueryService, "_run_session", fake_run_session)

    async def main():
        service = QueryService()
        try:
            loop = asyncio.get_running_loop()
            batch[:] = [
                _Request(SimpleNamespace(session_id=sid), loop.create_future(),
                         {})
                for sid in ("slow", "fast", "slow")
            ]
            await service._execute_batch(batch)
        finally:
            await service.close()

    asyncio.run(main())
    assert peak[0] == 2
    # The fast session's request was answered while the slow one ran.
    assert seen == {"fast": [False, False, False], "slow": [False, True, False]}
    assert [r.future.result().digest for r in batch] == ["slow", "fast", "slow"]
    assert [r.future.result().coalesced for r in batch] == [False, False, True]


@pytest.mark.parametrize("gone", [
    (QueryService, {"batch_window": 0.002}),
    (QueryService, {"min_stack": 2}),
    (QueryService, {"workers": 1}),
    (AdmissionPolicy, {"over_budget": "defer"}),
])
def test_the_window_and_stacking_options_are_gone(gone):
    # So are the process pool and the deferred lane: one way to serve.
    build, options = gone
    with pytest.raises(TypeError):
        build(**options)


def test_every_submit_is_served_rejected_or_failed(monkeypatch):
    # One admitted request, one over the budget, one whose registration
    # the cost model cannot price, one into a full queue: each submit
    # lands in exactly one of the three outcome counters.
    from repro.costmodel import CostModelError
    from repro.serve import session as session_module

    admitted, costly = sample_scenario(19), _costly_spec()
    unpriceable = next(
        spec for spec in generate_scenarios(123, 5)
        if session_id_of(spec) not in {
            session_id_of(admitted), session_id_of(costly)
        }
    )
    price = session_module.predicted_metrics

    def predicted(spec, plan, nodes):
        if session_id_of(spec) == session_id_of(unpriceable):
            raise CostModelError("deliberately unpriceable")
        return price(spec, plan, nodes)

    monkeypatch.setattr(session_module, "predicted_metrics", predicted)

    async def main():
        async with QueryService() as service:
            await service.submit(admitted)
            service.policy = AdmissionPolicy(max_predicted_bits=0)
            outcomes = []
            for spec in (costly, unpriceable):
                with pytest.raises(ServeError) as err:
                    await service.submit(spec)
                outcomes.append(err.value.code)
            service.policy, service.max_pending = AdmissionPolicy(), 0
            with pytest.raises(ServeError) as err:
                await service.submit(admitted)
            outcomes.append(err.value.code)
            assert outcomes == ["rejected", "rejected", "overloaded"]
            return service.stats

    stats = asyncio.run(main())
    assert (stats.submitted, stats.served, stats.failed) == (4, 1, 0)
    assert stats.submitted == stats.served + stats.rejected + stats.failed


def test_a_failing_solve_fails_only_its_own_session():
    # A solve that raises fails its own session's requests with
    # ``execution-failed`` naming the session; the other session of the
    # same batch is served, with the digest a cold run gives.
    good, bad = generate_scenarios(123, 2)
    expected = execute_scenario(good).answer_digest

    async def main():
        service = QueryService()
        for spec in (good, bad):
            service.register(spec)
        session = service.sessions[session_id_of(bad)]

        def broken():
            raise RuntimeError("deliberately broken solve")

        session.execute_online = broken
        async with service:
            # All three enqueue before the batcher wakes: one batch.
            results = await asyncio.gather(
                *(service.submit(spec) for spec in (bad, good, bad)),
                return_exceptions=True,
            )
            return service.stats, results

    stats, (first, served, second) = asyncio.run(main())
    for err in (first, second):
        assert isinstance(err, ServeError)
        assert err.code == "execution-failed"
        assert err.detail == {"session_id": session_id_of(bad)}
        assert "deliberately broken solve" in str(err)
    assert served.digest == expected
    assert served.batch_size == 3
    assert (stats.batches, stats.served, stats.failed) == (1, 1, 2)
