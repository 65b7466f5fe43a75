"""The serving plane's answer contract.

Three claims, each load-bearing for the ledger's ``serve-closed`` /
``serve-poisson`` workloads:

1. **Axis-complete byte-identity** — a served answer's digest equals the
   digest :meth:`Planner.execute` records for the same spec, on every
   plane of the engine × solver × backend grid (the protocol
   answer equals the reference solve on every lab run — the three-axis
   parity contract — and the online path *is* the reference solve).
2. **Coalescing parity** — duplicates coalesced onto one execution
   all carry the manifest digest, and distinct sessions that meet in
   one batch are digest-equal to being served alone.
3. **Priced admission is exact** — the manifest's zero-execution
   prediction equals the measured rounds/bits of an actual protocol
   execution.
"""

import asyncio
import itertools

import pytest

from repro.core.memo import clear_all_memos
from repro.faq.reference import structural_signature
from repro.lab.generate import generate_scenarios, sample_scenario
from repro.lab.runner import execute_scenario
from repro.pipeline import materialize_scenario
from repro.serve import QueryService, ServeError, session_id_of
from repro.serve.session import ServingSession


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_all_memos()
    yield


AXIS_PLANES = list(itertools.product(
    ("generator", "compiled"),      # engine
    ("operator", "compiled"),       # solver
    (None, "columnar"),             # backend (None = the family's own)
))


def test_served_answers_match_planner_execute_on_every_axis_plane():
    base = sample_scenario(41)
    specs = [
        base.with_(engine=engine, solver=solver, backend=backend)
        for engine, solver, backend in AXIS_PLANES
    ]
    expected = {
        session_id_of(spec): execute_scenario(spec).answer_digest
        for spec in specs
    }

    async def main():
        async with QueryService() as service:
            results = await asyncio.gather(
                *(service.submit(spec) for spec in specs)
            )
            for result in results:
                assert result.digest == expected[result.session_id]
            # Registration pinned the same digest offline.
            for spec in specs:
                manifest = service.sessions[
                    session_id_of(spec)
                ].manifest
                assert manifest.answer_digest == expected[
                    session_id_of(spec)
                ]

    asyncio.run(main())


def test_served_answers_match_lab_digests_on_fuzz_sample():
    specs = generate_scenarios(77, 10)
    expected = {
        session_id_of(spec): execute_scenario(spec).answer_digest
        for spec in specs
    }

    async def main():
        async with QueryService() as service:
            results = await asyncio.gather(
                *(service.submit(spec) for spec in specs)
            )
            for result in results:
                assert result.digest == expected[result.session_id]
            assert service.stats.served == len(specs)

    asyncio.run(main())


def _twin_pair(master_seed=91, count=40):
    """Two distinct specs sharing a structural signature: same shape,
    different data — the pair most likely to be confused in a batch."""
    for spec in generate_scenarios(master_seed, count):
        twin = spec.with_(seed=spec.seed + 1)
        try:
            sig = structural_signature(materialize_scenario(spec)[0].query)
            twin_sig = structural_signature(
                materialize_scenario(twin)[0].query
            )
        except Exception:  # family rejects the shifted seed
            continue
        if sig is not None and sig == twin_sig and (
            session_id_of(spec) != session_id_of(twin)
        ):
            return spec, twin
    raise RuntimeError("no seed twins in the sample")  # pragma: no cover


def test_duplicates_in_one_batch_coalesce_onto_one_execution():
    spec = sample_scenario(41)

    async def main():
        async with QueryService() as service:
            manifest = service.register(spec)
            session = service.sessions[manifest.session_id]
            solve, executions = session.online_answer, []
            session.online_answer = lambda: executions.append(1) or solve()
            # All five enqueue before the batcher wakes: one batch.
            results = await asyncio.gather(
                *(service.submit(spec) for _ in range(5))
            )
            assert len(executions) == 1
            assert service.stats.batches == 1
            assert service.stats.coalesced_duplicates == 4
            assert [r.coalesced for r in results] == [False] + [True] * 4
            for result in results:
                assert result.digest == manifest.answer_digest
                assert result.batch_size == 5

    asyncio.run(main())


def test_twins_in_one_batch_match_being_served_alone():
    spec, twin = _twin_pair()
    expected = {
        session_id_of(s): execute_scenario(s).answer_digest
        for s in (spec, twin)
    }

    async def main():
        service = QueryService()
        for s in (spec, twin):
            service.register(s)
        async with service:
            alone = [await service.submit(s) for s in (spec, twin)]
            together = await asyncio.gather(
                *(service.submit(s) for s in (spec, twin))
            )
            assert [r.batch_size for r in alone] == [1, 1]
            assert [r.batch_size for r in together] == [2, 2]
            for one, met in zip(alone, together):
                assert one.session_id == met.session_id
                assert one.digest == met.digest == expected[one.session_id]
                assert one.rows == met.rows
            assert service.stats.coalesced_duplicates == 0

    asyncio.run(main())


def test_admission_predictions_match_measured_costs_on_a_fuzz_sample():
    for spec in generate_scenarios(31, 8):
        manifest = ServingSession.register(spec).manifest
        result = execute_scenario(spec)
        measured = result.cost_model["measured"]
        assert manifest.predicted == measured, spec.label