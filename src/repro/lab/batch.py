"""Multi-scenario tensor execution — the batched suite runner.

:func:`run_suite_batched` executes a suite like
:func:`repro.lab.runner.run_suite`, but first groups structurally
identical scenarios (same query shape, factor schemas, semiring and
free variables — in practice the 16 axis planes of one fuzz identity,
plus same-shape identities across seeds).  Each group shares one
materialization (:func:`repro.pipeline.materialize_scenario`) and the
hot structural memos, and after its members run, the whole group is
re-solved **once** as a stacked tensor program: every member relation
gains a leading ``__scenario__`` column, the stacked relations share one
:class:`~repro.faq.executor.DictionaryPool` inside the columnar backend,
one solver dispatch answers all scenarios, and the unstacked per-scenario
answers are asserted byte-identical (by answer digest) to the members'
individually-executed answers.

Every member still runs the *full* per-scenario pipeline — protocol,
certification, cost model, counters — so a batched run's deterministic
records are byte-identical to a serial :func:`run_suite`'s.  Batching
buys throughput (shared materialization + memos + one group solve as a
cross-check), never different answers; :class:`BatchParityError` is
raised the moment the stacked solve disagrees with any member.

The ``batch.groups`` / ``batch.grouped_scenarios`` counters fire outside
every member's per-scenario counter window, so member observability
blocks stay identical to unbatched runs.
"""

from __future__ import annotations

import gc
import pickle
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import kernels
from ..core.memo import clear_all_memos
from ..faq.reference import solve_stacked, structural_signature
from ..obs.counters import COUNTERS
from ..pipeline import identity_key, materialize_scenario
from .cache import ResultCache
from .results import ScenarioResult, answer_digest
from .runner import SuiteRun, _execute_with_context, _SuiteProgress
from .spec import ScenarioSpec, SuiteSpec

#: Spec fields erased by the coarse grouping key.  The four parity axes
#: never change the instance; seed / size / placement knobs change the
#: *content* but not (necessarily) the shape — the structural signature
#: check below decides whether two identities actually stack.
_GROUP_NEUTRAL_FIELDS = (
    "engine", "solver", "backend", "kernels",
    "seed", "n", "domain_size", "assignment", "max_rounds",
)


class BatchParityError(AssertionError):
    """The stacked group solve disagreed with a member's own answer."""


def _resolved_plane_key(spec: ScenarioSpec) -> str:
    """The spec's identity with the kernel tier *resolved*.

    ``kernels="jit"`` without numba installed executes bit-for-bit the
    same code path as ``kernels="numpy"`` (:func:`repro.kernels
    .resolved_tier`), so the two planes are one computation.  The
    batched runner executes each distinct resolved computation once and
    materializes the twin plane's result from it; with numba installed
    the keys differ and every plane runs for real.
    """
    if spec.kernels == "jit" and not kernels.HAVE_NUMBA:
        spec = spec.with_(kernels="numpy")
    return identity_key(spec, drop=())


def _twin_result(twin: ScenarioResult, spec: ScenarioSpec) -> ScenarioResult:
    """A fresh result for ``spec`` cloned from its resolved-plane twin.

    Every deterministic field of the twin is provably equal to what
    executing ``spec`` would produce (same resolved computation); only
    the spec identity differs.  Wall times are copied — they priced the
    one execution that actually ran.  The clone is a pickle round-trip:
    results are pickle-clean by construction (they cross the ``--jobs``
    process boundary), and it is ~3x faster than ``copy.deepcopy``.
    """
    result = pickle.loads(pickle.dumps(twin, pickle.HIGHEST_PROTOCOL))
    result.spec = spec
    result.spec_hash = spec.content_hash()
    return result


def plan_groups(
    specs: Sequence[ScenarioSpec],
) -> List[Tuple[Optional[str], List[ScenarioSpec]]]:
    """Partition specs into stackable groups, preserving first-seen order.

    Coarse-keys by the shape-defining spec fields, then refines by the
    materialized :func:`structural_signature` (materialization is
    memoized, so members reuse these builds during execution).  Returns
    ``(signature, members)`` pairs; ``signature`` is ``None`` for
    unstackable members (each then forms its own singleton group).
    """
    coarse: Dict[str, List[ScenarioSpec]] = {}
    for spec in specs:
        coarse.setdefault(
            identity_key(spec, drop=_GROUP_NEUTRAL_FIELDS), []
        ).append(spec)
    groups: List[Tuple[Optional[str], List[ScenarioSpec]]] = []
    for members in coarse.values():
        refined: Dict[Optional[str], List[ScenarioSpec]] = {}
        for spec in members:
            built, _topology, _assignment = materialize_scenario(spec)
            sig = structural_signature(built.query)
            refined.setdefault(sig, []).append(spec)
        for sig, bucket in refined.items():
            if sig is None:
                groups.extend((None, [spec]) for spec in bucket)
            else:
                groups.append((sig, bucket))
    return groups


def verify_group(
    members: Sequence[ScenarioSpec],
    results: Sequence[ScenarioResult],
) -> None:
    """The batched-vs-serial oracle: one stacked solve, per-member digests.

    Raises:
        BatchParityError: if any unstacked per-scenario answer differs
            (by digest) from the member's individually-executed answer.
    """
    answers = solve_stacked(
        [materialize_scenario(spec)[0].query for spec in members]
    )
    for spec, result, (schema, rows) in zip(members, results, answers):
        digest = answer_digest(schema, rows)
        if digest != result.answer_digest:
            raise BatchParityError(
                f"stacked solve disagreed with member {spec.label}: "
                f"unstacked digest {digest} != executed digest "
                f"{result.answer_digest}"
            )


def _measure_baseline(
    sample: Sequence[ScenarioSpec],
    trace: bool = False,
) -> Optional[Dict[str, Any]]:
    """Per-scenario throughput with cold memos (the pre-batching path).

    Each sampled scenario runs the full pipeline with every structural
    memo cleared first, reproducing the cost of executing it in
    isolation — under the same ``trace`` setting as the batched pass,
    so the speedup never compares a traced run to an untraced baseline.
    Results are discarded; only the clock matters.
    """
    if not sample:
        return None
    start = time.perf_counter()
    for spec in sample:
        clear_all_memos()
        _execute_with_context(spec, trace)
    elapsed = time.perf_counter() - start
    return {
        "sample": len(sample),
        "wall_time_s": elapsed,
        "scenarios_per_sec": len(sample) / elapsed if elapsed > 0 else None,
    }


def run_suite_batched(
    suite: SuiteSpec,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    log=None,
    trace: bool = False,
    baseline_sample: int = 50,
) -> SuiteRun:
    """Execute a suite grouped: shared materialization, one stacked
    solve per multi-member group, per-member results byte-identical to
    :func:`~repro.lab.runner.run_suite`.

    Args:
        suite: What to run.
        cache: Optional result cache (hits skip execution *and* the
            stacked cross-check — they were verified when fresh).
        force: Ignore cache reads (still writes fresh results).
        log: Optional progress sink.
        trace: Replay-verify every fresh member's event stream.
        baseline_sample: How many pending scenarios to time on the cold
            per-scenario path first (0 disables); the ratio is the
            ``throughput.speedup`` headline.  The sample is drawn by a
            fixed-seed shuffle — stride sampling lands on systematic
            plane patterns (every 16th scenario of an axis-swept suite
            is the *same* plane of each identity), which biases the
            estimate.

    Returns:
        A :class:`~repro.lab.runner.SuiteRun` whose ``results`` follow
        suite order exactly and whose ``batch`` dict carries the
        (volatile) grouping and throughput stats.
    """
    progress = _SuiteProgress(suite, cache, force, log)
    emit = progress.emit
    pending = [spec for spec, _key in progress.pending]
    executed = len(pending)

    baseline = None
    if baseline_sample and pending:
        sample = random.Random(8191).sample(
            pending, min(baseline_sample, len(pending))
        )
        emit(f"[base ] timing {len(sample)} scenario(s) on the cold path")
        baseline = _measure_baseline(sample, trace)
        # The baseline pass warmed the memo plane; restart cold so the
        # batched pass prices its own sharing, not the baseline's.
        clear_all_memos()

    batched_start = time.perf_counter()
    # The batched pass is a bounded, allocation-heavy loop: suspend the
    # cyclic collector for its duration (several percent of wall time in
    # pause stalls) and reclaim cycles once at the end, after the clock
    # stops — that collection is the harness tidying up, not scenario
    # throughput.  Execution semantics are GC-invariant; only
    # refcount-unreachable cycles linger until the final collect.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        groups = plan_groups(pending)
        multi_groups = grouped = stacked_checks = twins = 0
        largest = 0
        plane_cache: Dict[str, ScenarioResult] = {}
        for signature, members in groups:
            multi = signature is not None and len(members) >= 2
            if multi:
                # Outside every member's counter window: group bookkeeping
                # must never show up in per-scenario observability blocks.
                COUNTERS.increment("batch.groups")
                COUNTERS.increment("batch.grouped_scenarios", len(members))
                multi_groups += 1
                grouped += len(members)
                largest = max(largest, len(members))
            member_results: List[ScenarioResult] = []
            for spec in members:
                plane_key = _resolved_plane_key(spec)
                twin = plane_cache.get(plane_key)
                if twin is not None:
                    emit(f"[twin ] {spec.label}")
                    result = _twin_result(twin, spec)
                    twins += 1
                else:
                    emit(f"[run  ] {spec.label}")
                    result = _execute_with_context(spec, trace)
                    plane_cache[plane_key] = result
                progress.finish(spec, spec.content_hash(), result)
                member_results.append(result)
            if multi:
                verify_group(members, member_results)
                stacked_checks += 1
                emit(
                    f"[batch] {len(members)}-scenario group verified by one "
                    f"stacked solve"
                )
        batched_elapsed = time.perf_counter() - batched_start
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()

    batched_sps = (
        executed / batched_elapsed if batched_elapsed > 0 and executed else None
    )
    base_sps = baseline["scenarios_per_sec"] if baseline else None
    batch_info: Dict[str, Any] = {
        "groups": len(groups),
        "multi_groups": multi_groups,
        "grouped_scenarios": grouped,
        "largest_group": largest,
        "stacked_checks": stacked_checks,
        "plane_twins": twins,
        "scenarios": executed,
        "wall_time_s": batched_elapsed,
        "scenarios_per_sec": batched_sps,
        "baseline": baseline,
        "speedup": (
            batched_sps / base_sps if batched_sps and base_sps else None
        ),
    }
    return progress.suite_run(jobs=1, batch=batch_info)
