"""The stacked-solve oracle over a suite run (``run --batch``).

:func:`run_suite_batched` is :func:`repro.lab.runner.run_suite` plus one
cross-check pass: the scenarios that ran fresh are grouped by structure
(the 16 axis planes of a fuzz identity, same-shape identities across
seeds) and each multi-member group is re-solved once as a stacked tensor
program — :func:`repro.faq.reference.solve_stacked`, the solve the
serving plane batches requests with.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faq.reference import solve_stacked, structural_signature
from ..pipeline import identity_key, materialize_scenario
from .cache import ResultCache
from .results import ScenarioResult, answer_digest
from .runner import SuiteRun, run_suite
from .spec import ScenarioSpec, SuiteSpec

#: Spec fields that never change the instance (the four parity axes) or
#: change content but maybe not shape — the structural signature decides.
_GROUP_NEUTRAL_FIELDS = (
    "engine", "solver", "backend", "kernels",
    "seed", "n", "domain_size", "assignment", "max_rounds",
)


class BatchParityError(AssertionError):
    """The stacked group solve disagreed with a member's own answer."""


def plan_groups(
    specs: Sequence[ScenarioSpec],
) -> List[Tuple[Optional[str], List[ScenarioSpec]]]:
    """Partition specs into ``(signature, members)`` groups, first-seen
    order.  Members share the shape-defining spec fields and the
    :func:`structural_signature` of their (memoized) materialization; an
    unstackable spec (signature ``None``) is its own singleton group.
    """
    groups: List[Tuple[Optional[str], List[ScenarioSpec]]] = []
    stackable: Dict[Tuple[str, str], List[ScenarioSpec]] = {}
    for spec in specs:
        signature = structural_signature(materialize_scenario(spec)[0].query)
        if signature is None:
            groups.append((None, [spec]))
            continue
        key = (identity_key(spec, drop=_GROUP_NEUTRAL_FIELDS), signature)
        if key not in stackable:
            stackable[key] = []
            groups.append((signature, stackable[key]))
        stackable[key].append(spec)
    return groups


def verify_group(
    members: Sequence[ScenarioSpec], results: Sequence[ScenarioResult]
) -> None:
    """One stacked solve of ``members``: every unstacked answer must
    equal, by digest, the member's individually-executed answer, or
    :class:`BatchParityError` is raised.
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


def run_suite_batched(
    suite: SuiteSpec,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    log: Optional[Callable[[str], None]] = None,
    trace: bool = False,
    baseline_sample: int = 0,  # pinned by benchmarks/ledger/wl_sweep.py
) -> SuiteRun:
    """An in-process :func:`run_suite`, then :func:`verify_group` on every
    multi-member group of the scenarios that ran fresh (a cache hit was
    cross-checked by the run that executed it), after all results are
    final and cached.

    Returns the plain run, ``wall_time`` extended over the cross-check
    and ``batch`` set to the grouping stats (``groups``, ``multi_groups``,
    ``grouped_scenarios``, ``stacked_checks``, ``plane_twins``).  Raises
    :class:`BatchParityError` on a disagreeing group and ``ValueError``
    for a non-zero ``baseline_sample``.
    """
    if baseline_sample:
        raise ValueError(f"baseline_sample must be 0, got {baseline_sample}")
    start = time.perf_counter()
    run = run_suite(suite, cache=cache, force=force, log=log, trace=trace)
    fresh = {r.spec: r for r in run.results if not r.cached}
    groups = plan_groups(list(fresh))
    multi = [m for sig, m in groups if sig is not None and len(m) >= 2]
    for members in multi:
        verify_group(members, [fresh[spec] for spec in members])
    run.batch = {
        "groups": len(groups),
        "multi_groups": len(multi),
        "grouped_scenarios": sum(len(members) for members in multi),
        "stacked_checks": len(multi),
        "plane_twins": 0,  # pinned by benchmarks/ledger/wl_sweep.py
    }
    run.wall_time = time.perf_counter() - start
    return run
