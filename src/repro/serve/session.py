"""Serving sessions — the offline/online split of the serving plane.

A :class:`ServingSession` is one registered scenario identity.  At
registration time (**offline**) it performs every piece of work that is
a pure function of the identity and can therefore be paid once:

* materialization of the query/topology/assignment, backend conversion
  + decomposition search + protocol-plan compilation
  (:func:`repro.pipeline.plan_scenario` — the same memos the lab's
  runner fills, so the two planes share work within a process),
* the elimination order and dictionary interning (one warm solve
  primes the ``faq.plan_cache`` memo and the executor's dictionary
  pool fast paths),
* the closed-form bound report and the **exact**
  :func:`repro.pipeline.predicted_metrics` the server's admission
  controller prices queries with, *without executing anything* (a
  session the cost model cannot price is rejected and not kept).

The **online** path (:meth:`ServingSession.execute_online`) then touches
only compiled kernels (:func:`repro.pipeline.solve_scenario`): it
re-runs the solver over the already-converted factors.  Its answer is
byte-identical to :meth:`Planner.execute`'s protocol answer for the
same spec — the three-axis parity contract certifies
``protocol.answer == reference`` on every lab run, and the reference
solve *is* this online solve.

Everything knowable offline is recorded in a JSON-able
:class:`SessionManifest` (the ``martelogan__langformer`` RunSession
idea): the admission policy prices with it, and the parity tests read
its digest.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence, Tuple

from ..core.planner import Planner
from ..costmodel import CostModelError
from ..lab.results import answer_digest
from ..lab.spec import ScenarioSpec
from ..pipeline import plan_scenario, predicted_metrics, solve_scenario
from .store import ServeError

#: Manifest layout version — bump on any incompatible change.
#: v3: ``covered`` and ``notes`` are gone; ``predicted`` is always set.
#: v4: ``store`` is gone; registration publishes nothing.
SESSION_VERSION = 4


def answer_payload(
    schema: Sequence[str], rows: Mapping[Tuple[Any, ...], Any]
) -> Dict[str, Any]:
    """One served answer: schema, rows, content digest."""
    return {
        "schema": list(schema),
        "rows": rows,
        "digest": answer_digest(schema, rows),
    }


def session_id_of(spec: ScenarioSpec) -> str:
    """The stable session identity of a spec: its content hash.

    Two requests for the same spec (all axes included) are the *same*
    session — the server coalesces them onto one registration.
    """
    return f"s-{spec.content_hash()[:20]}"


@dataclass
class SessionManifest:
    """The durable, JSON-able record of one registered session.

    Everything the offline phase computed: the spec identity, the
    admission-control cost prediction, the closed-form bounds and the
    expected answer digest.
    """

    session_id: str
    spec: Dict[str, Any]
    label: str
    predicted: Dict[str, Any]
    bounds: Dict[str, float]
    answer_digest: str
    answer_rows: int
    offline_seconds: float
    version: int = SESSION_VERSION

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "session_id": self.session_id,
            "spec": self.spec,
            "label": self.label,
            "predicted": self.predicted,
            "bounds": self.bounds,
            "answer_digest": self.answer_digest,
            "answer_rows": self.answer_rows,
            "offline_seconds": self.offline_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


class ServingSession:
    """One registered scenario identity, offline-compiled and warm.

    Construct via :meth:`register`.  Holds the backend-converted
    planner and the manifest; :meth:`execute_online` is the kernel-only
    hot path.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        planner: Planner,
        manifest: SessionManifest,
    ) -> None:
        self.spec = spec
        self.planner = planner
        self.manifest = manifest

    # -- offline ---------------------------------------------------------
    @classmethod
    def register(cls, spec: ScenarioSpec) -> "ServingSession":
        """The offline phase: build, compile, predict, warm.

        Raises:
            ServeError: code ``"rejected"`` when the spec cannot be
                planned (an unknown family, bad params, no Steiner tree
                at the requested Δ) or the cost model cannot price it.
        """
        start = time.perf_counter()
        session_id = session_id_of(spec)
        try:
            planner, protocol_plan = plan_scenario(spec)
        except ValueError as exc:
            raise ServeError(
                "rejected",
                f"{session_id} cannot be planned: {exc}",
                {"session_id": session_id, "reason": str(exc)},
            ) from exc
        # Warm solve: caches the elimination order (compiled solver),
        # interns dictionaries, and pins the expected answer digest.
        warm_answer = planner.reference_answer()
        # The zero-execution estimate admission control prices with: the
        # *exact* (certified-per-fuzz-run) rounds/bits of the protocol the
        # lab would execute for this spec.
        try:
            predicted = predicted_metrics(
                spec, protocol_plan, planner.topology.nodes
            )
        except CostModelError as exc:
            raise ServeError(
                "rejected",
                f"the cost model cannot price {session_id}: {exc}",
                {"session_id": session_id, "cost_model": str(exc)},
            ) from exc
        bound = planner.predict()
        digest = answer_digest(warm_answer.schema, warm_answer.rows)
        manifest = SessionManifest(
            session_id=session_id,
            spec=spec.to_json_dict(),
            label=spec.label,
            predicted=predicted,
            bounds={
                "upper_rounds": float(bound.upper_rounds),
                "lower_rounds": float(bound.lower_rounds),
            },
            answer_digest=digest,
            answer_rows=len(warm_answer),
            offline_seconds=time.perf_counter() - start,
        )
        return cls(spec, planner, manifest)

    # -- online ----------------------------------------------------------
    @property
    def session_id(self) -> str:
        return self.manifest.session_id

    def execute_online(self):
        """The kernel-only hot path: solve over the warm factors.

        Returns the answer :class:`~repro.semiring.factor.Factor` —
        byte-identical (schema, rows, values) to the protocol answer
        :meth:`Planner.execute` produces for the same spec.  A failure
        propagates; the service turns it into
        ``ServeError("execution-failed")``.
        """
        return solve_scenario(self.spec, self.planner.query)

    def online_answer(self) -> Dict[str, Any]:
        """One served answer (:func:`answer_payload` of the online solve)."""
        answer = self.execute_online()
        return answer_payload(answer.schema, answer.rows)
