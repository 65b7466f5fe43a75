"""Serving sessions — the offline/online split of the serving plane.

A :class:`ServingSession` is one registered scenario identity.  At
registration time (**offline**) it performs every piece of work that is
a pure function of the identity and can therefore be paid once:

* materialization of the query/topology/assignment, backend conversion
  + decomposition search + protocol-plan compilation
  (:func:`repro.pipeline.plan_scenario` — the same memos the lab's
  runner fills, so the two planes share work within a process),
* the elimination order and dictionary interning (one warm solve
  primes the :data:`~repro.faq.plan.PLAN_CACHE` and the executor's
  dictionary pool fast paths),
* the closed-form bound report and — on cells the symbolic cost model
  covers — the **exact** :func:`repro.pipeline.predicted_metrics` the
  server's admission controller prices queries with, *without executing
  anything*,
* publication of the relations into the shared-memory store.

The **online** path (:meth:`ServingSession.execute_online`) then touches
only compiled kernels (:func:`repro.pipeline.solve_scenario`): it
re-runs the solver over the already-converted factors under the
registered kernel tier.  Its answer is byte-identical
to :meth:`Planner.execute`'s protocol answer for the same spec — the
four-axis parity contract certifies ``protocol.answer == reference`` on
every lab run, and the reference solve *is* this online solve.

Everything knowable offline is persisted in a JSON-able
:class:`SessionManifest` (the ``martelogan__langformer`` RunSession
idea): a later process can reload the manifest, re-attach the store and
serve without repeating the search.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from .. import kernels
from ..core.planner import Planner
from ..costmodel import CostModelError, is_covered
from ..lab.results import answer_digest
from ..lab.spec import ScenarioSpec
from ..pipeline import plan_scenario, predicted_metrics, solve_scenario
from .store import ServeError, SharedRelationStore, publish_query

#: Manifest layout version — bump on any incompatible change.
SESSION_VERSION = 2


def answer_payload(
    schema: Sequence[str], rows: Mapping[Tuple[Any, ...], Any]
) -> Dict[str, Any]:
    """One served answer: schema, plain-dict rows, content digest."""
    rows = dict(rows)  # a factor's MappingProxy is not picklable
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
    admission-control cost prediction, the closed-form bounds, the
    expected answer digest, and the store segments the relations live
    in.
    """

    session_id: str
    spec: Dict[str, Any]
    label: str
    covered: bool
    predicted: Optional[Dict[str, Any]]
    bounds: Dict[str, float]
    answer_digest: str
    answer_rows: int
    store: Dict[str, Any]
    offline_seconds: float
    version: int = SESSION_VERSION
    notes: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "session_id": self.session_id,
            "spec": self.spec,
            "label": self.label,
            "covered": self.covered,
            "predicted": self.predicted,
            "bounds": self.bounds,
            "answer_digest": self.answer_digest,
            "answer_rows": self.answer_rows,
            "store": self.store,
            "offline_seconds": self.offline_seconds,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


class ServingSession:
    """One registered scenario identity, offline-compiled and warm.

    Construct via :meth:`register`.  Holds the backend-converted
    planner, the shm publication payload and the manifest;
    :meth:`execute_online` is the kernel-only hot path.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        planner: Planner,
        payload: Dict[str, Any],
        manifest: SessionManifest,
    ) -> None:
        self.spec = spec
        self.planner = planner
        self.payload = payload
        self.manifest = manifest

    # -- offline ---------------------------------------------------------
    @classmethod
    def register(
        cls, spec: ScenarioSpec, store: SharedRelationStore
    ) -> "ServingSession":
        """The offline phase: build, compile, predict, publish, warm."""
        start = time.perf_counter()
        session_id = session_id_of(spec)
        with kernels.use_tier(spec.kernels):
            planner, protocol_plan = plan_scenario(spec)
            # Warm solve: caches the elimination order (compiled solver),
            # interns dictionaries, and pins the expected answer digest.
            warm_answer = planner.reference_answer()
        # The zero-execution estimate admission control prices with: on
        # covered cells the *exact* (certified-per-fuzz-run) rounds/bits
        # of the protocol the lab would execute for this spec; otherwise
        # None, and the admission policy decides whether to serve
        # unpriced.
        predicted, note = None, "cell not covered by the symbolic cost model"
        if is_covered(spec):
            try:
                predicted = predicted_metrics(
                    spec, protocol_plan, planner.topology.nodes
                )
                note = None
            except CostModelError as exc:
                note = f"cost model error: {exc}"
        bound = planner.predict()
        payload = publish_query(
            store, session_id, planner.query,
            extra={
                "spec": spec.to_json_dict(),
                "session_id": session_id,
            },
        )
        digest = answer_digest(warm_answer.schema, warm_answer.rows)
        manifest = SessionManifest(
            session_id=session_id,
            spec=spec.to_json_dict(),
            label=spec.label,
            covered=predicted is not None,
            predicted=predicted,
            bounds={
                "upper_rounds": float(bound.upper_rounds),
                "lower_rounds": float(bound.lower_rounds),
            },
            answer_digest=digest,
            answer_rows=len(warm_answer),
            store={
                "segments": [
                    {
                        "name": entry["segment"],
                        "kind": entry["kind"],
                        "relation": name,
                        "rows": entry["rows"],
                    }
                    for name, entry in payload["relations"].items()
                ],
            },
            offline_seconds=time.perf_counter() - start,
            notes={} if note is None else {"cost_model": note},
        )
        return cls(spec, planner, payload, manifest)

    # -- online ----------------------------------------------------------
    @property
    def session_id(self) -> str:
        return self.manifest.session_id

    def execute_online(self):
        """The kernel-only hot path: solve over the warm factors.

        Returns the answer :class:`~repro.semiring.factor.Factor` —
        byte-identical (schema, rows, values) to the protocol answer
        :meth:`Planner.execute` produces for the same spec.
        """
        try:
            return solve_scenario(self.spec, self.planner.query)
        except ServeError:
            raise
        except Exception as exc:
            raise ServeError(
                "execution-failed",
                f"online solve failed for {self.session_id}: {exc}",
                {"session_id": self.session_id},
            ) from exc

    def online_answer(self) -> Dict[str, Any]:
        """One served answer (:func:`answer_payload` of the online solve)."""
        answer = self.execute_online()
        return answer_payload(answer.schema, answer.rows)
