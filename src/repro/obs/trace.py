"""The trace core: typed protocol events behind a zero-overhead interface.

A :class:`Tracer` is injected into the round clocks
(:meth:`repro.network.simulator.Simulator.run`, and the count plane a
compiled run reads its rounds from,
:func:`repro.protocols.timing.run_timing`) and the planner
(:meth:`repro.core.planner.Planner.execute`) through a single optional
``tracer=`` parameter.  The contract that keeps the hot path fast:

* The base :class:`Tracer` is the **no-op**: ``enabled`` is False and
  every method does nothing.  Engines call :func:`normalize` once per
  run, which maps ``None`` *and* any disabled tracer to ``None`` — the
  per-round/per-message cost of tracing-off is therefore exactly one
  ``is not None`` check, never a method call.
* :class:`RecordingTracer` (``enabled`` True) appends one frozen
  dataclass per event to ``events``.  Event payloads are plain Python
  scalars/tuples, so traces serialize losslessly
  (:mod:`repro.obs.export`) and replay exactly
  (:mod:`repro.obs.verify`).

Event vocabulary (one dataclass each):

* ``RunStartEvent`` — engine name, capacity ``B``, participating nodes.
* ``RoundStartEvent`` — a stepped round began.
* ``SendEvent`` — one stream's bits on one directed edge in one round
  (the generator engine coalesces its messages — a stream's bit frame
  and any EOS — to one event per ``(edge, tag)`` per round; the compiled
  engine's blocks map one-to-one).  Replaying these events *is* the
  accounting.
* ``ComputeStepEvent`` — a free local computation (compiled run).
* ``CycleFastForwardEvent`` — a compiled run's clock, the count plane,
  skipped rounds in which every running stream sleeps (each repeats
  its last stepped round); carries that round's sends so replay can
  apply the skip arithmetically, exactly like the count plane did.
* ``PhaseTimerEvent`` — wall-clock of one pipeline phase
  (``plan_compile`` / ``solve`` / ``protocol``); volatile by nature,
  ignored by replay.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The pipeline phases a :class:`PhaseTimerEvent` may name.
PHASES = ("plan_compile", "protocol", "solve")


@dataclass(frozen=True)
class RunStartEvent:
    """The run's static context: engine, capacity and participants."""

    engine: str
    capacity_bits: int
    nodes: Tuple[str, ...]


@dataclass(frozen=True)
class RoundStartEvent:
    round: int


@dataclass(frozen=True)
class SendEvent:
    """One stream's bits over one directed edge in one round.

    ``kind`` is the block vocabulary of a compiled run (``bits``
    for a stream's frame, ``eos``) or ``"msg"`` for generator-engine
    messages.
    """

    round: int
    src: str
    dst: str
    bits: int
    tag: str = ""
    kind: str = "msg"


@dataclass(frozen=True)
class ComputeStepEvent:
    round: int
    node: str
    label: str


@dataclass(frozen=True)
class CycleFastForwardEvent:
    """The count plane, a compiled run's clock, skipped ``repeats``
    rounds in which every running stream sleeps.

    ``sends`` holds the ``(src, dst, tag, kind, bits)`` of every block
    of ``start_round``, the last *stepped* round — exactly the traffic
    each skipped round would have carried.  The skipped rounds are
    ``start_round + 1 .. end_round``, so ``end_round = start_round +
    repeats`` is the count plane's round counter after the skip.
    """

    start_round: int
    repeats: int
    end_round: int
    sends: Tuple[Tuple[str, str, str, str, int], ...]

    def link_bits(self) -> Dict[Tuple[str, str], int]:
        """Bits per directed link in *one* skipped round, in send order."""
        links: Dict[Tuple[str, str], int] = {}
        for src, dst, _tag, _kind, bits in self.sends:
            links[(src, dst)] = links.get((src, dst), 0) + bits
        return links


@dataclass(frozen=True)
class PhaseTimerEvent:
    phase: str
    seconds: float


TraceEvent = Any  # any of the dataclasses above


def event_to_json_dict(event: TraceEvent) -> Dict[str, Any]:
    """A JSON-ready dict with a ``type`` discriminator."""
    payload = asdict(event)
    payload["type"] = type(event).__name__.replace("Event", "")
    return payload


class Tracer:
    """The no-op tracer — the default, and the cost model for "off".

    Every hook is a no-op and ``enabled`` is False; engines normalize
    disabled tracers to ``None`` before their round loop, so passing
    this class (or ``None``) costs one attribute check per guard site.
    Subclass and set ``enabled = True`` to receive events.
    """

    enabled = False

    def run_start(
        self, engine: str, capacity_bits: int, nodes: Sequence[str]
    ) -> None:
        """The run's static context, emitted once before round 1."""

    def round_start(self, round_no: int) -> None:
        """A synchronous round began."""

    def send(
        self,
        round_no: int,
        src: str,
        dst: str,
        bits: int,
        tag: str = "",
        kind: str = "msg",
    ) -> None:
        """Traffic on the directed edge ``src -> dst`` this round."""

    def compute_step(self, round_no: int, node: str, label: str) -> None:
        """A free local computation ran (compiled runs only)."""

    def cycle_fast_forward(
        self,
        start_round: int,
        repeats: int,
        end_round: int,
        sends: Sequence[Tuple[str, str, str, str, int]],
    ) -> None:
        """The count plane skipped ``repeats`` rounds repeating
        ``start_round``."""

    def phase_timer(self, phase: str, seconds: float) -> None:
        """One pipeline phase's wall-clock (volatile; never replayed)."""


class RecordingTracer(Tracer):
    """Records every event, in emission order, as typed dataclasses."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def run_start(
        self, engine: str, capacity_bits: int, nodes: Sequence[str]
    ) -> None:
        self.events.append(
            RunStartEvent(engine, int(capacity_bits), tuple(nodes))
        )

    def round_start(self, round_no: int) -> None:
        self.events.append(RoundStartEvent(round_no))

    def send(
        self,
        round_no: int,
        src: str,
        dst: str,
        bits: int,
        tag: str = "",
        kind: str = "msg",
    ) -> None:
        self.events.append(SendEvent(round_no, src, dst, bits, tag, kind))

    def compute_step(self, round_no: int, node: str, label: str) -> None:
        self.events.append(ComputeStepEvent(round_no, node, label))

    def cycle_fast_forward(
        self,
        start_round: int,
        repeats: int,
        end_round: int,
        sends: Sequence[Tuple[str, str, str, str, int]],
    ) -> None:
        self.events.append(
            CycleFastForwardEvent(start_round, repeats, end_round, tuple(sends))
        )

    def phase_timer(self, phase: str, seconds: float) -> None:
        self.events.append(PhaseTimerEvent(phase, float(seconds)))


def normalize(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Map ``None`` and any disabled tracer to ``None``.

    Engines call this once per run so their loops guard with a single
    ``is not None`` — a disabled tracer is then *structurally* free, not
    just cheap (tests assert this is what makes the <2% overhead claim
    hold by construction).
    """
    if tracer is None or not getattr(tracer, "enabled", False):
        return None
    return tracer
