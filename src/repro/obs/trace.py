"""The trace core: typed protocol events behind a zero-overhead interface.

A :class:`Tracer` is injected into the engines
(:meth:`repro.network.simulator.Simulator.run`,
:func:`repro.network.program.run_program`) and the planner
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
* ``RoundStartEvent`` / ``RoundEndEvent`` — round boundaries; the end
  event carries the round's total bits/messages.
* ``SendEvent`` — one stream's traffic on one directed edge in one
  round (the generator engine coalesces its messages — a stream's bit
  frame and any EOS — to one event per ``(edge, tag)`` per round; the
  compiled engine's blocks map one-to-one).  Replaying these events *is* the accounting.
* ``ComputeStepEvent`` — a free local computation (compiled engine).
* ``CycleFastForwardEvent`` — the compiled engine jumped ``repeats``
  whole cycles of ``period`` rounds (steady bit streams repeat every
  round, so ``period`` is 1); carries the cycle's per-round send
  signatures so replay can apply the jump arithmetically, exactly like
  the engine did.
* ``PhaseTimerEvent`` — wall-clock of one pipeline phase
  (``plan_compile`` / ``intern`` / ``solve`` / ``protocol``); volatile
  by nature, ignored by replay.

Deep layers without a ``tracer=`` parameter (the FAQ executor's
dictionary interning) read the module-level *active* tracer, which
:meth:`repro.core.planner.Planner.execute` binds for the duration of a
run via :func:`activate`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: The pipeline phases a :class:`PhaseTimerEvent` may name.
PHASES = ("plan_compile", "intern", "protocol", "solve")


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
class RoundEndEvent:
    round: int
    bits: int
    messages: int


@dataclass(frozen=True)
class SendEvent:
    """One stream's traffic over one directed edge in one round.

    ``kind`` is the block vocabulary of the compiled engine (``bits``
    for a stream's frame, ``eos``) or ``"msg"`` for generator-engine
    messages; ``count`` and ``messages`` are the frames (generator-engine
    message equivalents) the event covers.
    """

    round: int
    src: str
    dst: str
    bits: int
    tag: str = ""
    kind: str = "msg"
    count: int = 1
    messages: int = 1


@dataclass(frozen=True)
class ComputeStepEvent:
    round: int
    node: str
    label: str


@dataclass(frozen=True)
class CycleFastForwardEvent:
    """The compiled engine replayed ``repeats`` cycles arithmetically.

    ``cycle`` holds one tuple per cycle round, each a tuple of
    ``(src, dst, tag, kind, bits)`` send signatures — exactly the
    traffic each skipped round would have carried.  ``start_round`` is
    the last *stepped* round (the cycle's reference window ends there);
    ``end_round = start_round + repeats * period`` is the engine's
    post-jump round counter.  ``rounds_skipped == repeats * period``.
    """

    start_round: int
    period: int
    repeats: int
    rounds_skipped: int
    end_round: int
    cycle: Tuple[Tuple[Tuple[str, str, str, str, int], ...], ...]


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

    def round_end(self, round_no: int, bits: int, messages: int) -> None:
        """The round's sends are final; ``bits``/``messages`` are its totals."""

    def send(
        self,
        round_no: int,
        src: str,
        dst: str,
        bits: int,
        tag: str = "",
        kind: str = "msg",
        count: int = 1,
        messages: int = 1,
    ) -> None:
        """Traffic on the directed edge ``src -> dst`` this round."""

    def compute_step(self, round_no: int, node: str, label: str) -> None:
        """A free local computation ran (compiled engine only)."""

    def cycle_fast_forward(
        self,
        start_round: int,
        period: int,
        repeats: int,
        end_round: int,
        cycle: Sequence[Tuple[Tuple[str, str, str, str, int], ...]],
    ) -> None:
        """The engine jumped ``repeats`` cycles of ``period`` rounds."""

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

    def round_end(self, round_no: int, bits: int, messages: int) -> None:
        self.events.append(RoundEndEvent(round_no, bits, messages))

    def send(
        self,
        round_no: int,
        src: str,
        dst: str,
        bits: int,
        tag: str = "",
        kind: str = "msg",
        count: int = 1,
        messages: int = 1,
    ) -> None:
        self.events.append(
            SendEvent(round_no, src, dst, bits, tag, kind, count, messages)
        )

    def compute_step(self, round_no: int, node: str, label: str) -> None:
        self.events.append(ComputeStepEvent(round_no, node, label))

    def cycle_fast_forward(
        self,
        start_round: int,
        period: int,
        repeats: int,
        end_round: int,
        cycle: Sequence[Tuple[Tuple[str, str, str, str, int], ...]],
    ) -> None:
        self.events.append(
            CycleFastForwardEvent(
                start_round=start_round,
                period=period,
                repeats=repeats,
                rounds_skipped=repeats * period,
                end_round=end_round,
                cycle=tuple(tuple(r) for r in cycle),
            )
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


# ---------------------------------------------------------------------------
# The active tracer (for layers without a tracer= parameter)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    """The tracer bound by the innermost :func:`activate`, or ``None``."""
    return _ACTIVE


@contextmanager
def activate(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Bind ``tracer`` as the process's active tracer for the block.

    Used by :meth:`repro.core.planner.Planner.execute` so deep layers
    (the FAQ executor's dictionary interning) can emit ``PhaseTimer``
    events without threading a parameter through every call site.
    Nested activations restore the previous binding on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = normalize(tracer)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
