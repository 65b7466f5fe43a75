"""Trace self-verification: replay the Send events, match the engine.

Instrumentation is not trusted: a tracer that dropped or duplicated an
event would silently lie about where the bits went.  The contract that
keeps it honest is *replayability* — folding a trace's :class:`SendEvent`
and :class:`CycleFastForwardEvent` streams through plain arithmetic must
reproduce the engine's own accounting **exactly** on all four gated
metrics:

* ``rounds`` — the last round with any send (fast-forward jumps extend
  it to their ``end_round``, exactly like the engine's counter);
* ``total_bits`` — the sum of event bits plus ``repeats x`` the jump's
  send bits per jump;
* ``bits_per_edge`` — the per-directed-link map, same fold;
* ``max_edge_bits_per_round`` — the busiest link-round among *stepped*
  rounds.  Jumps never contribute: the engine only fast-forwards a
  round it has already stepped (and traced) twice, so the skipped
  rounds repeat per-link loads that are already in the maximum.

Since the cost model independently predicts the same four metrics and
``repro.lab`` gates measured == predicted on every run, a verified
trace closes the triangle: **measured = predicted = traced**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from .trace import CycleFastForwardEvent, SendEvent, TraceEvent


@dataclass
class ReplayedTotals:
    """The accounting a trace's send stream folds to."""

    rounds: int = 0
    total_bits: int = 0
    bits_per_edge: Dict[Tuple[str, str], int] = field(default_factory=dict)
    max_edge_bits_per_round: int = 0


@dataclass
class TraceVerdict:
    """One trace's replay-vs-measured comparison.

    ``ok`` is True iff all four metrics matched; ``mismatches`` carries
    one human-readable line per disagreement.
    """

    ok: bool
    mismatches: List[str]
    replayed: ReplayedTotals


def replay_trace(events: Iterable[TraceEvent]) -> ReplayedTotals:
    """Fold a trace's sends back into protocol accounting.

    Pure arithmetic over :class:`SendEvent` /
    :class:`CycleFastForwardEvent`; every other event type is ignored
    (round markers and phase timers carry no accounting).
    """
    totals = ReplayedTotals()
    edges = totals.bits_per_edge
    # Per-round per-link loads for the busiest-link metric.  Events
    # arrive round-ordered, so one running window suffices.
    window_round = 0
    window: Dict[Tuple[str, str], int] = {}

    def close_window() -> None:
        if window:
            busiest = max(window.values())
            if busiest > totals.max_edge_bits_per_round:
                totals.max_edge_bits_per_round = busiest
            window.clear()

    for event in events:
        if isinstance(event, SendEvent):
            if event.round != window_round:
                close_window()
                window_round = event.round
            link = (event.src, event.dst)
            edges[link] = edges.get(link, 0) + event.bits
            window[link] = window.get(link, 0) + event.bits
            totals.total_bits += event.bits
            if event.round > totals.rounds:
                totals.rounds = event.round
        elif isinstance(event, CycleFastForwardEvent):
            close_window()
            for link, bits in event.link_bits().items():
                edges[link] = edges.get(link, 0) + event.repeats * bits
                totals.total_bits += event.repeats * bits
            if event.end_round > totals.rounds:
                totals.rounds = event.end_round
    close_window()
    return totals


def verify_trace(events: Iterable[TraceEvent], simulation) -> TraceVerdict:
    """Replay ``events`` and compare against a ``SimulationResult``.

    Any mismatch is a bug — in an engine's accounting, in a trace hook,
    or in this replay — never a tolerable deviation.
    """
    replayed = replay_trace(events)
    mismatches: List[str] = []
    if replayed.rounds != simulation.rounds:
        mismatches.append(
            f"rounds replayed={replayed.rounds} measured={simulation.rounds}"
        )
    if replayed.total_bits != simulation.total_bits:
        mismatches.append(
            f"total_bits replayed={replayed.total_bits} "
            f"measured={simulation.total_bits}"
        )
    if replayed.max_edge_bits_per_round != simulation.max_edge_bits_per_round:
        mismatches.append(
            f"max_edge_bits_per_round "
            f"replayed={replayed.max_edge_bits_per_round} "
            f"measured={simulation.max_edge_bits_per_round}"
        )
    if replayed.bits_per_edge != simulation.bits_per_edge:
        theirs = simulation.bits_per_edge
        differing = sorted(
            link
            for link in set(replayed.bits_per_edge) | set(theirs)
            if replayed.bits_per_edge.get(link, 0) != theirs.get(link, 0)
        )
        sample = ", ".join(
            f"{src}->{dst} replayed={replayed.bits_per_edge.get((src, dst), 0)} "
            f"measured={theirs.get((src, dst), 0)}"
            for src, dst in differing[:3]
        )
        mismatches.append(
            f"bits_per_edge differs on {len(differing)} link(s): {sample}"
        )
    return TraceVerdict(ok=not mismatches, mismatches=mismatches, replayed=replayed)
