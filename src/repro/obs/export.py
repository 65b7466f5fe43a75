"""Trace serialization: JSONL, Chrome trace-event JSON, terminal timeline.

Three views of one event stream:

* :func:`events_to_jsonl` — the lossless archival form, one JSON object
  per event with a ``type`` discriminator (loadable without this
  package).
* :func:`events_to_chrome_trace` — the Chrome trace-event format
  (https://ui.perfetto.dev loads it directly): one track per node under
  the ``nodes`` process, one per *directed* edge under ``links``, plus
  an ``engine`` track for fast-forward jumps.  One protocol round maps
  to 1 ms of trace time; a send's slice duration is its share of the
  per-round capacity ``B``, so a full link renders as a solid bar.  A
  jump puts one slice spanning its skipped rounds on every link it
  carries, so each link track's ``args.bits`` sum to the link's bits.
* :func:`format_timeline` — the paper's Model 2.1 picture in a
  terminal: per-round per-link bit loads, with fast-forwarded stretches
  compressed to one annotated line (exactly what the engine did), and
  per-link totals that count the jumped rounds too.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .trace import (
    ComputeStepEvent,
    CycleFastForwardEvent,
    PhaseTimerEvent,
    RunStartEvent,
    SendEvent,
    TraceEvent,
    event_to_json_dict,
)

#: Trace-time microseconds one protocol round spans in Chrome traces.
ROUND_US = 1000


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """One canonical JSON object per line, emission order preserved."""
    return "".join(
        json.dumps(event_to_json_dict(e), sort_keys=True, separators=(",", ":"))
        + "\n"
        for e in events
    )


def _link_label(src: str, dst: str) -> str:
    return f"{src}->{dst}"


def _collect_links(events: Sequence[TraceEvent]) -> List[Tuple[str, str]]:
    """Every directed edge the trace touched, sorted."""
    links = set()
    for event in events:
        if isinstance(event, SendEvent):
            links.add((event.src, event.dst))
        elif isinstance(event, CycleFastForwardEvent):
            links.update(event.link_bits())
    return sorted(links)


def events_to_chrome_trace(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """The Chrome trace-event JSON payload (Perfetto-loadable).

    Shape contract (validated by the CI export smoke): a dict with a
    non-empty ``traceEvents`` list whose entries all carry ``ph``,
    ``pid``, ``tid`` and ``name``, plus ``displayTimeUnit``.
    """
    run: Optional[RunStartEvent] = next(
        (e for e in events if isinstance(e, RunStartEvent)), None
    )
    capacity = run.capacity_bits if run is not None else 0
    nodes = list(run.nodes) if run is not None else []
    links = _collect_links(events)
    node_tid = {node: i + 1 for i, node in enumerate(sorted(nodes))}
    link_tid = {link: i + 1 for i, link in enumerate(links)}

    trace: List[Dict[str, Any]] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "nodes"}},
        {"ph": "M", "pid": 2, "tid": 0, "name": "process_name",
         "args": {"name": "links"}},
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
         "args": {"name": "engine"}},
    ]
    for node, tid in sorted(node_tid.items()):
        trace.append(
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
             "args": {"name": node}}
        )
    for link, tid in link_tid.items():
        trace.append(
            {"ph": "M", "pid": 2, "tid": tid, "name": "thread_name",
             "args": {"name": _link_label(*link)}}
        )

    def send_duration(bits: int) -> int:
        if capacity <= 0:
            return ROUND_US
        return max(1, round(ROUND_US * min(1.0, bits / capacity)))

    for event in events:
        if isinstance(event, SendEvent):
            trace.append(
                {
                    "ph": "X",
                    "pid": 2,
                    "tid": link_tid[(event.src, event.dst)],
                    "ts": event.round * ROUND_US,
                    "dur": send_duration(event.bits),
                    "name": f"{event.tag or event.kind} {event.bits}b",
                    "args": {
                        "round": event.round,
                        "bits": event.bits,
                        "tag": event.tag,
                        "kind": event.kind,
                    },
                }
            )
        elif isinstance(event, ComputeStepEvent):
            trace.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": node_tid.get(event.node, 0),
                    "ts": event.round * ROUND_US,
                    "dur": ROUND_US,
                    "name": event.label,
                    "args": {"round": event.round, "node": event.node},
                }
            )
        elif isinstance(event, CycleFastForwardEvent):
            # The skipped rounds start_round+1 .. end_round, on the
            # engine track and on every link the replayed round loads.
            span = {
                "ph": "X",
                "ts": (event.start_round + 1) * ROUND_US,
                "dur": event.repeats * ROUND_US,
            }
            rounds = {
                "start_round": event.start_round,
                "end_round": event.end_round,
                "repeats": event.repeats,
            }
            trace.append(
                {**span, "pid": 1, "tid": 0,
                 "name": f"fast-forward x{event.repeats}", "args": rounds}
            )
            for link, bits in event.link_bits().items():
                trace.append(
                    {**span, "pid": 2, "tid": link_tid[link],
                     "name": f"fast-forward x{event.repeats} {bits}b",
                     "args": {**rounds, "bits": event.repeats * bits}}
                )
        elif isinstance(event, PhaseTimerEvent):
            trace.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": 0,
                    "ts": 0,
                    "dur": max(1, round(event.seconds * 1_000_000)),
                    "name": f"phase:{event.phase}",
                    "args": {"seconds": event.seconds},
                }
            )

    payload: Dict[str, Any] = {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
    }
    if run is not None:
        payload["otherData"] = {
            "engine": run.engine,
            "capacity_bits": run.capacity_bits,
            "round_us": ROUND_US,
        }
    return payload


# ---------------------------------------------------------------------------
# Terminal timeline
# ---------------------------------------------------------------------------


def format_timeline(
    events: Sequence[TraceEvent],
    max_rounds: int = 24,
    max_links: int = 8,
) -> str:
    """A round-by-round link-utilization table for terminals.

    One row per *stepped* round (bits per directed link), fast-forwarded
    stretches compressed to one annotated line; the per-link totals
    count every round, jumped ones included.  When more than
    ``max_rounds`` stepped rounds or ``max_links`` links exist, the
    middle rounds / the quietest links are elided with an explicit note
    — silence must never read as coverage.
    """
    run: Optional[RunStartEvent] = next(
        (e for e in events if isinstance(e, RunStartEvent)), None
    )
    per_round: Dict[int, Dict[Tuple[str, str], int]] = {}
    link_totals: Dict[Tuple[str, str], int] = {}
    jumps: Dict[int, CycleFastForwardEvent] = {}
    for event in events:
        if isinstance(event, SendEvent):
            link = (event.src, event.dst)
            row = per_round.setdefault(event.round, {})
            row[link] = row.get(link, 0) + event.bits
            link_totals[link] = link_totals.get(link, 0) + event.bits
        elif isinstance(event, CycleFastForwardEvent):
            jumps[event.start_round] = event
            for link, bits in event.link_bits().items():
                link_totals[link] = (
                    link_totals.get(link, 0) + event.repeats * bits
                )

    header_bits = []
    if run is not None:
        header_bits.append(
            f"engine={run.engine} B={run.capacity_bits} bits/round"
        )
    if not per_round:
        prefix = f"({'; '.join(header_bits)}) " if header_bits else ""
        return f"{prefix}no traffic traced"

    links = sorted(link_totals, key=lambda l: (-link_totals[l], l))
    elided_links = 0
    if len(links) > max_links:
        elided_links = len(links) - max_links
        links = links[:max_links]
    links = sorted(links)

    labels = [_link_label(*link) for link in links]
    widths = [max(len(label), 6) for label in labels]
    lines = []
    if header_bits:
        lines.append("; ".join(header_bits))
    lines.append(
        "round | " + " | ".join(
            f"{label:>{w}}" for label, w in zip(labels, widths)
        )
    )
    lines.append("-" * len(lines[-1]))

    rounds = sorted(per_round)
    shown = rounds
    elided_note = None
    if len(rounds) > max_rounds:
        head = rounds[: max_rounds // 2]
        tail = rounds[-(max_rounds - len(head)):]
        elided_note = len(rounds) - len(head) - len(tail)
        shown = head + [None] + tail  # type: ignore[list-item]

    def row_line(round_no: int) -> str:
        row = per_round.get(round_no, {})
        cells = " | ".join(
            f"{row.get(link, 0) or '-':>{w}}"
            for link, w in zip(links, widths)
        )
        return f"{round_no:>5} | {cells}"

    for round_no in shown:
        if round_no is None:
            lines.append(f"  ... {elided_note} round(s) elided ...")
            continue
        lines.append(row_line(round_no))
        jump = jumps.get(round_no)
        if jump is not None:
            lines.append(
                f"  >> fast-forward x{jump.repeats}: "
                f"rounds {jump.start_round + 1}-{jump.end_round} replayed "
                f"arithmetically"
            )
    if elided_links:
        lines.append(
            f"  ({elided_links} quieter link(s) elided; "
            f"totals cover every link)"
        )
    busiest = max(link_totals, key=lambda l: (link_totals[l], l))
    lines.append(
        f"totals: {sum(link_totals.values())} bits over "
        f"{len(link_totals)} link(s); busiest {_link_label(*busiest)} "
        f"with {link_totals[busiest]} bits"
    )
    return "\n".join(lines)
