"""The protocol's schedule: what every node runs, in what order, on which links.

Model 2.1 makes the protocol common knowledge, so its shape is plan data
like the packing.  Per node, a :class:`Schedule` lists the Lemma 4.1
stars the node takes part in, bottom-up — in each, one scatter and one
⊗-convergecast stream per Theorem 3.11 packing tree holding the node,
and whether it is the packing root or a terminal — then its Lemma 3.1
route stream, if any, and whether it is the output player.  A stream is
a tag and the node's tree neighbours (parent, sorted children); the tag
scheme (``s{star}:bc:t{tree}``, ``s{star}:cc:t{tree}``, ``final``) is
written here and nowhere else.

The generator engine and the count plane read their op order from
:func:`build_schedule`, and the two fixed charges of the wire format
from here; each keeps its own round semantics (how many bits an op puts
on a link in a round), so each is still the other's independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Collection, Dict, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple,
)

#: Bits charged for a count header (a 32-bit length prefix).
HEADER_BITS = 32
#: Bits charged for an end-of-stream marker.
EOS_BITS = 1

#: Parent pointers of one tree (the root maps to ``None``).
Parents = Mapping[str, Optional[str]]


class Stream(NamedTuple):
    """One node's end of a tree stream."""

    tag: str
    parent: Optional[str]
    children: Tuple[str, ...]


class StarShape(NamedTuple):
    """One star as :func:`build_schedule` reads it (a caller that scores
    nothing, like the count plane, may leave the terminals out)."""

    star_id: int
    trees: Sequence[Parents]
    terminals: Collection[str] = ()


@dataclass(frozen=True)
class StarRole:
    """A node's part in one star: parallel streams over the packing
    trees that hold it, ``trees[i]`` being the tree of ``scatter[i]``
    and ``combine[i]``."""

    star_id: int
    trees: Tuple[int, ...]
    scatter: Tuple[Stream, ...]
    combine: Tuple[Stream, ...]
    is_root: bool
    is_terminal: bool


@dataclass(frozen=True)
class NodeSchedule:
    """One node's program shape: its stars bottom-up, then its route."""

    stars: Tuple[StarRole, ...] = ()
    route: Optional[Stream] = None
    is_output: bool = False


@dataclass(frozen=True)
class Schedule:
    """Every node's :class:`NodeSchedule`, in node order (read-only)."""

    nodes: Dict[str, NodeSchedule]

    def __getitem__(self, node: str) -> NodeSchedule:
        return self.nodes[node]

    def children(self, node: str, star_id: int, tree: int) -> Tuple[str, ...]:
        """``node``'s children in packing tree ``tree`` of star ``star_id``."""
        for role in self.nodes[node].stars:
            if role.star_id == star_id:
                return role.combine[role.trees.index(tree)].children
        raise KeyError((node, star_id, tree))


def _children(parents: Parents) -> Dict[str, Tuple[str, ...]]:
    """``node -> sorted children`` of a tree given as parent pointers."""
    children: Dict[str, List[str]] = {}
    for node, parent in parents.items():
        if parent is not None:
            children.setdefault(parent, []).append(node)
    return {node: tuple(sorted(kids)) for node, kids in children.items()}


def packing_streams(
    prefix: str, trees: Sequence[Parents]
) -> Dict[str, Tuple[Tuple[int, Stream], ...]]:
    """Every packing node's ``(tree, stream)`` pairs in tree order; the
    stream of tree ``j`` is tagged ``{prefix}:t{j}``."""
    streams: Dict[str, List[Tuple[int, Stream]]] = {}
    for j, parents in enumerate(trees):
        children = _children(parents)
        for node, parent in parents.items():
            streams.setdefault(node, []).append(
                (j, Stream(f"{prefix}:t{j}", parent, children.get(node, ())))
            )
    return {node: tuple(pairs) for node, pairs in streams.items()}


def build_schedule(
    nodes: Iterable[str],
    stars: Sequence[StarShape],
    route_parents: Parents,
    output_player: str,
) -> Schedule:
    """Build every node's schedule.

    Args:
        nodes: The nodes to schedule, in the order the schedule keeps.
        stars: The star phases bottom-up.
        route_parents: The final route's parent pointers toward the
            output player; a node runs a route stream iff it is a key.
    """
    roles: Dict[str, List[StarRole]] = {}
    for star in stars:
        sid = star.star_id
        combine = packing_streams(f"s{sid}:cc", star.trees)
        for node, pairs in packing_streams(f"s{sid}:bc", star.trees).items():
            roles.setdefault(node, []).append(StarRole(
                star_id=sid,
                trees=tuple(j for j, _stream in pairs),
                scatter=tuple(stream for _j, stream in pairs),
                combine=tuple(stream for _j, stream in combine[node]),
                is_root=pairs[0][1].parent is None,
                is_terminal=node in star.terminals,
            ))
    route_children = _children(route_parents)
    return Schedule({
        node: NodeSchedule(
            stars=tuple(roles.get(node, ())),
            route=(
                Stream(
                    "final", route_parents[node], route_children.get(node, ())
                )
                if node in route_parents else None
            ),
            is_output=node == output_player,
        )
        for node in nodes
    })
