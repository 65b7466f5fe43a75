"""Network topologies ``G = (V, E)`` — Model 2.1's communication graph.

A :class:`Topology` is a simple undirected graph of *players* with
per-edge, per-direction, per-round bit capacities.  Builders cover the
topologies the paper discusses: the line ``G1`` and clique ``G2`` of
Figure 1, stars, rings, grids, balanced trees (sensor networks,
Appendix A.4), random regular graphs (MPC-style well-connected networks)
and barbells (small-cut adversarial cases).

``G`` is one ordered adjacency dict.  Routes, Steiner packings and min
cuts break their ties by its iteration order, so that order is part of
the result: it is the order ``networkx.Graph.add_edge`` would have
produced from the same edge sequence, and the seeded builders reproduce
networkx 3.6.1's generators draw for draw without calling them (the
goldens in ``tests/golden/topologies.json`` were written through
networkx).
"""

from __future__ import annotations

import random
from typing import (
    Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Set,
    Tuple,
)


def insertion_order_edges(
    adjacency: Mapping[Hashable, Iterable[Hashable]]
) -> Iterator[Tuple[Hashable, Hashable]]:
    """Each undirected edge of an adjacency mapping once, self-loops
    included, in the order of ``nx.Graph.edges``: by first endpoint,
    then by its neighbours."""
    done = set()
    for u, nbrs in adjacency.items():
        for v in nbrs:
            if v not in done:
                yield u, v
        done.add(u)


class Topology:
    """An undirected communication topology over named players.

    Args:
        edges: Iterable of ``(u, v)`` pairs.
        name: Optional label used in reports.

    Attributes:
        adjacency: ``{player: {neighbour: None}}``; new players and new
            neighbours go last, an edge given twice keeps its place.
    """

    def __init__(self, edges: Iterable[Tuple[str, str]], name: str = "G") -> None:
        self.adjacency: Dict[str, Dict[str, None]] = {}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r} is not allowed")
            to_u = self.adjacency.setdefault(u, {})
            to_v = self.adjacency.setdefault(v, {})
            to_u[v] = to_v[u] = None
        if not self.adjacency:
            raise ValueError("topology must have at least one edge")
        self.name = name
        self._sp_cache: Dict[str, Dict[str, List[str]]] = {}

    def _require(self, player: str) -> None:
        if player not in self.adjacency:
            raise ValueError(f"player not in topology: {player!r}")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        return sorted(self.adjacency)

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adjacency.values())) // 2

    def edges(self) -> List[Tuple[str, str]]:
        return sorted(
            (u, v) for u, nbrs in self.adjacency.items() for v in nbrs if u < v
        )

    def neighbors(self, node: str) -> List[str]:
        self._require(node)
        return sorted(self.adjacency[node])

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.adjacency.get(u, ())

    def degree(self, node: str) -> int:
        self._require(node)
        return len(self.adjacency[node])

    def is_connected(self) -> bool:
        return len(self._paths_from(next(iter(self.adjacency)))) == self.num_nodes

    def __contains__(self, node: str) -> bool:
        return node in self.adjacency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Topology {self.name} |V|={self.num_nodes} |E|={self.num_edges}>"

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def _paths_from(self, src: str) -> Dict[str, List[str]]:
        """A shortest path to every player reachable from ``src``,
        cached per source.  Breadth first over ``adjacency``: the first
        parent to reach a player keeps it (the paths of
        ``nx.single_source_shortest_path``)."""
        paths = self._sp_cache.get(src)
        if paths is None:
            self._require(src)
            paths = self._sp_cache[src] = {src: [src]}
            queue = [src]
            for node in queue:
                for nb in self.adjacency[node]:
                    if nb not in paths:
                        paths[nb] = paths[node] + [nb]
                        queue.append(nb)
        return paths

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """A shortest path (list of nodes, inclusive).

        Raises:
            ValueError: if either player is not in G or G does not
                connect them.
        """
        path = self._paths_from(src).get(dst)
        if path is None:
            self._require(dst)
            raise ValueError(f"no path between players {src!r} and {dst!r}")
        return path

    def distance(self, src: str, dst: str) -> int:
        return len(self.shortest_path(src, dst)) - 1

    def diameter(self, among: Optional[Sequence[str]] = None) -> int:
        """Diameter of G, or of the distances among a terminal subset."""
        targets = list(among) if among is not None else self.nodes
        return max(
            self.distance(u, v) for u in targets for v in targets
        )

    def bfs_tree(self, root: str) -> Dict[str, Optional[str]]:
        """Parent map of a BFS tree rooted at ``root`` (root maps to None)."""
        parents: Dict[str, Optional[str]] = {root: None}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.neighbors(u):
                    if v not in parents:
                        parents[v] = u
                        nxt.append(v)
            frontier = nxt
        return parents

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @staticmethod
    def player(i: int) -> str:
        return f"P{i}"

    @classmethod
    def line(cls, n: int, name: str = "line") -> "Topology":
        """The line ``G1`` of Figure 1: P0 - P1 - ... - P(n-1)."""
        if n < 2:
            raise ValueError("a line needs at least two nodes")
        return cls(
            ((cls.player(i), cls.player(i + 1)) for i in range(n - 1)),
            name=f"{name}({n})",
        )

    @classmethod
    def clique(cls, n: int, name: str = "clique") -> "Topology":
        """The clique ``G2`` of Figure 1."""
        if n < 2:
            raise ValueError("a clique needs at least two nodes")
        return cls(
            (
                (cls.player(i), cls.player(j))
                for i in range(n)
                for j in range(i + 1, n)
            ),
            name=f"{name}({n})",
        )

    @classmethod
    def star(cls, n_leaves: int, name: str = "star") -> "Topology":
        """A hub P0 with ``n_leaves`` leaves."""
        if n_leaves < 1:
            raise ValueError("a star needs at least one leaf")
        return cls(
            ((cls.player(0), cls.player(i + 1)) for i in range(n_leaves)),
            name=f"{name}({n_leaves})",
        )

    @classmethod
    def ring(cls, n: int, name: str = "ring") -> "Topology":
        if n < 3:
            raise ValueError("a ring needs at least three nodes")
        return cls(
            ((cls.player(i), cls.player((i + 1) % n)) for i in range(n)),
            name=f"{name}({n})",
        )

    @classmethod
    def grid(cls, rows: int, cols: int, name: str = "grid") -> "Topology":
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise ValueError("grid needs at least two nodes")
        edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((f"P{r}_{c}", f"P{r}_{c + 1}"))
                if r + 1 < rows:
                    edges.append((f"P{r}_{c}", f"P{r + 1}_{c}"))
        return cls(edges, name=f"{name}({rows}x{cols})")

    @classmethod
    def balanced_tree(cls, branching: int, depth: int, name: str = "tree") -> "Topology":
        """A sensor-network-style balanced tree (Appendix A.4): player
        ``t``'s parent is ``(t - 1) // branching``, the edges in the order
        of ``nx.balanced_tree(branching, depth).edges`` (a breadth-first
        parent queue)."""
        if branching < 1 or depth < 1:
            raise ValueError(
                f"a balanced tree needs branching >= 1 and depth >= 1; got "
                f"(branching, depth) = ({branching}, {depth})"
            )
        n = sum(branching ** level for level in range(depth + 1))
        return cls(
            (
                (cls.player((t - 1) // branching), cls.player(t))
                for t in range(1, n)
            ),
            name=f"{name}(b{branching},d{depth})",
        )

    @classmethod
    def random_regular(
        cls, degree: int, n: int, seed: int = 0, name: str = "regular"
    ) -> "Topology":
        """A connected random d-regular graph (expander-like): the first
        connected draw of seeds ``seed``, ``seed + 1``, ...

        Raises:
            ValueError: if no ``degree``-regular graph on ``n`` players
                exists.
        """
        if not 0 < degree < n or (n * degree) % 2:
            raise ValueError(
                f"no {degree}-regular graph on {n} players: (degree, n) = "
                f"({degree}, {n}) needs 0 < degree < n and n * degree even"
            )
        for attempt in range(seed, seed + 64):
            topology = cls(
                (
                    (cls.player(u), cls.player(v))
                    for u, v in _random_regular_edges(degree, n, attempt)
                ),
                name=f"{name}(d{degree},n{n})",
            )
            if topology.is_connected():
                return topology
        raise RuntimeError("could not sample a connected regular graph")

    @classmethod
    def hypercube(cls, dim: int, name: str = "hypercube") -> "Topology":
        """The ``dim``-dimensional hypercube: 2^dim players, edges between
        ids differing in exactly one bit (a classic low-diameter,
        high-min-cut datacenter/MPC topology)."""
        if dim < 1:
            raise ValueError("hypercube dimension must be >= 1")
        n = 1 << dim
        return cls(
            (
                (cls.player(i), cls.player(i | (1 << b)))
                for i in range(n)
                for b in range(dim)
                if not i & (1 << b)
            ),
            name=f"{name}(d{dim})",
        )

    @classmethod
    def expander(
        cls, n: int, degree: int, seed: int = 0, name: str = "expander"
    ) -> "Topology":
        """A seeded expander-like topology: a connected random ``degree``-
        regular graph.  A deterministic wrapper over
        :meth:`random_regular` with the argument order and naming the
        experiment lab uses (``n`` first, like every other builder)."""
        return cls.random_regular(degree, n, seed=seed, name=name)

    @classmethod
    def barbell(cls, clique_size: int, path_len: int, name: str = "barbell") -> "Topology":
        """Two cliques joined by a path — a natural small-min-cut topology."""
        if clique_size < 2:
            raise ValueError("clique_size must be >= 2")
        edges = []
        left = [f"L{i}" for i in range(clique_size)]
        right = [f"R{i}" for i in range(clique_size)]
        for side in (left, right):
            for i in range(clique_size):
                for j in range(i + 1, clique_size):
                    edges.append((side[i], side[j]))
        path = [left[0]] + [f"M{i}" for i in range(path_len)] + [right[0]]
        for a, b in zip(path, path[1:]):
            edges.append((a, b))
        return cls(edges, name=f"{name}({clique_size},{path_len})")

    @classmethod
    def two_party(cls, name: str = "edge") -> "Topology":
        """The two-party topology of Model 2.2: a single edge (a, b)."""
        return cls([("a", "b")], name=name)


def _random_regular_edges(degree: int, n: int, seed: int) -> List[Tuple[int, int]]:
    """The edges of networkx 3.6.1's ``random_regular_graph(degree, n,
    seed)`` on nodes ``0..n-1``, in ``Graph.edges`` order: Steger-Wormald
    stub pairing on ``random.Random(seed)``, restarted on the same
    stream until a pairing completes."""
    rng = random.Random(seed)
    edges = None
    while edges is None:
        edges = _pair_stubs(degree, n, rng)
    # networkx adds the edge *set* to a graph holding 0..n-1: its
    # iteration order decides every neighbour order.
    adjacency: Dict[int, Dict[int, None]] = {node: {} for node in range(n)}
    for u, v in edges:
        adjacency[u][v] = adjacency[v][u] = None
    return list(insertion_order_edges(adjacency))


def _pair_stubs(
    degree: int, n: int, rng: random.Random
) -> Optional[Set[Tuple[int, int]]]:
    """One attempt at a simple ``degree``-regular edge set: shuffle the
    stubs, pair them off, keep the pairs that are new edges and reshuffle
    the rest; None when the leftover stubs cannot be paired."""
    edges: Set[Tuple[int, int]] = set()
    stubs = list(range(n)) * degree
    while stubs:
        leftover: Dict[int, int] = {}
        rng.shuffle(stubs)
        stubiter = iter(stubs)
        for s1, s2 in zip(stubiter, stubiter):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover[s1] = leftover.get(s1, 0) + 1
                leftover[s2] = leftover.get(s2, 0) + 1
        if not _pairable(edges, leftover):
            return None
        stubs = [node for node, count in leftover.items() for _ in range(count)]
    return edges


def _pairable(edges: Set[Tuple[int, int]], leftover: Mapping[int, int]) -> bool:
    """Whether some two leftover nodes are not yet joined.  Kept loop for
    loop as networkx's ``_suitable`` (``s1`` stays swapped for the rest
    of its inner loop): the answer decides when the stream restarts."""
    if not leftover:
        return True
    for s1 in leftover:
        for s2 in leftover:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False
