"""Multi-hypergraphs — the query structure ``H = (V, E)`` of the paper.

Hyperedges are *named* (one name per input function ``f_e``), so two
relations over the same attribute set remain distinct — the paper's ``H`` is
explicitly a multi-hypergraph (Section 1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple


class Hypergraph:
    """A multi-hypergraph with named hyperedges.

    Args:
        edges: Mapping from edge name to an iterable of vertices, or an
            iterable of ``(name, vertices)`` pairs.
        vertices: Optional extra isolated vertices (vertices in no edge).
    """

    __slots__ = ("_edges", "_vertices", "_incidence")

    def __init__(
        self,
        edges: Mapping[str, Iterable] | Iterable[Tuple[str, Iterable]] = (),
        vertices: Iterable = (),
    ) -> None:
        items = edges.items() if isinstance(edges, Mapping) else edges
        self._edges: Dict[str, FrozenSet] = {}
        for name, verts in items:
            if name in self._edges:
                raise ValueError(f"duplicate hyperedge name {name!r}")
            fs = frozenset(verts)
            if not fs:
                raise ValueError(f"hyperedge {name!r} is empty")
            self._edges[name] = fs
        self._vertices = set(vertices)
        for fs in self._edges.values():
            self._vertices |= fs
        self._incidence: Dict[object, set] = {v: set() for v in self._vertices}
        for name, fs in self._edges.items():
            for v in fs:
                self._incidence[v].add(name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> set:
        """The vertex set ``V`` (copy)."""
        return set(self._vertices)

    @property
    def edge_names(self) -> Tuple[str, ...]:
        """Hyperedge names in insertion order."""
        return tuple(self._edges)

    def edge(self, name: str) -> FrozenSet:
        """Vertex set of edge ``name``.

        Raises:
            KeyError: if no such edge.
        """
        return self._edges[name]

    def edges(self) -> Iterator[Tuple[str, FrozenSet]]:
        """Iterate ``(name, vertex set)`` pairs."""
        return iter(self._edges.items())

    def edge_sets(self) -> Tuple[FrozenSet, ...]:
        """All hyperedge vertex sets (with multiplicity), insertion order."""
        return tuple(self._edges.values())

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        """``k = |E|`` in the paper's notation."""
        return len(self._edges)

    @property
    def arity(self) -> int:
        """Maximum hyperedge size ``r``; 0 for an edgeless hypergraph."""
        return max((len(e) for e in self._edges.values()), default=0)

    def __contains__(self, vertex) -> bool:
        return vertex in self._vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Hypergraph |V|={self.num_vertices} |E|={self.num_edges} "
            f"arity={self.arity}>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._edges == other._edges and self._vertices == other._vertices

    def __hash__(self):
        raise TypeError("Hypergraph objects are unhashable")

    # ------------------------------------------------------------------
    # Degrees and incidence (Definition 3.2)
    # ------------------------------------------------------------------
    def incident_edges(self, vertex) -> set:
        """Names of edges containing ``vertex``.

        Raises:
            KeyError: if ``vertex`` is not in the hypergraph.
        """
        return set(self._incidence[vertex])

    def degree(self, vertex) -> int:
        """``|{e : e contains vertex}|`` — Definition 3.2."""
        return len(self._incidence[vertex])

    def neighbors(self, vertex) -> set:
        """Vertices sharing at least one hyperedge with ``vertex``."""
        out: set = set()
        for name in self._incidence[vertex]:
            out |= self._edges[name]
        out.discard(vertex)
        return out

    # ------------------------------------------------------------------
    # Sub-structures
    # ------------------------------------------------------------------
    def restrict_edges(self, names: Iterable[str]) -> "Hypergraph":
        """Sub-hypergraph induced by a subset of edge names."""
        names = list(names)
        missing = [n for n in names if n not in self._edges]
        if missing:
            raise KeyError(f"unknown hyperedges: {missing}")
        return Hypergraph({n: self._edges[n] for n in names})

    def induced_subhypergraph(self, verts: Iterable) -> "Hypergraph":
        """Sub-hypergraph on a vertex subset.

        Each hyperedge is intersected with ``verts``; empty intersections are
        dropped.  This is the notion of sub-hypergraph under which
        degeneracy (Definition 3.3) is defined.
        """
        keep = set(verts)
        edges = {}
        for name, fs in self._edges.items():
            inter = fs & keep
            if inter:
                edges[name] = inter
        return Hypergraph(edges, vertices=keep & self._vertices)

    def remove_vertex(self, vertex) -> "Hypergraph":
        """Sub-hypergraph with one vertex removed (edges shrink, may vanish)."""
        return self.induced_subhypergraph(self._vertices - {vertex})

    def is_simple_graph(self) -> bool:
        """True when every hyperedge has arity at most 2 (Section 4)."""
        return self.arity <= 2

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set]:
        """Vertex sets of connected components (via shared hyperedges)."""
        seen: set = set()
        components: list[set] = []
        for start in self._vertices:
            if start in seen:
                continue
            stack = [start]
            comp = set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(self.neighbors(v) - comp)
            seen |= comp
            components.append(comp)
        return components

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def star(cls, num_leaves: int, center: str = "A") -> "Hypergraph":
        """The star query ``H1`` of Figure 1: edges (center, leaf_i)."""
        if num_leaves < 1:
            raise ValueError("a star needs at least one leaf")
        return cls(
            {f"R{i}": (center, f"{center}_{i}") for i in range(num_leaves)}
        )

    @classmethod
    def path(cls, length: int) -> "Hypergraph":
        """A path query: edges (v0,v1), (v1,v2), ..., (v_{length-1}, v_length)."""
        if length < 1:
            raise ValueError("a path needs at least one edge")
        return cls({f"R{i}": (f"v{i}", f"v{i + 1}") for i in range(length)})

    @classmethod
    def cycle(cls, length: int) -> "Hypergraph":
        """A cycle query on ``length`` vertices (length >= 3)."""
        if length < 3:
            raise ValueError("a cycle needs at least three vertices")
        return cls(
            {
                f"R{i}": (f"v{i}", f"v{(i + 1) % length}")
                for i in range(length)
            }
        )

    @classmethod
    def clique(cls, size: int) -> "Hypergraph":
        """The k-clique query of the open problem in Appendix B."""
        if size < 2:
            raise ValueError("a clique needs at least two vertices")
        edges = {}
        idx = 0
        for i in range(size):
            for j in range(i + 1, size):
                edges[f"R{idx}"] = (f"v{i}", f"v{j}")
                idx += 1
        return cls(edges)
