"""Generalized Hypertree Decompositions (Definition 2.4).

A GHD of ``H = (V, E)`` is a triple ``(T, chi, lambda)`` where ``T`` is a
rooted tree, ``chi(v) ⊆ V`` is a bag of vertices per tree node and
``lambda(v) ⊆ E`` a set of hyperedge names per tree node, such that

  1. every hyperedge ``e`` has some node ``v`` with ``e ⊆ chi(v)`` and
     ``e ∈ lambda(v)`` (coverage), and
  2. for every vertex set ``V'``, the nodes whose bags contain ``V'`` form
     a connected subtree (the running intersection property, RIP).

Because subtrees of a tree have the Helly property, checking RIP on
singletons implies it for all ``V'``; :meth:`GHD.validate` exploits this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set

from ..hypergraph import Hypergraph


@dataclass
class GHDNode:
    """One node of a GHD tree.

    Attributes:
        node_id: Unique identifier within the tree.
        chi: The vertex bag ``chi(v)``.
        lam: The hyperedge names ``lambda(v)`` covered at this node.
        parent: Parent node id (None for the root).
        children: Child node ids, in insertion order.
    """

    node_id: str
    chi: FrozenSet
    lam: Set[str] = field(default_factory=set)
    parent: Optional[str] = None
    children: List[str] = field(default_factory=list)


class GHD:
    """A rooted GHD with mutation helpers used by the constructions.

    Args:
        hypergraph: The decomposed query hypergraph.
    """

    def __init__(self, hypergraph: Hypergraph) -> None:
        self.hypergraph = hypergraph
        self.nodes: Dict[str, GHDNode] = {}
        self.root_id: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: str,
        chi: Iterable,
        lam: Iterable[str] = (),
        parent: Optional[str] = None,
    ) -> GHDNode:
        """Add a node; the first node added becomes the root.

        Raises:
            ValueError: on duplicate ids, unknown parents, or adding a
                second parentless node.
        """
        if node_id in self.nodes:
            raise ValueError(f"duplicate GHD node id {node_id!r}")
        if parent is None:
            if self.root_id is not None:
                raise ValueError("GHD already has a root; supply a parent")
            self.root_id = node_id
        elif parent not in self.nodes:
            raise ValueError(f"unknown parent node {parent!r}")
        node = GHDNode(node_id, frozenset(chi), set(lam), parent)
        self.nodes[node_id] = node
        if parent is not None:
            self.nodes[parent].children.append(node_id)
        return node

    def reparent(self, node_id: str, new_parent: str) -> None:
        """Move ``node_id`` (with its subtree) under ``new_parent``.

        Raises:
            ValueError: if the move would create a cycle or detach the root.
        """
        if node_id == self.root_id:
            raise ValueError("cannot reparent the root")
        if new_parent not in self.nodes:
            raise ValueError(f"unknown node {new_parent!r}")
        if new_parent in self.descendants(node_id) or new_parent == node_id:
            raise ValueError("reparenting would create a cycle")
        node = self.nodes[node_id]
        old = self.nodes[node.parent]
        old.children.remove(node_id)
        node.parent = new_parent
        self.nodes[new_parent].children.append(node_id)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    @property
    def root(self) -> GHDNode:
        if self.root_id is None:
            raise ValueError("GHD has no nodes")
        return self.nodes[self.root_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def children(self, node_id: str) -> List[str]:
        return list(self.nodes[node_id].children)

    def parent(self, node_id: str) -> Optional[str]:
        return self.nodes[node_id].parent

    def descendants(self, node_id: str) -> Set[str]:
        """All strict descendants of ``node_id``."""
        out: Set[str] = set()
        stack = list(self.nodes[node_id].children)
        while stack:
            cur = stack.pop()
            out.add(cur)
            stack.extend(self.nodes[cur].children)
        return out

    def ancestors(self, node_id: str) -> List[str]:
        """Ancestors from parent up to the root, in order."""
        out: List[str] = []
        cur = self.nodes[node_id].parent
        while cur is not None:
            out.append(cur)
            cur = self.nodes[cur].parent
        return out

    def postorder(self) -> Iterator[GHDNode]:
        """Bottom-up traversal (children before parents)."""
        order: List[str] = []
        stack = [self.root_id] if self.root_id is not None else []
        while stack:
            cur = stack.pop()
            order.append(cur)
            stack.extend(self.nodes[cur].children)
        for node_id in reversed(order):
            yield self.nodes[node_id]

    def preorder(self) -> Iterator[GHDNode]:
        """Top-down traversal (parents before children)."""
        stack = [self.root_id] if self.root_id is not None else []
        while stack:
            cur = stack.pop()
            yield self.nodes[cur]
            stack.extend(reversed(self.nodes[cur].children))

    def leaves(self) -> List[GHDNode]:
        return [n for n in self.nodes.values() if not n.children]

    def internal_nodes(self) -> List[GHDNode]:
        """Non-leaf nodes — the quantity minimized by Definition 2.9."""
        return [n for n in self.nodes.values() if n.children]

    @property
    def num_internal_nodes(self) -> int:
        """``y(T)``: the number of internal (non-leaf) nodes."""
        return len(self.internal_nodes())

    def depth(self) -> int:
        """Edge-depth of the tree (0 for a single node)."""
        best = 0
        stack = [(self.root_id, 0)] if self.root_id is not None else []
        while stack:
            cur, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in self.nodes[cur].children)
        return best

    # ------------------------------------------------------------------
    # Validation (Definition 2.4)
    # ------------------------------------------------------------------
    def covering_node(self, edge_name: str) -> Optional[str]:
        """Node id covering hyperedge ``edge_name``, if any."""
        edge = self.hypergraph.edge(edge_name)
        for node in self.nodes.values():
            if edge_name in node.lam and edge <= node.chi:
                return node.node_id
        return None

    def validate(self) -> None:
        """Check GHD validity; raise :class:`InvalidGHD` with a reason.

        Checks tree-structure sanity, edge coverage, and RIP (on singleton
        vertex sets, which suffices by the Helly property of subtrees).
        """
        if self.root_id is None:
            raise InvalidGHD("GHD has no nodes")
        # Tree sanity: every non-root reachable from root exactly once.
        reachable = {n.node_id for n in self.preorder()}
        if reachable != set(self.nodes):
            raise InvalidGHD("tree is disconnected or has orphan nodes")
        for name in self.hypergraph.edge_names:
            if self.covering_node(name) is None:
                raise InvalidGHD(f"hyperedge {name!r} is not covered")
        # RIP per vertex.
        for vertex in self.hypergraph.vertices:
            holders = {
                n.node_id for n in self.nodes.values() if vertex in n.chi
            }
            if not holders:
                raise InvalidGHD(f"vertex {vertex!r} appears in no bag")
            # BFS within holders from an arbitrary holder.
            start = next(iter(holders))
            seen = {start}
            stack = [start]
            while stack:
                cur = stack.pop()
                node = self.nodes[cur]
                nbrs = list(node.children)
                if node.parent is not None:
                    nbrs.append(node.parent)
                for nb in nbrs:
                    if nb in holders and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if seen != holders:
                raise InvalidGHD(
                    f"running intersection violated for vertex {vertex!r}"
                )

    def is_valid(self) -> bool:
        try:
            self.validate()
        except InvalidGHD:
            return False
        return True

    def is_reduced(self) -> bool:
        """Reduced-GHD property: each hyperedge has a node with equal bag."""
        for name in self.hypergraph.edge_names:
            edge = self.hypergraph.edge(name)
            if not any(node.chi == edge for node in self.nodes.values()):
                return False
        return True

    def witnesses_acyclicity(self) -> bool:
        """Definition 2.5: every bag is itself a hyperedge of ``H``."""
        edge_sets = set(self.hypergraph.edge_sets())
        return all(node.chi in edge_sets for node in self.nodes.values())

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def rerooted(self, new_root_id: str) -> "GHD":
        """Return a copy rooted at ``new_root_id``.

        RIP and coverage are unrooted properties, so re-rooting a valid GHD
        yields a valid GHD; the paper's Construction 2.8 roots each removed
        tree *arbitrarily*, so minimizing ``y`` legitimately searches over
        rootings.
        """
        if new_root_id not in self.nodes:
            raise ValueError(f"unknown node {new_root_id!r}")
        out = self.copy()
        if new_root_id == out.root_id:
            return out
        # Reverse parent pointers along the path new_root -> old root.
        path = [new_root_id] + out.ancestors(new_root_id)
        for child_id, parent_id in zip(path, path[1:]):
            parent = out.nodes[parent_id]
            parent.children.remove(child_id)
            out.nodes[child_id].children.append(parent_id)
            parent.parent = child_id
        out.nodes[new_root_id].parent = None
        out.root_id = new_root_id
        return out

    def copy(self) -> "GHD":
        out = GHD(self.hypergraph)
        out.root_id = self.root_id
        for node_id, node in self.nodes.items():
            out.nodes[node_id] = GHDNode(
                node_id,
                node.chi,
                set(node.lam),
                node.parent,
                list(node.children),
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GHD nodes={len(self.nodes)} internal={self.num_internal_nodes} "
            f"depth={self.depth()}>"
        )


class InvalidGHD(ValueError):
    """Raised when a decomposition violates Definition 2.4."""
