"""Conflict-graph data model.

Nodes are non-negative integer ids; edges are unordered pairs of distinct
nodes (in-law conflicts). The graph is simple: no self-loops, no duplicate
edges. Neighbor lists are kept sorted by node id so that every downstream
algorithm iterates deterministically.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort


class ConflictGraph:
    """Undirected simple graph with sorted adjacency and dynamic edge updates.

    The sorted neighbor lists are the only edge store: edge lookups bisect
    them, and each edge appears once in each endpoint's list. A graph made
    by _share() shares the lists copy-on-write; copy() shares nothing.
    Single-writer: mutate from one task only; reads may be shared freely.
    """

    def __init__(self) -> None:
        self._adj: dict[int, list[int]] = {}
        # None: every neighbor list belongs to this graph alone. After
        # _share(), the nodes whose list this graph has copied since.
        self._owned: set[int] | None = None

    @classmethod
    def from_edge_list(cls, text: str) -> "ConflictGraph":
        """Parse the canonical edge-list format.

        Each line is either "u v" (an edge), "node u" (an isolated node
        declaration), a comment starting with "#", or blank. Raises
        ValueError with the offending line number on malformed input,
        self-loops, or duplicate edges.
        """
        g = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if parts[0] == "node":
                    if len(parts) != 2:
                        raise ValueError("expected 'node u'")
                    g.add_node(_parse_node(parts[1]))
                elif len(parts) == 2:
                    g.insert_edge(_parse_node(parts[0]), _parse_node(parts[1]))
                else:
                    raise ValueError("expected 'u v' or 'node u'")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return g

    def add_node(self, v: int) -> None:
        if v < 0:
            raise ValueError(f"node ids must be non-negative, got {v}")
        if v not in self._adj:
            self._adj[v] = []

    def insert_edge(self, u: int, v: int) -> None:
        """Add edge (u, v), creating missing nodes. Rejects self-loops and duplicates."""
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if self.has_edge(u, v):
            raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
        self.add_node(u)
        self.add_node(v)
        if self._owned is not None:
            self._own(u)
            self._own(v)
        insort(self._adj[u], v)
        insort(self._adj[v], u)

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise ValueError(f"no such edge {(min(u, v), max(u, v))}")
        if self._owned is not None:
            self._own(u)
            self._own(v)
        self._adj[u].remove(v)
        self._adj[v].remove(u)

    def _own(self, v: int) -> None:
        """Copy v's neighbor list before its first write since _share()."""
        if v not in self._owned:
            self._adj[v] = list(self._adj[v])
            self._owned.add(v)

    def has_node(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """O(log deg u) bisection of u's neighbor list; False for unknown nodes."""
        nbrs = self._adj.get(u, ())
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def nodes(self) -> list[int]:
        """Nodes in insertion order (deterministic for a fixed construction sequence)."""
        return list(self._adj)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (u, w) with u < w, in ascending order."""
        return [(u, w) for u in sorted(self._adj) for w in self._adj[u] if w > u]

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in ascending id order."""
        return list(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def num_edges(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def __len__(self) -> int:
        return len(self._adj)

    def copy(self) -> "ConflictGraph":
        """Independent copy of every neighbor list: O(n + m)."""
        g = ConflictGraph()
        g._adj = {v: list(nbrs) for v, nbrs in self._adj.items()}
        return g

    def _share(self) -> "ConflictGraph":
        """Copy that shares every neighbor list with self: one O(n) dict copy.

        Afterwards each side copies a shared list before its first write to
        it, so edge updates on either graph never show in the other.
        """
        g = ConflictGraph()
        g._adj = dict(self._adj)
        g._owned = set()
        self._owned = set()
        return g

    def connected_components(self) -> list[list[int]]:
        """Components as sorted node lists, ordered by smallest member."""
        seen: set[int] = set()
        comps = []
        for start in self._adj:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            stack = [start]
            while stack:
                for u in self._adj[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        comp.append(u)
                        stack.append(u)
            comps.append(sorted(comp))
        return sorted(comps, key=lambda c: c[0])

    def to_edge_list(self) -> str:
        """Serialize in the canonical format accepted by from_edge_list."""
        lines = [f"node {v}" for v in sorted(self._adj) if not self._adj[v]]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + ("\n" if lines else "")


def _parse_node(token: str) -> int:
    try:
        v = int(token)
    except ValueError:
        raise ValueError(f"invalid node id {token!r}") from None
    if v < 0:
        raise ValueError(f"node ids must be non-negative, got {v}")
    return v


def path_graph(n: int) -> ConflictGraph:
    if n < 1:
        raise ValueError("path needs at least one node")
    g = ConflictGraph()
    g.add_node(0)
    for v in range(1, n):
        g.insert_edge(v - 1, v)
    return g


def cycle_graph(n: int) -> ConflictGraph:
    if n < 3:
        raise ValueError("cycle needs at least three nodes")
    g = path_graph(n)
    g.insert_edge(n - 1, 0)
    return g


def complete_graph(n: int) -> ConflictGraph:
    if n < 1:
        raise ValueError("clique needs at least one node")
    g = ConflictGraph()
    g.add_node(0)
    for u in range(n):
        for v in range(u + 1, n):
            g.insert_edge(u, v)
    return g


def star_graph(leaves: int) -> ConflictGraph:
    """Star with center 0 and the given number of leaves 1..leaves."""
    if leaves < 0:
        raise ValueError("leaf count must be non-negative")
    g = ConflictGraph()
    g.add_node(0)
    for v in range(1, leaves + 1):
        g.insert_edge(0, v)
    return g


def gnp_random_graph(n: int, p: float, seed: int = 0) -> ConflictGraph:
    """Seeded Erdos-Renyi G(n, p); every node 0..n-1 is present."""
    if n < 0:
        raise ValueError("node count must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    g = ConflictGraph()
    for v in range(n):
        g.add_node(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.insert_edge(u, v)
    return g
