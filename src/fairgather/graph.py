"""Conflict-graph data model.

Nodes are non-negative integer ids; edges are unordered pairs of distinct
nodes (in-law conflicts). The graph is simple: no self-loops, no duplicate
edges. Neighbors are kept as sorted tuples so that every downstream
algorithm iterates deterministically.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import defaultdict
from typing import Iterable, Iterator


class ConflictGraph:
    """Undirected simple graph with sorted adjacency and dynamic edge updates.

    The sorted neighbor tuples are the only edge store: edge lookups bisect
    them, and each edge appears once in each endpoint's tuple. An edge
    update replaces the two endpoint tuples and never changes one in place,
    so copy() shares every tuple and costs one O(n) dict copy.
    Single-writer: mutate from one task only; reads may be shared freely.
    """

    def __init__(self) -> None:
        self._adj: dict[int, tuple[int, ...]] = {}

    @classmethod
    def from_edge_list(cls, text: str) -> "ConflictGraph":
        """Parse the canonical edge-list format.

        Each line is either "u v" (an edge), "node u" (an isolated node
        declaration), a comment starting with "#", or blank. Raises
        ValueError with the offending line number on malformed input,
        self-loops, or duplicate edges.
        """
        # One set per node, frozen once: a tuple rebuilt per edge would cost O(deg).
        adj: defaultdict[int, set[int]] = defaultdict(set)
        for lineno, line in data_lines(text):
            parts = line.split()
            try:
                if parts[0] == "node":
                    if len(parts) != 2:
                        raise ValueError("expected 'node u'")
                    adj.setdefault(_parse_node(parts[1]), set())
                elif len(parts) == 2:
                    u, v = _parse_node(parts[0]), _parse_node(parts[1])
                    _check_new_edge(u, v, v in adj[u])
                    adj[u].add(v)
                    adj[v].add(u)
                else:
                    raise ValueError("expected 'u v' or 'node u'")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return cls._from_adjacency(adj)

    @classmethod
    def _from_adjacency(cls, adj: dict[int, Iterable[int]]) -> "ConflictGraph":
        """The graph whose neighbors adj lists (symmetric, no repeats), emptying adj as it goes."""
        g = cls()
        for v in list(adj):
            g._adj[v] = tuple(sorted(adj.pop(v)))
        return g

    def add_node(self, v: int) -> None:
        if v < 0:
            raise ValueError(f"node ids must be non-negative, got {v}")
        if v not in self._adj:
            self._adj[v] = ()

    def insert_edge(self, u: int, v: int) -> None:
        """Add edge (u, v), creating missing nodes. Rejects self-loops and duplicates."""
        _check_new_edge(u, v, self.has_edge(u, v))
        self.add_node(u)
        self.add_node(v)
        for a, b in ((u, v), (v, u)):
            nbrs = self._adj[a]
            i = bisect_left(nbrs, b)
            self._adj[a] = nbrs[:i] + (b,) + nbrs[i:]

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise ValueError(f"no such edge {(min(u, v), max(u, v))}")
        for a, b in ((u, v), (v, u)):
            nbrs = self._adj[a]
            i = bisect_left(nbrs, b)
            self._adj[a] = nbrs[:i] + nbrs[i + 1:]

    def has_node(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """O(log deg u) bisection of u's neighbors; False for unknown nodes."""
        nbrs = self._adj.get(u, ())
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def nodes(self) -> list[int]:
        """Nodes in insertion order (deterministic for a fixed construction sequence)."""
        return list(self._adj)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (u, w) with u < w, in ascending order."""
        return [(u, w) for u in sorted(self._adj) for w in self._adj[u] if w > u]

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending id order: the stored tuple, not a copy."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def num_edges(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def __len__(self) -> int:
        return len(self._adj)

    def copy(self) -> "ConflictGraph":
        """A graph with the same nodes and edges: one O(n) dict copy.

        The two graphs share every neighbor tuple; an edge update replaces
        tuples instead of changing them, so it never shows in the other graph.
        """
        g = ConflictGraph()
        g._adj = dict(self._adj)
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


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for every line that is neither blank nor a "#" comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _check_new_edge(u: int, v: int, present: bool) -> None:
    """Reject (u, v) as a self-loop or, if present, as a duplicate."""
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    if present:
        raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")


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
    return ConflictGraph._from_adjacency({u: [v for v in range(n) if v != u] for u in range(n)})


def star_graph(leaves: int) -> ConflictGraph:
    """Star with center 0 and the given number of leaves 1..leaves."""
    if leaves < 0:
        raise ValueError("leaf count must be non-negative")
    leaf_ids = range(1, leaves + 1)
    return ConflictGraph._from_adjacency({0: leaf_ids} | {v: (0,) for v in leaf_ids})


def gnp_random_graph(n: int, p: float, seed: int = 0) -> ConflictGraph:
    """Seeded Erdos-Renyi G(n, p); every node 0..n-1 is present."""
    if n < 0:
        raise ValueError("node count must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    return ConflictGraph._from_adjacency(adj)
