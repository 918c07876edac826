"""Conflict-graph data model.

Nodes are non-negative integer ids; edges are unordered pairs of distinct
nodes (in-law conflicts). The graph is simple: no self-loops, no duplicate
edges. Neighbors are kept as sorted tuples so that every downstream
algorithm iterates deterministically.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from math import inf, log1p
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping


class ConflictGraph:
    """Undirected simple graph with sorted adjacency and dynamic edge updates.

    The sorted neighbor tuples are the only edge store: edge lookups bisect
    them, and each edge appears once in each endpoint's tuple. An edge
    update replaces the two endpoint tuples and never changes one in place,
    so copy() shares every tuple and costs one O(n) dict copy.
    Single-writer: mutate from one task only; reads may be shared freely,
    except the first read of a stale graph, which writes (see below).

    Versions (shallow binding, Baker 1978): `_derive()` hands the dict to a
    successor in O(1). The stale graph keeps `_next` and an undo record,
    node -> its tuple here or None if absent, which the successor's writes
    fill with each changed node's first old tuple. The stale graph rebuilds
    its own dict on first read: a copy of the newest dict, with the undo
    records applied from the newest back. Either graph may then be written,
    and neither write shows in the other. A stale graph keeps its successor
    alive, and through it the chain of later versions and undo records.
    """

    _log: dict[int, tuple[int, ...] | None] | None = None  # the predecessor's undo record

    def __init__(self) -> None:
        self._adj: dict[int, tuple[int, ...]] = {}

    def __getattr__(self, name: str) -> dict[int, tuple[int, ...]]:
        # Runs only when normal lookup fails, so a graph that owns its dict
        # pays nothing; a stale one rebuilds it here, once.
        if name != "_adj":
            raise AttributeError(f"'ConflictGraph' object has no attribute {name!r}")
        stale = [self]
        newest = self._next
        while "_adj" not in vars(newest):
            stale.append(newest)
            newest = newest._next
        adj = dict(newest._adj)
        for g in reversed(stale):
            _undo(adj, g._undo)
        self._next._log = None  # the successor's writes no longer concern this graph
        del self._next, self._undo
        self._adj = adj
        return adj

    def _derive(self) -> "ConflictGraph":
        """A graph equal to this one that takes over its dict, in O(1).

        This graph goes stale until it is next read; see the class
        docstring. `_take_back()` undoes the hand-over.
        """
        g = object.__new__(ConflictGraph)
        g._adj = self._adj
        g._log = self._undo = {}
        self._next = g
        del self._adj
        return g

    def _take_back(self) -> None:
        """Reclaim the dict that `_derive()` handed over, with the
        successor's writes undone. The successor must not have been
        derived from since, and is unusable afterwards."""
        adj = vars(self._next).pop("_adj")
        _undo(adj, self._undo)
        del self._next, self._undo
        self._adj = adj

    def _writable(self, *nodes: int) -> dict[int, tuple[int, ...]]:
        """The dict to write nodes' tuples into, once the predecessor's undo
        record holds each node's first old tuple (None if absent)."""
        adj, log = self._adj, self._log
        if log is not None:
            for v in nodes:
                if v not in log:
                    log[v] = adj.get(v)
        return adj

    @classmethod
    def from_edge_list(cls, text: str) -> "ConflictGraph":
        """Parse the canonical edge-list format.

        Each line is either "u v" (an edge), "node u" (an isolated node
        declaration), a comment starting with "#", or blank. Raises
        ValueError with the offending line number on malformed input,
        self-loops, or duplicate edges; with several, the first in file
        order is reported.

        One pass over the split lines costs a dict lookup per token: a
        table maps each distinct id spelling to its node, so int() runs
        once per spelling, not once per token, and every tuple that lists
        a node holds the same int object. Nodes are kept in order of first
        appearance with a neighbor list each, sorted in place and frozen
        once. A duplicate edge shows after the pass as a neighbor list with
        repeats; only then, or when a line fails, a second walk over the
        earlier lines names the first duplicate.
        """
        ids: dict[str, int] = {}  # each id spelling seen so far -> its node
        adj: dict[int, list[int]] = {}
        lineno = 0
        try:
            for lineno, parts in enumerate(map(str.split, text.splitlines()), start=1):
                if len(parts) != 2:
                    if parts and parts[0][0] != "#":
                        raise ValueError("expected 'node u'" if parts[0] == "node"
                                         else "expected 'u v' or 'node u'")
                    continue
                a, b = parts
                # A new spelling is parsed and its node registered; "node b"
                # only registers b, and leaves u None. A spelling of decimal
                # digits needs no sign or range check.
                u = ids.get(a)
                if u is None and a != "node":
                    if a[0] == "#":
                        continue
                    u = ids[a] = int(a) if a.isdecimal() else _parse_node(a)
                    if u not in adj:
                        adj[u] = []
                v = ids.get(b)
                if v is None:
                    v = ids[b] = int(b) if b.isdecimal() else _parse_node(b)
                    if v not in adj:
                        adj[v] = []
                if u is None:
                    continue
                if u == v:
                    raise ValueError(f"self-loop at node {u}")
                adj[u].append(v)
                adj[v].append(u)
        except ValueError as exc:
            _raise_first_duplicate(text.splitlines()[:lineno - 1], ids)
            raise ValueError(f"line {lineno}: {exc}") from None
        for nbrs in adj.values():
            nbrs.sort()
        if sum(map(len, map(set, adj.values()))) != sum(map(len, adj.values())):
            _raise_first_duplicate(text.splitlines(), ids)
        del ids  # no longer needed: free the spellings before the tuples are made
        g = cls()
        g._adj = dict(zip(adj, map(tuple, adj.values())))
        return g

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
            self._writable(v)[v] = ()

    def insert_edge(self, u: int, v: int) -> None:
        """Add edge (u, v), creating missing nodes. Rejects self-loops and duplicates."""
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if self.has_edge(u, v):
            raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
        for w in (u, v):  # both ids are checked before either node is added
            if w < 0:
                raise ValueError(f"node ids must be non-negative, got {w}")
        adj = self._writable(u, v)
        for a, b in ((u, v), (v, u)):
            nbrs = adj.get(a, ())
            i = bisect_left(nbrs, b)
            adj[a] = nbrs[:i] + (b,) + nbrs[i:]

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise ValueError(f"no such edge {(min(u, v), max(u, v))}")
        adj = self._writable(u, v)
        for a, b in ((u, v), (v, u)):
            nbrs = adj[a]
            i = bisect_left(nbrs, b)
            adj[a] = nbrs[:i] + nbrs[i + 1:]

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

    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only live view from each node, in nodes() order, to its
        neighbors() tuple. Its lookups run at C speed, so map() and set
        algebra over many nodes pay no Python call per node.

        The view is of the dict, not of this graph: a view taken before a
        dynamic event follows the dict to the newer version, so take a new
        view of an older version after the event.
        """
        return MappingProxyType(self._adj)

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
        The copy has no predecessor, so its writes are not logged. Dynamic
        events use `_derive()` instead, which copies nothing.
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
        return "".join(self.edge_list_chunks())

    def edge_list_chunks(self) -> Iterator[str]:
        """to_edge_list's text one node's lines at a time, so a writer never
        holds more than one node's text: first a "node v" line per isolated
        node, then each edge once as "u w" with u < w, ascending. A node
        with no higher neighbor yields no piece."""
        adj = self._adj
        order = sorted(adj)
        for v in order:
            if not adj[v]:
                yield f"node {v}\n"
        for u in order:
            nbrs = adj[u]
            if nbrs and nbrs[-1] > u:  # checked before the bisect and the slice
                higher = nbrs[bisect_right(nbrs, u):]
                yield f"{u} " + f"\n{u} ".join(map(str, higher)) + "\n"


def _undo(adj: dict[int, tuple[int, ...]], record: dict[int, tuple[int, ...] | None]) -> None:
    """Give each node of record its tuple there, or drop it where that is None."""
    for v, nbrs in record.items():
        if nbrs is None:
            del adj[v]
        else:
            adj[v] = nbrs


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for every line that is neither blank nor a "#" comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _raise_first_duplicate(lines: list[str], ids: dict[str, int]) -> None:
    """Raise for the first of lines that repeats an earlier line's edge, if any.

    Every line must be blank, a comment, "node u" or an edge between
    distinct nodes whose spellings ids maps: lines from_edge_list accepted.
    """
    seen: set[tuple[int, int]] = set()
    for lineno, parts in enumerate(map(str.split, lines), start=1):
        if len(parts) == 2 and parts[0] != "node" and parts[0][0] != "#":
            u, v = ids[parts[0]], ids[parts[1]]
            edge = (min(u, v), max(u, v))
            if edge in seen:
                raise ValueError(f"line {lineno}: duplicate edge {edge}")
            seen.add(edge)


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
    """Seeded Erdos-Renyi G(n, p); every node 0..n-1 is present.

    Costs O(n + m) expected time, by geometric edge skipping (Batagelj &
    Brandes 2005): the walk visits the pairs (v, w), w < v, row by row and
    draws once per edge the number of pairs to pass over before the next
    one, instead of drawing once per pair. p = 0 makes no draw. The graph
    for a given seed differs from the one the per-pair loop of earlier
    releases drew, but has the same distribution.
    """
    if n < 0:
        raise ValueError("node count must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    log_q = log1p(-p) if p < 1 else -inf  # log(1 - p); p = 1 makes every skip 0
    left = n * (n - 1) // 2 if p > 0 else 0  # pairs after the walk's position
    v, w = 1, -1
    while left:
        # The walk passes over int(skip) pairs, at least k with probability (1 - p)**k.
        # A tiny p can make skip inf, which also passes every pair left.
        skip = log1p(-rng.random()) / log_q
        if skip >= left:
            break
        k = int(skip) + 1
        left -= k
        w += k
        while w >= v:
            w -= v
            v += 1
        adj[v].append(w)
        adj[w].append(v)
    return ConflictGraph._from_adjacency(adj)
