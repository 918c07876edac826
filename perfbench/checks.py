"""Correctness checks computed from the benchmark's own data.

Nothing here calls the library: adjacency, the omega code, hosting
holidays and the satisfaction optimum are recomputed from the generated
edges, so a fault in the library cannot hide behind its own audit.
Each check returns a list of problem descriptions; empty means correct.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Callable, Iterable, Mapping

Adjacency = dict[int, set[int]]


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> Adjacency:
    adj: Adjacency = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def conflicts(adj: Adjacency, happy: Iterable[int]) -> list[tuple[int, int]]:
    """Adjacent pairs that host together."""
    hs = set(happy)
    return [(u, w) for u in hs for w in adj[u] if u < w and w in hs]


def independence_problems(adj: Adjacency, happy_sets: Mapping[int, Iterable[int]]) -> list[str]:
    out = []
    for t, hs in happy_sets.items():
        bad = conflicts(adj, hs)
        if bad:
            out.append(f"holiday {t}: adjacent hosts {bad[:3]}")
    return out


def coloring_problems(adj: Adjacency, coloring: Mapping[int, int], degree_bound: bool) -> list[str]:
    """Proper, total and positive; with degree_bound also color(v) <= deg(v) + 1."""
    out = [f"node {v} uncolored" for v in adj if v not in coloring]
    for v, nbrs in adj.items():
        c = coloring.get(v)
        if c is None:
            continue
        if c < 1 or (degree_bound and c > len(nbrs) + 1):
            out.append(f"node {v}: color {c} with degree {len(nbrs)}")
        out.extend(f"edge {v}-{u}: both color {c}" for u in nbrs if v < u and coloring.get(u) == c)
    return out


def omega_code(c: int) -> str:
    """Elias omega codeword of c >= 1, most significant bit first."""
    groups = ["0"]
    while c > 1:
        b = format(c, "b")
        groups.append(b)
        c = len(b) - 1
    return "".join(reversed(groups))


def omega_slot(c: int) -> tuple[int, int]:
    """(residue, period) of color c: hosts when t = residue (mod period)."""
    code = omega_code(c)
    return int(code[::-1], 2), 1 << len(code)


def kraft_sum(colors: Iterable[int]) -> Fraction:
    """Exact sum of 1/period over the distinct colors."""
    return sum((Fraction(1, omega_slot(c)[1]) for c in set(colors)), Fraction(0))


def hosting(nodes: Iterable[int], happy_sets: Mapping[int, Iterable[int]]) -> dict[int, list[int]]:
    """Each node's hosting holidays in ascending order."""
    out: dict[int, list[int]] = {v: [] for v in nodes}
    for t in sorted(happy_sets):
        for v in happy_sets[t]:
            out[v].append(t)
    return out


def periodic_problems(hosts: Mapping[int, list[int]], period: Callable[[int], int], window: int) -> list[str]:
    """Every node hosts on exactly every period(v)-th holiday of 1..window."""
    out = []
    for v, ts in hosts.items():
        p = period(v)
        # The first hosting falls within one period, and a node may stay
        # silent only when its period is longer than the window.
        first_ok = ts[0] <= p if ts else p > window
        if not first_ok or (ts and ts != list(range(ts[0], window + 1, p))):
            out.append(f"node {v}: hosts {ts[:4]} in 1..{window}, not every {p}")
    return out


def gap_violators(hosts: Mapping[int, list[int]], bound: Callable[[int], int], window: int) -> dict[int, int]:
    """Nodes whose longest wait from their first hosting on, counting the
    stretch to the end of the window, exceeds bound(v); a node that never
    hosts waits window + 1. Maps each such node to its wait."""
    out = {}
    for v, ts in hosts.items():
        gaps = [b - a for a, b in zip(ts, ts[1:])] + [window - ts[-1] + 1] if ts else [window + 1]
        if max(gaps) > bound(v):
            out[v] = max(gaps)
    return out


def satisfaction_optimum(adj: Adjacency) -> int:
    """Maximum number of nodes that can get an incoming edge.

    A connected component with as many edges as nodes holds a cycle, so all
    of it can be satisfied; a tree component leaves exactly one node out.
    """
    seen: set[int] = set()
    total = 0
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack, size, degree_sum = [start], 0, 0
        while stack:
            v = stack.pop()
            size += 1
            degree_sum += len(adj[v])
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        total += size if degree_sum // 2 >= size else size - 1
    return total


def orientation_problems(adj: Adjacency, orientation: Mapping[tuple[int, int], int], count: int) -> list[str]:
    """Every edge points at one of its endpoints, and count nodes are pointed at."""
    out = []
    edges = {(u, v) for u in adj for v in adj[u] if u < v}
    if set(orientation) != edges:
        out.append(f"orientation covers {len(orientation)} of {len(edges)} edges")
    out.extend(f"edge {e} points at {h}" for e, h in orientation.items() if h not in e)
    heads = len(set(orientation.values()))
    if heads != count:
        out.append(f"reported {count} satisfied, orientation satisfies {heads}")
    return out


def slot_problems(adj: Adjacency, offset: Mapping[int, int], period: Callable[[int], int]) -> list[str]:
    """Degree-bound slots: each period is a power of two at most 2 * max(deg, 1),
    and no edge's endpoints share a residue modulo the smaller period, which
    proves independence on every holiday, not just inside a window."""
    out = []
    for v, nbrs in adj.items():
        p = period(v)
        if p & (p - 1) or p > 2 * max(len(nbrs), 1):
            out.append(f"node {v}: period {p} with degree {len(nbrs)}")
        for u in nbrs:
            m = min(p, period(u))
            if v < u and offset[v] % m == offset[u] % m:
                out.append(f"edge {v}-{u}: both host when t = {offset[v] % m} (mod {m})")
    return out


def csv_happy_sets(text: str) -> dict[int, set[int]]:
    """Rows of a 'holiday,happy' schedule CSV; raises ValueError on a bad row."""
    lines = text.splitlines()
    if not lines or lines[0] != "holiday,happy":
        raise ValueError("schedule CSV lacks its 'holiday,happy' header")
    out: dict[int, set[int]] = {}
    for line in lines[1:]:
        t, _, ids = line.partition(",")
        out[int(t)] = {int(v) for v in ids.split(";") if v}
    return out


class Checker:
    """Counts failed checks and folds outputs into a digest.

    The timed passes of a run only fold their outputs; the last pass checks
    everything (full=True). The harness requires every digest to equal the
    first pass's, since every pass computes the same thing.
    """

    def __init__(self, full: bool) -> None:
        self.full = full
        self.failed = 0
        self.messages: list[str] = []
        self._digest = hashlib.sha256()

    def expect(self, what: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.messages.append(f"{what}: {problems[0]} ({len(problems)} problems)")

    def fold(self, value: object) -> None:
        """Add a value with a deterministic repr (no sets) to the digest."""
        self._digest.update(repr(value).encode())

    def digest(self) -> str:
        return self._digest.hexdigest()
