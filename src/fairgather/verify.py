"""Schedule verification: independence, unhappiness intervals, detected
periods, and brute-force oracles.

All checks here recompute from the raw happy sets, never from scheduler
internals, so they catch bugs in the constructions they audit. A report's
statistics cover its window, while its independence and unknown-node checks
cover every row it is given, so no row escapes the audit. Gap checks
are anchored at each node's first happy holiday: the warm-up before a node
first hosts is bounded separately by its initial color and is not counted
against theorem-level bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Mapping, Sequence

from .graph import ConflictGraph
from .schedulers import Schedule


@dataclass(frozen=True)
class NodeStats:
    """Happiness statistics for one node over a window."""

    happy: tuple[int, ...]
    mul: int                    # longest run of consecutive unhappy holidays
    detected_period: int        # smallest period consistent with the window; 0 = none found
    first_happy: int | None
    max_gap: int | None         # max spacing between happy holidays from first_happy on,
                                # counting the stretch to the window end; None if never happy


@dataclass(frozen=True)
class ScheduleReport:
    window: tuple[int, int]
    nodes: dict[int, NodeStats]
    independence_violations: tuple[tuple[int, int, int], ...]  # (holiday, u, v)

    @property
    def independent(self) -> bool:
        return not self.independence_violations


@dataclass(frozen=True)
class GapViolation:
    node: int
    gap: int
    bound: int


def _border_table(seq: Sequence) -> list[int]:
    """border[i] = length of the longest proper border of seq[:i + 1] (KMP)."""
    border = [0] * len(seq)
    k = 0
    for i in range(1, len(seq)):
        while k and seq[i] != seq[k]:
            k = border[k - 1]
        if seq[i] == seq[k]:
            k += 1
        border[i] = k
    return border


def smallest_window_period(flags: Sequence[bool]) -> int:
    """Smallest p with flags[i] == flags[i+p] across the window, if p is
    small enough to be seen twice (p <= len/2); otherwise 0."""
    n = len(flags)
    if n == 0:
        return 0
    # smallest period = n - longest border
    period = n - _border_table(flags)[-1]
    return period if period <= n // 2 else 0


def _smallest_hosting_period(hosts: list[int], gaps: list[int], length: int) -> int:
    """Smallest period of a window's flag string, from its hosting positions.

    hosts are the 0-based positions of the True flags (ascending, at least
    one) in a window of the given length; gaps are their differences. A
    period p < length - hosts[0] maps the first hosting onto another one,
    so p = hosts[j] - hosts[0] for some j >= 1. Such a p is a period iff
    the gap sequence has period j, hosts[j - 1] < p (no earlier hosting
    maps back inside the window) and hosts[k - j + 1] + p >= length (the
    last j hostings map past its end). The gap periods j come from the KMP
    border chain, which keeps the search linear in len(hosts). Failing
    all of these, the smallest period shifts every hosting out of the
    window.
    """
    k = len(gaps)
    if k:
        border = _border_table(gaps)
        b = border[-1]
        while True:
            j = k - b
            p = hosts[j] - hosts[0]
            if hosts[j - 1] < p and hosts[k - j + 1] + p >= length:
                return p
            if b == 0:
                break
            b = border[b - 1]
    return max(length - hosts[0], hosts[-1] + 1)


def _hosting_stats(happy: list[int], t0: int, t1: int) -> NodeStats:
    """Statistics of one node from its ascending hosting holidays in [t0, t1]."""
    length = t1 - t0 + 1
    if not happy:
        return NodeStats(happy=(), mul=length, detected_period=1 if length >= 2 else 0,
                         first_happy=None, max_gap=None)
    gaps = [b - a for a, b in zip(happy, happy[1:])]
    widest = max(gaps, default=0)
    tail = t1 - happy[-1] + 1
    period = _smallest_hosting_period([t - t0 for t in happy], gaps, length)
    return NodeStats(
        happy=tuple(happy),
        mul=max(happy[0] - t0, widest - 1, tail - 1),
        detected_period=period if period <= length // 2 else 0,
        first_happy=happy[0],
        max_gap=max(widest, tail),
    )


def report_from_happy_sets(
    g: ConflictGraph,
    happy_sets: Mapping[int, AbstractSet[int]],
    window: tuple[int, int],
) -> ScheduleReport:
    """Statistics over the window; independence and unknown-node checks
    over every row given.

    Every holiday in [t0, t1] must have a row. Rows outside the window feed
    no statistics, but an unknown node in any row raises and a conflict in
    any row is listed. Violations come by ascending holiday, then in
    happy-set order, then in neighbor order. One pass over the rows builds
    each node's hosting list; the cost is
    O(n + hosting events + edges at happy nodes).
    """
    t0, t1 = window
    if t0 < 1 or t1 < t0:
        raise ValueError(f"bad window {window}")
    missing = [t for t in range(t0, t1 + 1) if t not in happy_sets]
    if missing:
        raise ValueError(f"happy sets missing holidays {missing[:3]}")

    adj = {v: g.neighbors(v) for v in g.nodes()}
    hosting: dict[int, list[int]] = {v: [] for v in adj}
    violations: list[tuple[int, int, int]] = []
    for t in sorted(happy_sets):
        hs = happy_sets[t]
        if not hs <= adj.keys():
            unknown = sorted(v for v in hs if v not in adj)
            raise ValueError(f"holiday {t} lists unknown nodes {unknown[:3]}")
        in_window = t0 <= t <= t1
        for u in hs:
            nbrs = adj[u]
            if not hs.isdisjoint(nbrs):
                violations.extend((t, u, w) for w in nbrs if u < w and w in hs)
            if in_window:
                hosting[u].append(t)

    stats = {v: _hosting_stats(hosting[v], t0, t1) for v in adj}
    return ScheduleReport(window=(t0, t1), nodes=stats, independence_violations=tuple(violations))


def report(g: ConflictGraph, s: Schedule, window: tuple[int, int]) -> ScheduleReport:
    """Audit a schedule over [t0, t1]; a replay rejects holidays past its horizon."""
    t0, t1 = window
    if t0 < 1 or t1 < t0:
        raise ValueError(f"bad window {window}")
    happy_sets = {t: s.happy_set(t) for t in range(t0, t1 + 1)}
    return report_from_happy_sets(g, happy_sets, window)


def check_gap_bounds(
    g: ConflictGraph,
    rep: ScheduleReport,
    bound_fn: Callable[[int], int],
) -> list[GapViolation]:
    """Nodes whose happy-to-happy spacing (anchored at first happiness)
    exceeds bound_fn(node). A node that is never happy in the window counts
    as one big gap."""
    t0, t1 = rep.window
    out = []
    for v, stats in rep.nodes.items():
        gap = stats.max_gap if stats.max_gap is not None else t1 - t0 + 2
        bound = bound_fn(v)
        if gap > bound:
            out.append(GapViolation(node=v, gap=gap, bound=bound))
    return out


def brute_force_mis(g: ConflictGraph) -> int:
    """Exact maximum independent set size by subset enumeration (<= 20 nodes)."""
    nodes = g.nodes()
    if len(nodes) > 20:
        raise ValueError("brute force is capped at 20 nodes")
    index = {v: i for i, v in enumerate(nodes)}
    adj_mask = [0] * len(nodes)
    for u, v in g.edges():
        adj_mask[index[u]] |= 1 << index[v]
        adj_mask[index[v]] |= 1 << index[u]
    best = 0
    for mask in range(1 << len(nodes)):
        m = mask
        ok = True
        while m:
            i = (m & -m).bit_length() - 1
            if adj_mask[i] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = max(best, bin(mask).count("1"))
    return best


def happy_set_vs_mis(g: ConflictGraph, s: Schedule, window: tuple[int, int]) -> tuple[int, int]:
    """(largest happy set seen in the window, exact MIS size).

    Raises if the observed maximum exceeds the MIS size, which would mean
    some happy set was not independent.
    """
    t0, t1 = window
    observed = max(len(s.happy_set(t)) for t in range(t0, t1 + 1))
    mis = brute_force_mis(g)
    if observed > mis:
        raise AssertionError(f"happy set of size {observed} exceeds MIS {mis}")
    return observed, mis
