"""Schedule verification: independence, unhappiness intervals, detected
periods, and brute-force oracles.

All checks here recompute from the raw happy sets, never from scheduler
internals, so they catch bugs in the constructions they audit. A report's
statistics cover its window, while its independence and unknown-node checks
cover every row it is given, so no row escapes the audit. Gap checks
are anchored at each node's first happy holiday: the warm-up before a node
first hosts is bounded separately by its initial color and is not counted
against theorem-level bounds.

An audit over R rows keys them by value: O(R) Python steps and one
C-speed hash per row object (plus a copy for a row that is not a
frozenset). A frozenset keeps its hash, and a row object met again is
found by identity, so the rows a periodic schedule stores and hands out
again cost one hash each in all. The hosts of each distinct row are then
transposed once, not once per holiday that repeats it, so a periodic
schedule's audit does not grow with its hosting events. On top come O(n)
Python steps to group the nodes by hosting pattern, O(n + m) C-speed
lookups that find the patterns next to each pattern, and O(R) work per
distinct pattern and per pair of adjacent patterns: one R-bit mask OR,
not one per edge. Nodes with equal hosting patterns share one frozen
NodeStats.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import chain, count, filterfalse, islice
from operator import or_, sub
from typing import AbstractSet, Callable, Mapping

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


def _window_period(flags: bytearray) -> int:
    """Smallest period of a window's flag string if it is at most half the
    length, else 0.

    By Fine and Wilf, when some period p <= len/2 exists the smallest one
    is the first recurrence of the first half at a position >= 1: an earlier
    recurrence q would make gcd(p, q) < p a period too. So one find of the
    first half at positions 1..len/2 and one slice comparison settle it.
    """
    half = len(flags) // 2
    p = flags.find(flags[:half], 1, 2 * half)
    return p if p > 0 and flags[p:] == flags[:-p] else 0


def _window_stats(happy: tuple[int, ...], flags: bytearray, t0: int, t1: int) -> NodeStats:
    """Statistics of one node from its hosting holidays in [t0, t1] and the
    window's flag string (b"1" where it hosts)."""
    length = t1 - t0 + 1
    if not happy:
        return NodeStats(happy=(), mul=length, detected_period=1 if length >= 2 else 0,
                         first_happy=None, max_gap=None)
    widest = max(map(sub, happy[1:], happy), default=0)
    tail = t1 - happy[-1] + 1
    return NodeStats(
        happy=happy,
        mul=max(happy[0] - t0, widest - 1, tail - 1),
        detected_period=_window_period(flags),
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
    happy-set order, then in neighbor order.

    Rows are keyed by value: each distinct row is numbered by its first
    holiday, and one pass over the distinct rows, in that order, gives
    each node its signature, the first holidays of the rows that hold it.
    An unknown node fails its lookup in that pass, so the first holiday
    that lists one is named. Nodes are grouped by signature, and each
    distinct signature is expanded once into its hosting pattern, the
    sorted tuple of holidays on which its nodes host; when every row is
    distinct, the signature is the pattern. Per distinct pattern, a flag
    row over the R row ranks gives an R-bit mask and the window's
    statistics, which every node with that pattern shares. Then, per
    distinct pattern, one C-speed pass over its members' neighbor tuples
    collects the set of patterns next to it; its mask ANDed with the OR of
    their masks holds exactly its members' conflicting rows, and only
    those rows are scanned for the violating pairs, each holiday's in its
    own row's iteration order (equal frozensets may iterate differently).
    The cost is O(R) Python steps plus a C-speed hash (and for a row that
    is not a frozenset, a copy) per row, one Python append per node of
    each distinct row, O(n) Python steps, O(n + m)
    C-speed lookups and O(R) work per distinct pattern and per pair of
    adjacent patterns.
    """
    t0, t1 = window
    if t0 < 1 or t1 < t0:
        raise ValueError(f"bad window {window}")
    # The first three are all the message names, so a long window is not listed.
    missing = list(islice(filterfalse(happy_sets.__contains__, range(t0, t1 + 1)), 3))
    if missing:
        raise ValueError(f"happy sets missing holidays {missing}")

    adj = g.adjacency()
    rows = sorted(happy_sets)
    # Each distinct row value is numbered by its first holiday. frozenset()
    # returns a frozenset row itself, so such a row costs one cached hash.
    first: dict[frozenset[int], int] = {}
    sharing: dict[int, list[int]] = {}  # first holiday -> the holidays with that row
    for t in rows:
        sharing.setdefault(first.setdefault(frozenset(happy_sets[t]), t), []).append(t)
    repeats = len(first) < len(rows)
    # A node's signature: the first holidays of the distinct rows that hold it.
    signatures: dict[int, list[int]] = {v: [] for v in adj}
    try:
        for hs, t in first.items():
            for u in hs:
                signatures[u].append(t)
    except KeyError:
        unknown = sorted(v for v in happy_sets[t] if v not in adj)
        raise ValueError(f"holiday {t} lists unknown nodes {unknown[:3]}") from None

    # The window's holidays all have rows, so they hold consecutive ranks.
    rank = dict(zip(rows, range(len(rows))))
    blank = bytearray(b"0") * len(rows)
    lo, hi = rank[t0], rank[t1] + 1
    # A pattern's id is the position of the first node that has it.
    ids: dict[tuple[int, ...], int] = {}
    pids = list(map(ids.setdefault, map(tuple, signatures.values()), count()))
    masks: dict[int, int] = {}
    shared: dict[int, NodeStats] = {}
    members: dict[int, list[int]] = {}  # keyed in the same order as masks
    for signature, i in ids.items():
        # With every row distinct, the signature is the hosting pattern.
        pattern = (tuple(sorted(chain.from_iterable(map(sharing.__getitem__, signature))))
                   if repeats else signature)
        row = blank[:]
        for t in pattern:
            row[rank[t]] = 49  # b"1"
        happy = pattern[bisect_left(pattern, t0):bisect_right(pattern, t1)]
        masks[i] = int(row, 2)
        shared[i] = _window_stats(happy, row[lo:hi], t0, t1)
        members[i] = []
    pid = dict(zip(adj, pids))
    stats = dict(zip(adj, map(shared.__getitem__, pids)))
    for v, i in pid.items():
        members[i].append(v)

    # AND distributes over OR: a pattern's mask ANDed with the OR of the
    # masks of its members' neighbors holds exactly its members' conflicting
    # rows, and each neighboring pattern's mask is ORed in once, not once
    # per edge.
    pid_of, nbrs_of, mask_of = pid.__getitem__, adj.__getitem__, masks.__getitem__
    clash = 0
    for mask, group in zip(masks.values(), members.values()):
        if mask:
            near = set(map(pid_of, chain.from_iterable(map(nbrs_of, group))))
            clash |= mask & reduce(or_, map(mask_of, near), 0)

    violations: list[tuple[int, int, int]] = []
    if clash:
        # Bit R-1-i of a mask is row rank i, as in its flag row.
        flags = format(clash, f"0{len(rows)}b")
        i = flags.find("1")
        while i >= 0:
            t = rows[i]
            hs = happy_sets[t]
            for u in hs:
                nbrs = adj[u]
                if not hs.isdisjoint(nbrs):
                    violations.extend((t, u, w) for w in nbrs if u < w and w in hs)
            i = flags.find("1", i + 1)
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
