"""Schedule constructions for the holiday gathering problem.

Three ways to decide who is happy (hosts all their children) on holiday t:

* phased greedy — replay of the recoloring process; happy sets depend on
  the whole history, gaps are bounded by degree + 1, no periodicity claim;
* omega-code color schedule — node with color c is happy exactly every
  2**rho(c) holidays, where rho is the omega codeword length;
* degree-bound slots — node picks an offset x and level j and is happy
  when t = x (mod 2**j), with 2**j <= 2 * max(degree, 1).

Holidays are numbered from t = 1. Every schedule answers happy(v, t) and
guarantees the happy set is an independent set of its graph. happy_set(t)
returns a frozenset that the schedule may own and hand out again, on later
holidays and from later versions: a periodic schedule returns its stored
buckets, and stores the union it builds where several buckets match.
Schedules are frozen once built; the dynamic edge operations return new
schedule values. A new value shares its parent's coloring and slots dicts
when the event changes no color, so those dicts are read-only: callers
copy them to edit. Its graph takes over the parent graph's adjacency
dict, and the parent graph rebuilds its own the first time it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import filterfalse
from typing import Callable, Iterable, Iterator, Protocol

from . import codec
from .coloring import RoundLog, _clashes, _color_rounds, is_proper, smallest_free_color
from .graph import ConflictGraph


class Schedule(Protocol):
    """What every schedule answers on its graph: happy(v, t) and happy_set(t).

    happy_set(t) returns an immutable set, which the schedule may share
    between holidays and between versions: callers keep it as it is.
    """

    graph: ConflictGraph

    def happy(self, v: int, t: int) -> bool: ...

    def happy_set(self, t: int) -> frozenset[int]: ...


class PhasedSchedule:
    """Frozen replay of the phased greedy recoloring; holiday t reads happy_sets[t - 1]."""

    def __init__(self, graph: ConflictGraph, happy_sets: list[frozenset[int]]):
        self.graph = graph
        self._happy_sets = happy_sets

    @property
    def horizon(self) -> int:
        return len(self._happy_sets)

    def _row(self, t: int) -> frozenset[int]:
        if not 1 <= t <= self.horizon:
            raise ValueError(f"holiday {t} outside replay horizon 1..{self.horizon}")
        return self._happy_sets[t - 1]

    def happy(self, v: int, t: int) -> bool:
        return v in self._row(t)

    def happy_set(self, t: int) -> frozenset[int]:
        """The stored set itself; it is frozen, so callers cannot alter the replay."""
        return self._row(t)


@dataclass(frozen=True)
class Slot:
    """Happy exactly when t = offset (mod 2**level), with 0 <= offset < 2**level."""

    offset: int
    level: int

    def __post_init__(self) -> None:
        if self.level < 0 or not 0 <= self.offset < 1 << self.level:
            raise ValueError(f"slot needs level >= 0 and 0 <= offset < 2**level, got {self}")

    @property
    def period(self) -> int:
        return 1 << self.level


_EMPTY: frozenset[int] = frozenset()

# A schedule's merged rows hold at most this many node entries per scheduled
# node. The slot schedules of G(200,000, 10**-5) fill up to 6.4, while a
# clique beside many isolated nodes, where every row merges one clique node
# with all the isolated ones, would fill without bound.
_ROW_ENTRIES_PER_NODE = 8


class _Rows(dict):
    """A schedule's merged happy sets, keyed by the tuple of buckets each
    merges. room counts the node entries it may still take; versions that
    share the dict share the room."""

    __slots__ = ("room",)

    def __init__(self, nodes: int):
        super().__init__()
        self.room = _ROW_ENTRIES_PER_NODE * nodes


class PeriodicSchedule:
    """Node v is happy exactly when t = slots[v].offset (mod slots[v].period).

    Nodes are indexed by period and offset in frozenset buckets. happy_set(t)
    looks up one bucket per distinct period; when only one is non-empty, as
    on every holiday of an EliasSchedule that has hosts, it returns that
    bucket itself, in O(#distinct periods), and with none it returns one
    shared empty set. Several hits are merged once, the first time they
    are asked for, and the merged row is handed out again on every later
    holiday with the same hits. The periods are powers of two, so the
    highest-period hit fixes the others: a schedule merges at most one row
    per non-empty bucket. The stored rows hold at most 8 node entries per
    scheduled node; past that, rows are merged per call. A dynamic event
    replaces the buckets a node leaves or joins, in O(class size).
    """

    def __init__(self, graph: ConflictGraph, slots: dict[int, Slot]):
        self.graph = graph
        self.slots = slots
        # _level_slots, behind both degree-bound builders, and EliasSchedule
        # share one Slot object per (offset, level), so the nodes are grouped
        # per object and each bucket is frozen once from its group's list,
        # which sizes its table for its members; equal Slot objects that are
        # not shared still fill one bucket.
        groups: dict[int, list[int]] = {}
        for v, slot in slots.items():
            groups.setdefault(id(slot), []).append(v)
        self._buckets: dict[int, dict[int, frozenset[int]]] = {}
        for members in groups.values():
            slot = slots[members[0]]
            by_offset = self._buckets.setdefault(slot.period, {})
            by_offset[slot.offset] = by_offset.get(slot.offset, frozenset()).union(members)
        self._rows = _Rows(len(slots))

    def _with(self, graph: ConflictGraph, moved: dict[int, Slot]) -> PeriodicSchedule:
        """A schedule on graph whose slots are self's, except that each node
        of moved takes the slot given there: a new one or its first one.

        self is left as it was. With nothing moved, the new schedule shares
        self's slots dict, buckets and merged rows outright. Otherwise it
        copies the slots dict, and shares every bucket no moved node leaves
        or joins: only the touched per-period dicts are copied, a touched
        bucket is replaced by a new frozenset, and the merged rows start
        afresh. Emptied buckets stay, as happy_set skips them. Subclass
        fields are shared, as by a shallow copy.
        """
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.graph = graph
        if not moved:
            return new
        old = self.slots
        new.slots = {**old, **moved}
        new._rows = _Rows(len(new.slots))
        buckets = new._buckets = dict(self._buckets)
        for v, slot in moved.items():
            if v in old:
                left = old[v]
                by_offset = buckets[left.period] = dict(buckets[left.period])
                by_offset[left.offset] = by_offset[left.offset] - {v}
            by_offset = buckets[slot.period] = dict(buckets.get(slot.period, ()))
            by_offset[slot.offset] = by_offset.get(slot.offset, frozenset()) | {v}
        return new

    def happy(self, v: int, t: int) -> bool:
        slot = self.slots[v]
        return t % slot.period == slot.offset

    def period(self, v: int) -> int:
        return self.slots[v].period

    def happy_set(self, t: int) -> frozenset[int]:
        """The one non-empty matching bucket itself, else the union of all of
        them, stored on first use and handed out again while there is room."""
        hits = [bucket for period, by_offset in self._buckets.items()
                if (bucket := by_offset.get(t % period))]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            return _EMPTY
        # The key tuple hashes its buckets' cached hashes and compares them
        # by identity first, so a lookup costs O(#hits), not O(row).
        rows, key = self._rows, tuple(hits)
        row = rows.get(key)
        if row is None:
            row = frozenset().union(*hits)
            if len(row) <= rows.room:
                rows.room -= len(row)
                rows[key] = row
        return row


class EliasSchedule(PeriodicSchedule):
    """Perfectly periodic schedule driven by omega codewords of the colors.

    Node v is happy iff the low bits of t spell its color's codeword in
    reverse: its slot is Slot(code_residue(code), len(code)). Prefix-freeness
    of the code means at most one color can match any holiday, so happy sets
    are single color classes and independence follows from properness.
    """

    def __init__(self, graph: ConflictGraph, coloring: dict[int, int]):
        # is_proper checks that every node is colored; equal sizes rule out extras.
        if len(coloring) != len(graph) or not is_proper(graph, coloring):
            raise ValueError("coloring must be proper and color exactly the graph's nodes")
        self.coloring = dict(coloring)
        slot_of = {c: _omega_slot(c) for c in set(self.coloring.values())}
        slots = dict(zip(self.coloring, map(slot_of.__getitem__, self.coloring.values())))
        super().__init__(graph, slots)

    def _recolored(
        self, graph: ConflictGraph, recolor: Iterable[int], touched: tuple[int, ...]
    ) -> EliasSchedule:
        """The schedule on graph after each node of recolor, in order, takes
        the smallest color its neighbors in graph leave free.

        graph may differ from self's only at the touched nodes' edges, and
        every node that graph adds must be in recolor. The coloring is
        copied at the first node whose color changes, and only such nodes
        get new slots, so with none the new schedule shares self's
        coloring, slots and buckets. Given that self is proper, checking
        the touched nodes' edges is equivalent to the constructor's full
        check, and raises the same error; it is is_proper's C-level clash
        test, `_clashes`, on the touched nodes alone.
        """
        coloring = self.coloring
        moved: dict[int, Slot] = {}
        for w in recolor:
            c = smallest_free_color(graph, coloring, w)
            if c != coloring.get(w):  # a threshold below 1 can give w its own color back
                if coloring is self.coloring:
                    coloring = dict(coloring)
                coloring[w] = c
                moved[w] = _omega_slot(c)
        nbrs = map(graph.adjacency().__getitem__, touched)
        if len(coloring) != len(graph) or _clashes(coloring.__getitem__, touched, nbrs):
            raise ValueError("coloring must be proper and color exactly the graph's nodes")
        new = self._with(graph, moved)
        new.coloring = coloring
        return new


def _omega_slot(c: int) -> Slot:
    """Color c's slot: its omega codeword, read as in EliasSchedule."""
    code = codec.omega_encode(c)
    return Slot(codec.code_residue(code), len(code))


def phased_greedy(g: ConflictGraph, init: dict[int, int], horizon: int) -> PhasedSchedule:
    """Replay the phased greedy recoloring for holidays 1..horizon.

    On holiday i the nodes whose current color is i are happy; each is
    immediately recolored to the smallest s in (i, i + degree + 1] unused
    by its neighbors, so consecutive happy holidays of a node are at most
    degree + 1 apart. Colors of nodes outside the graph are ignored.

    The replay works on whole color classes: holders[c] lists the nodes
    colored c and blocked[c] holds every node with a neighbor colored c.
    Phase i walks c = i+1, i+2, ... once for all happy nodes together, and
    those not in blocked[c] take c. Setup costs O(n + m). Per holiday, the
    Python steps equal the largest recolor distance, and the set work, done
    at C speed, is the sum of the happy nodes' degrees.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not is_proper(g, init):
        raise ValueError("initial coloring must be proper and cover every node")
    if any(c < 1 for c in init.values()):
        raise ValueError("colors are positive integers")

    # Neighbor tuples by node, so that nbrs.__getitem__ maps whole sets at C speed.
    nbrs: dict[int, tuple[int, ...]] = {}
    holders: dict[int, list[int]] = {}
    blocked: dict[int, set[int]] = {}
    for v in g.nodes():
        nbrs[v] = g.neighbors(v)
        holders.setdefault(init[v], []).append(v)
        blocked.setdefault(init[v], set()).update(nbrs[v])

    happy_sets: list[frozenset[int]] = []
    for i in range(1, horizon + 1):
        # frozenset of a list sizes its table for the elements; of a set, up to twice that.
        happy = frozenset(holders.pop(i, ()))
        blocked.pop(i, None)
        happy_sets.append(happy)
        waiting = set(happy)
        c = i
        while waiting:
            c += 1
            # blocked[c] only grows until phase c: a node colored c keeps c
            # until then. The happy nodes are independent, so those taking c
            # never block one another within the phase.
            taken = blocked.setdefault(c, set())
            free = waiting - taken
            if not free:
                continue
            adj = list(map(nbrs.__getitem__, free))
            if c > i + 1 and min(map(len, adj)) < c - i - 1:
                raise AssertionError("greedy recolor escaped its pigeonhole window")
            holders.setdefault(c, []).extend(free)
            taken.update(*adj)
            waiting -= free
    return PhasedSchedule(g.copy(), happy_sets)


def elias_schedule(g: ConflictGraph, coloring: dict[int, int]) -> EliasSchedule:
    """Perfectly periodic schedule from any proper coloring."""
    return EliasSchedule(g.copy(), coloring)


def free_residues(taken: Iterable[int | None], modulus: int) -> Iterator[int]:
    """The residues in [0, modulus) that are not in taken, ascending, lazily.

    taken holds the placed neighbors' offsets reduced modulo modulus: a
    neighbor whose period is a multiple of modulus takes the one residue
    its offset has. Values outside [0, modulus), such as None for a
    neighbor not placed yet, take nothing. taken is read before returning.
    """
    return filterfalse(set(taken).__contains__, range(modulus))


def _level_slots(
    g: ConflictGraph, place: Callable[[list[int], dict[int, int], int], dict[int, int]]
) -> PeriodicSchedule:
    """The slot schedule that place builds one level at a time.

    Node v's level is j = ceil(log2(degree + 1)), so 2**j >= degree + 1.
    The levels run from high to low, and place(members, residue, 2**j)
    returns the offsets of the level's members, in [0, 2**j), in the order
    their slots are recorded. residue holds every node of a higher level
    with its offset reduced modulo 2**j once per level: a placed neighbor's
    period is a multiple of 2**j, so it blocks exactly that residue. place
    may add its own members to residue as it goes. The nodes of one
    (offset, level) share one Slot object.
    """
    levels: dict[int, list[int]] = {}
    for v, nbrs in g.adjacency().items():
        levels.setdefault(len(nbrs).bit_length(), []).append(v)
    slots: dict[int, Slot] = {}
    residue: dict[int, int] = {}  # node of a higher level -> offset mod 2**j
    for j in sorted(levels, reverse=True):
        modulus = 1 << j
        residue = dict(zip(residue, map((modulus - 1).__and__, residue.values())))
        offsets = place(levels[j], residue, modulus)
        made = {x: Slot(offset=x, level=j) for x in set(offsets.values())}
        slots.update(zip(offsets, map(made.__getitem__, offsets.values())))
        residue.update(offsets)
    return PeriodicSchedule(g.copy(), slots)


def degree_slots_sequential(g: ConflictGraph) -> PeriodicSchedule:
    """Assign slots greedily in decreasing degree order (ties: ascending id).

    Node v takes level j = ceil(log2(degree + 1)) and the smallest offset
    in [0, 2**j - 1] that no already-assigned neighbor occupies modulo
    2**j. The range always holds a free offset: v has at most degree
    assigned neighbors and 2**j >= degree + 1.

    Levels only fall along this order, so each level is placed in turn by
    `_level_slots`. Each node costs a constant number of Python steps, and
    its neighbors are read in C-level maps.
    """
    adj = g.adjacency()
    degree = dict(zip(adj, map(len, adj.values())))

    def fit_level(members: list[int], residue: dict[int, int], modulus: int) -> dict[int, int]:
        placed: dict[int, int] = {}
        # A stable sort by descending degree keeps the ascending ids of equal degrees.
        for v in sorted(sorted(members), key=degree.__getitem__, reverse=True):
            x = next(free_residues(map(residue.get, adj[v]), modulus), None)
            if x is None:
                raise AssertionError(f"no free offset for node {v}; assignment order is broken")
            residue[v] = placed[v] = x  # later nodes of the level see v
        return placed

    return _level_slots(g, fit_level)


def degree_slots_distributed(g: ConflictGraph, seed: int = 0) -> tuple[PeriodicSchedule, RoundLog]:
    """Distributed slot assignment: one randomized coloring phase per level.

    Levels run from ceil(log2(max_degree + 1)) down to 0; in phase j the
    nodes with that level pick offsets in [0, 2**j - 1] via the randomized
    colorer, with palettes restricted to offsets that avoid, modulo 2**j,
    everything already picked by higher-level neighbors. Outside the
    colorer each node costs a constant number of Python steps, and its
    neighbors are read in C-level maps.
    """
    adj = g.adjacency()
    log = RoundLog()

    def color_level(members: list[int], residue: dict[int, int], modulus: int) -> dict[int, int]:
        # Each palette is ascending and keeps at least 2**j - (higher-level
        # neighbors) >= 1 + (same-level neighbors) offsets, as the colorer needs.
        free = {v: list(free_residues(map(residue.get, adj[v]), modulus)) for v in members}
        level = set(members)
        peers = {v: tuple(filter(level.__contains__, adj[v])) for v in members}
        offsets, phase_log = _color_rounds(free, peers, seed)
        log.merge(phase_log)
        return offsets

    return _level_slots(g, color_level), log


def periodic_conflicts(s: PeriodicSchedule) -> list[tuple[int, int]]:
    """Edges whose endpoints host together on some holiday, in edge order.

    Both endpoints host on some t iff their offsets agree modulo the gcd of
    their periods (Chinese remainder theorem): the smaller power-of-two
    period. An empty list proves independence for every t.
    """
    bad = []
    for u, v in s.graph.edges():
        a, b = s.slots[u], s.slots[v]
        m = min(a.period, b.period)
        if a.offset % m == b.offset % m:
            bad.append((u, v))
    return bad


def dynamic_insert(s: EliasSchedule, u: int, v: int) -> EliasSchedule:
    """New conflict edge (u, v); recolor the higher endpoint if colors collide.

    Unknown endpoints are created and greedily colored first (ascending id),
    which never clashes. If two previously colored endpoints collide, the
    higher id moves to the smallest color its neighbors leave free; its
    palette grew along with its degree, so the new color is still at most
    degree + 1. s reads as it did: its graph hands its adjacency dict to
    the new graph (`ConflictGraph._derive`) and rebuilds its own on first
    read, and a rejected event hands the dict back unchanged. The new
    graph gets the edge, and `_recolored` the nodes to recolor: the new
    endpoints, the higher one on a clash, or none. An event that recolors
    nobody shares s's coloring, slots and buckets, so it costs
    O(deg u + deg v) steps, whatever n is.
    """
    g = s.graph._derive()
    try:
        g.insert_edge(u, v)
        recolor = [w for w in sorted({u, v}) if w not in s.coloring]
        if not recolor and s.coloring[u] == s.coloring[v]:
            recolor = [max(u, v)]
        return s._recolored(g, recolor, (u, v))
    except ValueError:
        s.graph._take_back()
        raise


def dynamic_remove(s: EliasSchedule, u: int, v: int, recolor_threshold: float = 2.0) -> EliasSchedule:
    """Drop edge (u, v); recolor endpoints whose color outgrew their degree.

    An endpoint is re-greedy-colored when its color exceeds
    recolor_threshold * (degree + 1), i.e. when its hosting rate has become
    disproportionate to its shrunken neighborhood. The default factor 2 is
    a tunable slack: recoloring costs the neighbors nothing but churns the
    node's own period, so mild oversize is tolerated. A NaN threshold is
    rejected, since no color would ever compare greater than it. The
    endpoints over the threshold go to `_recolored`; s's graph hands over
    its dict, and s's state is shared, as in dynamic_insert.
    """
    if math.isnan(recolor_threshold):
        raise ValueError("recolor threshold must be a number, got nan")
    g = s.graph._derive()
    try:
        g.remove_edge(u, v)
        over = [w for w in sorted((u, v)) if s.coloring[w] > recolor_threshold * (g.degree(w) + 1)]
        return s._recolored(g, over, (u, v))
    except ValueError:
        s.graph._take_back()
        raise
