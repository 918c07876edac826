"""Schedule constructions for the holiday gathering problem.

Three ways to decide who is happy (hosts all their children) on holiday t:

* phased greedy — replay of the recoloring process; happy sets depend on
  the whole history, gaps are bounded by degree + 1, no periodicity claim;
* omega-code color schedule — node with color c is happy exactly every
  2**rho(c) holidays, where rho is the omega codeword length;
* degree-bound slots — node picks an offset x and level j and is happy
  when t = x (mod 2**j), with 2**j <= 2 * degree.

Holidays are numbered from t = 1. Every schedule answers happy(v, t) and
guarantees the happy set is an independent set of its graph. Schedules are
frozen once built; the dynamic edge operations return new schedule values.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import AbstractSet, Protocol

from . import codec
from .coloring import RoundLog, first_fit, is_proper, local_random_color, smallest_free_color
from .graph import ConflictGraph


def _ceil_log2(n: int) -> int:
    """Smallest j with 2**j >= n, for n >= 1."""
    return (n - 1).bit_length()


class Schedule(Protocol):
    """What every schedule answers on its graph: happy(v, t) and happy_set(t)."""

    algorithm: str
    graph: ConflictGraph

    def happy(self, v: int, t: int) -> bool: ...

    def happy_set(self, t: int) -> AbstractSet[int]: ...


class PhasedSchedule:
    """Frozen replay of the phased greedy recoloring; holiday t reads happy_sets[t - 1]."""

    algorithm = "phased"

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


class PeriodicSchedule:
    """Node v is happy exactly when t = slots[v].offset (mod slots[v].period).

    Nodes are indexed by period and offset, so happy_set(t) reads one
    bucket per distinct period: O(#distinct periods + |happy set|).
    """

    algorithm = "slots"

    def __init__(self, graph: ConflictGraph, slots: dict[int, Slot]):
        self.graph = graph
        self.slots = slots
        self._buckets: dict[int, dict[int, list[int]]] = {}
        for v, slot in slots.items():
            self._buckets.setdefault(slot.period, {}).setdefault(slot.offset, []).append(v)

    def _with(self, graph: ConflictGraph, changed: dict[int, Slot]) -> PeriodicSchedule:
        """A schedule on graph whose slots are self's updated by changed.

        self is left as it was: the new schedule shares every bucket no
        changed node leaves or joins, and copies only the touched
        per-period dicts and buckets. Emptied buckets stay, as happy_set
        skips them. Subclass fields are copied shallowly.
        """
        new = copy.copy(self)
        new.graph = graph
        new.slots = slots = dict(self.slots)
        buckets = new._buckets = dict(self._buckets)

        def bucket(slot: Slot) -> list[int]:
            """slot's bucket in new, copied so that self's stays as it was."""
            by_offset = buckets[slot.period] = dict(buckets.get(slot.period, ()))
            members = by_offset[slot.offset] = list(by_offset.get(slot.offset, ()))
            return members

        for v, slot in changed.items():
            old = slots.get(v)
            if old == slot:
                continue
            if old is not None:
                bucket(old).remove(v)
            bucket(slot).append(v)
            slots[v] = slot
        return new

    def happy(self, v: int, t: int) -> bool:
        slot = self.slots[v]
        return t % slot.period == slot.offset

    def period(self, v: int) -> int:
        return self.slots[v].period

    def happy_set(self, t: int) -> set[int]:
        out: set[int] = set()
        for period, by_offset in self._buckets.items():
            bucket = by_offset.get(t % period)
            if bucket:
                out.update(bucket)
        return out


class EliasSchedule(PeriodicSchedule):
    """Perfectly periodic schedule driven by omega codewords of the colors.

    Node v is happy iff the low bits of t spell its color's codeword in
    reverse: its slot is Slot(code_residue(code), len(code)). Prefix-freeness
    of the code means at most one color can match any holiday, so happy sets
    are single color classes and independence follows from properness.
    """

    algorithm = "elias"

    def __init__(self, graph: ConflictGraph, coloring: dict[int, int]):
        # is_proper checks that every node is colored; equal sizes rule out extras.
        if len(coloring) != len(graph) or not is_proper(graph, coloring):
            raise ValueError("coloring must be proper and color exactly the graph's nodes")
        self.coloring = dict(coloring)
        slot_of = {c: _omega_slot(c) for c in set(self.coloring.values())}
        super().__init__(graph, {v: slot_of[c] for v, c in self.coloring.items()})

    def _recolored(
        self, graph: ConflictGraph, coloring: dict[int, int], touched: tuple[int, ...]
    ) -> EliasSchedule:
        """The schedule for graph and coloring, which it takes over.

        They may differ from self's only at the touched nodes and the edges
        at them. Given that self is proper, checking the touched nodes'
        edges is equivalent to the constructor's full check, and raises the
        same error.
        """
        if len(coloring) != len(graph) or any(
            coloring[w] == coloring[x] for w in touched for x in graph.neighbors(w)
        ):
            raise ValueError("coloring must be proper and color exactly the graph's nodes")
        new = self._with(graph, {w: _omega_slot(coloring[w]) for w in touched})
        new.coloring = coloring
        return new


def _omega_slot(c: int) -> Slot:
    code = codec.omega_encode(c)
    return Slot(codec.code_residue(code), len(code))


def phased_greedy(g: ConflictGraph, init: dict[int, int], horizon: int) -> PhasedSchedule:
    """Replay the phased greedy recoloring for holidays 1..horizon.

    On holiday i the nodes whose current color is i are happy; each is
    immediately recolored to the smallest s in (i, i + degree + 1] unused
    by its neighbors, so consecutive happy holidays of a node are at most
    degree + 1 apart. The happy nodes of one phase form an independent
    set, so their recolorings never interact and the phase is well defined
    even though they all read the colors present at the start of the phase.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not is_proper(g, init):
        raise ValueError("initial coloring must be proper and cover every node")
    if any(c < 1 for c in init.values()):
        raise ValueError("colors are positive integers")

    col = dict(init)
    happy_sets: list[frozenset[int]] = []
    for i in range(1, horizon + 1):
        happy = sorted(v for v in g.nodes() if col[v] == i)
        # Reading live colors equals reading the phase-start snapshot: no two
        # happy nodes are adjacent, so no recoloring is visible to another.
        for v in happy:
            nbrs = g.neighbors(v)
            col[v] = first_fit({col[u] for u in nbrs}, start=i + 1)
            if col[v] > i + len(nbrs) + 1:
                raise AssertionError("greedy recolor escaped its pigeonhole window")
        happy_sets.append(frozenset(happy))
    return PhasedSchedule(g.copy(), happy_sets)


def elias_schedule(g: ConflictGraph, coloring: dict[int, int]) -> EliasSchedule:
    """Perfectly periodic schedule from any proper coloring."""
    return EliasSchedule(g.copy(), coloring)


def degree_slots_sequential(g: ConflictGraph) -> PeriodicSchedule:
    """Assign slots greedily in decreasing degree order (ties: ascending id).

    Node v takes level j = ceil(log2(degree + 1)) and the smallest offset
    in [0, 2**j - 1] that no already-assigned neighbor occupies modulo
    2**j. The range always holds a free offset: v has at most degree
    assigned neighbors and 2**j >= degree + 1.
    """
    slots: dict[int, Slot] = {}
    for v in sorted(g.nodes(), key=lambda v: (-g.degree(v), v)):
        j = _ceil_log2(g.degree(v) + 1)
        modulus = 1 << j
        x = first_fit({slots[u].offset % modulus for u in g.neighbors(v) if u in slots}, start=0)
        if x >= modulus:
            raise AssertionError(f"no free offset for node {v}; assignment order is broken")
        slots[v] = Slot(offset=x, level=j)
    return PeriodicSchedule(g.copy(), slots)


def degree_slots_distributed(g: ConflictGraph, seed: int = 0) -> tuple[PeriodicSchedule, RoundLog]:
    """Distributed slot assignment: one randomized coloring phase per level.

    Levels run from ceil(log2(max_degree + 1)) down to 0; in phase j the
    nodes with that level pick offsets in [0, 2**j - 1] via the randomized
    colorer, with palettes restricted to offsets that avoid, modulo 2**j,
    everything already picked by higher-level neighbors. The palette
    colorer speaks positive integers, so offsets are shifted by one on the
    way in and out.
    """
    slots: dict[int, Slot] = {}
    log = RoundLog()
    levels: dict[int, list[int]] = {}
    for v in g.nodes():
        levels.setdefault(_ceil_log2(g.degree(v) + 1), []).append(v)
    for j in range(max(levels, default=-1), -1, -1):
        members = levels.get(j)
        if not members:
            continue
        modulus = 1 << j
        palettes = {}
        for v in members:
            blocked = {slots[u].offset % modulus for u in g.neighbors(v) if u in slots}
            palettes[v] = [x + 1 for x in range(modulus) if x not in blocked]
        phase_colors, phase_log = local_random_color(g, palettes, seed=seed)
        log.merge(phase_log)
        for v, c in phase_colors.items():
            slots[v] = Slot(offset=c - 1, level=j)
    return PeriodicSchedule(g.copy(), slots), log


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
    degree + 1. s is left unchanged; the new schedule shares its untouched
    state, so an event costs O(deg) Python steps plus C-speed dict copies.
    """
    g = s.graph.copy()
    g.insert_edge(u, v)
    coloring = dict(s.coloring)
    for w in sorted({u, v}):
        if w not in coloring:
            coloring[w] = smallest_free_color(g, coloring, w)
    if coloring[u] == coloring[v]:
        loser = max(u, v)
        coloring[loser] = smallest_free_color(g, coloring, loser)
    return s._recolored(g, coloring, (u, v))


def dynamic_remove(s: EliasSchedule, u: int, v: int, recolor_threshold: float = 2.0) -> EliasSchedule:
    """Drop edge (u, v); recolor endpoints whose color outgrew their degree.

    An endpoint is re-greedy-colored when its color exceeds
    recolor_threshold * (degree + 1), i.e. when its hosting rate has become
    disproportionate to its shrunken neighborhood. The default factor 2 is
    a tunable slack: recoloring costs the neighbors nothing but churns the
    node's own period, so mild oversize is tolerated. A NaN threshold is
    rejected, since no color would ever compare greater than it. s is left
    unchanged, at the cost stated in dynamic_insert.
    """
    if math.isnan(recolor_threshold):
        raise ValueError("recolor threshold must be a number, got nan")
    g = s.graph.copy()
    g.remove_edge(u, v)
    coloring = dict(s.coloring)
    for w in sorted((u, v)):
        if coloring[w] > recolor_threshold * (g.degree(w) + 1):
            coloring[w] = smallest_free_color(g, coloring, w)
    return s._recolored(g, coloring, (u, v))
