"""Proper colorings of the conflict graph.

Two colorers: a sequential greedy pass, and a synchronous-round randomized
colorer with per-node palette restriction. The randomized colorer is the
classic symmetric process (draw a free color, keep it if no uncolored
neighbor drew the same one this round) and preserves the two properties the
schedulers need: properness, and color(v) <= degree(v) + 1 under default
palettes. It makes no claim to any particular round-complexity bound; the
RoundLog records what the simulation actually used.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, filterfalse, repeat
from operator import contains, not_
from typing import Container, Iterable, Iterator, Mapping

from .graph import ConflictGraph

_MASK64 = (1 << 64) - 1
MAX_ROUNDS = 10_000  # local_random_color raises RuntimeError after this many rounds


@dataclass
class RoundLog:
    """Synchronous rounds and node-to-neighbor messages used by a run."""

    rounds: int = 0
    messages: int = 0

    def merge(self, other: "RoundLog") -> None:
        self.rounds += other.rounds
        self.messages += other.messages


def is_proper(g: ConflictGraph, coloring: Mapping[int, int]) -> bool:
    """True iff every edge has distinct endpoint colors and every node is colored.

    Runs in C-level maps with no Python step per node or edge; each edge is
    checked from both ends.
    """
    adj = g.adjacency()
    if not all(map(coloring.__contains__, adj)):
        return False
    color = coloring.__getitem__
    # contains(iterator of v's neighbor colors, color of v), for every node v.
    return not any(map(contains, map(map, repeat(color), adj.values()), map(color, adj)))


def first_fit(taken: Container[int], start: int = 1) -> int:
    """Smallest integer >= start that is not in taken.

    The greedy step behind first-fit colors (`smallest_free_color`,
    `greedy_color`). `phased_greedy` recolors whole color classes by set
    differences and `degree_slots_sequential` scans free residues, so
    neither calls it; their node-by-node test oracles do.
    """
    c = start
    while c in taken:
        c += 1
    return c


def greedy_color(g: ConflictGraph) -> dict[int, int]:
    """First-fit coloring in ascending node id order.

    Each node takes the smallest positive color unused by already-colored
    neighbors, so color(v) <= degree(v) + 1. A node's neighbor colors are
    gathered by one C-level map (None for the uncolored ones).
    """
    adj = g.adjacency()
    coloring: dict[int, int] = {}
    color = coloring.get
    for v in sorted(adj):
        coloring[v] = first_fit(set(map(color, adj[v])))
    return coloring


def smallest_free_color(g: ConflictGraph, coloring: Mapping[int, int], v: int) -> int:
    """Smallest positive color not used by any colored neighbor of v."""
    return first_fit(set(map(coloring.get, g.neighbors(v))))


def _draw_indices(
    seed: int, nodes: list[int], round_no: int, sizes: Iterable[int]
) -> Iterator[int]:
    """Each node's draw in [0, size) for this seed and round, in nodes order.

    The draw for (seed, node, round) is the blake2b digest of the three as
    big-endian 64-bit words, read as an integer modulo size; it does not
    depend on process state. The hashing runs in C-level maps.
    """
    words = map(_MASK64.__and__, nodes)
    payloads = map(struct.Struct(">QQQ").pack,
                   repeat(seed & _MASK64), words, repeat(round_no & _MASK64))
    digests = map(hashlib.blake2b.digest, map(partial(hashlib.blake2b, digest_size=8), payloads))
    return map(int.__mod__, map(int.from_bytes, digests, repeat("big")), sizes)


def local_random_color(
    g: ConflictGraph,
    palettes: Mapping[int, Iterable[int]] | None = None,
    seed: int = 0,
) -> tuple[dict[int, int], RoundLog]:
    """Synchronous randomized coloring of the palette holders.

    Only nodes with a palette participate; properness is guaranteed among
    them. Palette colors are non-negative integers; by default node v gets
    1..degree(v) + 1. Callers that pre-colored other neighbors must already
    have removed the conflicting colors from the palettes. Every palette
    must have at least (participating neighbors + 1) colors, which keeps a
    free color available in every round and makes termination almost sure.

    Per round, every uncolored node draws uniformly from its palette minus
    the permanent colors of its neighbors and keeps the draw only if no
    uncolored neighbor drew the same value; identical draws stall both
    sides. Deterministic for a fixed seed.

    Each uncolored node costs a constant number of Python steps per round:
    the draws and the clash checks run in C-level maps and set operations,
    and a clash is looked for only among the nodes that drew the same
    color. A finalized color leaves the palettes of the still uncolored
    neighbors, found per color by a C-level set intersection; that is one
    Python step per such neighbor, at most one per edge over the run.
    """
    if palettes is None:
        palettes = {v: range(1, g.degree(v) + 2) for v in g.nodes()}
    # free[v] is v's palette minus the colors its neighbors have finalized, ascending.
    free: dict[int, list[int]] = {}
    for v, colors in palettes.items():
        if not g.has_node(v):
            raise ValueError(f"palette given for unknown node {v}")
        pal = sorted(set(colors))
        if pal and pal[0] < 0:
            raise ValueError(f"colors are non-negative integers, got {pal[0]} for node {v}")
        free[v] = pal

    adj = g.adjacency()
    peers = {v: tuple(filter(free.__contains__, adj[v])) for v in free}
    for v in sorted(free):
        if len(free[v]) < len(peers[v]) + 1:
            raise ValueError(
                f"palette of node {v} has {len(free[v])} colors for "
                f"{len(peers[v])} participating neighbors; needs degree + 1"
            )
    return _color_rounds(free, peers, seed)


def _color_rounds(
    free: dict[int, list[int]], peers: Mapping[int, tuple[int, ...]], seed: int
) -> tuple[dict[int, int], RoundLog]:
    """The rounds of local_random_color, on palettes that pass its checks.

    free[v] is node v's palette, ascending and without repeats, with more
    colors than v has participating neighbors, peers[v]. The lists shrink
    in place as neighbors finalize colors. degree_slots_distributed calls
    this directly: its palettes pass the checks by construction.
    """
    uncolored = sorted(free)  # ascending, as every round visits them
    coloring: dict[int, int] = {}
    log = RoundLog()
    while uncolored:
        if log.rounds >= MAX_ROUNDS:
            raise RuntimeError(f"coloring did not terminate within {MAX_ROUNDS} rounds")
        log.rounds += 1
        pals = list(map(free.__getitem__, uncolored))
        if not all(pals):
            v = next(v for v, pal in zip(uncolored, pals) if not pal)
            raise RuntimeError(f"node {v} has no free color; palette precondition broken")
        picks = _draw_indices(seed, uncolored, log.rounds, map(len, pals))
        draws = list(map(list.__getitem__, pals, picks))
        log.messages += sum(map(len, map(peers.__getitem__, uncolored)))
        # A node keeps its draw iff no uncolored neighbor drew the same
        # color, so only a color with several drawers needs a check, made
        # against one set of its drawers.
        drawers: dict[int, list[int]] = {}
        for v, c in zip(uncolored, draws):
            drawers.setdefault(c, []).append(v)
        stalled: set[int] = set()
        for group in drawers.values():
            if len(group) > 1:
                drew = set(group)
                clear = map(drew.isdisjoint, map(peers.__getitem__, group))
                stalled.update(compress(group, map(not_, clear)))
        kept = list(map(not_, map(stalled.__contains__, uncolored)))
        coloring.update(zip(compress(uncolored, kept), compress(draws, kept)))
        uncolored = list(filter(stalled.__contains__, uncolored))
        # Each new color leaves the free palettes of its winners' uncolored
        # neighbors, from the next round on.
        for c, group in drawers.items():
            winners = filterfalse(stalled.__contains__, group)
            for u in stalled.intersection(chain.from_iterable(map(peers.__getitem__, winners))):
                pal = free[u]
                if c in pal:
                    pal.remove(c)
    return coloring, log
