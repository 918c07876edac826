"""Proper colorings of the conflict graph.

Two colorers: a sequential greedy pass, and a synchronous-round randomized
colorer. The randomized colorer is the classic symmetric process (draw a
free color, keep it if no uncolored neighbor drew the same one this round)
and preserves the two properties the schedulers need: properness, and
color(v) <= degree(v) + 1 in local_random_color. Its rounds, _color_rounds,
also take per-node restricted palettes, which the distributed slot builder
hands in one level at a time. It makes no claim to any particular
round-complexity bound; the RoundLog records what the simulation actually
used.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, filterfalse, repeat
from operator import contains, not_
from typing import Callable, Container, Iterable, Iterator, Mapping

from .graph import ConflictGraph

_MASK64 = (1 << 64) - 1
MAX_ROUNDS = 10_000  # _color_rounds raises RuntimeError after this many rounds


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
    return not _clashes(coloring.__getitem__, adj, adj.values())


def _clashes(color: Callable[[int], int], nodes: Iterable[int], nbrs: Iterable) -> bool:
    """True iff some node of nodes shares its color with a neighbor.

    nbrs gives each node's neighbors, in the order of nodes. Runs in C-level
    maps, with no Python step per node or edge.
    """
    # contains(iterator of v's neighbor colors, color of v), for every node v.
    return any(map(contains, map(map, repeat(color), nbrs), map(color, nodes)))


def first_fit(taken: Container[int], start: int = 1) -> int:
    """Smallest integer >= start that is not in taken.

    The greedy step behind first-fit colors (`smallest_free_color`,
    `greedy_color`). `phased_greedy` recolors whole color classes by set
    differences and `degree_slots_sequential` takes the first of
    `free_residues`, so neither calls it; their node-by-node test oracles
    do.
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


def local_random_color(g: ConflictGraph, seed: int = 0) -> tuple[dict[int, int], RoundLog]:
    """Synchronous randomized coloring in which node v draws from 1..degree(v) + 1.

    Per round, every uncolored node draws uniformly from its palette minus
    the permanent colors of its neighbors and keeps the draw only if no
    uncolored neighbor drew the same value; identical draws stall both
    sides. Deterministic for a fixed seed. The rounds are `_color_rounds`,
    with every node participating.
    """
    adj = g.adjacency()
    free = {v: list(range(1, len(nbrs) + 2)) for v, nbrs in adj.items()}
    return _color_rounds(free, adj, seed)


def _color_rounds(
    free: dict[int, list[int]], peers: Mapping[int, tuple[int, ...]], seed: int
) -> tuple[dict[int, int], RoundLog]:
    """The randomized colorer on restricted palettes: the nodes of free participate.

    free[v] is node v's palette: non-negative colors, ascending and without
    repeats. peers[v] is v's participating neighbors. Callers that
    pre-colored other neighbors must already have removed the conflicting
    colors. Every palette must have more colors than v has peers, which
    keeps a free color available in every round and makes termination
    almost sure; a palette that runs out raises RuntimeError, and so does
    a run past MAX_ROUNDS. The lists shrink in place as neighbors finalize
    colors. local_random_color passes the default palettes and
    degree_slots_distributed the free offsets of one level.

    Each uncolored node costs a constant number of Python steps per round:
    the draws and the clash checks run in C-level maps and set operations,
    and a clash is looked for only among the nodes that drew the same
    color. A finalized color leaves the palettes of the still uncolored
    neighbors, found per color by a C-level set intersection; that is one
    Python step per such neighbor, at most one per edge over the run.
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
