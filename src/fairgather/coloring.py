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
from typing import Container, Iterable, Mapping

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
    """True iff every edge has distinct endpoint colors and every node is colored."""
    nodes = g.nodes()
    if any(v not in coloring for v in nodes):
        return False
    # Each edge once, from its lower endpoint; g.edges() would sort all of them.
    return all(coloring[u] != coloring[w] for u in nodes for w in g.neighbors(u) if u < w)


def first_fit(taken: Container[int], start: int = 1) -> int:
    """Smallest integer >= start that is not in taken.

    The greedy step behind first-fit colors (`smallest_free_color`,
    `greedy_color`) and the offsets of `degree_slots_sequential`.
    `phased_greedy` recolors whole color classes by set differences and
    does not call it; its node-by-node test oracle does.
    """
    c = start
    while c in taken:
        c += 1
    return c


def greedy_color(g: ConflictGraph) -> dict[int, int]:
    """First-fit coloring in ascending node id order.

    Each node takes the smallest positive color unused by already-colored
    neighbors, so color(v) <= degree(v) + 1.
    """
    coloring: dict[int, int] = {}
    for v in sorted(g.nodes()):
        coloring[v] = smallest_free_color(g, coloring, v)
    return coloring


def smallest_free_color(g: ConflictGraph, coloring: Mapping[int, int], v: int) -> int:
    """Smallest positive color not used by any colored neighbor of v."""
    return first_fit({coloring[u] for u in g.neighbors(v) if u in coloring})


def _draw_index(seed: int, node: int, round_no: int, size: int) -> int:
    # Deterministic per-(seed, node, round) stream; independent of process state.
    payload = struct.pack(">QQQ", seed & _MASK64, node & _MASK64, round_no & _MASK64)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") % size

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
    """
    if palettes is None:
        palettes = {v: range(1, g.degree(v) + 2) for v in g.nodes()}
    palette_of: dict[int, tuple[int, ...]] = {}
    for v, colors in palettes.items():
        if not g.has_node(v):
            raise ValueError(f"palette given for unknown node {v}")
        pal = tuple(sorted(set(colors)))
        if pal and pal[0] < 0:
            raise ValueError(f"colors are non-negative integers, got {pal[0]} for node {v}")
        palette_of[v] = pal

    participants = set(palette_of)
    peers = {v: [u for u in g.neighbors(v) if u in participants] for v in participants}
    for v in sorted(participants):
        if len(palette_of[v]) < len(peers[v]) + 1:
            raise ValueError(
                f"palette of node {v} has {len(palette_of[v])} colors for "
                f"{len(peers[v])} participating neighbors; needs degree + 1"
            )

    coloring: dict[int, int] = {}
    forbidden: dict[int, set[int]] = {v: set() for v in participants}
    uncolored = set(participants)
    log = RoundLog()

    while uncolored:
        if log.rounds >= MAX_ROUNDS:
            raise RuntimeError(f"coloring did not terminate within {MAX_ROUNDS} rounds")
        log.rounds += 1
        draws: dict[int, int] = {}
        for v in sorted(uncolored):
            available = [c for c in palette_of[v] if c not in forbidden[v]]
            if not available:
                raise RuntimeError(f"node {v} has no free color; palette precondition broken")
            draws[v] = available[_draw_index(seed, v, log.rounds, len(available))]
            log.messages += len(peers[v])
        # draws was filled in ascending order, and finalized keeps that order.
        finalized = [
            v
            for v, c in draws.items()
            if all(draws.get(u) != c for u in peers[v])
        ]
        for v in finalized:
            coloring[v] = draws[v]
            uncolored.discard(v)
            for u in peers[v]:
                forbidden[u].add(draws[v])
    return coloring, log
