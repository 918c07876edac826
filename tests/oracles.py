"""Reference implementations that tests compare the library against."""

from __future__ import annotations

import hashlib
import struct
from typing import AbstractSet, Iterable, Mapping, Sequence

from fairgather import coloring
from fairgather.coloring import RoundLog, first_fit
from fairgather.graph import ConflictGraph, data_lines
from fairgather.schedulers import PeriodicSchedule, Slot


def border_table(seq: Sequence) -> list[int]:
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
    period = n - border_table(flags)[-1]
    return period if period <= n // 2 else 0


def parse_schedule_csv(text: str, nodes: AbstractSet[int]) -> dict[int, set[int]]:
    """Holiday -> happy set, converting every id with int().

    Unlike cli._parse_schedule_csv, it takes a row without a comma as an
    empty happy set.
    """
    rows = list(data_lines(text))
    if not rows or rows[0][1] != "holiday,happy":
        raise ValueError("schedule CSV must start with header 'holiday,happy'")
    happy_sets: dict[int, set[int]] = {}
    for lineno, ln in rows[1:]:
        t_str, _, ids = ln.partition(",")
        try:
            t = int(t_str)
            happy = set(map(int, filter(None, ids.split(";"))))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed schedule row {ln!r}") from None
        if t < 1:
            raise ValueError(f"line {lineno}: holidays are numbered from 1")
        if t in happy_sets:
            raise ValueError(f"line {lineno}: duplicate holiday {t} in schedule CSV")
        unknown = sorted(happy - nodes)
        if unknown:
            raise ValueError(f"line {lineno}: holiday {t} lists unknown nodes {unknown[:3]}")
        happy_sets[t] = happy
    return happy_sets


def _draw_index(seed: int, node: int, round_no: int, size: int) -> int:
    """The colorer's draw for (seed, node, round), one blake2b call per draw."""
    mask = (1 << 64) - 1
    payload = struct.pack(">QQQ", seed & mask, node & mask, round_no & mask)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") % size


def local_random_color_rounds(
    g: ConflictGraph,
    palettes: Mapping[int, Iterable[int]] | None = None,
    seed: int = 0,
) -> tuple[dict[int, int], RoundLog]:
    """coloring.local_random_color of earlier releases, node by node each round.

    Every round rebuilds each uncolored node's free palette from its whole
    palette and settles each draw by a generator over its neighbors.
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

    result: dict[int, int] = {}
    forbidden: dict[int, set[int]] = {v: set() for v in participants}
    uncolored = set(participants)
    log = RoundLog()

    while uncolored:
        if log.rounds >= coloring.MAX_ROUNDS:
            raise RuntimeError(f"coloring did not terminate within {coloring.MAX_ROUNDS} rounds")
        log.rounds += 1
        draws: dict[int, int] = {}
        for v in sorted(uncolored):
            available = [c for c in palette_of[v] if c not in forbidden[v]]
            if not available:
                raise RuntimeError(f"node {v} has no free color; palette precondition broken")
            draws[v] = available[_draw_index(seed, v, log.rounds, len(available))]
            log.messages += len(peers[v])
        finalized = [
            v
            for v, c in draws.items()
            if all(draws.get(u) != c for u in peers[v])
        ]
        for v in finalized:
            result[v] = draws[v]
            uncolored.discard(v)
            for u in peers[v]:
                forbidden[u].add(draws[v])
    return result, log


def degree_slots_sequential_nodes(g: ConflictGraph) -> PeriodicSchedule:
    """schedulers.degree_slots_sequential of earlier releases, one neighbor at a time."""
    slots: dict[int, Slot] = {}
    for v in sorted(g.nodes(), key=lambda v: (-g.degree(v), v)):
        j = g.degree(v).bit_length()
        modulus = 1 << j
        x = first_fit({slots[u].offset % modulus for u in g.neighbors(v) if u in slots}, start=0)
        if x >= modulus:
            raise AssertionError(f"no free offset for node {v}; assignment order is broken")
        slots[v] = Slot(offset=x, level=j)
    return PeriodicSchedule(g.copy(), slots)


def degree_slots_distributed_nodes(
    g: ConflictGraph, seed: int = 0
) -> tuple[PeriodicSchedule, RoundLog]:
    """schedulers.degree_slots_distributed of earlier releases: palettes by a
    scan of range(2**j), colored by local_random_color_rounds."""
    slots: dict[int, Slot] = {}
    log = RoundLog()
    levels: dict[int, list[int]] = {}
    for v in g.nodes():
        levels.setdefault(g.degree(v).bit_length(), []).append(v)
    for j in range(max(levels, default=-1), -1, -1):
        members = levels.get(j)
        if not members:
            continue
        modulus = 1 << j
        palettes = {}
        for v in members:
            blocked = {slots[u].offset % modulus for u in g.neighbors(v) if u in slots}
            palettes[v] = [x for x in range(modulus) if x not in blocked]
        phase_colors, phase_log = local_random_color_rounds(g, palettes, seed=seed)
        log.merge(phase_log)
        for v, c in phase_colors.items():
            slots[v] = Slot(offset=c, level=j)
    return PeriodicSchedule(g.copy(), slots), log
