"""Seeded benchmark inputs and their text formats.

Every generator draws from its own ``random.Random`` seeded with the
generator's name and the benchmark seed, so the same seed always yields the
same graph and event text, independent of the library's own generators.
"""

from __future__ import annotations

import random

Edge = tuple[int, int]
Event = tuple[int, str, int, int]  # (holiday, "+" or "-", u, v)


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{kind}:{seed}")


def _pair(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _random_edges(rng: random.Random, pool: list[int], count: int, taken: set[Edge]) -> set[Edge]:
    """count distinct edges between members of pool, avoiding those in taken."""
    out: set[Edge] = set()
    while len(out) < count:
        u, v = rng.choice(pool), rng.choice(pool)
        e = _pair(u, v)
        if u != v and e not in taken:
            out.add(e)
    return out


def uniform_edges(seed: int, n: int, m: int) -> list[Edge]:
    """m distinct edges drawn uniformly over nodes 0..n-1."""
    return sorted(_random_edges(_rng("uniform", seed), list(range(n)), m, set()))


def hub_edges(seed: int, n: int, hubs: int, hub_degree: int, background: int) -> list[Edge]:
    """A sparse uniform background plus hubs of exactly hub_degree.

    Hubs link only to non-hub nodes and the background avoids hubs, so the
    maximum degree is hub_degree whenever it exceeds every background degree.
    """
    rng = _rng("hub", seed)
    hub_nodes = set(rng.sample(range(n), hubs))
    others = [v for v in range(n) if v not in hub_nodes]
    edges = {_pair(h, v) for h in sorted(hub_nodes) for v in rng.sample(others, hub_degree)}
    edges |= _random_edges(rng, others, background, edges)
    return sorted(edges)


def event_stream(
    seed: int, n: int, edges: list[Edge], holidays: int, per_holiday: int, insert_share: float
) -> list[Event]:
    """per_holiday events before each holiday 1..holidays, valid in sequence.

    An insert names an edge absent at that point, a remove one present, so
    no event is rejected by the graph.
    """
    rng = _rng("events", seed)
    present = list(edges)
    where = {e: i for i, e in enumerate(present)}
    out: list[Event] = []
    for t in range(1, holidays + 1):
        for _ in range(per_holiday):
            if rng.random() < insert_share or not present:
                while True:
                    u, v = rng.randrange(n), rng.randrange(n)
                    e = _pair(u, v)
                    if u != v and e not in where:
                        break
                where[e] = len(present)
                present.append(e)
                out.append((t, "+", *e))
            else:
                i = rng.randrange(len(present))
                e, last = present[i], present.pop()
                if last != e:
                    present[i] = last
                    where[last] = i
                del where[e]
                out.append((t, "-", *e))
    return out


def graph_text(n: int, edges: list[Edge]) -> str:
    """Edge-list text declaring every node 0..n-1, then one edge per line."""
    lines = [f"node {v}" for v in range(n)]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def event_text(events: list[Event]) -> str:
    """Event lines 't + u v' / 't - u v', the format of the CLI's dynamic command."""
    return "".join(f"{t} {op} {u} {v}\n" for t, op, u, v in events)


def read_events(text: str) -> dict[int, list[tuple[str, int, int]]]:
    """Parse event text into per-holiday lists; raises ValueError on a bad line."""
    events: dict[int, list[tuple[str, int, int]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if len(parts) != 4 or parts[1] not in ("+", "-"):
            raise ValueError(f"event line {lineno}: {line!r}")
        t, u, v = int(parts[0]), int(parts[2]), int(parts[3])
        events.setdefault(t, []).append((parts[1], u, v))
    return events
