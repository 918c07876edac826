"""The colorer and the slot builders against their node-by-node references.

"Identical" means the same values in the same insertion order, the same
RoundLog, and, for the slot builders, the same happy sets.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fairgather.coloring import _color_rounds, first_fit, greedy_color, local_random_color
from fairgather.graph import ConflictGraph, gnp_random_graph
from fairgather.schedulers import (
    PeriodicSchedule,
    Slot,
    degree_slots_distributed,
    degree_slots_sequential,
    elias_schedule,
)
from oracles import (
    degree_slots_distributed_nodes,
    degree_slots_sequential_nodes,
    local_random_color_rounds,
)


def _graph(rng: random.Random, n: int) -> ConflictGraph:
    """A random graph of one of several shapes, with shuffled node insertion
    order and ids that may have gaps or exceed 64 bits."""
    kind = rng.choice(["sparse", "dense", "hubs", "clique", "edgeless"])
    if kind in ("sparse", "dense"):
        edges = gnp_random_graph(n, 0.08 if kind == "sparse" else 0.5, rng.randrange(1000)).edges()
    elif kind == "hubs":
        hubs = range(min(n, 3))
        edges = {(h, v) for h in hubs for v in range(len(hubs), n) if rng.random() < 0.8}
        edges |= {(u, v) for u, v in gnp_random_graph(n, 0.05, rng.randrange(1000)).edges()
                  if u >= len(hubs)}
    elif kind == "clique":
        edges = [(u, v) for v in range(min(n, 10)) for u in range(v)]
    else:
        edges = []
    labels = rng.choice(["plain", "gaps", "huge"])
    if labels == "plain":
        ids = list(range(n))
    elif labels == "gaps":
        ids = rng.sample(range(5 * n + 1), n)
    else:  # ids past 2**64 wrap in the draw's 64-bit words
        ids = [2**64 - 2 + 3 * i for i in range(n)]
    lines = [f"node {ids[v]}\n" for v in range(n)] + [f"{ids[u]} {ids[v]}\n" for u, v in edges]
    rng.shuffle(lines)
    return ConflictGraph.from_edge_list("".join(lines))


def _palettes(rng: random.Random, g: ConflictGraph) -> dict:
    """Palettes for a random subset of g's nodes, each with more colors than
    participating neighbors: gaps, duplicates and maybe color 0, in varied
    container types."""
    nodes = g.nodes()
    holders = [v for v in nodes if rng.random() < 0.8] if rng.random() < 0.5 else nodes
    chosen = set(holders)
    palettes = {}
    for v in holders:
        need = sum(u in chosen for u in g.neighbors(v)) + 1
        size = need + rng.randrange(3)
        colors = rng.sample(range(rng.choice([0, 1]), 3 * size + 2), size)
        colors += rng.choices(colors, k=rng.randrange(3))  # duplicates
        palettes[v] = rng.choice([list, tuple, set, sorted])(colors)
    return palettes


def _restricted(g, palettes, seed):
    """coloring._color_rounds on palettes in the reference's form."""
    free = {v: sorted(set(colors)) for v, colors in palettes.items()}
    peers = {v: tuple(filter(free.__contains__, g.neighbors(v))) for v in free}
    return _color_rounds(free, peers, seed)


@given(st.integers(0, 10**6), st.integers(0, 40), st.integers(-2**70, 2**70), st.booleans())
@settings(max_examples=150, deadline=None)
def test_random_coloring_matches_round_by_round_reference(case, n, seed, restricted):
    rng = random.Random(case)
    g = _graph(rng, n)
    if restricted:
        palettes = _palettes(rng, g)
        coloring, log = _restricted(g, palettes, seed)
    else:
        palettes = None
        coloring, log = local_random_color(g, seed=seed)
    ref, ref_log = local_random_color_rounds(g, palettes, seed=seed)
    assert list(coloring.items()) == list(ref.items())
    assert log == ref_log


@given(st.integers(0, 10**6), st.integers(0, 40), st.integers(-2**70, 2**70))
@settings(max_examples=100, deadline=None)
def test_slot_builders_match_node_by_node_references(case, n, seed):
    g = _graph(random.Random(case), n)
    fast, ref = degree_slots_sequential(g), degree_slots_sequential_nodes(g)
    assert list(fast.slots.items()) == list(ref.slots.items())
    (dist, log), (dist_ref, log_ref) = degree_slots_distributed(g, seed), \
        degree_slots_distributed_nodes(g, seed)
    assert list(dist.slots.items()) == list(dist_ref.slots.items())
    assert log == log_ref
    horizon = 2 * max((s.period for s in fast.slots.values()), default=1)
    for s, r in ((fast, ref), (dist, dist_ref)):
        assert [s.happy_set(t) for t in range(1, horizon + 1)] == \
            [r.happy_set(t) for t in range(1, horizon + 1)]
    # Each builder gives the nodes of one (offset, level) one shared Slot object.
    for s in (fast, dist, elias_schedule(g, greedy_color(g))):
        slots = s.slots.values()
        assert len(set(map(id, slots))) == len({(x.offset, x.level) for x in slots})


@given(st.integers(0, 10**6), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_greedy_color_matches_first_fit_reference(case, n):
    g = _graph(random.Random(case), n)
    expected: dict[int, int] = {}
    for v in sorted(g.nodes()):
        expected[v] = first_fit({expected[u] for u in g.neighbors(v) if u in expected})
    assert list(greedy_color(g).items()) == list(expected.items())


@given(st.integers(0, 10**6), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_equal_slot_objects_share_a_bucket(case, n):
    # The builders share one Slot per (offset, level); a caller may not.
    g = _graph(random.Random(case), n)
    shared = degree_slots_sequential(g)
    fresh = PeriodicSchedule(g, {v: Slot(s.offset, s.level) for v, s in shared.slots.items()})
    horizon = 2 * max(s.period for s in shared.slots.values())
    for t in range(1, horizon + 1):
        assert fresh.happy_set(t) == shared.happy_set(t)
