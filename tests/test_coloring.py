import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgather.coloring import _color_rounds, greedy_color, is_proper, local_random_color
from fairgather.graph import (
    ConflictGraph,
    complete_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)


def test_greedy_triangle_in_order():
    g = complete_graph(3)
    assert greedy_color(g) == {0: 1, 1: 2, 2: 3}


def test_greedy_path_in_order():
    g = path_graph(3)
    assert greedy_color(g) == {0: 1, 1: 2, 2: 1}


def test_greedy_edgeless_all_one():
    g = ConflictGraph()
    for v in range(4):
        g.add_node(v)
    assert set(greedy_color(g).values()) == {1}


def test_random_k2_distinct_colors():
    g = path_graph(2)
    for seed in range(10):
        coloring, _ = local_random_color(g, seed=seed)
        assert sorted(coloring.values()) in ([1, 2],)


def test_random_edgeless_single_color_one_round():
    g = ConflictGraph()
    for v in range(5):
        g.add_node(v)
    coloring, log = local_random_color(g, seed=3)
    assert set(coloring.values()) == {1}
    assert log.rounds == 1


def test_random_triangle_seed_42_is_deterministic_and_proper():
    g = complete_graph(3)
    first, log1 = local_random_color(g, seed=42)
    again, log2 = local_random_color(g, seed=42)
    assert first == again
    assert (log1.rounds, log1.messages) == (log2.rounds, log2.messages)
    assert is_proper(g, first)
    assert sorted(first.values()) == [1, 2, 3]


def test_partial_participation_colors_only_palette_holders():
    g = path_graph(4)
    free = {0: [1, 2], 1: [1, 2]}
    peers = {v: tuple(filter(free.__contains__, g.neighbors(v))) for v in free}
    coloring, _ = _color_rounds(free, peers, seed=5)
    assert set(coloring) == {0, 1}
    assert coloring[0] != coloring[1]


def test_default_palettes_give_degree_bound():
    g = gnp_random_graph(60, 0.1, seed=2)
    coloring, _ = local_random_color(g, seed=11)
    assert is_proper(g, coloring)
    assert all(coloring[v] <= g.degree(v) + 1 for v in g.nodes())


@given(st.integers(0, 2**32), st.integers(2, 24))
@settings(max_examples=25, deadline=None)
def test_random_coloring_proper_on_random_graphs(seed, n):
    g = gnp_random_graph(n, 0.25, seed=seed % 1000)
    coloring, log = local_random_color(g, seed=seed)
    assert is_proper(g, coloring)
    assert all(coloring[v] <= g.degree(v) + 1 for v in g.nodes())
    assert log.rounds >= 1 or len(g) == 0


@given(st.permutations(list(range(8))))
@settings(max_examples=25)
def test_greedy_proper_under_any_order(order):
    g = gnp_random_graph(8, 0.4, seed=5)
    # Relabel order[i] as i, so that ascending ids walk g's nodes in the given order.
    h = ConflictGraph()
    for i in range(8):
        h.add_node(i)
    for u, w in g.edges():
        h.insert_edge(order.index(u), order.index(w))
    coloring = {order[i]: c for i, c in greedy_color(h).items()}
    assert is_proper(g, coloring)
    assert all(coloring[v] <= g.degree(v) + 1 for v in g.nodes())


@pytest.mark.parametrize("g", [gnp_random_graph(120, 0.05, seed=8), star_graph(30)],
                         ids=["gnp", "star"])
@pytest.mark.parametrize("k", [1, 5])
def test_random_coloring_ignores_palette_numbering(g, k):
    # Shifting every palette by k shifts every draw by k and changes nothing else.
    rng = random.Random(13)
    dense = {v: range(g.degree(v) + 1) for v in g.nodes()}  # holds 0
    sparse = {v: sorted(rng.sample(range(3 * g.degree(v) + 3), g.degree(v) + 1))
              for v in g.nodes()}
    for palettes in (dense, sparse):
        free = {v: list(pal) for v, pal in palettes.items()}
        shifted = {v: [c + k for c in pal] for v, pal in palettes.items()}
        coloring, log = _color_rounds(free, g.adjacency(), seed=21)
        coloring_k, log_k = _color_rounds(shifted, g.adjacency(), seed=21)
        assert coloring_k == {v: c + k for v, c in coloring.items()}
        assert log_k == log


def test_termination_within_logarithmic_rounds_sample():
    # trimmed-down version of the full acceptance run
    n = 500
    limit = math.ceil(8 * math.log(n))
    g = gnp_random_graph(n, 0.02, seed=0)
    hits = 0
    for seed in range(10):
        _, log = local_random_color(g, seed=seed)
        hits += log.rounds <= limit
    assert hits >= 9


def _is_proper_edge_list(g, coloring):
    """The former form of is_proper over the sorted edge list, kept as the reference."""
    if any(v not in coloring for v in g.nodes()):
        return False
    return all(coloring[u] != coloring[v] for u, v in g.edges())


@given(st.integers(0, 10**6), st.integers(0, 14), st.sampled_from(["greedy", "random", "clash", "partial"]))
@settings(max_examples=80, deadline=None)
def test_is_proper_matches_edge_list_reference(seed, n, kind):
    rng = random.Random(seed)
    g = gnp_random_graph(n, 0.3, seed=seed)
    coloring = greedy_color(g)
    if kind == "random":
        coloring = {v: rng.randint(1, 3) for v in g.nodes()}
    elif kind == "clash" and g.num_edges():
        u, v = rng.choice(g.edges())
        coloring[v] = coloring[u]
    elif kind == "partial" and coloring:
        del coloring[rng.choice(g.nodes())]
    expected = _is_proper_edge_list(g, coloring)
    assert is_proper(g, coloring) == expected
    if kind == "greedy" or (kind == "clash" and g.num_edges()) or (kind == "partial" and n):
        assert expected == (kind == "greedy")
