import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgather.graph import ConflictGraph, complete_graph, cycle_graph, gnp_random_graph, path_graph, star_graph
from fairgather.satisfaction import (
    alternating_schedule,
    brute_force_satisfaction,
    max_satisfaction,
    max_satisfaction_with_stats,
)


def satisfied_nodes(g, orientation):
    """Nodes with at least one incident edge oriented toward them."""
    missing = [e for e in g.edges() if e not in orientation]
    if missing:
        raise ValueError(f"orientation misses edges {missing[:3]}")
    return set(orientation.values())


def build(n, edges):
    g = ConflictGraph()
    for v in range(n):
        g.add_node(v)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def test_k2_single_satisfied():
    _, count = max_satisfaction(path_graph(2))
    assert count == 1 == brute_force_satisfaction(path_graph(2))


def test_triangle_orients_the_cycle():
    g = complete_graph(3)
    orientation, count = max_satisfaction(g)
    assert count == 3 == brute_force_satisfaction(g)
    assert satisfied_nodes(g, orientation) == {0, 1, 2}


def test_path_two_of_three():
    g = path_graph(3)
    _, count = max_satisfaction(g)
    assert count == 2 == brute_force_satisfaction(g)


def test_star_all_leaves():
    # orienting every edge outward satisfies all three leaves; oracle agrees
    g = star_graph(3)
    _, count = max_satisfaction(g)
    assert count == 3 == brute_force_satisfaction(g)


def test_brute_force_rejects_large_graphs():
    with pytest.raises(ValueError):
        brute_force_satisfaction(complete_graph(7))  # 21 edges


def test_orientation_covers_every_edge():
    g = gnp_random_graph(15, 0.25, seed=4)
    orientation, count = max_satisfaction(g)
    assert set(orientation) == set(g.edges())
    assert all(head in edge for edge, head in orientation.items())
    assert len(satisfied_nodes(g, orientation)) == count


def test_relabeled_cycle_satisfies_root_by_path_flip():
    # a 5-cycle whose BFS tree from node 7 leaves 8-11 as the non-tree
    # edge: node 7 is satisfied only by reversing the tree path back to it
    g = build(0, [])
    for u, v in [(7, 9), (7, 10), (8, 9), (8, 11), (10, 11)]:
        g.insert_edge(u, v)
    _, count = max_satisfaction(g)
    assert count == 5


def test_exhaustive_small_graphs_match_oracle():
    for n in range(1, 6):
        all_edges = list(itertools.combinations(range(n), 2))
        for m in range(min(6, len(all_edges)) + 1):
            for es in itertools.combinations(all_edges, m):
                g = build(n, es)
                _, count = max_satisfaction(g)
                assert count == brute_force_satisfaction(g), es


@given(st.integers(0, 10**6), st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_random_graphs_match_oracle(seed, n):
    g = gnp_random_graph(n, 0.3, seed=seed)
    if g.num_edges() > 20:
        return
    _, count = max_satisfaction(g)
    assert count == brute_force_satisfaction(g)


@given(st.integers(0, 10**6), st.integers(30, 300), st.floats(1.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_large_random_graphs_meet_component_bound(seed, n, c):
    # Average degree 1..2 mixes isolated nodes, trees and cyclic components,
    # on graphs far beyond the brute-force cap.
    g = gnp_random_graph(n, c / n, seed=seed)
    orientation, count = max_satisfaction(g)
    bound = 0
    for comp in g.connected_components():
        edges = sum(g.degree(v) for v in comp) // 2
        bound += len(comp) if edges >= len(comp) else len(comp) - 1
    assert count == bound
    assert set(orientation) == set(g.edges())
    assert all(head in edge for edge, head in orientation.items())
    assert len(satisfied_nodes(g, orientation)) == count


def test_isolated_nodes_never_satisfied():
    g = ConflictGraph()
    g.add_node(0)
    g.add_node(1)
    g.insert_edge(2, 3)
    _, count = max_satisfaction(g)
    assert count == 1


def test_operation_count_scales_linearly():
    sizes = [200, 400, 800, 1600]
    ops = []
    for n in sizes:
        g = gnp_random_graph(n, 4.0 / n, seed=1)
        _, _, stats = max_satisfaction_with_stats(g)
        ops.append(stats.ops / (len(g) + g.num_edges()))
    # ops per (V+E) stays flat as the input doubles
    assert max(ops) <= 2 * min(ops)
    assert max(ops) < 12


def test_alternating_k2():
    g = path_graph(2)
    assert [alternating_schedule(g, 0, t) for t in (1, 2, 3, 4)] == [True, False, True, False]
    assert [alternating_schedule(g, 1, t) for t in (1, 2, 3, 4)] == [False, True, False, True]


def test_alternating_path_middle_always_satisfied():
    g = path_graph(3)
    assert all(alternating_schedule(g, 1, t) for t in range(1, 9))


def test_alternating_degree_zero_never_satisfied():
    g = ConflictGraph()
    g.add_node(0)
    assert not any(alternating_schedule(g, 0, t) for t in range(1, 5))


def test_alternating_rejects_bad_arguments():
    g = path_graph(2)
    with pytest.raises(ValueError):
        alternating_schedule(g, 0, 0)
    with pytest.raises(ValueError):
        alternating_schedule(g, 9, 1)


@given(st.integers(0, 10**6), st.integers(2, 14))
@settings(max_examples=40, deadline=None)
def test_alternating_gap_at_most_one(seed, n):
    g = gnp_random_graph(n, 0.3, seed=seed)
    for v in g.nodes():
        if g.degree(v) == 0:
            continue
        flags = [alternating_schedule(g, v, t) for t in range(1, 11)]
        run = longest = 0
        for f in flags:
            run = 0 if f else run + 1
            longest = max(longest, run)
        assert longest <= 1
