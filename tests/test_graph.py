import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgather.graph import (
    ConflictGraph,
    _parse_node,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)


def test_from_edge_list_path():
    g = ConflictGraph.from_edge_list("0 1\n1 2")
    assert g.nodes() == [0, 1, 2]
    assert [g.degree(v) for v in (0, 1, 2)] == [1, 2, 1]


def test_from_edge_list_triangle():
    g = ConflictGraph.from_edge_list("0 1\n1 2\n0 2")
    assert g.num_edges() == 3
    assert all(g.degree(v) == 2 for v in g.nodes())


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError, match="line 1.*self-loop"):
        ConflictGraph.from_edge_list("0 0")


def test_from_edge_list_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="line 3.*duplicate"):
        ConflictGraph.from_edge_list("0 1\n1 2\n1 0")


def test_from_edge_list_comments_blanks_and_isolated_nodes():
    g = ConflictGraph.from_edge_list("# a comment\n\n0 1\nnode 7\n")
    assert g.nodes() == [0, 1, 7]
    assert g.degree(7) == 0


def test_from_edge_list_malformed_line_reports_number():
    with pytest.raises(ValueError, match="line 2"):
        ConflictGraph.from_edge_list("0 1\n1 2 3")
    with pytest.raises(ValueError, match="line 1.*invalid node id"):
        ConflictGraph.from_edge_list("a b")


def test_insert_edge_closes_triangle():
    g = ConflictGraph.from_edge_list("0 1\n1 2")
    g.insert_edge(0, 2)
    assert g.has_edge(2, 0)
    assert all(g.degree(v) == 2 for v in g.nodes())


def test_insert_edge_rejects_existing_and_loops():
    g = ConflictGraph.from_edge_list("0 1")
    with pytest.raises(ValueError):
        g.insert_edge(0, 1)
    with pytest.raises(ValueError):
        g.insert_edge(1, 0)
    with pytest.raises(ValueError):
        g.insert_edge(2, 2)


def test_insert_edge_creates_unknown_nodes():
    g = ConflictGraph.from_edge_list("0 1\n1 2")
    g.insert_edge(3, 4)
    assert g.has_node(3) and g.has_node(4)
    assert g.has_edge(3, 4)


def test_remove_edge():
    g = ConflictGraph.from_edge_list("0 1\n1 2\n0 2")
    g.remove_edge(0, 2)
    assert not g.has_edge(0, 2)
    assert [g.degree(v) for v in (0, 1, 2)] == [1, 2, 1]
    with pytest.raises(ValueError):
        g.remove_edge(0, 2)


def test_remove_last_edge_leaves_isolated_nodes():
    g = ConflictGraph.from_edge_list("0 1")
    g.remove_edge(0, 1)
    assert g.nodes() == [0, 1]
    assert g.degree(0) == g.degree(1) == 0


def test_neighbors_sorted():
    g = ConflictGraph.from_edge_list("5 1\n5 9\n5 3")
    assert g.neighbors(5) == (1, 3, 9)


def test_neighbors_returns_the_stored_tuple():
    g = ConflictGraph.from_edge_list("5 1\n5 9\nnode 4")
    g.insert_edge(5, 3)
    for v in g.nodes():
        assert type(g.neighbors(v)) is tuple
        assert g.neighbors(v) is g.neighbors(v)
    assert g.neighbors(4) == ()


def test_roundtrip_serialization():
    g = ConflictGraph.from_edge_list("2 0\nnode 9\n0 1")
    text = g.to_edge_list()
    assert ConflictGraph.from_edge_list(text).edges() == g.edges()
    assert "node 9" in text


def test_connected_components():
    g = ConflictGraph.from_edge_list("0 1\n2 3\nnode 9")
    assert g.connected_components() == [[0, 1], [2, 3], [9]]


edge_ops = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda e: e[0] != e[1]),
    max_size=40,
)


@given(edge_ops)
def test_degree_sum_is_twice_edge_count(ops):
    g = ConflictGraph()
    for u, v in ops:
        if g.has_edge(u, v):
            g.remove_edge(u, v)
        else:
            g.insert_edge(u, v)
    assert sum(g.degree(v) for v in g.nodes()) == 2 * g.num_edges()


@given(edge_ops)
def test_adjacency_stays_symmetric_and_sorted(ops):
    g = ConflictGraph()
    for u, v in ops:
        if g.has_edge(u, v):
            g.remove_edge(u, v)
        else:
            g.insert_edge(u, v)
    for v in g.nodes():
        nbrs = g.neighbors(v)
        assert list(nbrs) == sorted(nbrs)
        assert all(v in g.neighbors(u) for u in nbrs)


@given(edge_ops)
@settings(max_examples=30)
def test_iteration_is_deterministic_for_same_construction(ops):
    def build():
        g = ConflictGraph()
        for u, v in ops:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.insert_edge(u, v)
        return g

    a, b = build(), build()
    assert a.nodes() == b.nodes()
    assert a.edges() == b.edges()
    assert all(a.neighbors(v) == b.neighbors(v) for v in a.nodes())


def _assert_matches_model(g, nodes, edges):
    assert g.nodes() == nodes
    assert g.edges() == sorted(edges)
    assert g.num_edges() == len(edges)
    for u in range(-1, 10):
        for v in range(-1, 10):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
    for v in nodes:
        nbrs = tuple(sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v}))
        assert g.neighbors(v) == nbrs
        assert g.degree(v) == len(nbrs)


store_ops = st.lists(
    st.tuples(st.sampled_from(["+", "-", "copy"]), st.integers(0, 7), st.integers(0, 7)),
    max_size=60,
)


@given(store_ops)
@settings(max_examples=150, deadline=None)
def test_edge_store_matches_set_of_pairs_model(ops):
    g = ConflictGraph()
    nodes: list[int] = []
    edges: set[tuple[int, int]] = set()
    # Graphs left behind by "copy", each with its own model; later writes
    # to g must not reach them.
    left: list[tuple[ConflictGraph, list[int], set[tuple[int, int]]]] = []
    for op, u, v in ops:
        key = (min(u, v), max(u, v))
        if op == "copy":
            # Continue on the copy and write to the old graph, which must not
            # reach the copy either.
            old, old_nodes, old_edges = g, list(nodes), set(edges)
            g = old.copy()
            if key in old_edges:
                old.remove_edge(u, v)
                old_edges.remove(key)
            elif u != v:
                old.insert_edge(u, v)
                old_edges.add(key)
                old_nodes.extend(w for w in (u, v) if w not in old_nodes)
            left.append((old, old_nodes, old_edges))
        elif op == "+":
            if u == v or key in edges:
                with pytest.raises(ValueError, match="self-loop" if u == v else "duplicate edge"):
                    g.insert_edge(u, v)
            else:
                g.insert_edge(u, v)
                nodes.extend(w for w in (u, v) if w not in nodes)
                edges.add(key)
        elif key in edges:
            g.remove_edge(u, v)
            edges.remove(key)
        else:
            with pytest.raises(ValueError, match=re.escape(f"no such edge {key}")):
                g.remove_edge(u, v)
        _assert_matches_model(g, nodes, edges)
        for old, old_nodes, old_edges in left:
            _assert_matches_model(old, old_nodes, old_edges)


@pytest.mark.parametrize(
    "builder,n,expected_edges",
    [(path_graph, 5, 4), (cycle_graph, 5, 5), (complete_graph, 5, 10), (star_graph, 5, 5)],
)
def test_generator_edge_counts(builder, n, expected_edges):
    assert builder(n).num_edges() == expected_edges


edge_list_lines = st.lists(
    st.one_of(
        st.tuples(st.just("node"), st.integers(-2, 8)),
        st.tuples(st.integers(-2, 8), st.integers(-2, 8)),
        st.sampled_from(["", "# comment", "  # indented comment"]),
    ),
    max_size=30,
)


def _parse_by_updates(text):
    """Reference parser: one add_node or insert_edge per line."""
    g = ConflictGraph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if parts[0] == "node":
                g.add_node(_parse_node(parts[1]))
            else:
                g.insert_edge(_parse_node(parts[0]), _parse_node(parts[1]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return g


def _outcome(parse, text):
    try:
        g = parse(text)
    except ValueError as exc:
        return str(exc)
    return g.nodes(), g.edges(), {v: g.neighbors(v) for v in g.nodes()}


@given(edge_list_lines, st.booleans())
@settings(max_examples=300)
def test_from_edge_list_matches_edge_by_edge_updates(lines, indent):
    # Self-loops, negative ids and duplicates in both orientations all occur.
    pad = "  " if indent else ""
    text = "\n".join(pad + (" ".join(map(str, ln)) if isinstance(ln, tuple) else ln)
                     for ln in lines)
    assert _outcome(ConflictGraph.from_edge_list, text) == _outcome(_parse_by_updates, text)


def _by_updates(nodes, edges):
    g = ConflictGraph()
    for v in nodes:
        g.add_node(v)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


@pytest.mark.parametrize("n", [1, 2, 7])
def test_generators_match_edge_by_edge_construction(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng = random.Random(5)
    cases = [
        (complete_graph(n), _by_updates(range(n), pairs)),
        (star_graph(n), _by_updates(range(n + 1), [(0, v) for v in range(1, n + 1)])),
        (gnp_random_graph(n, 0.5, seed=5), _by_updates(range(n), [e for e in pairs if rng.random() < 0.5])),
    ]
    for g, ref in cases:
        assert g.nodes() == ref.nodes() and g.edges() == ref.edges()
        assert all(g.neighbors(v) == ref.neighbors(v) for v in g.nodes())


def test_gnp_is_seed_deterministic():
    a = gnp_random_graph(30, 0.2, seed=7)
    b = gnp_random_graph(30, 0.2, seed=7)
    c = gnp_random_graph(30, 0.2, seed=8)
    assert a.edges() == b.edges()
    assert a.edges() != c.edges()
