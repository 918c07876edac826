import math
import random
import re
import statistics
import tracemalloc

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


@pytest.mark.parametrize("u, v", [(5, -1), (-1, 5)])
def test_insert_edge_rejecting_negative_id_leaves_graph_unchanged(u, v):
    g = path_graph(2)
    with pytest.raises(ValueError, match="node ids must be non-negative, got -1"):
        g.insert_edge(u, v)
    assert g.nodes() == [0, 1]
    assert g.edges() == [(0, 1)]


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


def test_adjacency_is_a_live_read_only_view():
    g = ConflictGraph.from_edge_list("5 1\n5 9\nnode 4")
    adj = g.adjacency()
    assert list(adj) == g.nodes() == [5, 1, 9, 4]
    assert all(adj[v] is g.neighbors(v) for v in g.nodes())
    with pytest.raises(TypeError):
        adj[4] = (5,)
    g.insert_edge(4, 5)
    assert adj[4] == (5,) and adj[5] == (1, 4, 9)


def test_roundtrip_serialization():
    g = ConflictGraph.from_edge_list("2 0\nnode 9\n0 1")
    text = g.to_edge_list()
    assert ConflictGraph.from_edge_list(text).edges() == g.edges()
    assert "node 9" in text


def test_edge_list_chunks_join_to_the_canonical_text():
    # 40,000 nodes, about half of them isolated.
    g = gnp_random_graph(40_000, 0.000_02, seed=4)
    chunks = list(g.edge_list_chunks())
    assert all(c.endswith("\n") for c in chunks)
    # Each piece is one node's edges to higher ids, or isolated-node lines.
    heads = [{ln.split()[0] for ln in c.splitlines()} for c in chunks]
    assert all(len(h) == 1 for h in heads)
    assert sum(h != {"node"} for h in heads) == len({u for u, _ in g.edges()})
    lines = [f"node {v}" for v in sorted(g.nodes()) if not g.degree(v)]
    lines += [f"{u} {w}" for u, w in g.edges()]
    assert "".join(chunks) == g.to_edge_list() == "\n".join(lines) + "\n"
    assert ConflictGraph().to_edge_list() == ""


def test_edge_list_chunks_hold_one_node_at_a_time():
    g = complete_graph(400)
    tracemalloc.start()
    try:
        for _ in g.edge_list_chunks():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


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


version_ops = st.lists(
    st.tuples(st.sampled_from(["+", "+", "-", "node", "derive", "derive", "read"]),
              st.one_of(st.just(-1), st.integers(0, 20)), st.integers(0, 7), st.integers(0, 7)),
    max_size=50,
)


@given(version_ops)
@settings(max_examples=150, deadline=None)
def test_derived_versions_match_their_models(ops):
    # Each version has its own model. "derive" branches a new version off
    # version i, which goes stale until read; writes and reads hit any
    # version, the newest or a stale one, and never reach another version.
    # Half the ops target the newest version (i = -1), so chains of stale
    # versions are common.
    versions = [(ConflictGraph(), [], set())]
    for op, i, u, v in ops:
        g, nodes, edges = versions[i if i < 0 else i % len(versions)]
        key = (min(u, v), max(u, v))
        if op == "derive":
            versions.append((g._derive(), list(nodes), set(edges)))
        elif op == "read":
            _assert_matches_model(g, nodes, edges)
        elif op == "node":
            g.add_node(u)
            if u not in nodes:
                nodes.append(u)
        elif op == "+" and u != v and key not in edges:
            g.insert_edge(u, v)
            nodes.extend(w for w in (u, v) if w not in nodes)
            edges.add(key)
        elif op == "-" and key in edges:
            g.remove_edge(u, v)
            edges.remove(key)
    # Oldest first, so a stale version rebuilds through every later one.
    for g, nodes, edges in versions:
        _assert_matches_model(g, nodes, edges)


def test_take_back_undoes_the_successors_writes():
    g = ConflictGraph.from_edge_list("0 1\n1 2\nnode 3\n")
    before = (g.nodes(), g.edges())
    new = g._derive()
    new.insert_edge(2, 3)
    new.remove_edge(0, 1)
    new.insert_edge(4, 5)
    new.add_node(6)
    g._take_back()
    assert "_adj" in vars(g) and not {"_next", "_undo"} & vars(g).keys()
    assert (g.nodes(), g.edges()) == before


def test_adjacency_view_follows_the_dict_to_the_derived_graph():
    g = ConflictGraph.from_edge_list("0 1\n")
    view = g.adjacency()
    new = g._derive()
    new.insert_edge(1, 2)
    assert dict(view) == dict(new.adjacency()) == {0: (1,), 1: (0, 2), 2: (1,)}
    assert dict(g.adjacency()) == {0: (1,), 1: (0,)}


@pytest.mark.parametrize(
    "builder,n,expected_edges",
    [(path_graph, 5, 4), (cycle_graph, 5, 5), (complete_graph, 5, 10), (star_graph, 5, 5)],
)
def test_generator_edge_counts(builder, n, expected_edges):
    assert builder(n).num_edges() == expected_edges


# Ids spelled canonically, with a plus sign or a leading zero ("+-1" and
# "0-1" are invalid), so one id can appear under two spellings; then a
# letter, an underscore spelling of 10 and the Arabic-Indic digit three.
node_tokens = st.one_of(
    st.builds(str.format, st.sampled_from(["{}", "+{}", "0{}"]), st.integers(-2, 8)),
    st.sampled_from(["x", "1_0", "\u0663"]),
)

edge_list_lines = st.lists(
    st.one_of(
        st.tuples(st.just("node"), node_tokens),
        st.tuples(node_tokens, node_tokens),
        st.tuples(node_tokens),
        st.tuples(node_tokens, node_tokens, node_tokens),
        st.sampled_from(["", "# comment", "  # indented comment", "node", "node 1 2",
                         "#x 5", "5 #x"]),
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
                if len(parts) != 2:
                    raise ValueError("expected 'node u'")
                g.add_node(_parse_node(parts[1]))
            elif len(parts) == 2:
                g.insert_edge(_parse_node(parts[0]), _parse_node(parts[1]))
            else:
                raise ValueError("expected 'u v' or 'node u'")
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
    # Self-loops, negative or invalid ids, duplicates in both orientations and
    # under other spellings, and lines of the wrong length all occur.
    pad = "  " if indent else ""
    text = "\n".join(pad + (" ".join(ln) if isinstance(ln, tuple) else ln) for ln in lines)
    assert _outcome(ConflictGraph.from_edge_list, text) == _outcome(_parse_by_updates, text)


@pytest.mark.parametrize("text, message", [
    ("0 1\n1 0\nx y", "line 2: duplicate edge (0, 1)"),
    ("0 1\nx y\n1 0", "line 2: invalid node id 'x'"),
    ("0 1\n1 2\n01 +0\n3 3", "line 3: duplicate edge (0, 1)"),
    ("node 5\n5 4\n4 05\n9", "line 3: duplicate edge (4, 5)"),
])
def test_from_edge_list_reports_the_first_bad_line(text, message):
    with pytest.raises(ValueError) as exc:
        ConflictGraph.from_edge_list(text)
    assert str(exc.value) == message == _outcome(_parse_by_updates, text)


def _by_updates(nodes, edges):
    g = ConflictGraph()
    for v in nodes:
        g.add_node(v)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def _gnp_skip_edges(n, p, seed):
    """The edges of the textbook geometric-skip walk (Batagelj & Brandes 2005), in draw order."""
    rng = random.Random(seed)
    log_q = math.log1p(-p)
    edges = []
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log1p(-rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((v, w))
    return edges


@pytest.mark.parametrize("n", [1, 2, 7])
def test_generators_match_edge_by_edge_construction(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    cases = [
        (complete_graph(n), _by_updates(range(n), pairs)),
        (star_graph(n), _by_updates(range(n + 1), [(0, v) for v in range(1, n + 1)])),
        (gnp_random_graph(n, 0.5, seed=5), _by_updates(range(n), _gnp_skip_edges(n, 0.5, seed=5))),
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


def _gnp_per_pair(n, p, seed):
    """The generator of earlier releases: one draw per pair, O(n^2). Kept as an oracle."""
    rng = random.Random(seed)
    g = ConflictGraph()
    for v in range(n):
        g.add_node(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.insert_edge(u, v)
    return g


@pytest.mark.parametrize("n, p", [(5, 0.3), (12, 0.05)])
def test_gnp_matches_the_per_pair_distribution(n, p):
    seeds = range(3000)
    pairs = n * (n - 1) // 2
    # Standard deviations of one pair's edge frequency and of the sample
    # variance of the edge count, which is Binomial(pairs, p) when pairs are
    # independent: its fourth central moment is pairs*p*q*(1 + 3*(pairs - 2)*p*q).
    pq = p * (1 - p)
    freq_sd = math.sqrt(pq / len(seeds))
    count_var = pairs * pq
    mu4 = count_var * (1 + 3 * (pairs - 2) * pq)
    var_sd = math.sqrt((mu4 - count_var**2) / len(seeds))

    def stats(gen):
        freq = dict.fromkeys(((u, v) for u in range(n) for v in range(u + 1, n)), 0)
        counts = []
        for seed in seeds:
            g = gen(n, p, seed)
            assert g.nodes() == list(range(n))
            for e in g.edges():
                freq[e] += 1
            counts.append(g.num_edges())
        return {e: c / len(seeds) for e, c in freq.items()}, statistics.variance(counts)

    skip_freq, skip_var = stats(gnp_random_graph)
    pair_freq, pair_var = stats(_gnp_per_pair)
    for freq, var in ((skip_freq, skip_var), (pair_freq, pair_var)):
        assert all(abs(f - p) <= 5 * freq_sd for f in freq.values()), freq
        # Correlated pairs would move the variance, even with right marginals.
        assert abs(var - count_var) <= 5 * var_sd, (var, count_var)
    assert all(abs(skip_freq[e] - pair_freq[e]) <= 5 * math.sqrt(2) * freq_sd for e in skip_freq)
    assert abs(skip_var - pair_var) <= 5 * math.sqrt(2) * var_sd


@pytest.mark.parametrize("n, p, draws, edges", [
    (0, 0.5, 0, []),
    (1, 0.5, 0, []),
    (6, 0.0, 0, []),
    (9, 1.0, 36, complete_graph(9).edges()),
    # log1p(-r) / log1p(-p) overflows to inf here: the walk must end, not raise.
    (10, 1e-320, 1, []),
    (10, 5e-324, 1, []),
    # The per-pair loop of earlier releases drew n(n-1)/2 times, about 2e8.
    (20000, 1e-4, None, None),
])
def test_gnp_draws_at_most_once_per_edge_plus_one(monkeypatch, n, p, draws, edges):
    class CountingRandom(random.Random):
        calls = 0

        def random(self):
            CountingRandom.calls += 1
            return super().random()

    monkeypatch.setattr(random, "Random", CountingRandom)
    g = gnp_random_graph(n, p, seed=1)
    assert g.nodes() == list(range(n))
    assert g.num_edges() <= CountingRandom.calls <= g.num_edges() + 1
    if draws is not None:
        assert CountingRandom.calls == draws and g.edges() == edges
