import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgather.analysis import budget_check
from fairgather.codec import rho
from fairgather.coloring import greedy_color
from fairgather.graph import ConflictGraph, complete_graph, cycle_graph, gnp_random_graph, path_graph
from fairgather.schedulers import degree_slots_sequential, elias_schedule, phased_greedy
from fairgather.verify import (
    NodeStats,
    brute_force_mis,
    check_gap_bounds,
    happy_set_vs_mis,
    report,
    report_from_happy_sets,
)
from oracles import smallest_window_period


def single_node_graph():
    g = ConflictGraph()
    g.add_node(0)
    return g


def test_smallest_window_period_basics():
    assert smallest_window_period([True] * 6 ) == 1
    assert smallest_window_period([False, True] * 5) == 2
    assert smallest_window_period([True, False, False] * 4) == 3
    # too short to witness the repeat twice
    assert smallest_window_period([True, False, False]) == 0
    assert smallest_window_period([]) == 0


def test_report_k2_phased():
    g = path_graph(2)
    s = phased_greedy(g, {0: 1, 1: 2}, 4)
    rep = report(g, s, (1, 4))
    assert rep.independent
    assert rep.nodes[0].mul == 1
    assert rep.nodes[1].mul == 1
    assert rep.nodes[0].happy == (1, 3)
    assert rep.nodes[1].happy == (2, 4)


def test_report_elias_single_node():
    g = single_node_graph()
    s = elias_schedule(g, {0: 1})
    rep = report(g, s, (1, 10))
    stats = rep.nodes[0]
    assert stats.happy == (2, 4, 6, 8, 10)
    assert stats.mul == 1
    assert stats.detected_period == 2


def test_report_slots_isolated_node():
    g = single_node_graph()
    s = degree_slots_sequential(g)
    rep = report(g, s, (1, 5))
    assert rep.nodes[0].mul == 0
    assert rep.nodes[0].detected_period == 1


def test_report_rejects_bad_windows():
    g = path_graph(2)
    s = phased_greedy(g, {0: 1, 1: 2}, 4)
    with pytest.raises(ValueError):
        report(g, s, (1, 5))
    with pytest.raises(ValueError):
        report(g, s, (0, 3))
    with pytest.raises(ValueError):
        report(g, s, (3, 2))


def test_missing_holidays_named_without_listing_the_window():
    # Listing every missing holiday of this window would not fit in memory.
    with pytest.raises(ValueError, match=r"happy sets missing holidays \[2, 3, 4\]$"):
        report_from_happy_sets(path_graph(2), {1: {0}}, (1, 10**12))


def test_report_flags_independence_violations():
    g = path_graph(2)
    happy_sets = {1: {0, 1}, 2: set()}
    rep = report_from_happy_sets(g, happy_sets, (1, 2))
    assert not rep.independent
    assert rep.independence_violations == ((1, 0, 1),)


def test_report_rejects_unknown_nodes():
    g = path_graph(2)
    with pytest.raises(ValueError, match="unknown"):
        report_from_happy_sets(g, {1: {5}}, (1, 1))


def test_report_rejects_window_past_replay_horizon():
    s = phased_greedy(path_graph(3), {0: 1, 1: 2, 2: 1}, 4)
    assert s.horizon == 4
    with pytest.raises(ValueError, match=r"holiday 5 outside replay horizon 1\.\.4"):
        report(s.graph, s, (1, 5))


def test_gap_bounds_phased_degree_plus_one_clean():
    g = gnp_random_graph(30, 0.15, seed=12)
    s = phased_greedy(g, greedy_color(g), 10 * (g.max_degree() + 1))
    rep = report(g, s, (1, s.horizon))
    assert check_gap_bounds(g, rep, lambda v: g.degree(v) + 1) == []


def test_gap_bounds_slots_twice_degree_clean():
    g = gnp_random_graph(30, 0.15, seed=13)
    s = degree_slots_sequential(g)
    window_end = 4 * max(s.period(v) for v in g.nodes())
    rep = report(g, s, (1, window_end))
    assert check_gap_bounds(g, rep, lambda v: 2 * max(g.degree(v), 1)) == []


def test_gap_bounds_strict_degree_flags_k2():
    g = path_graph(2)
    s = phased_greedy(g, {0: 1, 1: 2}, 4)
    rep = report(g, s, (1, 4))
    violations = check_gap_bounds(g, rep, lambda v: g.degree(v))
    assert sorted(v.node for v in violations) == [0, 1]
    assert all(v.gap == 2 and v.bound == 1 for v in violations)


def test_gap_bounds_never_happy_counts_as_violation():
    g = single_node_graph()
    rep = report_from_happy_sets(g, {t: set() for t in (1, 2, 3)}, (1, 3))
    violations = check_gap_bounds(g, rep, lambda v: 3)
    assert len(violations) == 1
    assert violations[0].gap == 4  # window length + 1: exceeds any in-window bound


def test_brute_force_mis_examples():
    assert brute_force_mis(complete_graph(3)) == 1
    assert brute_force_mis(path_graph(3)) == 2
    assert brute_force_mis(cycle_graph(5)) == 2
    with pytest.raises(ValueError):
        brute_force_mis(gnp_random_graph(21, 0.1, seed=0))


def test_happy_vs_mis_triangle_elias():
    g = complete_graph(3)
    observed, mis = happy_set_vs_mis(g, elias_schedule(g, {0: 1, 1: 2, 2: 3}), (1, 64))
    assert observed <= mis == 1


def test_happy_vs_mis_edgeless_reaches_mis():
    g = ConflictGraph()
    for v in range(3):
        g.add_node(v)
    observed, mis = happy_set_vs_mis(g, elias_schedule(g, {v: 1 for v in range(3)}), (1, 4))
    assert (observed, mis) == (3, 3)


def test_happy_vs_mis_k2_slots():
    g = path_graph(2)
    observed, mis = happy_set_vs_mis(g, degree_slots_sequential(g), (1, 8))
    assert (observed, mis) == (1, 1)


def test_slots_detected_period_matches_level():
    g = gnp_random_graph(14, 0.3, seed=21)
    s = degree_slots_sequential(g)
    window_end = 2 * max(s.period(v) for v in g.nodes())
    rep = report(g, s, (1, window_end))
    for v in g.nodes():
        assert rep.nodes[v].detected_period == s.period(v)


def test_elias_detected_period_matches_code_length():
    g = gnp_random_graph(12, 0.3, seed=8)
    coloring = greedy_color(g)
    s = elias_schedule(g, coloring)
    for v in g.nodes():
        period = 1 << rho(coloring[v])
        rep = report(g, s, (1, 2 * period))
        assert rep.nodes[v].detected_period == period


def test_elias_periods_pass_budget_check():
    g = gnp_random_graph(40, 0.2, seed=3)
    coloring = greedy_color(g)
    used = sorted(set(coloring.values()))
    assert budget_check([1 << rho(c) for c in used])


@given(st.integers(0, 10**6), st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_detected_period_divides_true_period(seed, n):
    g = gnp_random_graph(n, 0.3, seed=seed)
    coloring = greedy_color(g)
    s = elias_schedule(g, coloring)
    for v in g.nodes():
        true_period = s.period(v)
        rep = report(g, s, (1, 2 * true_period))
        detected = rep.nodes[v].detected_period
        assert detected > 0 and true_period % detected == 0


# ----------------------------- hosting-list audit vs flag-based reference


def _flag_node_stats(flags, t0, t1):
    """Reference NodeStats from the window's flag string (KMP period)."""
    happy = tuple(t0 + i for i, f in enumerate(flags) if f)
    longest = run = 0
    for f in flags:
        run = 0 if f else run + 1
        longest = max(longest, run)
    if happy:
        gaps = [b - a for a, b in zip(happy, happy[1:])] + [t1 - happy[-1] + 1]
        max_gap = max(gaps)
    else:
        max_gap = None
    return NodeStats(
        happy=happy,
        mul=longest,
        detected_period=smallest_window_period(flags),
        first_happy=happy[0] if happy else None,
        max_gap=max_gap,
    )


def _flags(draw_bits, period, flips):
    """A periodic flag string with a few flipped positions."""
    flags = [draw_bits[i % period] for i in range(len(draw_bits))]
    for i in flips:
        flags[i % len(flags)] = not flags[i % len(flags)]
    return flags


@given(
    st.lists(st.booleans(), min_size=1, max_size=48),
    st.integers(1, 48),
    st.lists(st.integers(0, 47), max_size=2),
    st.integers(1, 5),
)
@settings(max_examples=400, deadline=None)
def test_hosting_stats_match_flag_reference(bits, period, flips, t0):
    flags = _flags(bits, period, flips)
    t1 = t0 + len(flags) - 1
    g = single_node_graph()
    happy_sets = {t0 + i: ({0} if f else set()) for i, f in enumerate(flags)}
    rep = report_from_happy_sets(g, happy_sets, (t0, t1))
    assert rep.nodes[0] == _flag_node_stats(flags, t0, t1)


@pytest.mark.parametrize("t0", [1, 3])
def test_every_short_flag_string_matches_flag_reference(t0):
    g = single_node_graph()
    for length in range(1, 13):
        t1 = t0 + length - 1
        for bits in range(1 << length):
            flags = [bool(bits >> i & 1) for i in range(length)]
            happy_sets = {t0 + i: ({0} if f else set()) for i, f in enumerate(flags)}
            rep = report_from_happy_sets(g, happy_sets, (t0, t1))
            assert rep.nodes[0] == _flag_node_stats(flags, t0, t1), flags


def _scan_violations(g, happy_sets):
    """Reference: every row's happy nodes' neighbor lists, in happy-set order."""
    out = []
    for t in sorted(happy_sets):
        hs = happy_sets[t]
        for u in hs:
            for w in g.neighbors(u):
                if u < w and w in hs:
                    out.append((t, u, w))
    return out


@given(st.integers(0, 10**6), st.integers(2, 30), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_planted_conflicts_listed_in_reference_order(seed, n, a, b):
    import random

    rng = random.Random(seed)
    g = gnp_random_graph(n, 0.3, seed=seed)
    happy_sets = {t: {v for v in g.nodes() if rng.random() < 0.4} for t in range(1, 9)}
    t0, t1 = min(a, b), max(a, b)
    rep = report_from_happy_sets(g, happy_sets, (t0, t1))
    # Every row is audited; only the window's rows feed the statistics.
    assert list(rep.independence_violations) == _scan_violations(g, happy_sets)
    inside = {t: happy_sets[t] for t in range(t0, t1 + 1)}
    assert rep.nodes == report_from_happy_sets(g, inside, (t0, t1)).nodes


def test_independence_violations_checks_every_row():
    g = path_graph(3)
    happy_sets = {3: {0, 1}, 1: {0, 2}, 2: {1, 2}}
    rep = report_from_happy_sets(g, happy_sets, (1, 1))
    assert list(rep.independence_violations) == [(2, 1, 2), (3, 0, 1)]
    with pytest.raises(ValueError, match="unknown"):
        report_from_happy_sets(g, {1: {7}}, (1, 1))


def test_rows_outside_the_window_are_audited_but_not_counted():
    g = path_graph(3)
    happy_sets = {1: {0, 1}, 2: {0, 2}, 3: {1}, 4: {1, 2}}
    rep = report_from_happy_sets(g, happy_sets, (2, 3))
    assert rep.independence_violations == ((1, 0, 1), (4, 1, 2))
    assert rep.nodes[0].happy == (2,)
    assert rep.nodes[1].happy == (3,)
    assert rep.nodes[2].happy == (2,)
    with pytest.raises(ValueError, match=r"holiday 5 lists unknown nodes \[9\]"):
        report_from_happy_sets(g, {**happy_sets, 5: {1, 9}}, (2, 3))


def test_rows_far_apart_are_audited_in_order():
    # Rows 1..6 and 10**9: conflicts on both sides of the window (2, 5).
    g = path_graph(4)
    happy_sets = {1: {0, 1, 3}, 2: {0, 2}, 3: {1, 3}, 4: {0, 3}, 5: {1}, 6: {0, 2},
                  10**9: {2, 1, 3, 0}}
    rep = report_from_happy_sets(g, happy_sets, (2, 5))
    assert rep.independence_violations == tuple(_scan_violations(g, happy_sets))
    assert [t for t, _, _ in rep.independence_violations] == [1, 10**9, 10**9, 10**9]
    assert rep.nodes[0].happy == (2, 4)
    assert rep.nodes[1].happy == (3, 5)
    assert rep.nodes[1].detected_period == 2


@pytest.mark.parametrize("algorithm", ["elias", "slots"])
def test_periodic_reports_match_node_by_node_reference(algorithm):
    g = gnp_random_graph(300, 0.03, seed=17)
    s = elias_schedule(g, greedy_color(g)) if algorithm == "elias" else degree_slots_sequential(g)
    happy_sets = {t: s.happy_set(t) for t in range(1, 97)}
    for t0, t1 in ((1, 96), (9, 50)):
        rep = report_from_happy_sets(g, happy_sets, (t0, t1))
        assert rep.independence_violations == ()
        assert len(set(map(id, rep.nodes.values()))) < len(g) // 4  # nodes share patterns
        for v in g.nodes():
            flags = [v in happy_sets[t] for t in range(t0, t1 + 1)]
            assert rep.nodes[v] == _flag_node_stats(flags, t0, t1), (t0, t1, v)


def test_nodes_sharing_a_slot_share_their_stats():
    g = ConflictGraph.from_edge_list("0 1\n2 3\n")
    s = degree_slots_sequential(g)
    assert s.slots[0] == s.slots[2] != s.slots[1]
    rep = report(g, s, (1, 8))
    assert rep.nodes[0] == rep.nodes[2] != rep.nodes[1]
    assert rep.nodes[0] is rep.nodes[2]


# ------------------------------------- conflicts between shared hosting patterns


def _assert_matches_references(g, happy_sets, window):
    """The report against _scan_violations and _flag_node_stats; nodes with
    equal hosting patterns over all rows share one NodeStats object."""
    t0, t1 = window
    rep = report_from_happy_sets(g, happy_sets, window)
    assert list(rep.independence_violations) == _scan_violations(g, happy_sets)
    assert list(rep.nodes) == g.nodes()
    shared = {}
    for v in g.nodes():
        flags = [v in happy_sets[t] for t in range(t0, t1 + 1)]
        assert rep.nodes[v] == _flag_node_stats(flags, t0, t1), (window, v)
        pattern = tuple(t for t in sorted(happy_sets) if v in happy_sets[t])
        assert rep.nodes[v] is shared.setdefault(pattern, rep.nodes[v]), v
    return rep


def _slot_kind(a, b):
    """How two slots' hosting holidays meet: "same" slot, "nested" (residues
    equal modulo the smaller period, different slots) or "disjoint"."""
    smaller = min(a.period, b.period)
    if a == b:
        return "same"
    return "nested" if a.offset % smaller == b.offset % smaller else "disjoint"


@pytest.mark.parametrize("algorithm", ["elias", "slots"])
def test_planted_conflicts_between_patterns_match_references(algorithm):
    # The schedule is proper on g; the audit runs against g plus one planted
    # edge of each kind of slot pair, so every clash is between two patterns
    # (or within one) that many other nodes share.
    g = gnp_random_graph(300, 0.03, seed=17)
    s = elias_schedule(g, greedy_color(g)) if algorithm == "elias" else degree_slots_sequential(g)
    planted = {}
    last = g.nodes()[::-1]  # pairs of late nodes, so that the pairs' slots have earlier holders
    for u in last:
        for v in last:
            if u < v and not g.has_edge(u, v):
                planted.setdefault(_slot_kind(s.slots[u], s.slots[v]), (u, v))
    first_holder = {}
    for v in g.nodes():
        first_holder.setdefault(s.slots[v], v)
    assert all(first_holder[s.slots[w]] != w for pair in planted.values() for w in pair)
    # Omega codewords are prefix-free, so two omega slots never nest.
    assert sorted(planted) == (["disjoint", "same"] if algorithm == "elias"
                               else ["disjoint", "nested", "same"])
    sup = g.copy()
    for u, v in planted.values():
        sup.insert_edge(u, v)
    happy_sets = {t: s.happy_set(t) for t in range(1, 97)}
    for window in ((1, 96), (9, 50)):
        rep = _assert_matches_references(sup, happy_sets, window)
        clashing = {(u, v) for _, u, v in rep.independence_violations}
        assert clashing == {planted[k] for k in planted if k != "disjoint"}
        u, v = planted["same"]
        assert rep.nodes[u] is rep.nodes[v]


@given(
    st.integers(0, 10**6),
    st.integers(2, 25),
    st.integers(2, 4),
    st.lists(st.integers(0, 3), min_size=1, max_size=24),
    st.integers(1, 24),
    st.integers(1, 24),
)
@settings(max_examples=150, deadline=None)
def test_rows_drawn_from_a_small_pool_match_references(seed, n, pool_size, picks, a, b):
    # A few distinct rows, repeated: nodes fall into few hosting patterns,
    # and a conflict inside a pooled row recurs on every holiday that uses it.
    import random

    rng = random.Random(seed)
    g = gnp_random_graph(n, 0.2, seed=seed)
    pool = [frozenset(v for v in g.nodes() if rng.random() < 0.5) for _ in range(pool_size)]
    happy_sets = {t: pool[i % pool_size] for t, i in enumerate(picks, start=1)}
    last = len(picks)
    t0, t1 = sorted((min(a, last), min(b, last)))
    _assert_matches_references(g, happy_sets, (t0, t1))


def test_every_node_with_its_own_pattern_matches_references():
    # Node v hosts on holiday t when bit t - 1 of v is set; its only neighbor
    # is its complement, which never hosts with it. All 2**k patterns differ.
    k = 7
    full = (1 << k) - 1
    g = ConflictGraph.from_edge_list("".join(f"{v} {full - v}\n" for v in range(1 << (k - 1))))
    happy_sets = {t: {v for v in range(1 << k) if v >> (t - 1) & 1} for t in range(1, k + 1)}
    rep = _assert_matches_references(g, happy_sets, (1, k))
    assert rep.independent
    assert len(set(map(id, rep.nodes.values()))) == 1 << k
    g.insert_edge(3, 5)  # both host on holiday 1
    rep = _assert_matches_references(g, happy_sets, (2, k))
    assert rep.independence_violations == ((1, 3, 5),)


@pytest.mark.parametrize("happy_sets, window, message", [
    # an unknown id among known ids of one row
    ({1: {0, 7, 1}, 2: {2}}, (1, 2), "holiday 1 lists unknown nodes [7]"),
    # the first three unknown ids, sorted
    ({1: {0, 13, 11, 12, 10}}, (1, 1), "holiday 1 lists unknown nodes [10, 11, 12]"),
    # two rows with unknown ids: the earlier holiday wins, whatever the dict order
    ({3: {5}, 2: {9, 8}, 1: {0}}, (1, 3), "holiday 2 lists unknown nodes [8, 9]"),
    # an unknown id only in a row past the window
    ({1: {0}, 2: {1}, 5: {6}}, (1, 2), "holiday 5 lists unknown nodes [6]"),
    # a repeated row, built as a frozenset and as a set: its earliest holiday
    ({1: {0}, 2: frozenset({1, 7}), 3: {7, 1}, 4: frozenset({1, 7})}, (1, 4),
     "holiday 2 lists unknown nodes [7]"),
    # a repeated row first seen before a later row with the same unknown id
    ({4: {8}, 3: {0, 8}, 2: {8}, 1: {0, 8}}, (1, 4), "holiday 1 lists unknown nodes [8]"),
    # a repeated row whose earliest holiday is past the window
    ({1: {2}, 2: {0}, 3: {0, 9}, 4: {2}, 5: frozenset({9, 0})}, (1, 2),
     "holiday 3 lists unknown nodes [9]"),
    # a row with both a conflict and an unknown id raises
    ({1: {0, 1, 4}}, (1, 1), "holiday 1 lists unknown nodes [4]"),
])
def test_unknown_nodes_name_the_first_row_that_lists_them(happy_sets, window, message):
    import re

    with pytest.raises(ValueError, match=re.escape(message)):
        report_from_happy_sets(path_graph(3), happy_sets, window)


# ------------------------------------------- equal rows as different objects


def _spread(g, factor):
    """g with node v renamed factor * v, so that the ids of a small row
    collide in a set's hash table and its iteration order follows the order
    in which the row was built."""
    out = ConflictGraph()
    for v in g.nodes():
        out.add_node(factor * v)
    for u, v in g.edges():
        out.insert_edge(factor * u, factor * v)
    return out


# Three ways to build one row value: they compare equal, but the last two
# add the ids in reverse, so on colliding ids they can iterate differently.
_BUILDS = (
    frozenset,
    lambda ids: frozenset().union(*[frozenset({v}) for v in reversed(ids)]),
    lambda ids: set(reversed(ids)),
)


def test_equal_rows_keep_their_own_violation_order():
    # Edges 1-9 and 3-17 clash on both holidays; the two rows are equal, but
    # holiday 2's set lists 17 and 3 before 9 and 1.
    g = ConflictGraph.from_edge_list("1 9\n3 17\n")
    happy_sets = {1: _BUILDS[0]([1, 3, 9, 17]), 2: _BUILDS[1]([1, 3, 9, 17])}
    assert happy_sets[1] == happy_sets[2] and list(happy_sets[1]) != list(happy_sets[2])
    rep = _assert_matches_references(g, happy_sets, (1, 2))
    assert rep.independence_violations == ((1, 1, 9), (1, 3, 17), (2, 3, 17), (2, 1, 9))


@given(
    st.integers(0, 10**6),
    st.integers(2, 30),
    st.sampled_from([1, 8, 16]),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=24),
    st.integers(1, 24),
    st.integers(1, 24),
)
@settings(max_examples=150, deadline=None)
def test_equal_rows_built_differently_match_references(seed, n, factor, picks, a, b):
    # Each holiday picks a pooled row value and one of _BUILDS, so equal
    # rows come as different objects, frozensets and sets mixed, in
    # different iteration orders. Pool row 0 holds both ends of an edge, so
    # its conflict recurs on every holiday that repeats it.
    import random

    rng = random.Random(seed)
    g = _spread(gnp_random_graph(n, 0.2, seed=seed), factor)
    pool = [sorted(v for v in g.nodes() if rng.random() < 0.5) for _ in range(3)]
    if g.edges():
        pool[0] = sorted(set(pool[0]).union(rng.choice(g.edges())))
    happy_sets = {t: _BUILDS[k](pool[i]) for t, (i, k) in enumerate(picks, start=1)}
    last = len(picks)
    t0, t1 = sorted((min(a, last), min(b, last)))
    _assert_matches_references(g, happy_sets, (t0, t1))
