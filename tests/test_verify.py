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
    smallest_window_period,
)


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
    """Reference NodeStats from the window's flag string (KMP border period)."""
    happy = tuple(t0 + i for i, f in enumerate(flags) if f)
    longest = run = 0
    for f in flags:
        run = 0 if f else run + 1
        longest = max(longest, run)
    border, k = [0] * len(flags), 0
    for i in range(1, len(flags)):
        while k and flags[i] != flags[k]:
            k = border[k - 1]
        if flags[i] == flags[k]:
            k += 1
        border[i] = k
    period = len(flags) - border[-1]
    if happy:
        gaps = [b - a for a, b in zip(happy, happy[1:])] + [t1 - happy[-1] + 1]
        max_gap = max(gaps)
    else:
        max_gap = None
    return NodeStats(
        happy=happy,
        mul=longest,
        detected_period=period if period <= len(flags) // 2 else 0,
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


def _scan_violations(g, happy_sets, t0, t1):
    """Reference: every happy node's neighbor list, in happy-set order."""
    out = []
    for t in range(t0, t1 + 1):
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
    assert list(rep.independence_violations) == _scan_violations(g, happy_sets, 1, 8)
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
