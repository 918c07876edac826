import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from fairgather import schedulers
from fairgather.codec import code_residue, omega_encode, rho
from fairgather.coloring import (
    first_fit,
    greedy_color,
    is_proper,
    local_random_color,
    smallest_free_color,
)
from fairgather.graph import ConflictGraph, complete_graph, gnp_random_graph, path_graph, star_graph
from fairgather.schedulers import (
    EliasSchedule,
    PeriodicSchedule,
    PhasedSchedule,
    Slot,
    _omega_slot,
    degree_slots_distributed,
    degree_slots_sequential,
    dynamic_insert,
    dynamic_remove,
    elias_schedule,
    periodic_conflicts,
    phased_greedy,
)


def single_node(color=1):
    g = ConflictGraph()
    g.add_node(0)
    return g, {0: color}


# ---------------------------------------------------------------- phased


def test_phased_triangle_trace():
    s = phased_greedy(complete_graph(3), {0: 1, 1: 2, 2: 3}, 9)
    assert [sorted(s.happy_set(t)) for t in range(1, 10)] == [
        [0], [1], [2], [0], [1], [2], [0], [1], [2]
    ]


def test_phased_single_node_every_holiday():
    g, init = single_node()
    s = phased_greedy(g, init, 3)
    assert [s.happy(0, t) for t in (1, 2, 3)] == [True, True, True]


def test_phased_k2_alternates():
    s = phased_greedy(path_graph(2), {0: 1, 1: 2}, 4)
    assert [sorted(s.happy_set(t)) for t in range(1, 5)] == [[0], [1], [0], [1]]


def test_phased_rejects_improper_init():
    with pytest.raises(ValueError):
        phased_greedy(path_graph(2), {0: 1, 1: 1}, 4)
    with pytest.raises(ValueError):
        phased_greedy(path_graph(2), {0: 1}, 4)


def test_phased_happy_outside_horizon_rejected():
    s = phased_greedy(path_graph(2), {0: 1, 1: 2}, 4)
    with pytest.raises(ValueError):
        s.happy(0, 5)
    with pytest.raises(ValueError):
        s.happy(0, 0)


def test_phased_happy_set_is_the_stored_frozenset():
    s = phased_greedy(path_graph(3), {0: 1, 1: 2, 2: 1}, 4)
    assert s.happy_set(1) == {0, 2}
    assert type(s.happy_set(1)) is frozenset and s.happy_set(1) is s.happy_set(1)


def test_phased_first_happiness_at_initial_color():
    g = gnp_random_graph(40, 0.1, seed=3)
    init = greedy_color(g)
    s = phased_greedy(g, init, 10 * (g.max_degree() + 1))
    for v in g.nodes():
        first = next(t for t in range(1, s.horizon + 1) if s.happy(v, t))
        assert first == init[v]
        assert first <= g.degree(v) + 1


def test_phased_gap_bounded_by_degree_plus_one():
    g = gnp_random_graph(40, 0.1, seed=4)
    s = phased_greedy(g, greedy_color(g), 10 * (g.max_degree() + 1))
    for v in g.nodes():
        happy = [t for t in range(1, s.horizon + 1) if s.happy(v, t)]
        gaps = [b - a for a, b in zip(happy, happy[1:])]
        assert happy and max(gaps, default=1) <= g.degree(v) + 1


def _phased_greedy_scan(g, init, horizon):
    """The replay of earlier releases: a scan of every node per holiday. Kept as an oracle."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not is_proper(g, init):
        raise ValueError("initial coloring must be proper and cover every node")
    if any(c < 1 for c in init.values()):
        raise ValueError("colors are positive integers")

    col = dict(init)
    happy_sets: list[frozenset[int]] = []
    for i in range(1, horizon + 1):
        happy = sorted(v for v in g.nodes() if col[v] == i)
        # Reading live colors equals reading the phase-start snapshot: no two
        # happy nodes are adjacent, so no recoloring is visible to another.
        for v in happy:
            nbrs = g.neighbors(v)
            col[v] = first_fit({col[u] for u in nbrs}, start=i + 1)
            if col[v] > i + len(nbrs) + 1:
                raise AssertionError("greedy recolor escaped its pigeonhole window")
        happy_sets.append(frozenset(happy))
    return PhasedSchedule(g.copy(), happy_sets)


@st.composite
def _phased_cases(draw):
    """A graph, a proper coloring of it with gaps (maybe naming extra nodes), and a horizon."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(0, 30))
    kind = draw(st.sampled_from(["gnp", "hubs"]))
    if kind == "gnp":
        g = gnp_random_graph(n, draw(st.sampled_from([0.05, 0.2, 0.5])), seed=rng.randrange(10**6))
    else:
        g = ConflictGraph()
        for v in range(n):
            g.add_node(v)
        hubs = min(n, draw(st.integers(1, 3)))
        for h in range(hubs):
            for v in rng.sample(range(hubs, n), rng.randint(0, n - hubs)):
                g.insert_edge(h, v)
        for _ in range(rng.randint(0, n) if n >= 2 else 0):
            u, v = rng.sample(range(n), 2)
            if not g.has_edge(u, v):
                g.insert_edge(u, v)
    for v in range(n, n + draw(st.integers(0, 3))):
        g.add_node(v)  # isolated nodes
    base = greedy_color(g) if draw(st.booleans()) else local_random_color(g, seed=rng.randrange(100))[0]
    # Distinct classes stay distinct: offsets are below the stretch k.
    k = draw(st.integers(1, 4))
    offset = {c: rng.randrange(k) for c in set(base.values())}
    init = {v: c * k + offset[c] for v, c in base.items()}
    for v in range(n + 10, n + 10 + draw(st.integers(0, 3))):
        init[v] = rng.randint(1, 8)  # nodes outside the graph
    horizon = draw(st.integers(1, 4 * (g.max_degree() + 1)))
    return g, init, horizon


@given(_phased_cases())
@settings(max_examples=300, deadline=None)
def test_phased_matches_node_scan_oracle(case):
    g, init, horizon = case
    s, ref = phased_greedy(g, init, horizon), _phased_greedy_scan(g, init, horizon)
    assert s.horizon == ref.horizon == horizon
    for t in range(1, horizon + 1):
        assert s.happy_set(t) == ref.happy_set(t), t
        hs = s.happy_set(t)
        assert sys.getsizeof(hs) <= sys.getsizeof(frozenset(list(hs))), t


def test_phased_stores_compact_frozensets():
    # 300 leaves host together; a frozenset copied from a set of that size
    # would hold a table twice as large as one built from a list.
    g = star_graph(300)
    s = phased_greedy(g, greedy_color(g), 8)
    assert [len(s.happy_set(t)) for t in range(1, 9)] == [1, 300] * 4
    for t in range(1, 9):
        hs = s.happy_set(t)
        assert sys.getsizeof(hs) <= sys.getsizeof(frozenset(list(hs))), t


def test_phased_ignores_colors_of_nodes_outside_the_graph():
    s = phased_greedy(path_graph(2), {0: 1, 1: 2, 99: 1}, 3)
    assert [sorted(s.happy_set(t)) for t in (1, 2, 3)] == [[0], [1], [0]]


# ----------------------------------------------------------------- elias


def test_elias_color_periods():
    g, init = single_node()
    for color, residue in [(1, 0), (2, 1), (3, 3)]:
        s = elias_schedule(g, {0: color})
        period = 1 << rho(color)
        happy = [t for t in range(1, 2 * period + 1) if s.happy(0, t)]
        assert happy == [t for t in range(1, 2 * period + 1) if t % period == residue % period]
        assert s.period(0) == period


def test_elias_color_one_even_holidays():
    g, init = single_node()
    s = elias_schedule(g, init)
    assert [t for t in range(1, 11) if s.happy(0, t)] == [2, 4, 6, 8, 10]


def test_elias_rejects_improper_coloring():
    with pytest.raises(ValueError):
        elias_schedule(path_graph(2), {0: 2, 1: 2})


def test_elias_rejects_coloring_of_unknown_nodes():
    with pytest.raises(ValueError, match="exactly the graph's nodes"):
        elias_schedule(path_graph(2), {0: 1, 1: 2, 99: 3})


def test_omega_slot_reads_the_color_codeword():
    for c in range(1, 4097):
        assert _omega_slot(c) == Slot(code_residue(omega_encode(c)), rho(c))


def test_elias_single_color_per_holiday():
    g = gnp_random_graph(30, 0.15, seed=9)
    coloring = greedy_color(g)
    s = elias_schedule(g, coloring)
    for t in range(1, 257):
        colors = {coloring[v] for v in s.happy_set(t)}
        assert len(colors) <= 1


def test_elias_happy_set_is_the_stored_bucket():
    # At most one color class hosts on a holiday, so the schedule hands out
    # its own compact bucket, the same object every period, not a copy.
    g = gnp_random_graph(60, 0.1, seed=4)
    s = elias_schedule(g, greedy_color(g))
    P = max(s.period(v) for v in g.nodes())
    hosting = [t for t in range(1, P + 1) if s.happy_set(t)]
    assert len(hosting) > P // 2
    for t in hosting:
        hs = s.happy_set(t)
        assert type(hs) is frozenset and hs is s.happy_set(t + P), t
        assert sys.getsizeof(hs) <= sys.getsizeof(frozenset(list(hs))), t
    # An event that recolors nobody shares the buckets, so the newer
    # version hands out the very same sets.
    u, v = next((u, v) for u in g.nodes() for v in g.nodes()
                if u < v and not g.has_edge(u, v) and s.coloring[u] != s.coloring[v])
    newer = dynamic_insert(s, u, v)
    assert newer.coloring is s.coloring
    assert all(newer.happy_set(t) is s.happy_set(t) for t in hosting)


# ----------------------------------------------------------------- slots


def test_sequential_slots_path_trace():
    s = degree_slots_sequential(path_graph(3))
    assert (s.slots[1].offset, s.slots[1].level) == (0, 2)
    assert (s.slots[0].offset, s.slots[0].level) == (1, 1)
    assert (s.slots[2].offset, s.slots[2].level) == (1, 1)
    assert [t for t in range(1, 9) if s.happy(1, t)] == [4, 8]
    assert all(s.happy(0, t) == (t % 2 == 1) for t in range(1, 9))


def test_sequential_slots_isolated_node_always_happy():
    g = ConflictGraph()
    g.add_node(0)
    s = degree_slots_sequential(g)
    assert (s.slots[0].offset, s.slots[0].level) == (0, 0)
    assert all(s.happy(0, t) for t in range(1, 6))


def test_sequential_slots_k2_alternate():
    s = degree_slots_sequential(path_graph(2))
    assert (s.slots[0].offset, s.slots[0].level) == (0, 1)
    assert (s.slots[1].offset, s.slots[1].level) == (1, 1)


def test_sequential_slots_no_conflicts_and_period_bound():
    for seed in range(5):
        g = gnp_random_graph(50, 0.1, seed=seed)
        s = degree_slots_sequential(g)
        assert periodic_conflicts(s) == []
        for v in g.nodes():
            d = g.degree(v)
            assert s.period(v) == 1 << d.bit_length()  # 2 ** ceil(log2(d + 1))
            assert s.period(v) <= 2 * max(d, 1)


def test_distributed_slots_k2_any_seed():
    for seed in range(6):
        s, log = degree_slots_distributed(path_graph(2), seed=seed)
        assert {s.slots[0].offset, s.slots[1].offset} == {0, 1}
        assert s.slots[0].level == s.slots[1].level == 1
        assert log.rounds >= 1


def test_distributed_slots_star_leaves_avoid_center_parity():
    g = star_graph(4)
    for seed in range(8):
        s, _ = degree_slots_distributed(g, seed=seed)
        assert s.slots[0].level == 3
        leaf_offsets = {s.slots[v].offset for v in range(1, 5)}
        assert len(leaf_offsets) == 1  # non-adjacent leaves may share
        assert leaf_offsets.pop() % 2 != s.slots[0].offset % 2


def test_distributed_slots_star_seed_17_trace():
    # seed chosen so the center draws offset 0; leaves must then all take 1
    s, _ = degree_slots_distributed(star_graph(4), seed=17)
    assert (s.slots[0].offset, s.slots[0].level) == (0, 3)
    assert all((s.slots[v].offset, s.slots[v].level) == (1, 1) for v in range(1, 5))


def test_distributed_slots_edgeless():
    g = ConflictGraph()
    for v in range(3):
        g.add_node(v)
    s, _ = degree_slots_distributed(g, seed=0)
    assert all((s.slots[v].offset, s.slots[v].level) == (0, 0) for v in range(3))


def test_slot_constructions_accept_the_empty_graph():
    s = degree_slots_sequential(ConflictGraph())
    d, log = degree_slots_distributed(ConflictGraph(), seed=0)
    for schedule in (s, d):
        assert schedule.slots == {} and len(schedule.graph) == 0
        assert schedule.happy_set(1) == set() and periodic_conflicts(schedule) == []
    assert (log.rounds, log.messages) == (0, 0)


def test_distributed_slots_reproducible_and_conflict_free():
    g = gnp_random_graph(40, 0.1, seed=1)
    a, la = degree_slots_distributed(g, seed=77)
    b, lb = degree_slots_distributed(g, seed=77)
    assert a.slots == b.slots
    assert (la.rounds, la.messages) == (lb.rounds, lb.messages)
    assert periodic_conflicts(a) == []


def test_periodic_conflicts_certifies_elias_schedules():
    for seed in range(5):
        g = gnp_random_graph(50, 0.1, seed=seed)
        random_coloring, _ = local_random_color(g, seed=seed)
        for coloring in (greedy_color(g), random_coloring):
            assert periodic_conflicts(elias_schedule(g, coloring)) == []


@given(st.integers(0, 10**6), st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_periodic_conflicts_match_joint_hosting(seed, n):
    import random

    rng = random.Random(seed)
    g = gnp_random_graph(n, 0.4, seed=seed)
    slots = {}
    for v in g.nodes():
        level = rng.randint(0, 3)
        slots[v] = Slot(offset=rng.randrange(1 << level), level=level)
    s = PeriodicSchedule(g, slots)
    horizon = max(slot.period for slot in slots.values())  # lcm of powers of two
    joint = [(u, v) for u, v in g.edges()
             if any(s.happy(u, t) and s.happy(v, t) for t in range(1, horizon + 1))]
    assert periodic_conflicts(s) == joint


@pytest.mark.parametrize("offset,level", [(5, 1), (2, 1), (-1, 0), (0, -1)])
def test_slot_rejects_offset_outside_period(offset, level):
    # An offset outside [0, 2**level) never hosts, but periodic_conflicts
    # reduces offsets modulo the smaller period and would see a conflict.
    with pytest.raises(ValueError):
        PeriodicSchedule(path_graph(2), {0: Slot(offset, level), 1: Slot(1, 1)})


def test_slot_no_joint_happiness_over_joint_period():
    g = gnp_random_graph(16, 0.25, seed=6)
    s = degree_slots_sequential(g)
    for u, v in g.edges():
        window = 1 << (s.slots[u].level + s.slots[v].level)
        assert not any(s.happy(u, t) and s.happy(v, t) for t in range(1, window + 1))


# ---------------------------------------------------------------- dynamic


def test_dynamic_insert_recolors_higher_id_on_collision():
    g = ConflictGraph()
    g.add_node(0)
    g.add_node(1)
    s = elias_schedule(g, {0: 1, 1: 1})
    s2 = dynamic_insert(s, 0, 1)
    assert s2.coloring == {0: 1, 1: 2}
    assert (s2.period(0), s2.period(1)) == (2, 8)
    assert not s.graph.has_edge(0, 1)  # original untouched


def test_dynamic_insert_no_collision_no_recolor():
    g = ConflictGraph()
    g.add_node(0)
    g.add_node(1)
    s = elias_schedule(g, {0: 1, 1: 2})
    s2 = dynamic_insert(s, 0, 1)
    assert s2.coloring == {0: 1, 1: 2}


def test_dynamic_insert_distinct_colors_inside_colored_graph():
    g = path_graph(3)  # 0-1-2; 0 and 2 not adjacent
    s = elias_schedule(g, {0: 1, 1: 2, 2: 3})
    s2 = dynamic_insert(s, 0, 2)
    assert s2.coloring == {0: 1, 1: 2, 2: 3}


def test_dynamic_insert_creates_and_colors_new_nodes():
    g = ConflictGraph()
    g.add_node(0)
    s = elias_schedule(g, {0: 1})
    s2 = dynamic_insert(s, 5, 6)
    assert is_proper(s2.graph, s2.coloring)
    assert s2.coloring[5] != s2.coloring[6]


def test_dynamic_insert_rejects_self_loop():
    g, init = single_node()
    s = elias_schedule(g, init)
    with pytest.raises(ValueError):
        dynamic_insert(s, 0, 0)


def test_dynamic_remove_threshold_one_recolors():
    s = elias_schedule(path_graph(2), {0: 1, 1: 2})
    s2 = dynamic_remove(s, 0, 1, recolor_threshold=1.0)
    assert s2.coloring == {0: 1, 1: 1}


def test_dynamic_remove_loose_threshold_keeps_colors():
    s = elias_schedule(path_graph(2), {0: 1, 1: 2})
    s2 = dynamic_remove(s, 0, 1, recolor_threshold=4.0)
    assert s2.coloring == {0: 1, 1: 2}


def test_dynamic_remove_missing_edge_rejected():
    s = elias_schedule(path_graph(2), {0: 1, 1: 2})
    with pytest.raises(ValueError):
        dynamic_remove(s, 0, 7)


def test_dynamic_remove_rejects_nan_threshold():
    s = elias_schedule(path_graph(2), {0: 1, 1: 2})
    with pytest.raises(ValueError, match="nan"):
        dynamic_remove(s, 0, 1, recolor_threshold=float("nan"))
    assert s.graph.has_edge(0, 1)


@pytest.mark.parametrize("touched", [(0, 2), (2, 0)])
def test_derived_schedule_checks_every_touched_node(touched):
    s = elias_schedule(path_graph(3), {0: 1, 1: 2, 2: 1})
    g = s.graph.copy()
    g.insert_edge(0, 2)  # joins the two nodes colored 1
    for nodes in (touched, touched[:1], (1, touched[0])):
        with pytest.raises(ValueError, match="coloring must be proper"):
            s._recolored(g, [], nodes)
    g = s.graph.copy()
    g.insert_edge(2, 3)  # node 3 has no color
    for nodes in ((2, 3), (2,)):
        with pytest.raises(ValueError, match="coloring must be proper"):
            s._recolored(g, [], nodes)


def test_remove_matches_reference_on_every_small_path_coloring():
    # Both endpoints may recolor, and the second may join a bucket or a
    # period the first has just emptied: with colors 2, 3, 1 and threshold
    # 1, node 0 leaves color 2 for 1 and node 1 leaves color 3 for 2.
    for colors in itertools.product(range(1, 9), repeat=3):
        if colors[0] == colors[1] or colors[1] == colors[2]:
            continue
        s = elias_schedule(path_graph(3), dict(enumerate(colors)))
        before = _reads(s)
        for u, v in [(0, 1), (1, 2)]:
            for threshold in (1.0, 2.0):
                expected = _reads(_reference_remove(s, u, v, threshold))
                assert _reads(dynamic_remove(s, u, v, threshold)) == expected
        assert _reads(s) == before


# Reference: the copying updates that rebuild the graph and the schedule on
# every event. The persistent updates must agree with them exactly.


def _reference_insert(s, u, v):
    g = s.graph.copy()
    g.insert_edge(u, v)
    coloring = dict(s.coloring)
    for w in sorted({u, v}):
        if w not in coloring:
            coloring[w] = smallest_free_color(g, coloring, w)
    if coloring[u] == coloring[v]:
        loser = max(u, v)
        coloring[loser] = smallest_free_color(g, coloring, loser)
    return EliasSchedule(g, coloring)


def _reference_remove(s, u, v, recolor_threshold=2.0):
    g = s.graph.copy()
    g.remove_edge(u, v)
    coloring = dict(s.coloring)
    for w in sorted((u, v)):
        if coloring[w] > recolor_threshold * (g.degree(w) + 1):
            coloring[w] = smallest_free_color(g, coloring, w)
    return EliasSchedule(g, coloring)


def _reads(s):
    """Everything a caller can read from a schedule, over two longest periods."""
    horizon = 2 * max(s.slots[v].period for v in s.graph.nodes())
    return (dict(s.coloring), dict(s.slots), s.graph.nodes(), s.graph.edges(),
            [s.happy_set(t) for t in range(1, horizon + 1)])


def _toggle(g, a, b):
    if g.has_edge(a, b):
        g.remove_edge(a, b)
    else:
        g.insert_edge(a, b)


event_chains = st.lists(
    st.tuples(st.sampled_from(["toggle", "toggle", "toggle", "+", "-"]),
              st.integers(0, 10), st.integers(0, 10), st.sampled_from([0.5, 1.0, 2.0])),
    min_size=1, max_size=25,
)


@given(st.integers(0, 99), event_chains)
@settings(max_examples=120, deadline=None)
def test_persistent_updates_match_copying_reference(seed, events):
    # Graph nodes are 0..7, so ids 8..10 are new nodes, often both endpoints
    # of one insert; "+" and "-" also hit duplicate edges, absent edges,
    # absent nodes and self-loops.
    g = gnp_random_graph(8, 0.35, seed=seed)
    s = ref = elias_schedule(g, greedy_color(g))
    versions = [(s, _reads(s))]
    for op, u, v, threshold in events:
        if op == "toggle":
            op = "-" if s.graph.has_edge(u, v) else "+"
        try:
            ref = _reference_insert(ref, u, v) if op == "+" else _reference_remove(ref, u, v, threshold)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                dynamic_insert(s, u, v) if op == "+" else dynamic_remove(s, u, v, threshold)
        else:
            old = s
            s = dynamic_insert(s, u, v) if op == "+" else dynamic_remove(s, u, v, threshold)
            assert _reads(s) == _reads(ref)
            assert is_proper(s.graph, s.coloring) and periodic_conflicts(s) == []
            # An event that changes no color shares its parent's coloring,
            # slots and buckets; one that recolors shares none of them.
            unchanged = s.coloring == old.coloring
            assert (s.coloring is old.coloring) == unchanged
            assert (s.slots is old.slots) == unchanged
            assert (s._buckets is old._buckets) == unchanged
            # A recoloring event copies only the per-period dicts and the
            # buckets that a moved node leaves or joins.
            moved = [w for w, c in s.coloring.items() if old.coloring.get(w) != c]
            hit = {(slot.period, slot.offset) for w in moved
                   for slot in (old.slots.get(w), s.slots[w]) if slot is not None}
            hit_periods = {period for period, _ in hit}
            for period, by_offset in s._buckets.items():
                if period not in hit_periods:
                    assert by_offset is old._buckets[period]
                for offset, members in by_offset.items():
                    if (period, offset) not in hit:
                        assert members is old._buckets[period][offset]
            # Writes to either version's graph stay out of the other one.
            pairs = [(u, v), (min(old.graph.nodes()), max(old.graph.nodes()))]
            for a, b in pairs:
                if a != b and old.graph.has_node(a) and old.graph.has_node(b):
                    for mine, theirs in ((old.graph, s.graph), (s.graph, old.graph)):
                        before = theirs.edges()
                        _toggle(mine, a, b)
                        assert theirs.edges() == before
                        _toggle(mine, a, b)
            versions.append((s, _reads(s)))
        for version, reads in versions:
            assert _reads(version) == reads


def _assert_owns_its_dict(g):
    """g owns its adjacency dict and holds no undo record. Checked before
    any read, since reading a stale graph makes it own one."""
    assert "_adj" in vars(g) and not {"_next", "_undo"} & vars(g).keys()


# A rejected event leaves its schedule as it was and owning its dict. An
# event on an older version, whose graph is stale, rebuilds the dict first,
# so the graph owns one after the rejection too.


def _path_schedule(stale):
    """Path 0-1-2 colored 1, 2, 1, and its reads. With stale, an event has
    since been derived from it, so its graph is stale."""
    s = elias_schedule(path_graph(3), {0: 1, 1: 2, 2: 1})
    before = _reads(s)
    if stale:
        dynamic_insert(s, 2, 3)
    return s, before


@pytest.mark.parametrize("stale", [False, True])
@pytest.mark.parametrize("u, v, message", [
    (1, 1, "self-loop at node 1"),
    (1, 0, "duplicate edge (0, 1)"),
    (-1, 2, "node ids must be non-negative, got -1"),
    (2, -3, "node ids must be non-negative, got -3"),
])
def test_rejected_insert_keeps_the_parent_intact(stale, u, v, message):
    s, before = _path_schedule(stale)
    with pytest.raises(ValueError, match=re.escape(message)):
        dynamic_insert(s, u, v)
    _assert_owns_its_dict(s.graph)
    assert _reads(s) == before


@pytest.mark.parametrize("stale", [False, True])
@pytest.mark.parametrize("u, v, message", [
    (0, 2, "no such edge (0, 2)"),
    (5, 7, "no such edge (5, 7)"),
    (1, 1, "no such edge (1, 1)"),
])
def test_rejected_remove_keeps_the_parent_intact(stale, u, v, message):
    s, before = _path_schedule(stale)
    with pytest.raises(ValueError, match=re.escape(message)):
        dynamic_remove(s, u, v)
    _assert_owns_its_dict(s.graph)
    assert _reads(s) == before


def test_nan_threshold_keeps_the_parent_intact():
    s, before = _path_schedule(stale=False)
    with pytest.raises(ValueError, match="nan"):
        dynamic_remove(s, 0, 1, recolor_threshold=float("nan"))
    _assert_owns_its_dict(s.graph)
    assert _reads(s) == before


@pytest.mark.parametrize("stale", [False, True])
@pytest.mark.parametrize("op", ["+", "-"])
def test_failed_touched_edge_check_keeps_the_parent_intact(monkeypatch, stale, op):
    # A colorer that always answers 1 makes the recolored endpoint clash
    # with a neighbor colored 1, after the new graph has been written.
    s, before = _path_schedule(stale)
    monkeypatch.setattr(schedulers, "smallest_free_color", lambda g, coloring, w: 1)
    with pytest.raises(ValueError, match="coloring must be proper"):
        if op == "+":
            dynamic_insert(s, 0, 2)  # clash: node 2 keeps color 1
        else:
            dynamic_remove(s, 1, 2, recolor_threshold=0.1)  # node 1 takes 0's color
    _assert_owns_its_dict(s.graph)
    assert _reads(s) == before


class DynamicVersions(RuleBasedStateMachine):
    """Events on the newest and on older versions, reads of any version and
    graph writes on any version, against the copy-everything reference.

    Each version keeps its reference schedule and its reads as first made;
    every read of a version, stale or not, must give those reads again.
    Happy sets kept from any version must keep their members.
    """

    @initialize(seed=st.integers(0, 99))
    def start(self, seed):
        g = gnp_random_graph(8, 0.35, seed=seed)
        s = elias_schedule(g, greedy_color(g))
        self.versions = [(s, s, _reads(s))]
        self.kept = []

    def _event(self, i, op, u, v, threshold):
        s, ref, reads = self.versions[i % len(self.versions)]
        if op == "toggle":
            op = "-" if ref.graph.has_edge(u, v) else "+"
        try:
            ref = _reference_insert(ref, u, v) if op == "+" else _reference_remove(ref, u, v, threshold)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                dynamic_insert(s, u, v) if op == "+" else dynamic_remove(s, u, v, threshold)
            _assert_owns_its_dict(s.graph)
            assert _reads(s) == reads
        else:
            s = dynamic_insert(s, u, v) if op == "+" else dynamic_remove(s, u, v, threshold)
            self.versions.append((s, ref, _reads(ref)))

    events = dict(op=st.sampled_from(["toggle", "toggle", "+", "-"]), u=st.integers(0, 10),
                  v=st.integers(0, 10), threshold=st.sampled_from([0.5, 1.0, 2.0]))

    @rule(**events)
    def event_on_newest(self, op, u, v, threshold):
        self._event(-1, op, u, v, threshold)

    @rule(i=st.integers(0, 40), **events)
    def event_on_older(self, i, op, u, v, threshold):
        self._event(i, op, u, v, threshold)

    @rule(i=st.integers(0, 40))
    def read(self, i):
        s, _, reads = self.versions[i % len(self.versions)]
        assert _reads(s) == reads

    @rule(i=st.integers(0, 40), j=st.integers(0, 40), a=st.integers(0, 10), b=st.integers(0, 10))
    def toggle_and_restore(self, i, j, a, b):
        # Version i's graph gets an edge toggled; version j, read in
        # between, must not see it, and restoring it gives i's reads back.
        s, _, reads = self.versions[i % len(self.versions)]
        other, _, other_reads = self.versions[j % len(self.versions)]
        if a == b or not (s.graph.has_node(a) and s.graph.has_node(b)):
            return
        _toggle(s.graph, a, b)
        if other is not s:
            assert _reads(other) == other_reads
        _toggle(s.graph, a, b)
        assert _reads(s) == reads

    @rule(i=st.integers(0, 40), t=st.integers(1, 64))
    def keep_happy_set(self, i, t):
        # The returned set may be a bucket that later versions share, so
        # it must stay equal to this version's scan as taken now.
        s = self.versions[i % len(self.versions)][0]
        hs = s.happy_set(t)
        assert type(hs) is frozenset
        self.kept.append((hs, tuple(sorted(_scan(s, t)))))

    @invariant()
    def kept_happy_sets_stay_as_returned(self):
        for hs, scan in getattr(self, "kept", ()):
            assert tuple(sorted(hs)) == scan

    @invariant()
    def newest_matches_reference(self):
        s, ref, reads = self.versions[-1]
        assert _reads(s) == reads
        assert is_proper(s.graph, s.coloring) and periodic_conflicts(s) == []

    def teardown(self):
        for s, _, reads in getattr(self, "versions", ()):
            assert _reads(s) == reads


TestDynamicVersions = DynamicVersions.TestCase
TestDynamicVersions.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_event_sequences_keep_properness(seed):
    import random

    rng = random.Random(seed)
    g = gnp_random_graph(12, 0.2, seed=seed % 100)
    s = elias_schedule(g, greedy_color(g))
    for _ in range(30):
        nodes = s.graph.nodes()
        u, v = rng.sample(nodes, 2)
        if s.graph.has_edge(u, v):
            s = dynamic_remove(s, u, v)
        else:
            s = dynamic_insert(s, u, v)
        assert is_proper(s.graph, s.coloring)


# ----------------------------------------------------- independence (all)


@given(st.integers(0, 500), st.integers(2, 14))
@settings(max_examples=30, deadline=None)
def test_every_scheduler_yields_independent_happy_sets(seed, n):
    g = gnp_random_graph(n, 0.3, seed=seed)
    init = greedy_color(g)
    horizon = 4 * (g.max_degree() + 1)
    slots_d, _ = degree_slots_distributed(g, seed=seed)
    schedules = [
        phased_greedy(g, init, horizon),
        elias_schedule(g, init),
        degree_slots_sequential(g),
        slots_d,
    ]
    for s in schedules:
        for t in range(1, horizon + 1):
            happy = s.happy_set(t)
            assert type(happy) is frozenset, (type(s).__name__, t)
            for u, v in g.edges():
                assert not (u in happy and v in happy)


# ------------------------------------------- bucketed happy_set vs scan


def _scan(s, t):
    return {v for v in s.graph.nodes() if s.happy(v, t)}


def _assert_happy_sets_match_scan(s):
    # The schedule repeats every P holidays, and so do the sets it hands
    # out: a bucket, a merged row or the shared empty set.
    P = max((s.period(v) for v in s.graph.nodes()), default=1)
    for t in range(1, 4 * P + 1):
        hs = s.happy_set(t)
        assert type(hs) is frozenset and hs == _scan(s, t), t
        assert hs is s.happy_set(t + P), t


@given(st.integers(0, 10**6), st.integers(1, 16), st.sampled_from([0.1, 0.3, 0.6]))
@settings(max_examples=40, deadline=None)
def test_periodic_happy_set_matches_scan(seed, n, p):
    g = gnp_random_graph(n, p, seed=seed)
    slots_d, _ = degree_slots_distributed(g, seed=seed)
    for s in (elias_schedule(g, greedy_color(g)), degree_slots_sequential(g), slots_d):
        _assert_happy_sets_match_scan(s)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_happy_set_matches_scan_after_dynamic_events(seed):
    import random

    rng = random.Random(seed)
    g = gnp_random_graph(10, 0.25, seed=seed % 100)
    s = elias_schedule(g, greedy_color(g))
    for _ in range(rng.randint(1, 15)):
        u, v = rng.sample(range(12), 2)  # ids 10 and 11 are new nodes
        if s.graph.has_edge(u, v):
            s = dynamic_remove(s, u, v, recolor_threshold=rng.choice([1.0, 2.0]))
        else:
            s = dynamic_insert(s, u, v)
    _assert_happy_sets_match_scan(s)


def test_moving_nodes_starts_a_fresh_row_memo():
    g = gnp_random_graph(14, 0.3, seed=7)
    s = degree_slots_sequential(g)
    _assert_happy_sets_match_scan(s)
    assert s._rows and s._with(s.graph, {})._rows is s._rows
    moved = {v: Slot((s.slots[v].offset + 1) % s.period(v), s.slots[v].level)
             for v in sorted(g.nodes())[:3]}
    newer = s._with(s.graph, moved)
    _assert_happy_sets_match_scan(newer)
    _assert_happy_sets_match_scan(s)
    # The newer version keeps only the rows it hands out itself.
    P = max(map(newer.period, g.nodes()))
    handed_out = {id(newer.happy_set(t)) for t in range(P)}
    assert set(map(id, newer._rows.values())) <= handed_out


def test_merged_rows_stay_within_their_cap():
    # Every holiday merges one clique node with all the isolated nodes, so
    # the 64 distinct rows hold 64 * 2,001 node entries, far past 8 * n.
    g = complete_graph(64)
    for v in range(64, 2064):
        g.add_node(v)
    s = degree_slots_sequential(g)
    P, cap = max(map(s.period, g.nodes())), 8 * len(g)
    assert P == 64
    for t in range(1, 2 * P + 1):
        assert s.happy_set(t) == _scan(s, t), t
        assert sum(map(len, s._rows.values())) <= cap, t
    assert 0 < len(s._rows) < P
