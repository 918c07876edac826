"""Acceptance suite: one test per release criterion, each printing a
timed pass line (run with -s to see them). Criteria cover the codec
tables and properties, the period-bound theorem, the three schedulers,
the coloring stand-in, satisfaction, dynamics, and the MIS oracle."""

import itertools
import math
import random
import time

import pytest

from corpus import er_corpus, small_fixtures, structured_fixtures
from fairgather.analysis import budget_check, elias_period_bound
from fairgather.codec import code_residue, omega_encode, rho
from fairgather.coloring import greedy_color, is_proper, local_random_color
from fairgather.graph import ConflictGraph, gnp_random_graph
from fairgather.satisfaction import alternating_schedule, brute_force_satisfaction, max_satisfaction
from fairgather.schedulers import (
    degree_slots_distributed,
    degree_slots_sequential,
    dynamic_insert,
    dynamic_remove,
    elias_schedule,
    phased_greedy,
)
from fairgather.verify import check_gap_bounds, happy_set_vs_mis, report
from oracles import smallest_window_period

EPS = 1e-9


class Criterion:
    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def done(self) -> None:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if elapsed < self.budget_s else "FAIL (over budget)"
        print(f"criterion {self.number:2d} [{self.name}]: {status} in {elapsed:.3f}s "
              f"(budget {self.budget_s}s)")
        assert elapsed < self.budget_s, f"criterion {self.number} exceeded {self.budget_s}s"


@pytest.fixture(scope="module")
def corpus():
    return er_corpus(count=50, n=100) + structured_fixtures()


def test_criterion_01_codeword_table():
    crit = Criterion(1, "omega codewords 1..15", budget_s=0.001)
    expected = [
        "0", "100", "110", "101000", "101010", "101100", "101110",
        "1110000", "1110010", "1110100", "1110110", "1111000",
        "1111010", "1111100", "1111110",
    ]
    assert [omega_encode(n) for n in range(1, 16)] == expected
    crit.done()


def test_criterion_02_codec_properties():
    crit = Criterion(2, "round-trip / prefix-free / Kraft", budget_s=10.0)
    from fairgather.codec import omega_decode

    for n in range(1, 100_001):
        code = omega_encode(n)
        assert omega_decode(code) == (n, len(code))

    codes = [omega_encode(n) for n in range(1, 1001)]
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            if i != j:
                assert not b.startswith(a)

    total = 0.0
    for c in range(1, 2**16 + 1):
        total += 2.0 ** -rho(c)
        assert total <= 1.0
    crit.done()


def test_criterion_03_period_upper_bound_theorem():
    crit = Criterion(3, "2^rho(c) <= 2^(1+log*c) phi(c)", budget_s=5.0)
    for c in range(1, 2**16 + 1):
        bound = elias_period_bound(c)
        assert 2 ** rho(c) <= bound * (1 + EPS), c
    for c in (1, 2, 4):
        bound = elias_period_bound(c)
        assert abs(2 ** rho(c) - bound) <= EPS * bound
    crit.done()


def test_criterion_04_phased_greedy_theorem(corpus):
    crit = Criterion(4, "phased gaps <= degree+1, independent", budget_s=30.0)
    for name, g in corpus:
        horizon = 10 * (g.max_degree() + 1)
        s = phased_greedy(g, greedy_color(g), horizon)
        rep = report(g, s, (1, horizon))
        assert rep.independent, name
        assert check_gap_bounds(g, rep, lambda v: g.degree(v) + 1) == [], name
    crit.done()


def test_criterion_05_elias_schedule(corpus):
    crit = Criterion(5, "elias periods exact, single color, independent", budget_s=30.0)
    for name, g in corpus:
        coloring = greedy_color(g)
        s = elias_schedule(g, coloring)

        for v in g.nodes():
            period = s.period(v)
            flags = [s.happy(v, t) for t in range(1, 2 * period + 1)]
            assert smallest_window_period(flags) == period, (name, v)

        by_color: dict[int, list[int]] = {}
        for v, c in coloring.items():
            by_color.setdefault(c, []).append(v)
        params = {
            c: (code_residue(omega_encode(c)), 1 << rho(c)) for c in by_color
        }
        joint = max(m for _, m in params.values())
        for t in range(1, joint + 1):
            live = [c for c, (r, m) in params.items() if t % m == r]
            assert len(live) <= 1, (name, t)
            if live:
                happy = set(by_color[live[0]])
                for u in happy:
                    assert not any(w in happy for w in g.neighbors(u)), (name, t, u)
    crit.done()


def test_criterion_06_degree_bound_slots(corpus):
    crit = Criterion(6, "slot schedules conflict-free, period = 2^ceil(log(d+1))", budget_s=30.0)

    def check(g, s, name):
        for v in g.nodes():
            d = g.degree(v)
            assert s.period(v) == 1 << d.bit_length(), (name, v)
            assert s.period(v) <= 2 * max(d, 1), (name, v)
        for u, v in g.edges():
            joint = max(s.period(u), s.period(v))
            assert not any(
                s.happy(u, t) and s.happy(v, t) for t in range(1, joint + 1)
            ), (name, u, v)

    for name, g in corpus:
        check(g, degree_slots_sequential(g), f"{name}/seq")
    for name, g in corpus:
        for seed in range(10):
            s, _ = degree_slots_distributed(g, seed=seed)
            again, _ = degree_slots_distributed(g, seed=seed)
            assert s.slots == again.slots, (name, seed)
            check(g, s, f"{name}/dist{seed}")
    crit.done()


def test_criterion_07_coloring_standin_termination():
    crit = Criterion(7, "randomized coloring: rounds and degree bound", budget_s=60.0)
    n = 500
    limit = math.ceil(8 * math.log(n))
    g = gnp_random_graph(n, 0.02, seed=123)
    within = 0
    for seed in range(100):
        coloring, log = local_random_color(g, seed=seed)
        assert is_proper(g, coloring), seed
        assert all(coloring[v] <= g.degree(v) + 1 for v in g.nodes()), seed
        within += log.rounds <= limit
    assert within >= 95, f"only {within}/100 seeds finished within {limit} rounds"
    crit.done()


def _connected_graphs_up_to_six_edges():
    for n in range(1, 8):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(n - 1, min(6, len(pairs)) + 1):
            for chosen in itertools.combinations(pairs, m):
                parent = list(range(n))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                parts = n
                for u, v in chosen:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        parts -= 1
                if parts != 1:
                    continue
                g = ConflictGraph()
                for v in range(n):
                    g.add_node(v)
                for u, v in chosen:
                    g.insert_edge(u, v)
                yield g


def test_criterion_08_satisfaction():
    crit = Criterion(8, "forest orientation = brute force, alternation gap <= 1", budget_s=60.0)
    count = 0
    for g in _connected_graphs_up_to_six_edges():
        _, satisfied = max_satisfaction(g)
        assert satisfied == brute_force_satisfaction(g), g.edges()
        count += 1
    assert count > 20_000  # the corpus really was exhaustive

    rng = random.Random(2024)
    randoms = []
    while len(randoms) < 100:
        g = gnp_random_graph(rng.randrange(4, 14), rng.uniform(0.1, 0.5), seed=rng.randrange(10**6))
        if g.num_edges() <= 20:
            randoms.append(g)
    for g in randoms:
        _, satisfied = max_satisfaction(g)
        assert satisfied == brute_force_satisfaction(g), g.edges()
        for v in g.nodes():
            if g.degree(v) == 0:
                continue
            run = 0
            for t in range(1, 9):
                run = 0 if alternating_schedule(g, v, t) else run + 1
                assert run <= 1, (g.edges(), v, t)
    crit.done()


def test_criterion_09_dynamic_events():
    crit = Criterion(9, "dynamics keep properness, periodicity, final bounds", budget_s=30.0)
    g = gnp_random_graph(50, 0.05, seed=31)
    s = elias_schedule(g, greedy_color(g))
    rng = random.Random(31)
    sample_holidays = [1, 2, 3, 5, 8, 13, 21, 34]
    for _ in range(200):
        nodes = s.graph.nodes()
        u, v = rng.sample(nodes, 2)
        if s.graph.has_edge(u, v):
            s = dynamic_remove(s, u, v)
        else:
            s = dynamic_insert(s, u, v)
        assert is_proper(s.graph, s.coloring)
        for w in s.graph.nodes():
            period = s.period(w)
            for t in sample_holidays:
                assert s.happy(w, t) == s.happy(w, t + period)
        for t in sample_holidays:
            happy = s.happy_set(t)
            assert not any(
                a in happy and b in happy for a, b in s.graph.edges()
            ), t

    for v in s.graph.nodes():
        c = s.coloring[v]
        period = s.period(v)
        flags = [s.happy(v, t) for t in range(1, 2 * period + 1)]
        assert smallest_window_period(flags) == period
        assert period <= elias_period_bound(c) * (1 + EPS)
    assert budget_check([1 << rho(c) for c in sorted(set(s.coloring.values()))])
    crit.done()


def test_criterion_10_oracle_sanity():
    crit = Criterion(10, "observed happy sets never beat the MIS oracle", budget_s=30.0)
    for name, g in small_fixtures():
        assert len(g) <= 12
        coloring = greedy_color(g)
        horizon = 4 * (g.max_degree() + 1)
        phased = phased_greedy(g, coloring, horizon)
        elias = elias_schedule(g, coloring)
        slots = degree_slots_sequential(g)
        elias_window = 2 * max(elias.period(v) for v in g.nodes())
        slots_window = 2 * max(slots.period(v) for v in g.nodes())
        for s, window in [
            (phased, horizon),
            (elias, elias_window),
            (slots, slots_window),
        ]:
            observed, mis = happy_set_vs_mis(g, s, (1, window))
            assert observed <= mis, (name, type(s).__name__)
    crit.done()
