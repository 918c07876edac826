"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from spans import Recorder  # noqa: E402

from fairgather import ConflictGraph, brute_force_satisfaction, omega_encode  # noqa: E402
from fairgather import schedulers  # noqa: E402

SMALL = {
    "periodic": dict(n=60, m=150, holidays=40),
    "replay": dict(n=80, hubs=2, hub_degree=20, background=100),
    "churn": dict(n=50, m=120, holidays=30, per_holiday=2),
}


def test_generators_are_deterministic_per_seed():
    assert gen.uniform_edges(3, 100, 300) == gen.uniform_edges(3, 100, 300)
    assert gen.uniform_edges(3, 100, 300) != gen.uniform_edges(4, 100, 300)
    hubs = gen.hub_edges(3, 200, 4, 50, 300)
    assert hubs == gen.hub_edges(3, 200, 4, 50, 300) != gen.hub_edges(4, 200, 4, 50, 300)
    assert max(len(nbrs) for nbrs in checks.adjacency(200, hubs).values()) == 50
    edges = gen.uniform_edges(3, 40, 60)
    stream = gen.event_stream(3, 40, edges, 50, 3, 0.55)
    assert stream == gen.event_stream(3, 40, edges, 50, 3, 0.55)
    assert stream != gen.event_stream(4, 40, edges, 50, 3, 0.55)
    assert len(stream) == 150


def test_event_stream_is_valid_and_round_trips():
    edges = gen.uniform_edges(5, 30, 40)
    stream = gen.event_stream(5, 30, edges, 200, 2, 0.5)
    present = set(edges)
    for _, op, u, v in stream:
        assert u < v
        if op == "+":
            assert (u, v) not in present
            present.add((u, v))
        else:
            present.remove((u, v))
    parsed = gen.read_events(gen.event_text(stream))
    assert [(t, *e) for t in sorted(parsed) for e in parsed[t]] == stream
    with pytest.raises(ValueError):
        gen.read_events("1 * 2 3\n")


def test_independence_checker_catches_planted_conflict():
    adj = checks.adjacency(4, [(0, 1), (1, 2), (2, 3)])
    assert checks.independence_problems(adj, {1: {0, 2}, 2: {1, 3}}) == []
    problems = checks.independence_problems(adj, {1: {0, 2}, 2: {1, 2}})
    assert len(problems) == 1 and problems[0].startswith("holiday 2")


def test_satisfaction_closed_form_matches_brute_force():
    rng = random.Random(0)
    for _ in range(150):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 12)))
        g = ConflictGraph.from_edge_list(gen.graph_text(n, edges))
        assert checks.satisfaction_optimum(checks.adjacency(n, edges)) == brute_force_satisfaction(g)


def test_own_omega_code_and_kraft_sum():
    assert all(checks.omega_code(c) == omega_encode(c) for c in range(1, 2000))
    assert checks.omega_slot(1) == (0, 2)
    assert checks.kraft_sum(range(1, 300)) < 1
    assert checks.kraft_sum([1, 1, 2]) == checks.kraft_sum([1, 2])


def test_periodic_and_gap_checks():
    assert checks.periodic_problems({0: [3, 7, 11], 1: []}, {0: 4, 1: 16}.get, 12) == []
    assert checks.periodic_problems({0: [3, 7]}, lambda v: 4, 12)  # misses holiday 11
    assert checks.periodic_problems({0: [5, 9]}, lambda v: 4, 12)  # starts late
    assert checks.periodic_problems({0: []}, lambda v: 8, 12)  # silent within its period
    assert checks.gap_violators({0: [2, 4, 6], 1: []}, lambda v: 2, 6) == {1: 7}
    assert checks.gap_violators({0: [2, 5]}, lambda v: 2, 6) == {0: 3}


def test_slot_certificate_flags_shared_residue():
    adj = checks.adjacency(3, [(0, 1), (1, 2)])
    assert checks.slot_problems(adj, {0: 0, 1: 1, 2: 0}, lambda v: 2) == []
    assert checks.slot_problems(adj, {0: 0, 1: 2, 2: 1}, {0: 2, 1: 4, 2: 2}.get)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checked_pass_of_each_workload_is_clean(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, **SMALL[name])
    rec = Recorder()
    wl.setup(rec)
    chk = Checker(full=True)
    p = wl.run_pass(rec, chk, tmp_path)
    assert chk.messages == []
    assert p.ops > 0 and p.holidays > 0 and p.cli_s > 0
    again = Checker(full=False)
    wl.run_pass(rec, again, tmp_path)
    assert again.digest() == chk.digest()


def test_planted_fault_fails_the_run(monkeypatch):
    honest = schedulers.EliasSchedule.happy_set

    def faulty(self, t):
        hs = honest(self, t)
        return hs | {self.graph.neighbors(v)[0] for v in list(hs)[:1] if self.graph.degree(v)}

    monkeypatch.setattr(schedulers.EliasSchedule, "happy_set", faulty)
    out = run.measure(workloads.Periodic(7, **SMALL["periodic"]), seconds=0, trace=False)
    assert not out["result"]["correct"] and out["result"]["failed"] > 0
    assert any("independence" in msg for msg in out["messages"])


def test_traced_run_reports_every_per_layer_metric():
    out = run.measure(workloads.Churn(7, **SMALL["churn"]), seconds=0, trace=True)
    assert out["result"]["correct"]
    metrics = out["result"]["metrics"]
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    assert metrics["schedulers.dynamic_insert.busy_s"]["value"] > 0
    assert metrics["schedulers.happy_set.calls"]["value"] == SMALL["churn"]["holidays"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
