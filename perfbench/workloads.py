"""The three benchmark workloads.

Each workload makes its graph (and event) text from the seed, parses it in
``setup`` and then runs passes. A pass calls the library's public
functions in-process, times them, checks or digests the outputs outside
the timed sections, and finally runs the workload's CLI counterpart as one
child process at a time. Spans are opened around every call into a layer;
they record nothing unless the recorder is enabled.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import gen
from checks import Checker
from spans import Recorder

from fairgather import ConflictGraph, gnp_random_graph
from fairgather.coloring import greedy_color, local_random_color
from fairgather.satisfaction import max_satisfaction_with_stats
from fairgather.schedulers import (
    degree_slots_distributed,
    degree_slots_sequential,
    dynamic_insert,
    dynamic_remove,
    elias_schedule,
    phased_greedy,
)
from fairgather.verify import check_gap_bounds, report, report_from_happy_sets

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 60
CLI_P = 0.002  # edge probability of the periodic workload's `gen --kind gnp`
INSERT_SHARE = 0.55  # share of churn events that insert an edge


@dataclass
class Pass:
    """Timings of one pass; wall_s excludes the CLI, which cli_s covers."""

    wall_s: float = 0.0
    holidays: int = 0
    holiday_work_s: float = 0.0  # producing (and, where audited, auditing) the holidays
    holiday_lat: list[float] = field(default_factory=list)
    event_lat: list[float] = field(default_factory=list)
    cli_s: float = 0.0
    ops: int = 0


def _sorted_sets(happy_sets: dict[int, set[int]]) -> list[tuple[int, ...]]:
    return [tuple(sorted(happy_sets[t])) for t in sorted(happy_sets)]


def _count_queries(rec: Recorder, happy_sets) -> None:
    if rec.enabled:
        rec.count("schedulers.happy_set.calls", len(happy_sets))
        rec.count("schedulers.happy_set.nodes_out", sum(map(len, happy_sets)))


def _expect_cli_ok(chk: Checker, *runs: subprocess.CompletedProcess) -> None:
    for r in runs:
        chk.expect(f"cli {r.args[3]}", [f"exit {r.returncode}: {r.stderr.strip()[-200:]}"]
                   if r.returncode else [])


def _expect_audit(chk: Checker, what: str, rep, gaps, hosts, violators) -> None:
    """verify's report must agree with the benchmark's own verdict."""
    chk.expect(f"{what} verify independence", [] if rep.independent else
               [f"verify reports conflicts {rep.independence_violations[:3]}"])
    chk.expect(f"{what} verify gaps", [] if {gv.node for gv in gaps} == set(violators) else
               [f"verify flags {sorted(gv.node for gv in gaps)[:5]}, own {sorted(violators)[:5]}"])
    chk.expect(f"{what} verify hosting", [f"node {v}" for v, ts in hosts.items()
                                           if rep.nodes[v].happy != tuple(ts)])
    chk.expect(f"{what} gap bound", [f"node {v}: gap {gap}" for v, gap in violators.items()])


class Workload:
    name = ""

    def __init__(self, seed: int, n: int, edges: list[tuple[int, int]], events: list[gen.Event] = ()):
        self.seed = seed
        self.n = n
        self.adj = checks.adjacency(n, edges)
        self.graph_text = gen.graph_text(n, edges)
        self.event_text = gen.event_text(list(events))

    def setup(self, rec: Recorder) -> None:
        """Parse the generated inputs: the part of a run timed as setup_s."""
        with rec.span("graph.from_edge_list"):
            self.g = ConflictGraph.from_edge_list(self.graph_text)
        self.events = gen.read_events(self.event_text)

    def run_pass(self, rec: Recorder, chk: Checker, work: Path) -> Pass:
        raise NotImplementedError

    def cli(self, rec: Recorder, command: str, *args: object) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env.pop("FAIRGATHER_SEED", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "fairgather.cli", command, *map(str, args)]
        with rec.span(f"cli.{command}"):
            return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)



class Periodic(Workload):
    """Greedy coloring, the omega-code schedule and both slot schedules on a
    uniform sparse graph, each queried for every holiday and audited."""

    name = "periodic"

    def __init__(self, seed: int, n: int = 5000, m: int = 25000, holidays: int = 160):
        super().__init__(seed, n, gen.uniform_edges(seed, n, m))
        self.holidays = holidays

    def run_pass(self, rec: Recorder, chk: Checker, work: Path) -> Pass:
        g, T, p = self.g, self.holidays, Pass()
        start = perf_counter()
        with rec.span("coloring.greedy_color"):
            col = greedy_color(g)
        with rec.span("schedulers.elias_schedule"):
            elias = elias_schedule(g, col)
        with rec.span("schedulers.degree_slots_sequential"):
            seq = degree_slots_sequential(g)
        with rec.span("schedulers.degree_slots_distributed"):
            dist, log = degree_slots_distributed(g, seed=self.seed)
        schedules = (("elias", elias), ("slots", seq), ("slots-dist", dist))
        happy: dict[str, dict[int, set[int]]] = {label: {} for label, _ in schedules}
        a = perf_counter()
        for t in range(1, T + 1):
            h = perf_counter()
            for label, s in schedules:
                with rec.span("schedulers.happy_set"):
                    happy[label][t] = s.happy_set(t)
            p.holiday_lat.append(perf_counter() - h)
        audits = []
        for label, s in schedules:
            with rec.span("verify.report_from_happy_sets"):
                rep = report_from_happy_sets(g, happy[label], (1, T))
            with rec.span("verify.check_gap_bounds"):
                gaps = check_gap_bounds(g, rep, s.period)
            audits.append((label, s, happy[label], rep, gaps))
        p.holiday_work_s = perf_counter() - a
        p.wall_s = perf_counter() - start
        p.holidays = T
        p.ops += 4 + 3 * T + 2 * len(audits)
        _count_queries(rec, [hs for d in happy.values() for hs in d.values()])
        if rec.enabled:
            rec.count("coloring.max_color", max(col.values()))
            rec.count("schedulers.degree_slots_distributed.rounds", log.rounds)
            rec.count("schedulers.degree_slots_distributed.messages", log.messages)
            for _, _, _, rep, gaps in audits:
                rec.count("verify.cells", self.n * T)
                rec.count("verify.violations", len(rep.independence_violations) + len(gaps))

        chk.fold(sorted(col.items()))
        for label, _, hs, _, gaps in audits:
            chk.fold((label, _sorted_sets(hs), len(gaps)))
        if chk.full:
            self.check(chk, col, audits)
        self.run_cli(rec, chk, work, p)
        if rec.enabled:
            with rec.span("graph.gnp_random_graph"):
                gnp_random_graph(self.n, CLI_P, self.seed)
        return p

    def check(self, chk: Checker, col: dict[int, int], audits: list) -> None:
        adj, T = self.adj, self.holidays
        chk.expect("greedy coloring", checks.coloring_problems(adj, col, degree_bound=True))
        kraft = checks.kraft_sum(col.values())
        chk.expect("omega Kraft sum", [] if kraft <= 1 else [f"sum {kraft} > 1"])
        for what, s, hs, rep, gaps in audits:
            hosts = checks.hosting(adj, hs)
            chk.expect(f"{what} independence", checks.independence_problems(adj, hs))
            chk.expect(f"{what} periodic", checks.periodic_problems(hosts, s.period, T))
            if what == "elias":
                slot = {v: checks.omega_slot(c) for v, c in col.items()}
                chk.expect("elias period", [f"node {v}: period {s.period(v)}, expected {slot[v][1]}"
                                            for v in adj if s.period(v) != slot[v][1]])
                chk.expect("elias residues", [f"node {v}" for v, (r, per) in slot.items()
                                              if hosts[v] != list(range(r or per, T + 1, per))])
            else:
                offset = {v: sl.offset for v, sl in s.slots.items()}
                chk.expect(f"{what} slots", checks.slot_problems(adj, offset, s.period))
            violators = checks.gap_violators(hosts, s.period, T)
            _expect_audit(chk, what, rep, gaps, hosts, violators)

    def run_cli(self, rec: Recorder, chk: Checker, work: Path, p: Pass) -> None:
        graph, csv, out = work / "gnp.txt", work / "elias.csv", work / "verify.txt"
        T = self.holidays
        a = perf_counter()
        runs = (
            self.cli(rec, "gen", "--kind", "gnp", "--nodes", self.n, "--p", CLI_P,
                     "--seed", self.seed, "--output", graph),
            self.cli(rec, "schedule", "--input", graph, "--algorithm", "elias",
                     "--holidays", T, "--output", csv),
            self.cli(rec, "verify", "--input", graph, "--schedule", csv, "--window", T,
                     "--output", out),
        )
        p.cli_s = perf_counter() - a
        p.ops += len(runs)
        texts = [path.read_text(encoding="utf-8") if path.exists() else "" for path in (graph, csv, out)]
        rec.count("cli.csv_bytes", len(texts[1].encode()))
        chk.fold(texts)
        if not chk.full:
            return
        _expect_cli_ok(chk, *runs)
        chk.expect("cli verify verdict", [] if "# independence=ok" in texts[2].splitlines() else
                   ["verify did not print '# independence=ok'"])
        try:
            rows = checks.csv_happy_sets(texts[1])
            g = ConflictGraph.from_edge_list(texts[0])
        except ValueError as exc:
            chk.expect("cli outputs", [str(exc)])
            return
        s = elias_schedule(g, greedy_color(g))
        chk.expect("cli schedule rows", [f"holiday {t}" for t in range(1, T + 1)
                                         if rows.get(t) != s.happy_set(t)] +
                   [f"extra rows {len(rows) - T}"] * (len(rows) != T))


class Replay(Workload):
    """Randomized coloring and the phased greedy replay on a graph with a few
    high-degree hubs, then satisfaction and distributed slots on it."""

    name = "replay"

    def __init__(self, seed: int, n: int = 3000, hubs: int = 8, hub_degree: int = 128,
                 background: int = 6000):
        super().__init__(seed, n, gen.hub_edges(seed, n, hubs, hub_degree, background))
        self.bound = {v: len(nbrs) + 1 for v, nbrs in self.adj.items()}
        self.horizon = 4 * max(self.bound.values())

    def run_pass(self, rec: Recorder, chk: Checker, work: Path) -> Pass:
        g, H, p = self.g, self.horizon, Pass()
        start = perf_counter()
        with rec.span("coloring.local_random_color"):
            col, log = local_random_color(g, seed=self.seed)
        a = perf_counter()
        with rec.span("schedulers.phased_greedy"):
            ps = phased_greedy(g, col, H)
        hs = {}
        for t in range(1, H + 1):
            h = perf_counter()
            with rec.span("schedulers.happy_set"):
                hs[t] = ps.happy_set(t)
            p.holiday_lat.append(perf_counter() - h)
        # report queries ps.happy_set(t) again for every holiday of the window;
        # that work lands in verify.report.busy_s, not in schedulers.happy_set.
        with rec.span("verify.report"):
            rep = report(g, ps, (1, H))
        with rec.span("verify.check_gap_bounds"):
            gaps = check_gap_bounds(g, rep, self.bound.__getitem__)
        p.holiday_work_s = perf_counter() - a
        with rec.span("satisfaction.max_satisfaction_with_stats"):
            orientation, count, stats = max_satisfaction_with_stats(g)
        with rec.span("schedulers.degree_slots_distributed"):
            dist, dlog = degree_slots_distributed(g, seed=self.seed)
        p.wall_s = perf_counter() - start
        p.holidays = H
        p.ops += 6 + H
        _count_queries(rec, hs.values())
        if rec.enabled:
            rec.count("coloring.rounds", log.rounds)
            rec.count("coloring.messages", log.messages)
            rec.count("coloring.max_color", max(col.values()))
            rec.count("verify.cells", self.n * H)
            rec.count("verify.violations", len(rep.independence_violations) + len(gaps))
            rec.count("satisfaction.peel_ops", stats.ops)
            rec.count("satisfaction.residual_anomalies", stats.residual_anomalies)
            rec.count("schedulers.degree_slots_distributed.rounds", dlog.rounds)
            rec.count("schedulers.degree_slots_distributed.messages", dlog.messages)

        offset = {v: sl.offset for v, sl in dist.slots.items()}
        chk.fold((sorted(col.items()), _sorted_sets(hs), len(gaps), count,
                  sorted(orientation.items()), sorted(offset.items())))
        if chk.full:
            adj = self.adj
            hosts = checks.hosting(adj, hs)
            chk.expect("random coloring", checks.coloring_problems(adj, col, degree_bound=True))
            chk.expect("phased independence", checks.independence_problems(adj, hs))
            chk.expect("phased first hosting", [f"node {v}" for v, ts in hosts.items()
                                                if ts[:1] != [col[v]]])
            violators = checks.gap_violators(hosts, self.bound.__getitem__, H)
            _expect_audit(chk, "phased", rep, gaps, hosts, violators)
            optimum = checks.satisfaction_optimum(adj)
            chk.expect("satisfaction optimum", [] if count == optimum else
                       [f"satisfied {count}, optimum {optimum}"])
            chk.expect("satisfaction orientation", checks.orientation_problems(adj, orientation, count))
            chk.expect("slots-dist slots", checks.slot_problems(adj, offset, dist.period))
        self.run_cli(rec, chk, work, p)
        return p

    def run_cli(self, rec: Recorder, chk: Checker, work: Path, p: Pass) -> None:
        graph, csv, out = work / "hub.txt", work / "phased.csv", work / "verify.txt"
        graph.write_text(self.graph_text, encoding="utf-8")
        H = self.horizon
        a = perf_counter()
        runs = (
            self.cli(rec, "schedule", "--input", graph, "--algorithm", "phased",
                     "--holidays", H, "--output", csv),
            self.cli(rec, "verify", "--input", graph, "--schedule", csv, "--window", H,
                     "--output", out),
        )
        p.cli_s = perf_counter() - a
        p.ops += len(runs)
        texts = [path.read_text(encoding="utf-8") if path.exists() else "" for path in (csv, out)]
        rec.count("cli.csv_bytes", len(texts[0].encode()))
        chk.fold(texts)
        if not chk.full:
            return
        _expect_cli_ok(chk, *runs)
        chk.expect("cli verify verdict", [] if "# independence=ok" in texts[1].splitlines() else
                   ["verify did not print '# independence=ok'"])
        try:
            rows = checks.csv_happy_sets(texts[0])
        except ValueError as exc:
            chk.expect("cli schedule rows", [str(exc)])
            return
        chk.expect("cli schedule holidays", [] if sorted(rows) == list(range(1, H + 1)) else
                   [f"rows for {len(rows)} holidays, expected {H}"])
        chk.expect("cli schedule independence", checks.independence_problems(self.adj, rows))
        hosts = checks.hosting(self.adj, rows)
        chk.expect("cli schedule gaps", [f"node {v}: gap {gap}" for v, gap in
                                         checks.gap_violators(hosts, self.bound.__getitem__, H).items()])


class Churn(Workload):
    """The omega-code schedule under edge inserts and removes, queried for
    every holiday; no audit runs in the timed path."""

    name = "churn"

    def __init__(self, seed: int, n: int = 2000, m: int = 8000, holidays: int = 256,
                 per_holiday: int = 1):
        edges = gen.uniform_edges(seed, n, m)
        super().__init__(seed, n, edges,
                         gen.event_stream(seed, n, edges, holidays, per_holiday, INSERT_SHARE))
        self.holidays = holidays

    def run_pass(self, rec: Recorder, chk: Checker, work: Path) -> Pass:
        g, T, p = self.g, self.holidays, Pass()
        inspect = _ChurnInspector(self.adj, chk) if chk.full else None
        start = perf_counter()
        with rec.span("coloring.greedy_color"):
            col = greedy_color(g)
        with rec.span("schedulers.elias_schedule"):
            s = elias_schedule(g, col)
        if inspect:
            chk.expect("greedy coloring", checks.coloring_problems(self.adj, col, degree_bound=True))
        happy = []
        a = perf_counter()
        for t in range(1, T + 1):
            h = perf_counter()
            for op, u, v in self.events.get(t, ()):
                before = s
                e = perf_counter()
                if op == "+":
                    with rec.span("schedulers.dynamic_insert"):
                        s = dynamic_insert(s, u, v)
                else:
                    with rec.span("schedulers.dynamic_remove"):
                        s = dynamic_remove(s, u, v)
                p.event_lat.append(perf_counter() - e)
                if rec.enabled:
                    _count_recolorings(rec, before.coloring, s.coloring)
                if inspect:
                    inspect.event(op, u, v, s)
            with rec.span("schedulers.happy_set"):
                hs = s.happy_set(t)
            p.holiday_lat.append(perf_counter() - h)
            happy.append(hs)
            if inspect:
                inspect.holiday(t, s, hs)
        p.holiday_work_s = perf_counter() - a
        p.wall_s = perf_counter() - start
        p.holidays = T
        p.ops += 2 + T + len(p.event_lat)
        _count_queries(rec, happy)
        if rec.enabled:
            rec.count("coloring.max_color", max(col.values()))

        chk.fold(([tuple(sorted(hs)) for hs in happy], sorted(s.coloring.items())))
        if inspect:
            inspect.finish(s)
        self.run_cli(rec, chk, work, p, happy)
        return p

    def run_cli(self, rec: Recorder, chk: Checker, work: Path, p: Pass, happy: list[set[int]]) -> None:
        graph, events, csv = work / "churn.txt", work / "events.txt", work / "dynamic.csv"
        graph.write_text(self.graph_text, encoding="utf-8")
        events.write_text(self.event_text, encoding="utf-8")
        a = perf_counter()
        run = self.cli(rec, "dynamic", "--input", graph, "--events", events,
                       "--holidays", self.holidays, "--output", csv)
        p.cli_s = perf_counter() - a
        p.ops += 1
        text = csv.read_text(encoding="utf-8") if csv.exists() else ""
        rec.count("cli.csv_bytes", len(text.encode()))
        chk.fold(text)
        if not chk.full:
            return
        _expect_cli_ok(chk, run)
        try:
            rows = checks.csv_happy_sets(text)
        except ValueError as exc:
            chk.expect("cli dynamic rows", [str(exc)])
            return
        expected = dict(enumerate(happy, start=1))
        chk.expect("cli dynamic rows", [] if rows == expected else
                   [f"holiday {t}" for t in sorted(set(rows) | set(expected))
                    if rows.get(t) != expected.get(t)])


def _count_recolorings(rec: Recorder, before: dict[int, int], after: dict[int, int]) -> None:
    moved = [v for v, c in after.items() if before.get(v) != c]
    rec.count("schedulers.dynamic.recolorings", len(moved))
    rec.count("schedulers.dynamic.period_changes", sum(
        1 for v in moved if v not in before
        or checks.omega_slot(before[v])[1] != checks.omega_slot(after[v])[1]))


class _ChurnInspector:
    """Full checks of a churn pass, run between its timed sections.

    It replays the events on its own copy of the adjacency, so every
    holiday is checked against the graph in force on that holiday.
    """

    def __init__(self, adj: checks.Adjacency, chk: Checker) -> None:
        self.adj = {v: set(nbrs) for v, nbrs in adj.items()}
        self.chk = chk
        self.slot_of: dict[int, tuple[int, int]] = {}
        self.problems: dict[str, list[str]] = {k: [] for k in (
            "event", "proper", "independence", "color class", "omega hosting")}

    def slot(self, c: int) -> tuple[int, int]:
        if c not in self.slot_of:
            self.slot_of[c] = checks.omega_slot(c)
        return self.slot_of[c]

    def event(self, op: str, u: int, v: int, s) -> None:
        if op == "+":
            if v in self.adj[u]:
                self.problems["event"].append(f"insert of present edge {u}-{v}")
            self.adj[u].add(v)
            self.adj[v].add(u)
        else:
            if v not in self.adj[u]:
                self.problems["event"].append(f"remove of absent edge {u}-{v}")
            self.adj[u].discard(v)
            self.adj[v].discard(u)
        col = s.coloring
        self.problems["proper"].extend(
            f"edge {w}-{x}: both color {col[w]}" for w in (u, v) for x in self.adj[w] if col[x] == col[w])

    def holiday(self, t: int, s, hs: set[int]) -> None:
        col = s.coloring
        if checks.conflicts(self.adj, hs):
            self.problems["independence"].append(f"holiday {t}: {checks.conflicts(self.adj, hs)[:3]}")
        if len({col[v] for v in hs}) > 1:
            self.problems["color class"].append(f"holiday {t}: colors {sorted({col[v] for v in hs})}")
        expected = set()
        for v, c in col.items():
            r, per = self.slot(c)
            if t % per == r:
                expected.add(v)
        if expected != hs:
            self.problems["omega hosting"].append(f"holiday {t}: {sorted(expected ^ hs)[:5]}")

    def finish(self, s) -> None:
        for what, problems in self.problems.items():
            self.chk.expect(f"churn {what}", problems)
        self.chk.expect("churn final coloring", checks.coloring_problems(self.adj, s.coloring, degree_bound=False))


WORKLOADS = {w.name: w for w in (Periodic, Replay, Churn)}
