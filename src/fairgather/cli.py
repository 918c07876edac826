"""Command-line front end.

Subcommands: gen, color, schedule, bounds, satisfy, dynamic, verify.
Pipelines compose through files only, and every run with the same
configuration produces byte-identical output. The seed defaults to the
FAIRGATHER_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import analysis, codec, graph, satisfaction, schedulers, verify
from .coloring import greedy_color, local_random_color


@dataclass(frozen=True)
class RunConfig:
    """One reproducible invocation; identical configs give identical bytes."""

    subcommand: str
    input: str | None = None
    output: str | None = None
    algorithm: str | None = None
    mode: str | None = None
    kind: str | None = None
    nodes: int = 0
    p: float = 0.1
    holidays: int = 1
    window: int = 1
    seed: int = 0
    events: str | None = None
    threshold: float = 2.0
    max_color: int = 1


def _default_seed() -> int:
    return int(os.environ.get("FAIRGATHER_SEED", "0"))


def _load_graph(path: str) -> graph.ConflictGraph:
    with open(path, encoding="utf-8") as fh:
        return graph.ConflictGraph.from_edge_list(fh.read())


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _schedule_csv(s: schedulers.Schedule, holidays: int) -> str:
    lines = ["holiday,happy"]
    for t in range(1, holidays + 1):
        happy = ";".join(str(v) for v in sorted(s.happy_set(t)))
        lines.append(f"{t},{happy}")
    return "\n".join(lines) + "\n"


def _parse_schedule_csv(text: str) -> dict[int, set[int]]:
    rows = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1)
            if ln.strip() and not ln.startswith("#")]
    if not rows or rows[0][1].strip() != "holiday,happy":
        raise ValueError("schedule CSV must start with header 'holiday,happy'")
    happy_sets: dict[int, set[int]] = {}
    for lineno, ln in rows[1:]:
        t_str, _, ids = ln.partition(",")
        try:
            t = int(t_str)
            happy = {int(tok) for tok in ids.split(";") if tok}
        except ValueError:
            raise ValueError(f"line {lineno}: malformed schedule row {ln.strip()!r}") from None
        if t < 1:
            raise ValueError(f"line {lineno}: holidays are numbered from 1")
        if t in happy_sets:
            raise ValueError(f"line {lineno}: duplicate holiday {t} in schedule CSV")
        happy_sets[t] = happy
    return happy_sets


def _cmd_gen(cfg: RunConfig) -> int:
    builders = {
        "path": lambda: graph.path_graph(cfg.nodes),
        "cycle": lambda: graph.cycle_graph(cfg.nodes),
        "clique": lambda: graph.complete_graph(cfg.nodes),
        "star": lambda: graph.star_graph(cfg.nodes - 1),
        "gnp": lambda: graph.gnp_random_graph(cfg.nodes, cfg.p, cfg.seed),
    }
    g = builders[cfg.kind]()
    header = f"# kind={cfg.kind} nodes={cfg.nodes} p={cfg.p} seed={cfg.seed}\n"
    _emit(header + g.to_edge_list(), cfg.output)
    return 0


def _cmd_color(cfg: RunConfig) -> int:
    g = _load_graph(cfg.input)
    trailer = ""
    if cfg.mode == "greedy":
        coloring = greedy_color(g)
    else:
        coloring, log = local_random_color(g, seed=cfg.seed)
        trailer = f"# rounds={log.rounds}\n"
    lines = [f"{v} {coloring[v]}" for v in sorted(g.nodes())]
    _emit("\n".join(lines) + "\n" + trailer, cfg.output)
    return 0


def _build_schedule(g: graph.ConflictGraph, cfg: RunConfig) -> schedulers.Schedule:
    if cfg.algorithm == "phased":
        return schedulers.phased_greedy(g, greedy_color(g), cfg.holidays)
    if cfg.algorithm == "elias":
        return schedulers.elias_schedule(g, greedy_color(g))
    if cfg.algorithm == "slots":
        return schedulers.degree_slots_sequential(g)
    if cfg.algorithm == "slots-dist":
        s, _ = schedulers.degree_slots_distributed(g, seed=cfg.seed)
        return s
    raise ValueError(f"unknown algorithm {cfg.algorithm!r}")


def _cmd_schedule(cfg: RunConfig) -> int:
    g = _load_graph(cfg.input)
    s = _build_schedule(g, cfg)
    _emit(_schedule_csv(s, cfg.holidays), cfg.output)
    return 0


def _cmd_bounds(cfg: RunConfig) -> int:
    lines = ["color,rho,period,phi,upper_bound"]
    for c in range(1, cfg.max_color + 1):
        r = codec.rho(c)
        b = analysis.elias_period_bound(c)
        lines.append(f"{c},{r},{1 << r},{b.phi_value:.6g},{b.upper_bound:.6g}")
    _emit("\n".join(lines) + "\n", cfg.output)
    return 0


def _cmd_satisfy(cfg: RunConfig) -> int:
    g = _load_graph(cfg.input)
    orientation, count = satisfaction.max_satisfaction(g)
    lines = [f"satisfied {count}"]
    for (u, v), head in sorted(orientation.items()):
        tail = v if head == u else u
        lines.append(f"{tail}->{head}")
    _emit("\n".join(lines) + "\n", cfg.output)
    return 0


def _parse_events(text: str) -> dict[int, list[tuple[str, int, int]]]:
    events: dict[int, list[tuple[str, int, int]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4 or parts[1] not in {"+", "-"}:
            raise ValueError(f"line {lineno}: expected 't + u v' or 't - u v'")
        try:
            t, u, v = int(parts[0]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed event") from None
        if t < 1:
            raise ValueError(f"line {lineno}: holidays are numbered from 1")
        events.setdefault(t, []).append((parts[1], u, v))
    return events


def _cmd_dynamic(cfg: RunConfig) -> int:
    g = _load_graph(cfg.input)
    with open(cfg.events, encoding="utf-8") as fh:
        events = _parse_events(fh.read())
    s = schedulers.elias_schedule(g, greedy_color(g))
    lines = ["holiday,happy"]
    for t in range(1, cfg.holidays + 1):
        for op, u, v in events.get(t, ()):
            if op == "+":
                s = schedulers.dynamic_insert(s, u, v)
            else:
                s = schedulers.dynamic_remove(s, u, v, recolor_threshold=cfg.threshold)
        happy = ";".join(str(v) for v in sorted(s.happy_set(t)))
        lines.append(f"{t},{happy}")
    _emit("\n".join(lines) + "\n", cfg.output)
    return 0


def _run_verify(cfg: RunConfig, schedule_path: str) -> int:
    g = _load_graph(cfg.input)
    with open(schedule_path, encoding="utf-8") as fh:
        happy_sets = _parse_schedule_csv(fh.read())
    rep = verify.report_from_happy_sets(g, happy_sets, (1, cfg.window))
    # Rows past the window feed no statistics, but a conflict in any row fails.
    beyond = {t: hs for t, hs in happy_sets.items() if t > cfg.window}
    conflicts = list(rep.independence_violations) + verify.independence_violations(g, beyond)
    lines = ["node,happy_count,first_happy,mul,detected_period,max_gap"]
    for v in sorted(rep.nodes):
        st = rep.nodes[v]
        first = st.first_happy if st.first_happy is not None else ""
        gap = st.max_gap if st.max_gap is not None else ""
        lines.append(f"{v},{len(st.happy)},{first},{st.mul},{st.detected_period},{gap}")
    lines.append(f"# independence={'violated' if conflicts else 'ok'}")
    for t, u, v in conflicts[:10]:
        lines.append(f"# conflict holiday={t} edge={u}-{v}")
    _emit("\n".join(lines) + "\n", cfg.output)
    return 1 if conflicts else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairgather",
        description="Fair and periodic scheduling of independent sets on conflict graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="emit a test graph in edge-list format")
    p.add_argument("--kind", required=True, choices=["path", "cycle", "clique", "star", "gnp"])
    p.add_argument("--nodes", required=True, type=int)
    p.add_argument("--p", type=float, default=0.1, help="edge probability for gnp")
    p.add_argument("--seed", type=int)
    p.add_argument("--output")

    p = sub.add_parser("color", help="color a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", default="greedy", choices=["greedy", "random"])
    p.add_argument("--seed", type=int)
    p.add_argument("--output")

    p = sub.add_parser("schedule", help="emit a happy-set CSV for a schedule")
    p.add_argument("--input", required=True)
    p.add_argument("--algorithm", required=True,
                   choices=["phased", "elias", "slots", "slots-dist"])
    p.add_argument("--holidays", required=True, type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")

    p = sub.add_parser("bounds", help="period bound table per color")
    p.add_argument("--max-color", required=True, type=int, dest="max_color")
    p.add_argument("--output")

    p = sub.add_parser("satisfy", help="maximum-satisfaction orientation")
    p.add_argument("--input", required=True)
    p.add_argument("--output")

    p = sub.add_parser("dynamic", help="replay edge events against the periodic schedule")
    p.add_argument("--input", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--holidays", required=True, type=int)
    p.add_argument("--threshold", type=float, default=2.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")

    p = sub.add_parser("verify", help="audit a schedule CSV against its graph")
    p.add_argument("--input", required=True)
    p.add_argument("--schedule", required=True, dest="schedule_path")
    p.add_argument("--window", required=True, type=int)
    p.add_argument("--output")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    seed = args.seed if getattr(args, "seed", None) is not None else _default_seed()
    cfg = RunConfig(
        subcommand=args.subcommand,
        input=getattr(args, "input", None),
        output=getattr(args, "output", None),
        algorithm=getattr(args, "algorithm", None),
        mode=getattr(args, "mode", None),
        kind=getattr(args, "kind", None),
        nodes=getattr(args, "nodes", 0),
        p=getattr(args, "p", 0.1),
        holidays=getattr(args, "holidays", 1),
        window=getattr(args, "window", 1),
        seed=seed,
        events=getattr(args, "events", None),
        threshold=getattr(args, "threshold", 2.0),
        max_color=getattr(args, "max_color", 1),
    )
    try:
        if cfg.subcommand == "gen":
            return _cmd_gen(cfg)
        if cfg.subcommand == "color":
            return _cmd_color(cfg)
        if cfg.subcommand == "schedule":
            return _cmd_schedule(cfg)
        if cfg.subcommand == "bounds":
            return _cmd_bounds(cfg)
        if cfg.subcommand == "satisfy":
            return _cmd_satisfy(cfg)
        if cfg.subcommand == "dynamic":
            return _cmd_dynamic(cfg)
        if cfg.subcommand == "verify":
            return _run_verify(cfg, args.schedule_path)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"fairgather: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled subcommand {cfg.subcommand}")


if __name__ == "__main__":
    sys.exit(main())
