"""Command-line front end.

Subcommands: gen, color, schedule, bounds, satisfy, dynamic, verify.
Pipelines compose through files only, and every run with the same
configuration produces byte-identical output. Each subcommand's handler
takes the parsed argparse namespace. For subcommands with --seed, the seed
defaults to the FAIRGATHER_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import AbstractSet, Callable, Iterable, Iterator

from . import analysis, codec, graph, satisfaction, schedulers, verify
from .coloring import greedy_color, local_random_color


def _default_seed() -> int:
    raw = os.environ.get("FAIRGATHER_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FAIRGATHER_SEED must be an integer, got {raw!r}") from None


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    return value


def _load_graph(path: str) -> graph.ConflictGraph:
    with open(path, encoding="utf-8") as fh:
        return graph.ConflictGraph.from_edge_list(fh.read())


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _schedule_csv(happy_sets: Iterable[AbstractSet[int]]) -> str:
    """One row per happy set, holidays numbered from 1."""
    lines = ["holiday,happy"]
    for t, happy in enumerate(happy_sets, start=1):
        lines.append(f"{t},{';'.join(map(str, sorted(happy)))}")
    return "\n".join(lines) + "\n"


def _parse_schedule_csv(text: str, nodes: AbstractSet[int]) -> dict[int, set[int]]:
    """Holiday -> happy set; rows naming a node outside nodes are rejected."""
    rows = list(graph.data_lines(text))
    if not rows or rows[0][1] != "holiday,happy":
        raise ValueError("schedule CSV must start with header 'holiday,happy'")
    happy_sets: dict[int, set[int]] = {}
    for lineno, ln in rows[1:]:
        t_str, _, ids = ln.partition(",")
        try:
            t = int(t_str)
            happy = set(map(int, filter(None, ids.split(";"))))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed schedule row {ln!r}") from None
        if t < 1:
            raise ValueError(f"line {lineno}: holidays are numbered from 1")
        if t in happy_sets:
            raise ValueError(f"line {lineno}: duplicate holiday {t} in schedule CSV")
        unknown = sorted(happy - nodes)
        if unknown:
            raise ValueError(f"line {lineno}: holiday {t} lists unknown nodes {unknown[:3]}")
        happy_sets[t] = happy
    return happy_sets


def _star(args: argparse.Namespace) -> graph.ConflictGraph:
    # --nodes counts the center too; star_graph takes the leaf count.
    if args.nodes < 1:
        raise ValueError("star needs at least one node")
    return graph.star_graph(args.nodes - 1)


_GRAPHS = {
    "path": lambda args: graph.path_graph(args.nodes),
    "cycle": lambda args: graph.cycle_graph(args.nodes),
    "clique": lambda args: graph.complete_graph(args.nodes),
    "star": _star,
    "gnp": lambda args: graph.gnp_random_graph(args.nodes, args.p, args.seed),
}

_SCHEDULES = {
    "phased": lambda g, args: schedulers.phased_greedy(g, greedy_color(g), args.holidays),
    "elias": lambda g, args: schedulers.elias_schedule(g, greedy_color(g)),
    "slots": lambda g, args: schedulers.degree_slots_sequential(g),
    "slots-dist": lambda g, args: schedulers.degree_slots_distributed(g, seed=args.seed)[0],
}


def _cmd_gen(args: argparse.Namespace) -> int:
    g = _GRAPHS[args.kind](args)
    header = f"# kind={args.kind} nodes={args.nodes} p={args.p} seed={args.seed}\n"
    _emit(header + g.to_edge_list(), args.output)
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    trailer = ""
    if args.mode == "greedy":
        coloring = greedy_color(g)
    else:
        coloring, log = local_random_color(g, seed=args.seed)
        trailer = f"# rounds={log.rounds}\n"
    lines = [f"{v} {coloring[v]}" for v in sorted(g.nodes())]
    _emit("\n".join(lines) + "\n" + trailer, args.output)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    holidays = _at_least_one("--holidays", args.holidays)
    g = _load_graph(args.input)
    s = _SCHEDULES[args.algorithm](g, args)
    _emit(_schedule_csv(s.happy_set(t) for t in range(1, holidays + 1)), args.output)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    max_color = _at_least_one("--max-color", args.max_color)
    lines = ["color,rho,period,phi,upper_bound"]
    for c in range(1, max_color + 1):
        r = codec.rho(c)
        b = analysis.elias_period_bound(c)
        lines.append(f"{c},{r},{1 << r},{b.phi_value:.6g},{b.upper_bound:.6g}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_satisfy(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    orientation, count = satisfaction.max_satisfaction(g)
    lines = [f"satisfied {count}"]
    for (u, v), head in sorted(orientation.items()):
        tail = v if head == u else u
        lines.append(f"{tail}->{head}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _parse_events(text: str) -> dict[int, list[tuple[int, str, int, int]]]:
    """Holiday -> its events as (line number, op, u, v), in file order."""
    events: dict[int, list[tuple[int, str, int, int]]] = {}
    for lineno, line in graph.data_lines(text):
        parts = line.split()
        if len(parts) != 4 or parts[1] not in {"+", "-"}:
            raise ValueError(f"line {lineno}: expected 't + u v' or 't - u v'")
        try:
            t, u, v = int(parts[0]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed event") from None
        if t < 1:
            raise ValueError(f"line {lineno}: holidays are numbered from 1")
        events.setdefault(t, []).append((lineno, parts[1], u, v))
    return events


def _cmd_dynamic(args: argparse.Namespace) -> int:
    holidays = _at_least_one("--holidays", args.holidays)
    # Checked here too, so an event file without removals cannot hide it.
    if math.isnan(args.threshold):
        raise ValueError("--threshold must be a number, got nan")
    g = _load_graph(args.input)
    with open(args.events, encoding="utf-8") as fh:
        events = _parse_events(fh.read())

    def replay() -> Iterator[set[int]]:
        s = schedulers.elias_schedule(g, greedy_color(g))
        # Events dated after the last row print nothing but must still apply.
        for t in sorted(events.keys() | range(1, holidays + 1)):
            for lineno, op, u, v in events.get(t, ()):
                try:
                    if op == "+":
                        s = schedulers.dynamic_insert(s, u, v)
                    else:
                        s = schedulers.dynamic_remove(s, u, v, recolor_threshold=args.threshold)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
            if t <= holidays:
                yield s.happy_set(t)

    _emit(_schedule_csv(replay()), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    window = _at_least_one("--window", args.window)
    g = _load_graph(args.input)
    with open(args.schedule_path, encoding="utf-8") as fh:
        happy_sets = _parse_schedule_csv(fh.read(), set(g.nodes()))
    # Rows past the window feed no statistics, but a conflict in any row fails.
    rep = verify.report_from_happy_sets(g, happy_sets, (1, window))
    conflicts = rep.independence_violations
    lines = ["node,happy_count,first_happy,mul,detected_period,max_gap"]
    for v in sorted(rep.nodes):
        st = rep.nodes[v]
        first = st.first_happy if st.first_happy is not None else ""
        gap = st.max_gap if st.max_gap is not None else ""
        lines.append(f"{v},{len(st.happy)},{first},{st.mul},{st.detected_period},{gap}")
    lines.append(f"# independence={'violated' if conflicts else 'ok'}")
    for t, u, v in conflicts[:10]:
        lines.append(f"# conflict holiday={t} edge={u}-{v}")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if conflicts else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairgather",
        description="Fair and periodic scheduling of independent sets on conflict graphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, func: Callable[[argparse.Namespace], int],
                summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("gen", _cmd_gen, "emit a test graph in edge-list format")
    p.add_argument("--kind", required=True, choices=list(_GRAPHS))
    p.add_argument("--nodes", required=True, type=int)
    p.add_argument("--p", type=float, default=0.1, help="edge probability for gnp")
    p.add_argument("--seed", type=int)

    p = command("color", _cmd_color, "color a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", default="greedy", choices=["greedy", "random"])
    p.add_argument("--seed", type=int)

    p = command("schedule", _cmd_schedule, "emit a happy-set CSV for a schedule")
    p.add_argument("--input", required=True)
    p.add_argument("--algorithm", required=True, choices=list(_SCHEDULES))
    p.add_argument("--holidays", required=True, type=int)
    p.add_argument("--seed", type=int)

    p = command("bounds", _cmd_bounds, "period bound table per color")
    p.add_argument("--max-color", required=True, type=int)

    p = command("satisfy", _cmd_satisfy, "maximum-satisfaction orientation")
    p.add_argument("--input", required=True)

    p = command("dynamic", _cmd_dynamic, "replay edge events against the periodic schedule")
    p.add_argument("--input", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--holidays", required=True, type=int)
    p.add_argument("--threshold", type=float, default=2.0)

    p = command("verify", _cmd_verify, "audit a schedule CSV against its graph")
    p.add_argument("--input", required=True)
    p.add_argument("--schedule", required=True, dest="schedule_path")
    p.add_argument("--window", required=True, type=int)

    for p in sub.choices.values():
        p.add_argument("--output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "seed" in args and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"fairgather: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
