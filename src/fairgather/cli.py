"""Command-line front end.

Subcommands: gen, color, schedule, bounds, satisfy, dynamic, verify.
Pipelines compose through files only, and every run with the same
configuration produces byte-identical output. Each subcommand's handler
takes the parsed argparse namespace. For subcommands with --seed, the seed
defaults to the FAIRGATHER_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import itertools
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


def _emit(pieces: Iterable[str], output: str | None) -> None:
    """Write the pieces in order, as they come, to the output file or, if
    None, to stdout, flushed so that a closed pipe raises here."""
    if output is None:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


class _IdText(dict):
    """Node id -> its decimal text, formatted by str() when first asked for."""

    def __missing__(self, v: int) -> str:
        text = self[v] = str(v)
        return text


def _schedule_csv(happy_sets: Iterable[AbstractSet[int]]) -> Iterator[str]:
    """The header, then one row per happy set as it comes, holidays from 1.

    Each id is formatted once and then looked up; the table fills as ids
    appear, since dynamic can add nodes partway through a run.
    """
    text = _IdText().__getitem__
    yield "holiday,happy\n"
    for t, happy in enumerate(happy_sets, start=1):
        yield f"{t},{';'.join(map(text, sorted(happy)))}\n"


def _parse_schedule_csv(text: str, nodes: AbstractSet[int]) -> dict[int, frozenset[int]]:
    """Holiday -> happy set; rows naming a node outside nodes are rejected.

    Ids are looked up in a table of the nodes' canonical spellings, so a
    row costs one dict lookup per id, and each distinct canonical row text
    is parsed once: later lines with the same text share its frozenset. A
    row with any other token (empty, padded, signed, zero-padded, unknown
    or malformed) is parsed with int() and checked in full.
    """
    rows = list(graph.data_lines(text))
    if not rows or rows[0][1] != "holiday,happy":
        where = f"line {rows[0][0]}: " if rows else ""  # an empty file has no line to name
        raise ValueError(f"{where}schedule CSV must start with header 'holiday,happy'")
    node_of = {str(v): v for v in nodes}.get
    parsed: dict[str, frozenset[int]] = {}  # canonical row text -> its happy set
    happy_sets: dict[int, frozenset[int]] = {}
    for lineno, ln in rows[1:]:
        t_str, comma, ids = ln.partition(",")
        happy = parsed.get(ids)
        if happy is None:
            tokens = ids.split(";")
            happy = frozenset(map(node_of, tokens))
        canonical = None not in happy  # every token is a node's canonical spelling
        if canonical:
            parsed[ids] = happy
        try:
            if not comma:
                raise ValueError("no comma")
            t = int(t_str)
            if not canonical:
                happy = frozenset(map(int, filter(None, tokens)))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed schedule row {ln!r}") from None
        if t < 1:
            raise ValueError(f"line {lineno}: holidays are numbered from 1")
        if t in happy_sets:
            raise ValueError(f"line {lineno}: duplicate holiday {t} in schedule CSV")
        unknown = [] if canonical else sorted(happy - nodes)
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
    _emit(itertools.chain([header], g.edge_list_chunks()), args.output)
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    trailer = ""
    if args.mode == "greedy":
        coloring = greedy_color(g)
    else:
        coloring, log = local_random_color(g, seed=args.seed)
        trailer = f"# rounds={log.rounds}\n"
    lines = [f"{v} {coloring[v]}\n" for v in sorted(g.nodes())]
    _emit(lines + [trailer], args.output)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    holidays = _at_least_one("--holidays", args.holidays)
    g = _load_graph(args.input)
    s = _SCHEDULES[args.algorithm](g, args)
    _emit(_schedule_csv(s.happy_set(t) for t in range(1, holidays + 1)), args.output)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    max_color = _at_least_one("--max-color", args.max_color)

    def rows() -> Iterator[str]:
        yield "color,rho,period,phi,upper_bound\n"
        for c in range(1, max_color + 1):
            r = codec.rho(c)
            bound = analysis.elias_period_bound(c)
            yield f"{c},{r},{1 << r},{analysis.phi(c):.6g},{bound:.6g}\n"

    _emit(rows(), args.output)
    return 0


def _cmd_satisfy(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    orientation, count = satisfaction.max_satisfaction(g)
    lines = [f"satisfied {count}\n"]
    for (u, v), head in sorted(orientation.items()):
        tail = v if head == u else u
        lines.append(f"{tail}->{head}\n")
    _emit(lines, args.output)
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
    # Event op -> (its edit of a graph, its event on a schedule).
    ops = {
        "+": (graph.ConflictGraph.insert_edge, schedulers.dynamic_insert),
        "-": (graph.ConflictGraph.remove_edge,
              lambda s, u, v: schedulers.dynamic_remove(s, u, v, args.threshold)),
    }
    # The edge operations alone raise every error an event can, so replaying
    # them on a copy first lets a bad line fail before any row is written.
    # Events dated after the last row are checked here and change no row.
    check = g.copy()
    for t in sorted(events):
        for lineno, op, u, v in events[t]:
            edit, _ = ops[op]
            try:
                edit(check, u, v)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    del check

    def replay() -> Iterator[frozenset[int]]:
        s = schedulers.elias_schedule(g, greedy_color(g))
        for t in range(1, holidays + 1):
            for _, op, u, v in events.get(t, ()):
                _, event = ops[op]
                s = event(s, u, v)
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
    lines = ["node,happy_count,first_happy,mul,detected_period,max_gap\n"]
    for v in sorted(rep.nodes):
        st = rep.nodes[v]
        first = st.first_happy if st.first_happy is not None else ""
        gap = st.max_gap if st.max_gap is not None else ""
        lines.append(f"{v},{len(st.happy)},{first},{st.mul},{st.detected_period},{gap}\n")
    lines.append(f"# independence={'violated' if conflicts else 'ok'}\n")
    for t, u, v in conflicts[:10]:
        lines.append(f"# conflict holiday={t} edge={u}-{v}\n")
    _emit(lines, args.output)
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
    except BrokenPipeError:
        # Stdout's reader is gone; devnull (as the Python docs advise) keeps the exit flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"fairgather: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
