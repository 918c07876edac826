import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairgather.cli as cli
import fairgather.coloring as coloring
from fairgather import schedulers
from fairgather.cli import _parse_schedule_csv, _schedule_csv, main
from oracles import parse_schedule_csv

TRIANGLE = "0 1\n1 2\n0 2\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schedule_phased_triangle_trace(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, _ = run(capsys, ["schedule", "--input", g, "--algorithm", "phased", "--holidays", "9"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "holiday,happy"
    assert lines[1:] == [
        "1,0", "2,1", "3,2", "4,0", "5,1", "6,2", "7,0", "8,1", "9,2"
    ]


def test_bounds_table(tmp_path, capsys):
    code, out, _ = run(capsys, ["bounds", "--max-color", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "color,rho,period,phi,upper_bound"
    periods = [int(ln.split(",")[2]) for ln in lines[1:]]
    assert periods == [2, 8, 8, 64]



@pytest.mark.parametrize("max_color", ["0", "-3"])
def test_bounds_max_color_below_one_exit_1(capsys, max_color):
    code, out, err = run(capsys, ["bounds", "--max-color", max_color])
    assert code == 1
    assert out == ""
    assert err == f"fairgather: --max-color must be at least 1, got {max_color}\n"


def test_slots_dist_and_bounds_outputs_are_pinned(tmp_path, capsys):
    # Digests of an earlier release's outputs: a refactor must not move a byte.
    def output(argv, sha256):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256
        return out

    text = output(["gen", "--kind", "gnp", "--nodes", "400", "--p", "0.02", "--seed", "4"],
                  "44aca9c0bacc12aaf6aa0972fc4f01f46b93a2302f684ba10726841aec491c9f")
    g = write(tmp_path, "g.txt", text)
    output(["schedule", "--input", g, "--algorithm", "slots-dist", "--holidays", "64",
            "--seed", "9"],
           "00391647df545ba1e119e4179509f2f252e6d3e90b3ae12c1c9e46c3ba13aeaf")
    output(["color", "--input", g, "--mode", "random", "--seed", "9"],
           "d983358bbf9f1efddef7f1334c1f4db73e186c032743523677bcb8276a5d6b82")
    output(["schedule", "--input", g, "--algorithm", "slots", "--holidays", "64"],
           "d7e3906af58496bc074dd8c87c1ce1cbb7ce0f4a37ff087251fd3e0ebfbde36b")
    output(["bounds", "--max-color", "64"],
           "ecb43022d054f430e7adbf5ce236a7073038f35efa82d090beed25bebf3aab4d")


def test_verify_accepts_valid_schedule(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    out_csv = str(tmp_path / "out.csv")
    assert main(["schedule", "--input", g, "--algorithm", "elias",
                 "--holidays", "16", "--output", out_csv]) == 0
    code, out, _ = run(capsys, ["verify", "--input", g, "--schedule", out_csv, "--window", "16"])
    assert code == 0
    assert "# independence=ok" in out


def test_verify_rejects_tampered_schedule(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    bad = write(tmp_path, "bad.csv", "holiday,happy\n1,0;1\n2,\n")
    code, out, _ = run(capsys, ["verify", "--input", g, "--schedule", bad, "--window", "2"])
    assert code == 1
    assert "# independence=violated" in out


def test_color_greedy_output(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, _ = run(capsys, ["color", "--input", g, "--mode", "greedy"])
    assert code == 0
    assert out.splitlines() == ["0 1", "1 2", "2 3"]


def test_color_random_reports_rounds(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, _ = run(capsys, ["color", "--input", g, "--mode", "random", "--seed", "1"])
    assert code == 0
    assert out.splitlines()[-1].startswith("# rounds=")


def test_satisfy_output(tmp_path, capsys):
    g = write(tmp_path, "k2.txt", "0 1\n")
    code, out, _ = run(capsys, ["satisfy", "--input", g])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "satisfied 1"
    assert lines[1] in ("0->1", "1->0")


def test_gen_roundtrips_through_schedule(tmp_path, capsys):
    graph_file = str(tmp_path / "g.txt")
    assert main(["gen", "--kind", "gnp", "--nodes", "12", "--p", "0.3",
                 "--seed", "5", "--output", graph_file]) == 0
    code, out, _ = run(capsys, ["schedule", "--input", graph_file,
                                "--algorithm", "slots", "--holidays", "8"])
    assert code == 0
    assert out.startswith("holiday,happy")


def test_gen_kinds(tmp_path, capsys):
    for kind, extra in [("path", []), ("cycle", []), ("clique", []), ("star", [])]:
        code, out, _ = run(capsys, ["gen", "--kind", kind, "--nodes", "5"] + extra)
        assert code == 0
        assert out.startswith(f"# kind={kind}")


@pytest.mark.parametrize("kind", ["path", "clique", "star"])
def test_gen_without_nodes_names_node_count(capsys, kind):
    code, out, err = run(capsys, ["gen", "--kind", kind, "--nodes", "0"])
    assert (code, out) == (1, "")
    assert err == f"fairgather: {kind} needs at least one node\n"


@pytest.mark.parametrize("argv, message", [
    (["--kind", "gnp", "--nodes", "-1"], "node count must be non-negative"),
    (["--kind", "gnp", "--nodes", "5", "--p", "1.5"], "edge probability must lie in [0, 1]"),
    (["--kind", "cycle", "--nodes", "2"], "cycle needs at least three nodes"),
])
def test_gen_rejects_bad_sizes_and_probabilities(capsys, argv, message):
    assert run(capsys, ["gen", *argv]) == (1, "", f"fairgather: {message}\n")


@pytest.mark.parametrize("event", ["2 - 0 1\n", "2 + 0 2\n"])
def test_dynamic_rejects_nan_threshold(tmp_path, capsys, event):
    # The inserts-only file never reaches dynamic_remove's own check.
    g = write(tmp_path, "g.txt", "0 1\n")
    events = write(tmp_path, "e.txt", event)
    code, out, err = run(capsys, ["dynamic", "--input", g, "--events", events,
                                  "--holidays", "3", "--threshold", "nan"])
    assert (code, out) == (1, "")
    assert err == "fairgather: --threshold must be a number, got nan\n"


def test_dynamic_events(tmp_path, capsys):
    g = write(tmp_path, "g.txt", "node 0\nnode 1\n")
    events = write(tmp_path, "e.txt", "# connect then disconnect\n2 + 0 1\n5 - 0 1\n")
    code, out, _ = run(capsys, ["dynamic", "--input", g, "--events", events,
                                "--holidays", "6", "--threshold", "1.0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "holiday,happy"
    # before the insert both share color 1 and host together on even holidays
    assert lines[1] == "1,"
    assert lines[2] != "2,0;1"


def test_identical_config_identical_bytes(tmp_path):
    g = write(tmp_path, "g.txt", "0 1\n1 2\n2 3\n3 0\n")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["schedule", "--input", g, "--algorithm", "slots-dist", "--holidays", "12", "--seed", "9"]
    assert main(argv + ["--output", a]) == 0
    assert main(argv + ["--output", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    g = write(tmp_path, "g.txt", "0 1\n0 2\n0 3\n1 2\n")
    monkeypatch.setenv("FAIRGATHER_SEED", "9")
    _, out_env, _ = run(capsys, ["schedule", "--input", g, "--algorithm", "slots-dist", "--holidays", "8"])
    monkeypatch.delenv("FAIRGATHER_SEED")
    _, out_explicit, _ = run(capsys, ["schedule", "--input", g, "--algorithm", "slots-dist",
                                      "--holidays", "8", "--seed", "9"])
    assert out_env == out_explicit


def test_bad_flags_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--algorithm", "phased"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


def test_missing_file_reports_error(tmp_path, capsys):
    code, _, err = run(capsys, ["color", "--input", str(tmp_path / "nope.txt")])
    assert code == 1
    assert "fairgather:" in err


def test_malformed_graph_reports_line(tmp_path, capsys):
    g = write(tmp_path, "g.txt", "0 1\n0 0\n")
    code, _, err = run(capsys, ["color", "--input", g])
    assert code == 1
    assert "line 2" in err


PATH3 = "0 1\n1 2\n"


def test_verify_audits_rows_past_the_window(tmp_path, capsys):
    g = write(tmp_path, "path.txt", PATH3)
    csv = write(tmp_path, "s.csv", "holiday,happy\n1,0;2\n2,1\n3,0;1\n")
    code, out, _ = run(capsys, ["verify", "--input", g, "--schedule", csv, "--window", "2"])
    assert code == 1
    lines = out.splitlines()
    assert lines[-2:] == ["# independence=violated", "# conflict holiday=3 edge=0-1"]
    assert lines[1:4] == ["0,1,1,1,0,2", "1,1,2,1,0,1", "2,1,1,1,0,2"]


@pytest.mark.parametrize("row, message", [
    ("x,0", "line 3: malformed schedule row 'x,0'"),
    ("2,0;y", "line 3: malformed schedule row '2,0;y'"),
    ("1,0;x", "line 3: malformed schedule row '1,0;x'"),
    ("0,0;1", "line 3: holidays are numbered from 1"),
    ("1,2", "line 3: duplicate holiday 1"),
    ("2,0;7", "line 3: holiday 2 lists unknown nodes [7]"),
    ("1", "line 3: malformed schedule row '1'"),
    ("4", "line 3: malformed schedule row '4'"),
])
def test_verify_rejects_bad_schedule_rows(tmp_path, capsys, row, message):
    g = write(tmp_path, "path.txt", PATH3)
    csv = write(tmp_path, "s.csv", f"holiday,happy\n1,1\n{row}\n")
    code, out, err = run(capsys, ["verify", "--input", g, "--schedule", csv, "--window", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"fairgather: {message}")


@pytest.mark.parametrize("row, message", [
    ("3,00;2", None),
    ("3, 0;2", None),
    ("3,0; 2", None),
    ("3,0;2;7", "line 4: holiday 3 lists unknown nodes [7]"),
    ("3,0;2;x", "line 4: malformed schedule row '3,0;2;x'"),
    ("x,0;2", "line 4: malformed schedule row 'x,0;2'"),
    ("0,0;2", "line 4: holidays are numbered from 1"),
    ("2,0;2", "line 4: duplicate holiday 2 in schedule CSV"),
])
def test_verify_checks_each_line_after_a_repeated_row_text(tmp_path, capsys, row, message):
    # Lines 2 and 3 share one row text, which is parsed once; line 4 names
    # the same ids in another spelling, or repeats the text on a bad line,
    # and is parsed and checked on its own.
    g = write(tmp_path, "path.txt", PATH3)
    csv = write(tmp_path, "s.csv", f"holiday,happy\n1,0;2\n2,0;2\n{row}\n")
    code, out, err = run(capsys, ["verify", "--input", g, "--schedule", csv, "--window", "3"])
    if message is None:
        canonical = write(tmp_path, "c.csv", "holiday,happy\n1,0;2\n2,0;2\n3,0;2\n")
        argv = ["verify", "--input", g, "--schedule", canonical, "--window", "3"]
        assert (code, out, err) == run(capsys, argv)
        assert code == 0 and out.splitlines()[1] == "0,3,1,0,1,1"
    else:
        assert (code, out, err) == (1, "", f"fairgather: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("", "schedule CSV must start with header 'holiday,happy'"),
    ("# only a comment\n\n", "schedule CSV must start with header 'holiday,happy'"),
    ("# made by hand\n\n1,0\nholiday,happy\n",
     "line 3: schedule CSV must start with header 'holiday,happy'"),
    ("happy,holiday\n1,0\n", "line 1: schedule CSV must start with header 'holiday,happy'"),
])
def test_verify_rejects_missing_header(tmp_path, capsys, text, message):
    g = write(tmp_path, "path.txt", PATH3)
    csv = write(tmp_path, "s.csv", text)
    argv = ["verify", "--input", g, "--schedule", csv, "--window", "1"]
    assert run(capsys, argv) == (1, "", f"fairgather: {message}\n")


CSV_NODES = frozenset(range(10)) | {10**6, 10**6 + 1}

# Canonical ids, then padded, signed, zero-padded, empty, unknown and malformed tokens.
csv_tokens = st.one_of(
    st.sampled_from(sorted(map(str, CSV_NODES))),
    st.sampled_from([" 5", "5 ", "+5", "-5", "-0", "05", "00", "", "10", "999999", "x", "5x",
                     "1_0", "0x1", "5.0"]),
)
csv_rows = st.builds(
    lambda t, ids: f"{t},{';'.join(ids)}",
    st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["", " 2", "+3", "x"])),
    st.lists(csv_tokens, max_size=6),
)


def _csv_outcome(parse, text):
    try:
        return parse(text, CSV_NODES)
    except ValueError as exc:
        return str(exc)


@given(st.lists(csv_rows, max_size=8))
@settings(max_examples=300)
def test_parse_schedule_csv_matches_int_per_id_oracle(rows):
    text = "holiday,happy\n" + "".join(row + "\n" for row in rows)
    assert _csv_outcome(_parse_schedule_csv, text) == _csv_outcome(parse_schedule_csv, text)


@given(st.lists(st.tuples(st.sampled_from(["", " 2", "x", "0"]) | st.integers(1, 9).map(str),
                          st.integers(0, 2)), max_size=10),
       st.lists(st.lists(csv_tokens, max_size=4), min_size=3, max_size=3))
@settings(max_examples=200)
def test_parse_schedule_csv_with_repeated_row_texts_matches_oracle(lines, pool):
    # A few id texts, each on many lines: a text is parsed once and shared
    # when canonical, and checked again on every line otherwise.
    text = "holiday,happy\n" + "".join(f"{t},{';'.join(pool[i])}\n" for t, i in lines)
    assert _csv_outcome(_parse_schedule_csv, text) == _csv_outcome(parse_schedule_csv, text)


@given(st.lists(st.sets(st.sampled_from(sorted(CSV_NODES | {10**7, 2**40})))))
def test_schedule_csv_matches_str_per_id(happy_sets):
    expected = "holiday,happy\n" + "".join(f"{t},{';'.join(map(str, sorted(happy)))}\n"
                                            for t, happy in enumerate(happy_sets, start=1))
    assert "".join(_schedule_csv(happy_sets)) == expected


@pytest.mark.parametrize("mode, expected", [("greedy", ""), ("random", "# rounds=0\n")])
def test_color_empty_graph_prints_only_the_trailer(tmp_path, capsys, mode, expected):
    g = write(tmp_path, "empty.txt", "# no nodes\n")
    assert run(capsys, ["color", "--input", g, "--mode", mode]) == (0, expected, "")


def test_verify_accepts_empty_ids_between_separators(tmp_path, capsys):
    g = write(tmp_path, "path.txt", PATH3)
    csv = write(tmp_path, "s.csv", "holiday,happy\n1,0;;2\n2,;1;\n")
    code, out, err = run(capsys, ["verify", "--input", g, "--schedule", csv, "--window", "2"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["0,1,1,1,0,2", "1,1,2,1,0,1", "2,1,1,1,0,2",
                                    "# independence=ok"]


@pytest.mark.parametrize("window", ["0", "-2"])
def test_verify_window_below_one_exit_1_before_reading_files(tmp_path, capsys, window):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, ["verify", "--input", missing, "--schedule", missing,
                                  "--window", window])
    assert code == 1
    assert out == ""
    assert err == f"fairgather: --window must be at least 1, got {window}\n"


def test_verify_skips_indented_comment_lines(tmp_path, capsys):
    g = write(tmp_path, "path.txt", PATH3)
    csv = write(tmp_path, "s.csv", "  # made by hand\nholiday,happy\n   # note\n1,0;2\n\t# tab\n2,1\n")
    code, out, err = run(capsys, ["verify", "--input", g, "--schedule", csv, "--window", "2"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["0,1,1,1,0,2", "1,1,2,1,0,1", "2,1,1,1,0,2",
                                    "# independence=ok"]


def test_coloring_round_limit_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(coloring, "MAX_ROUNDS", 0)
    g = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, err = run(capsys, ["color", "--input", g, "--mode", "random"])
    assert code == 1
    assert out == ""
    assert err == "fairgather: coloring did not terminate within 0 rounds\n"


def test_malformed_seed_env_only_matters_with_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FAIRGATHER_SEED", "abc")
    code, out, _ = run(capsys, ["bounds", "--max-color", "2"])
    assert code == 0
    assert out.startswith("color,rho,period")
    g = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, err = run(capsys, ["schedule", "--input", g, "--algorithm", "slots-dist",
                                  "--holidays", "4"])
    assert code == 1
    assert out == ""
    assert err == "fairgather: FAIRGATHER_SEED must be an integer, got 'abc'\n"
    code, _, _ = run(capsys, ["schedule", "--input", g, "--algorithm", "slots-dist",
                              "--holidays", "4", "--seed", "3"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["schedule", "--algorithm", "phased"],
    ["schedule", "--algorithm", "elias"],
    ["schedule", "--algorithm", "slots"],
    ["schedule", "--algorithm", "slots-dist"],
    ["dynamic", "--events", "EVENTS"],
])
@pytest.mark.parametrize("holidays", ["0", "-3"])
def test_holidays_below_one_exit_1(tmp_path, capsys, argv, holidays):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    events = write(tmp_path, "e.txt", "1 - 0 1\n")
    argv = [events if a == "EVENTS" else a for a in argv]
    code, out, err = run(capsys, argv + ["--input", g, "--holidays", holidays])
    assert code == 1
    assert out == ""
    assert err == f"fairgather: --holidays must be at least 1, got {holidays}\n"


def test_dynamic_has_no_seed_flag(tmp_path):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    events = write(tmp_path, "e.txt", "")
    with pytest.raises(SystemExit) as exc:
        main(["dynamic", "--input", g, "--events", events, "--holidays", "2", "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("event, message", [
    ("2 - 1 0", "no such edge (0, 1)"),
    ("2 + 1 1", "self-loop at node 1"),
    ("2 + 2 0", "duplicate edge (0, 2)"),
    ("2 + -1 2", "node ids must be non-negative, got -1"),
    ("2 + 0", "expected 't + u v' or 't - u v'"),
    ("2 + 0 1 3", "expected 't + u v' or 't - u v'"),
    ("2 * 0 1", "expected 't + u v' or 't - u v'"),
    ("x + 0 1", "malformed event"),
    ("2 - 0 y", "malformed event"),
    ("0 + 0 2", "holidays are numbered from 1"),
    ("-1 - 0 1", "holidays are numbered from 1"),
])
def test_dynamic_event_errors_report_line(tmp_path, capsys, event, message):
    g = write(tmp_path, "path.txt", PATH3)
    events = write(tmp_path, "e.txt", f"1 + 0 2\n1 - 0 1\n# then\n{event}\n")
    code, out, err = run(capsys, ["dynamic", "--input", g, "--events", events, "--holidays", "3"])
    assert code == 1
    assert out == ""
    assert err == f"fairgather: line 4: {message}\n"


def test_dynamic_applies_events_after_last_holiday(tmp_path, capsys):
    # Events after the last row are checked, not replayed: they change no row.
    g = write(tmp_path, "path.txt", PATH3)
    bad = write(tmp_path, "bad.txt", "1 + 0 2\n9 - 5 7\n")
    code, out, err = run(capsys, ["dynamic", "--input", g, "--events", bad, "--holidays", "3"])
    assert (code, out) == (1, "")
    assert err == "fairgather: line 2: no such edge (5, 7)\n"

    early = write(tmp_path, "early.txt", "1 + 0 2\n")
    late = write(tmp_path, "late.txt", "1 + 0 2\n9 - 0 2\n")
    _, expected, _ = run(capsys, ["dynamic", "--input", g, "--events", early, "--holidays", "3"])
    code, out, _ = run(capsys, ["dynamic", "--input", g, "--events", late, "--holidays", "3"])
    assert (code, out) == (0, expected)
    assert len(out.splitlines()) == 4


def test_dynamic_bad_event_leaves_no_output_file(tmp_path, capsys):
    # Rows for holidays 1-2 exist before line 2 fails; none may reach the file.
    g = write(tmp_path, "path.txt", PATH3)
    events = write(tmp_path, "e.txt", "1 + 0 2\n3 - 5 7\n")
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, ["dynamic", "--input", g, "--events", events,
                                "--holidays", "9", "--output", str(out)])
    assert (code, err) == (1, "fairgather: line 2: no such edge (5, 7)\n")
    assert not out.exists()


def test_dynamic_streams_rows_as_events_apply(tmp_path, monkeypatch):
    # Each row reaches the writer before the events of later holidays run.
    g = write(tmp_path, "path.txt", PATH3)
    events = write(tmp_path, "e.txt", "1 + 0 2\n4 - 0 2\n")
    applied = []
    insert, remove = schedulers.dynamic_insert, schedulers.dynamic_remove
    monkeypatch.setattr(schedulers, "dynamic_insert",
                        lambda *a: applied.append("+") or insert(*a))
    monkeypatch.setattr(schedulers, "dynamic_remove",
                        lambda *a, **k: applied.append("-") or remove(*a, **k))
    done_per_piece = []  # the events applied when each piece was written
    monkeypatch.setattr(cli, "_emit", lambda pieces, output: done_per_piece.extend(
        "".join(applied) for _ in pieces))
    assert main(["dynamic", "--input", g, "--events", events, "--holidays", "5"]) == 0
    assert done_per_piece == ["", "+", "+", "+", "+-", "+-"]


def test_dynamic_memory_does_not_grow_with_holidays(tmp_path):
    # Rows stream to the file and nothing is kept per holiday; a set of the
    # 300,000 holidays alone would take about 20 MB.
    g = write(tmp_path, "path.txt", "0 1\n1 2\n2 3\n")
    events = write(tmp_path, "e.txt", "2 + 0 2\n5 - 0 2\n")
    out = str(tmp_path / "out.csv")
    tracemalloc.start()
    try:
        assert main(["dynamic", "--input", g, "--events", events,
                     "--holidays", "300000", "--output", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    with open(out, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 300_001


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "clique", "--nodes", "400"],
    ["schedule", "--input", "path.txt", "--algorithm", "slots", "--holidays", "400"],
])
def test_closed_stdout_pipe_exits_1_quietly(tmp_path, argv):
    # Each output is several times a pipe's buffer, so the writer is still
    # writing when the reader closes after one line.
    (tmp_path / "path.txt").write_text("".join(f"{v} {v + 1}\n" for v in range(999)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen([sys.executable, "-m", "fairgather.cli", *argv], cwd=tmp_path, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")


def test_cli_import_does_not_load_fractions():
    # Only analysis.budget_check needs fractions; every CLI call would pay
    # for its import otherwise. -S keeps site-packages from loading it first.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, fairgather.cli; print('fractions' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
