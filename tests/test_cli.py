import functools
import os
from pathlib import Path

import pytest

import fairgather.cli as cli
from fairgather.cli import main

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
])
def test_verify_rejects_bad_schedule_rows(tmp_path, capsys, row, message):
    g = write(tmp_path, "path.txt", PATH3)
    csv = write(tmp_path, "s.csv", f"holiday,happy\n1,1\n{row}\n")
    code, out, err = run(capsys, ["verify", "--input", g, "--schedule", csv, "--window", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"fairgather: {message}")


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
    monkeypatch.setattr(cli, "local_random_color",
                        functools.partial(cli.local_random_color, max_rounds=0))
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
])
def test_dynamic_event_errors_report_line(tmp_path, capsys, event, message):
    g = write(tmp_path, "path.txt", PATH3)
    events = write(tmp_path, "e.txt", f"1 + 0 2\n1 - 0 1\n# then\n{event}\n")
    code, out, err = run(capsys, ["dynamic", "--input", g, "--events", events, "--holidays", "3"])
    assert code == 1
    assert out == ""
    assert err == f"fairgather: line 4: {message}\n"


def test_dynamic_applies_events_after_last_holiday(tmp_path, capsys):
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
