import importlib.util
import json
from pathlib import Path

from affine_fock import cli

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "frontier.py"


def load_frontier():
    spec = importlib.util.spec_from_file_location("frontier", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_climb_stops_at_the_first_run_over_budget(monkeypatch):
    frontier = load_frontier()
    tried = []

    def fake_run(suite, l, degree, budget, src):
        tried.append(degree)
        return ("ok", degree / 10) if degree < 9 else ("timeout", budget)

    monkeypatch.setattr(frontier, "run_once", fake_run)
    got = frontier.frontier("relations", 3, 10.0, 6)
    assert got == (8, (0.8, 0.8, 0.8), 9, "timeout after 10.0 s, timeout after 10.0 s")
    # three runs per passing degree; two failures end a degree
    assert tried == [6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9]


def test_a_degree_passes_on_two_runs_of_three(monkeypatch):
    frontier = load_frontier()
    runs = iter([("ok", 7.0), ("timeout", 10.0), ("ok", 9.0),  # degree 6
                 ("timeout", 10.0), ("ok", 9.5), ("exit 1", 0.3)])  # degree 7
    monkeypatch.setattr(frontier, "run_once", lambda *args: next(runs))
    got = frontier.frontier("relations", 3, 10.0, 6)
    assert got == (6, (9.0, 7.0, 10.0), 7,
                   "timeout after 10.0 s, ok after 9.5 s, exit 1 after 0.3 s")


def test_failing_suite_has_no_frontier(monkeypatch):
    frontier = load_frontier()
    monkeypatch.setattr(frontier, "run_once", lambda *args: ("exit 1", 0.2))
    got = frontier.frontier("relations", 3, 10.0, 4)
    assert got == (None, None, 4, "exit 1 after 0.2 s, exit 1 after 0.2 s")


def test_real_cli_ends_the_climb():
    # the CLI rejects l = 1 with exit 2, which ends the climb at once
    best, best_s, nxt, outcome = load_frontier().frontier("relations", 1, 10.0, 0)
    assert (best, best_s, nxt) == (None, None, 0)
    assert outcome.startswith("exit 2 after ")


def test_frontier_climbs_every_cli_suite():
    assert set(load_frontier().SUITES) == set(cli._SUITES)


def test_rows_go_to_json_only_when_asked(monkeypatch, tmp_path, capsys):
    frontier = load_frontier()
    monkeypatch.setattr(frontier, "SUITES", ("relations", "geometric"))
    monkeypatch.setattr(frontier, "run_once", lambda suite, l, degree, budget, src: (
        ("ok", 1.0) if suite == "relations" and degree < 8 else ("exit 1", 0.5)))
    assert frontier.main([]) == 0
    table = capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "rows.json"
    assert frontier.main([str(out)]) == 0
    assert capsys.readouterr().out == table
    assert json.loads(out.read_text()) == [
        {"suite": "relations", "l": 3, "budget_s": 10.0, "runs": 3, "frontier": 7,
         "median_s": 1.0, "min_s": 1.0, "max_s": 1.0, "next_degree": 8,
         "next_outcome": "exit 1 after 0.5 s, exit 1 after 0.5 s"},
        {"suite": "geometric", "l": 3, "budget_s": 10.0, "runs": 3, "frontier": None,
         "median_s": None, "min_s": None, "max_s": None, "next_degree": 6,
         "next_outcome": "exit 1 after 0.5 s, exit 1 after 0.5 s"},
    ]


def test_trees_climb_in_lockstep(monkeypatch):
    frontier = load_frontier()
    tried = []
    last_pass = {"a": 7, "b": 9}

    def fake_run(suite, l, degree, budget, src):
        tried.append((src, degree))
        return ("ok", 1.0) if degree <= last_pass[src] else ("timeout", budget)

    monkeypatch.setattr(frontier, "run_once", fake_run)
    got = frontier.climb("relations", 3, 10.0, 6, ["a", "b"])
    two_timeouts = "timeout after 10.0 s, timeout after 10.0 s"
    assert got == [(7, (1.0, 1.0, 1.0), 8, two_timeouts), (9, (1.0, 1.0, 1.0), 10, two_timeouts)]
    # the trees take turns to go first; a tree that stopped runs no more
    assert tried == ([("a", 6)] * 3 + [("b", 6)] * 3 + [("b", 7)] * 3 + [("a", 7)] * 3
                     + [("a", 8)] * 2 + [("b", 8)] * 3 + [("b", 9)] * 3 + [("b", 10)] * 2)


def test_rows_name_their_tree_against_another(monkeypatch, tmp_path, capsys):
    frontier = load_frontier()
    other = tmp_path / "parent"
    monkeypatch.setattr(frontier, "run_once", lambda suite, l, degree, budget, src: (
        ("ok", 1.0) if degree < (7 if src == other / "src" else 8) else ("exit 1", 0.5)))
    out = tmp_path / "rows.json"
    assert frontier.main(["--suite", "relations", "--against", str(other), str(out)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[2].startswith("| relations @ this | d = 7 ")
    assert table[3].startswith(f"| relations @ {other} | d = 6 ")
    rows = json.loads(out.read_text())
    assert [(r["tree"], r["frontier"]) for r in rows] == [("this", 7), (str(other), 6)]


def test_a_run_over_budget_is_killed_at_the_budget():
    outcome, seconds = load_frontier().run_once("relations", 3, 40, 0.3)
    assert outcome == "timeout"
    assert 0.3 <= seconds < 5
