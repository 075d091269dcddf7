import importlib.util
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

    def fake_run(suite, l, degree, budget):
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
