"""Degree frontier: the largest degree each verify suite finishes within 10 s.

For each suite it runs

    python -m affine_fock verify --suite S --l 3 --degree D

in a fresh interpreter for D = 6, 7, ..., three times per degree, timing
the whole process. A run that outlives the 10 s budget is killed. A degree
passes when at least two of its three runs exit 0 inside the budget; one
timed run per degree moved the frontier by about two degrees on unchanged
code. The climb stops at the first degree that does not pass, and the
frontier is the last degree that did; degrees below 6 are taken to be
cheaper. The source tree is the one this script sits in (its `src/` goes
first on PYTHONPATH), so nothing needs to be installed.

    python3 tools/frontier.py

Prints one Markdown table row per suite: the frontier degree with the
median and the min-max of its three wall times, and what happened at the
next degree. Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SUITES = ("boson-fermion", "frenkel-kac", "relations", "geometric", "fixed-points")
SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 3  # timed runs per degree; a degree passes when most exit 0 in time


def run_once(suite: str, l: int, degree: int, budget: float) -> tuple[str, float]:
    """Run one verify command; return ("ok" | "timeout" | "exit N", seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, "-B", "-m", "affine_fock", "verify", "--suite", suite,
            "--l", str(l), "--degree", str(degree)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=budget)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return ("ok" if proc.returncode == 0 else f"exit {proc.returncode}"), elapsed


def run_degree(suite: str, l: int, degree: int, budget: float) -> tuple[bool, list]:
    """Run one degree up to RUNS times; return (passed, [(outcome, seconds)]).

    The runs stop once a majority has failed, since the degree cannot pass.
    """
    runs = []
    while len(runs) < RUNS:
        runs.append(run_once(suite, l, degree, budget))
        if sum(outcome != "ok" for outcome, _ in runs) > RUNS // 2:
            return False, runs
    return True, runs


def spread(runs) -> tuple[float, float, float]:
    """(median, min, max) of the runs' seconds."""
    seconds = sorted(s for _, s in runs)
    return seconds[len(seconds) // 2], seconds[0], seconds[-1]


def frontier(suite: str, l: int, budget: float, start: int):
    """(frontier degree or None, spread of its seconds, next degree, what
    its runs gave).

    Run time grows with the degree, so the budget ends the climb.
    """
    best, best_s, degree = None, None, start
    while True:
        passed, runs = run_degree(suite, l, degree, budget)
        if not passed:
            return best, best_s, degree, ", ".join(f"{o} after {s:.1f} s" for o, s in runs)
        best, best_s, degree = degree, spread(runs), degree + 1


def main() -> int:
    l, budget, start = 3, 10.0, 6
    print(f"| suite (l={l}) | frontier at {budget:g} s, median (min-max) of {RUNS} | next degree |")
    print("|---|---|---|")
    for suite in SUITES:
        best, best_s, nxt, outcome = frontier(suite, l, budget, start)
        if best is None:
            found = f"below d = {nxt}"
        else:
            found = "d = {} ({:.1f} s, {:.1f}-{:.1f})".format(best, *best_s)
        print(f"| {suite} | {found} | d = {nxt}: {outcome} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
