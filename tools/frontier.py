"""Degree frontier: the largest degree each verify suite finishes within 10 s.

For each suite it runs

    python -m affine_fock verify --suite S --l 3 --degree D

in a fresh interpreter for D = 6, 7, ..., timing the whole process, and
stops at the first degree that outlives the 10 s budget (the run is killed
then) or exits nonzero. The frontier is the last degree that finished with
exit 0 inside the budget; degrees below 6 are taken to be cheaper. The
source tree is the one this script sits in (its `src/` goes first on
PYTHONPATH), so nothing needs to be installed.

    python3 tools/frontier.py

Prints one Markdown table row per suite: the frontier degree and its wall
time, and what happened at the next degree. Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SUITES = ("boson-fermion", "frenkel-kac", "relations", "geometric", "fixed-points")
SRC = Path(__file__).resolve().parent.parent / "src"


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


def frontier(suite: str, l: int, budget: float, start: int):
    """(frontier degree or None, its seconds, next degree, its outcome).

    Run time grows with the degree, so the budget ends the climb.
    """
    best, best_s, degree = None, None, start
    while True:
        outcome, seconds = run_once(suite, l, degree, budget)
        if outcome != "ok":
            return best, best_s, degree, f"{outcome} after {seconds:.1f} s"
        best, best_s, degree = degree, seconds, degree + 1


def main() -> int:
    l, budget, start = 3, 10.0, 6
    print(f"| suite (l={l}) | frontier at {budget:g} s | next degree |")
    print("|---|---|---|")
    for suite in SUITES:
        best, best_s, nxt, outcome = frontier(suite, l, budget, start)
        if best is None:
            found = f"below d = {nxt}"
        else:
            found = f"d = {best} ({best_s:.1f} s)"
        print(f"| {suite} | {found} | d = {nxt}: {outcome} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
