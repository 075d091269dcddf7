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

Each run writes its own peak resident set (VmHWM) to stderr at exit, as
perfbench's batch commands do; the kernel's rusage of a child would count
the resident set of this script, which it was forked from. A killed run
reports no peak.

    python3 tools/frontier.py [--suite S] [--against TREE] [rows.json]

Prints one Markdown table row per suite: the frontier degree with the
median and the min-max of its three wall times and the median peak
resident set of its runs, and what happened at the next degree. Given a
path, it also writes the same rows there as a JSON list (see `as_row`).
`--suite` climbs only the suites named (it may be repeated). `--against
TREE` also climbs another checkout, such as the parent commit, in
lockstep with this one: at each degree the two trees run one after the
other, taking turns to go first, so drift in machine speed over a long
climb falls on both alike; each row then names its source tree ("this"
or TREE as given). Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

SUITES = ("boson-fermion", "frenkel-kac", "relations", "geometric", "fixed-points")
SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 3  # timed runs per degree; a degree passes when most exit 0 in time
# `python -m affine_fock` that writes its own VmHWM line to stderr at exit
CLI_SNIPPET = (
    "import atexit, runpy, sys\n"
    "def report():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        sys.stderr.write(''.join(l for l in fh if l.startswith('VmHWM:')))\n"
    "atexit.register(report)\n"
    "runpy.run_module('affine_fock', run_name='__main__', alter_sys=True)\n"
)


def run_once(suite: str, l: int, degree: int, budget: float, src: Path = SRC) -> tuple:
    """Run one verify command on the tree with source directory src;
    return ("ok" | "timeout" | "exit N", seconds, peak MiB or None).

    A timer kills the run at the budget while this thread blocks reading
    the child's stderr to its end, so the time is not rounded up to the
    polling step of a wait with a timeout (about 50 ms).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, "-B", "-c", CLI_SNIPPET, "verify", "--suite", suite,
            "--l", str(l), "--degree", str(degree)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    killed = threading.Event()
    timer = threading.Timer(budget, lambda: (killed.set(), proc.kill()))
    timer.start()
    try:
        _, err = proc.communicate()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if killed.is_set():
        return "timeout", elapsed, None
    peak = next((int(line.split()[1]) / 1024 for line in err.decode(errors="replace").splitlines()
                 if line.startswith("VmHWM:")), None)
    return ("ok" if proc.returncode == 0 else f"exit {proc.returncode}"), elapsed, peak


def run_degree(suite: str, l: int, degree: int, budget: float, src: Path = SRC) -> tuple[bool, list]:
    """Run one degree up to RUNS times; return (passed, [run_once result]).

    The runs stop once a majority has failed, since the degree cannot pass.
    """
    runs = []
    while len(runs) < RUNS:
        runs.append(run_once(suite, l, degree, budget, src))
        if sum(outcome != "ok" for outcome, *_ in runs) > RUNS // 2:
            return False, runs
    return True, runs


def spread(runs) -> tuple:
    """(median, min, max) of the runs' seconds, and the median peak MiB of
    the runs that reported one (None if none did)."""
    seconds = sorted(s for _, s, _ in runs)
    peaks = sorted(p for *_, p in runs if p is not None)
    peak = peaks[len(peaks) // 2] if peaks else None
    return seconds[len(seconds) // 2], seconds[0], seconds[-1], peak


def climb(suite: str, l: int, budget: float, start: int, srcs) -> list[tuple]:
    """Climb the frontier of each source tree in srcs in lockstep; return,
    per tree, (frontier degree or None, spread of its seconds and peak,
    next degree, what its runs gave).

    Run time grows with the degree, so the budget ends each climb. At each
    degree the trees still climbing run one after the other, the first
    going first at even degrees.
    """
    best = [(None, None)] * len(srcs)
    done: dict = {}
    degree = start
    while len(done) < len(srcs):
        order = range(len(srcs)) if degree % 2 == 0 else reversed(range(len(srcs)))
        for k in order:
            if k in done:
                continue
            passed, runs = run_degree(suite, l, degree, budget, srcs[k])
            if passed:
                best[k] = degree, spread(runs)
            else:
                done[k] = (*best[k], degree, ", ".join(f"{o} after {s:.1f} s" for o, s, _ in runs))
        degree += 1
    return [done[k] for k in range(len(srcs))]


def frontier(suite: str, l: int, budget: float, start: int):
    """(frontier degree or None, spread of its seconds and peak, next
    degree, what its runs gave) for the tree this script sits in."""
    return climb(suite, l, budget, start, [SRC])[0]


def as_row(suite: str, l: int, budget: float, best, best_s, nxt, outcome, tree=None) -> dict:
    """One frontier result as a JSON object; peak_rss_mb is the median
    over the frontier degree's runs, and it and the seconds are None when
    no degree passed. A tree, when given, names the checkout climbed."""
    median_s, min_s, max_s, peak = best_s or (None, None, None, None)
    row = {"suite": suite, "l": l, "budget_s": budget, "runs": RUNS,
           "frontier": best, "median_s": median_s, "min_s": min_s, "max_s": max_s,
           "peak_rss_mb": peak, "next_degree": nxt, "next_outcome": outcome}
    if tree is not None:
        row["tree"] = tree
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Degree frontier of the verify suites.")
    parser.add_argument("rows", nargs="?", help="also write the rows to this JSON file")
    parser.add_argument("--suite", action="append", choices=SUITES,
                        help="climb only this suite (repeatable; default: all)")
    parser.add_argument("--against", metavar="TREE",
                        help="also climb this checkout, in lockstep with this one")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    l, budget, start = 3, 10.0, 6
    trees = ["this"] + ([args.against] if args.against else [])
    srcs = [SRC] + ([Path(args.against).resolve() / "src"] if args.against else [])
    rows = []
    print(f"| suite (l={l}) | frontier at {budget:g} s, median (min-max) of {RUNS}, peak RSS "
          "| next degree |")
    print("|---|---|---|")
    for suite in args.suite or SUITES:
        for tree, result in zip(trees, climb(suite, l, budget, start, srcs)):
            best, best_s, nxt, outcome = result
            label = f"{suite} @ {tree}" if args.against else suite
            rows.append(as_row(suite, l, budget, *result, tree=tree if args.against else None))
            if best is None:
                found = f"below d = {nxt}"
            else:
                median_s, min_s, max_s, peak = best_s
                mb = "?" if peak is None else f"{peak:.0f}"
                found = f"d = {best} ({median_s:.1f} s, {min_s:.1f}-{max_s:.1f}, {mb} MB)"
            print(f"| {label} | {found} | d = {nxt}: {outcome} |", flush=True)
    if args.rows:
        Path(args.rows).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
