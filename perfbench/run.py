"""Benchmark for affine_fock: four closed-loop workloads, timed end to end.

Usage, from the repository root:

    python3 perfbench/run.py --workload bf-kernel --seed 1 --seconds 20 --trace 0

Every workload is one client that waits for each answer. The three batch
workloads run CLI commands, each in a fresh interpreter, because a CLI user
pays for cold module caches on every run. query-stream sends a seeded list
of single-shape queries to one long-lived server process (stream.py). The
program runs from source (PYTHONPATH=src, no bytecode written), so no
install is needed.

--trace 0 repeats whole passes of the workload for --seconds and prints the
end-to-end metrics; a pass is timed from its first process spawn until its
last process has exited, and its outputs are checked after the clock stops.
For the batch workloads a "query" is one whole pass, the command sequence a
user waits for: its commands differ too much in cost for pooled percentiles
over them to mean anything. Like wall_s and queries_per_s, the query
percentiles are medians over passes: of each pass's nearest-rank p50 and
p99, so one contended pass does not set the tail. A query-stream pass has
stream.QUERIES_PER_PASS samples; the metadata line says how many lie beyond a
pass's p99 and names the highest percentile with at least ten beyond.
setup_s is the median time a fresh interpreter takes to import
affine_fock.cli. These times are rescaled to a reference speed of the host
(REFERENCE_S); the raw pass times and their factors are in the metadata
line. The per-layer figures of --trace 1 are raw. error_rate (failed over
attempted) is in the metadata line: it is 0 when the program is right, and
the result line carries both counts.

--trace 1 runs one plain pass and one pass with every layer wrapped
(tracing.py) and prints the per-layer counts and self times, the per-kind
query medians of the plain pass and the tracing overhead.

Every output is checked: a batch command must exit 0, report "status": "ok"
and print exactly the bytes recorded in GOLDEN at the seed commit; stream
answers are checked by an independent route (stream.check_answer). Equal
bytes do not show that a suite compared anything, so every run of a batch
workload also makes one traced pass, off the clock under --trace 0, in which
each command's witness layer (WITNESS) must be called as often as the
command's own enumeration implies (implied_checks); a command that falls
short counts as failed. A metadata line with the machine, interpreter and
source identity precedes the result line, which is the last line of stdout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stream  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.append(SRC)  # stream answers are checked against the package
ENV = dict(
    os.environ,
    PYTHONPATH=SRC + os.pathsep + HERE,
    PYTHONDONTWRITEBYTECODE="1",
)

# Batch workloads list (suite or "matrix f_0", l, degree), one fresh
# interpreter each; query-stream takes its inputs from stream.make_queries.
WORKLOADS = {
    "bf-kernel": [("boson-fermion", 3, 9)],
    "fk-transport": [
        ("frenkel-kac", 3, 10),
        ("geometric", 3, 14),
        ("fixed-points", 3, 14),
    ],
    "explicit-scan": [("relations", 3, 14), ("matrix f_0", 3, 18)],
    "query-stream": None,
}

# SHA-256 of each command's stdout at the seed commit: the byte contract.
GOLDEN = {
    ("boson-fermion", 3, 9): "5b06f1b5cb9baaf9e69960b3a96f96ec0bf00872aa5222d0d479d07990249a7a",
    ("frenkel-kac", 3, 10): "d17f411cd34ce53a3da543e2c0621905782974c37a4edba6b6acdbaad46b75fd",
    ("geometric", 3, 14): "d169d00430015620c6a1c1d440a4bbff97fb111c6172439991e5202365a80eba",
    ("fixed-points", 3, 14): "928ec601f53d81fba588b3bdb21bcb7874bb51a45269c451bd04aefe004e89ff",
    ("relations", 3, 14): "f38ed784f8cf5673e62ad4f61db26526bd7f7ba3c5e6560353d02fc7d4de1887",
    ("matrix f_0", 3, 18): "c60ec4d5b0d9a33176697f15edbcb395b0d06be63df7f700ed4a797a2522afbd",
}

# `python -m affine_fock`, which also writes its own peak resident set
# (VmHWM) to stderr at exit. The kernel's rusage of a child will not do: it
# counts the resident set of the process the child was forked from, the
# harness.
CLI_SNIPPET = (
    "import atexit, runpy, sys\n"
    "def report():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        sys.stderr.write(''.join(l for l in fh if l.startswith('VmHWM:')))\n"
    "atexit.register(report)\n"
    "runpy.run_module('affine_fock', run_name='__main__', alter_sys=True)\n"
)
SETUP_REPEATS = 21
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import affine_fock.cli; "
    "print(time.perf_counter() - t)"
)
# The host's speed drifts by up to 2x over tens of seconds, whatever runs on
# it. Every time metric is therefore rescaled to a reference speed: a fixed
# pure-Python loop (reference_time) is timed right before and right after
# each pass, and the pass's times are multiplied by REFERENCE_S over the mean
# of the two. REFERENCE_S is what the loop took on a 2-vCPU Xeon VM, so the
# figures stay close to that machine's seconds. The loop never touches the
# package, so a change to the package shows in full.
REFERENCE_ITERATIONS = 50_000
REFERENCE_REPEATS = 5
REFERENCE_S = 0.016
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
QUERY_KINDS = [kind for kind, _ in stream.MIX]
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


# ------------------------------------------------------------- arithmetic

def _rank(n: int, p: float) -> int:
    # rounded first so that, say, 99.9 % of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(samples, p: float) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(samples, p: float) -> int:
    """Number of samples ranked above the nearest-rank p-th percentile."""
    return len(samples) - _rank(len(samples), p)


def tail_percentile(samples):
    """The highest percentile of TAIL_LADDER with at least ten samples beyond
    it, as (p, value), or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if beyond(samples, p) >= 10:
            return p, percentile(samples, p)
    return None


# ------------------------------------------------------- suite enumeration

def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _shapes(degree: int):
    return [lam for n in range(degree + 1) for lam in _partitions(n)]


def relation_checks(l: int, degree: int) -> tuple[int, int]:
    """(commutator checks, Serre checks) of the relations suite."""
    # [h_i, e_j] always; [h_i, f_j] and [e_i, f_j] with one node of room;
    # for i != j the e-Serre relation, and the f-Serre one with room for
    # its 1 - a_ij + 1 nodes (a_ij the cyclic Cartan entry)
    commutators = serre = 0
    for lam in _shapes(degree):
        room = degree - sum(lam)
        for i in range(l):
            for j in range(l):
                commutators += 1 + 2 * (room >= 1)
                if i != j:
                    power = 1 + (j == (i + 1) % l) + (j == (i - 1) % l)
                    serre += 1 + (room >= power + 1)
    return commutators, serre


@functools.lru_cache(maxsize=None)
def implied_checks(command) -> int:
    """Comparisons a command makes, counted from its own enumeration."""
    suite, l, degree = command
    shapes = _shapes(degree)
    if suite == "boson-fermion":
        # every charge |c| <= 2 and mode k + 1/2, |k| <= degree + 4, for
        # psi and psi_star, while the image stays inside the degree window
        reach = degree + 4
        return sum(
            (sum(lam) + k + c <= degree) + (sum(lam) - k - 1 - c <= degree)
            for lam in shapes
            for c in range(-2, 3)
            for k in range(-reach, reach)
        )
    if suite == "frenkel-kac":
        return 7 * l * len(shapes)  # e, f, h and four p modes per residue
    if suite == "geometric":
        # one coefficient and one parity check per removable node
        return sum(2 * len(set(lam)) for lam in shapes)
    if suite == "relations":
        return sum(relation_checks(l, degree))
    return len(shapes)  # fixed-points: one per shape; matrix: one per column


# The layer whose calls witness each command's comparisons, and the number
# of calls its enumeration implies. relations compares vectors (Vec.__eq__)
# in its commutator checks only: a Serre check tests whether a sum is zero,
# which no traced call marks, so Serre checks are counted but not witnessed.
WITNESS = {
    "boson-fermion": ("fock.fermion_field_coeff", implied_checks),
    "frenkel-kac": ("frenkel_kac.explicit_action", implied_checks),
    "geometric": ("equivariant.geometric_e", lambda c: implied_checks(c) // 2),
    "fixed-points": ("core_quotient.core_and_quotient", implied_checks),
    "relations": ("fock.Vec.eq", lambda c: relation_checks(c[1], c[2])[0]),
    "matrix f_0": ("frenkel_kac.explicit_action", implied_checks),
}


# ---------------------------------------------------------------- processes

def spawn(args):
    """Run a fresh interpreter; returns (stdout, stderr, exit code)."""
    done = subprocess.run([sys.executable, "-B", *args], capture_output=True, env=ENV)
    return done.stdout, done.stderr, done.returncode


def peak_rss_mb(err: bytes):
    """The peak resident set a CLI_SNIPPET process wrote to stderr, or None."""
    for line in err.decode(errors="replace").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return None


def argv_of(command) -> list[str]:
    suite, l, degree = command
    if suite.startswith("matrix "):
        head = ["matrix", "--g", suite.split()[1]]
    else:
        head = ["verify", "--suite", suite]
    return head + ["--l", str(l), "--degree", str(degree)]


def command_ok(command, out: bytes, code: int) -> bool:
    if code != 0 or hashlib.sha256(out).hexdigest() != GOLDEN[command]:
        return False
    return json.loads(out).get("status", "ok") == "ok"


def work_done(command, layers: dict) -> bool:
    """Whether a traced command made the comparisons its enumeration
    implies, judged by the calls of its witness layer (WITNESS)."""
    metric, expected = WITNESS[command[0]]
    return layers[metric]["calls"] == expected(command) > 0


def traced_layers(err: bytes):
    """The layer totals a traced command wrote to stderr, or None."""
    for line in err.decode(errors="replace").splitlines():
        if line.startswith(tracing.STATS_MARKER):
            return json.loads(line[len(tracing.STATS_MARKER):])
    return None


def batch_pass(commands, traced: bool) -> dict:
    entry = [os.path.join(HERE, "tracing.py")] if traced else ["-c", CLI_SNIPPET]
    start = time.perf_counter()
    results = [spawn(entry + argv_of(command)) for command in commands]
    wall = time.perf_counter() - start
    failed, checks, stats = 0, 0, []
    peaks = []
    for command, (out, err, code) in zip(commands, results):
        ok = command_ok(command, out, code)
        if traced:
            found = traced_layers(err)
            ok = ok and found is not None and work_done(command, found["layers"])
            stats += [found] if found else []
            checks += implied_checks(command) if ok else 0
        else:
            peaks.append(peak_rss_mb(err))
            ok = ok and peaks[-1] is not None
        failed += not ok
    return {
        "wall_s": wall,
        "serve_s": wall,
        "latencies": [wall],
        "by_kind": {},
        "rss_mb": max(filter(None, peaks), default=None),
        "attempted": len(commands),
        "failed": failed,
        "checks": checks,
        "stats": stats,
    }


def stream_pass(queries, traced: bool) -> dict:
    args = [os.path.join(HERE, "stream.py"), "serve"] + (["--trace"] if traced else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-B", *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=ENV,
        text=True,
    )
    lines, latencies = [], []
    first = time.perf_counter()
    for query in queries:
        began = time.perf_counter()
        proc.stdin.write(json.dumps(query) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        latencies.append(time.perf_counter() - began)
        if not line:
            break
        lines.append(line)
    last = time.perf_counter()
    proc.stdin.close()
    tail = proc.stdout.read()
    proc.stdout.close()
    proc.wait()
    wall = time.perf_counter() - start
    final = json.loads(tail) if tail.strip() else {}
    failed = len(queries) - len(lines) + (proc.returncode != 0 or not final)
    by_kind = {kind: [] for kind in QUERY_KINDS}
    checks = 0
    for query, line, seconds in zip(queries, lines, latencies):
        checks += stream.check_answer(query, json.loads(line))
        by_kind[query["kind"]].append(seconds)
    failed += len(lines) - checks
    stats = [final] if traced and final else []
    return {
        "wall_s": wall,
        "serve_s": last - first,
        "latencies": latencies,
        "by_kind": by_kind,
        "rss_mb": final.get("peak_rss_mb"),
        "attempted": len(queries),
        "failed": failed,
        "checks": checks,
        "stats": stats,
    }


def reference_time() -> float:
    """Median time of REFERENCE_REPEATS runs of a fixed dict-and-tuple loop."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        table: dict = {}
        for i in range(REFERENCE_ITERATIONS):
            key = (i & 1023, i >> 10)
            table[key] = table.get(key, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_at_reference_speed(action):
    """(action(), the factor that rescales its times to reference speed)."""
    before = reference_time()
    result = action()
    return result, 2 * REFERENCE_S / (before + reference_time())


def setup_times() -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        out, _, code = spawn(["-c", SETUP_SNIPPET])
        if code != 0:
            raise RuntimeError("affine_fock.cli does not import")
        times.append(float(out))
    return times


# ----------------------------------------------------------------- metrics

def end_to_end(setup: list[float], passes: list[dict]) -> dict:
    """Metrics from setup times and passes, each carrying its "scale"."""
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
        "queries_per_s": statistics.median(
            len(p["latencies"]) / (p["serve_s"] * p["scale"]) for p in passes
        ),
        "query_p50_ms": 1e3 * statistics.median(
            percentile(p["latencies"], 50) * p["scale"] for p in passes
        ),
        "query_p99_ms": 1e3 * statistics.median(
            percentile(p["latencies"], 99) * p["scale"] for p in passes
        ),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(plain: dict, traced: dict) -> dict:
    totals: dict = {name: {"calls": 0, "self_s": 0.0} for name in tracing.LAYERS}
    for stats in traced["stats"]:
        for name, layer in stats["layers"].items():
            totals[name]["calls"] += layer["calls"]
            totals[name]["self_s"] += layer["self_s"]
    metrics = {}
    for name, layer in totals.items():
        metrics[f"{name}.calls"] = {"value": layer["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": layer["self_s"], "unit": "s"}
    for kind in QUERY_KINDS:
        samples = plain["by_kind"].get(kind)
        value = 1e3 * percentile(samples, 50) if samples else 0.0
        metrics[f"query.{kind}.p50_ms"] = {"value": value, "unit": "ms"}
    metrics["suite.checks"] = {"value": traced["checks"], "unit": "count"}
    metrics["trace_overhead_ratio"] = {
        "value": traced["wall_s"] / plain["wall_s"],
        "unit": "ratio",
    }
    return metrics


def environment(args) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        )
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "affine_fock")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "query_seed": args.seed if args.workload == "query-stream" else None,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "affine_fock", "cli.py")):
        print("error: run from the repository root (src/affine_fock missing)", file=sys.stderr)
        return 2

    if args.workload == "query-stream":
        queries = stream.make_queries(args.seed)
        run_pass = lambda traced: stream_pass(queries, traced)  # noqa: E731
    else:
        commands = WORKLOADS[args.workload]
        run_pass = lambda traced: batch_pass(commands, traced)  # noqa: E731

    info = environment(args)
    if args.trace:
        passes = [run_pass(False), run_pass(True)]
        metrics = per_layer(*passes)
        info["absent"] = sorted({a for s in passes[1]["stats"] for a in s["absent"]})
    else:
        setup, scale = timed_at_reference_speed(setup_times)
        setup = [t * scale for t in setup]
        passes = []
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline:
            done, scale = timed_at_reference_speed(lambda: run_pass(False))
            passes.append(dict(done, scale=scale))
        metrics = end_to_end(setup, passes)
        info["pass_scale"] = [p["scale"] for p in passes]
        latencies = [s * passes[0]["scale"] for s in passes[0]["latencies"]]
        info["samples_per_pass"] = len(latencies)
        info["beyond_p99_per_pass"] = beyond(latencies, 99)
        info["first_pass_tail_percentile"] = tail_percentile(latencies)
        if args.workload != "query-stream":
            # off the clock: one traced pass shows each suite did its work
            passes.append(run_pass(True))
    info["passes"] = len(passes)
    info["pass_wall_s"] = [p["wall_s"] for p in passes]
    info["checks_confirmed"] = passes[-1]["checks"]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info["error_rate"] = failed / attempted
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
