"""The query-stream workload: seeded single-shape queries and their server.

make_queries builds the inputs from a seed alone, without the package. Each
pool shape is built on an l-abacus: beads are packed at the bottom of the l
runners (an l-core), then w beads each move up one step, which adds w
l-rim-hooks, so the shape's total quotient size is exactly w. act_fk queries
draw only shapes with w <= FK_MAX_WEIGHT, because the vertex route grows
steeply with quotient size: a size-40 shape at l=3 with a large quotient
takes seconds.

The traffic is assumed, not measured: no record of real queries exists. The
three kinds get equal shares, the plainest split. The pool holds the same
number of shapes for each quotient weight 0..BAND_SPLIT // l, in each of two
size bands and for each l, because quotient weight is what sets the cost of
the transport and vertex routes; drawing shapes uniformly by size instead
would leave almost no shapes light enough for act_fk.

serve answers one JSON query per stdin line with one JSON answer line,
through the package's public functions, and at end of input writes a last
line with its own peak resident set and exits. With --trace it wraps the
layers first and adds their totals to that line:

    PYTHONPATH=src python3 -B perfbench/stream.py serve [--trace]

check_answer verifies an answer in the client, by routes independent of the
one the query ran: the abacus weight for cq_roundtrip, the localization
coefficients (equivariant.geometric_e) for act_explicit, and the explicit
boundary scan for act_fk.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

LEVELS = (3, 4, 5)
# Pool shapes per level: one for each quotient weight 0..(BAND_SPLIT // l)
# in each of the two size bands, so every seed draws the same mix of costs.
SIZE_BANDS = ((12, 26), (27, 40))
BAND_SPLIT = 24
FK_MAX_WEIGHT = 4
QUERIES_PER_PASS = 3000
# Share of each kind in the stream, in this order: equal, as no traffic
# has been measured.
MIX = (("cq_roundtrip", 1 / 3), ("act_explicit", 1 / 3), ("act_fk", 1 / 3))
# Beads on each abacus runner before its offset is added.
RUNNER_BEADS = 12


def abacus_shape(l: int, runner_offsets, moves, rng: random.Random):
    """Partition from an l-abacus: packed runners, then `moves` bead lifts."""
    beads = set()
    for k, offset in enumerate(runner_offsets):
        beads.update(k + l * j for j in range(RUNNER_BEADS + offset))
    for _ in range(moves):
        bead = rng.choice(sorted(b for b in beads if b + l not in beads))
        beads.remove(bead)
        beads.add(bead + l)
    ordered = sorted(beads, reverse=True)
    top = len(ordered) - 1
    return tuple(b - (top - i) for i, b in enumerate(ordered) if b - (top - i) > 0)


def make_pool(rng: random.Random) -> list[dict]:
    pool = []
    for l in LEVELS:
        for weight in range(BAND_SPLIT // l + 1):
            for low, high in SIZE_BANDS:
                while True:
                    offsets = [rng.randint(-4, 4) for _ in range(l - 1)]
                    offsets.append(-sum(offsets))
                    lam = abacus_shape(l, offsets, weight, rng)
                    if low <= sum(lam) <= high:
                        break
                pool.append({"l": l, "lam": list(lam), "weight": weight})
    return pool


def make_queries(seed: int) -> list[dict]:
    """A fixed, shuffled list of queries; each kind cycles through its pool
    entries, so every shape repeats and shares cached work."""
    rng = random.Random(seed)
    pool = make_pool(rng)
    queries = []
    for kind, share in MIX:
        entries = pool
        if kind == "act_fk":
            entries = [entry for entry in pool if entry["weight"] <= FK_MAX_WEIGHT]
        for n in range(round(share * QUERIES_PER_PASS)):
            entry = entries[n % len(entries)]
            query = {"kind": kind, **entry}
            if kind != "cq_roundtrip":
                query["g"] = f"{rng.choice('ef')}_{rng.randrange(entry['l'])}"
            queries.append(query)
    rng.shuffle(queries)
    return queries


# ------------------------------------------------------------------ server

def _image_json(v) -> list:
    return sorted([list(lam), str(coeff)] for lam, coeff in v.terms.items())


def answer(query: dict) -> dict:
    from affine_fock import core_quotient, fock, frenkel_kac

    l, lam = query["l"], tuple(query["lam"])
    kind = query["kind"]
    if kind == "cq_roundtrip":
        c, q = core_quotient.core_and_quotient(lam, l)
        back = core_quotient.cq_inverse(c, q, l)
        return {"c": list(c), "q": [list(p) for p in q], "lam": list(back)}
    v = fock.Vec.basis(lam)
    if kind == "act_explicit":
        return {"image": _image_json(frenkel_kac.explicit_action(query["g"], v, l))}
    moved = frenkel_kac.fk_action(query["g"], frenkel_kac.transport(v, l), l)
    return {"image": _image_json(frenkel_kac.transport_inverse(moved, l))}


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def serve(traced: bool) -> None:
    patches = tracer = None
    if traced:
        from tracing import Patches, Tracer

        tracer = Tracer()
        patches = Patches(tracer).install()
    try:
        for line in sys.stdin:
            try:
                reply = answer(json.loads(line))
            except Exception as exc:  # reported to the client as a failure
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        if patches is not None:
            patches.restore()
    final = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        final.update(layers=tracer.totals(), absent=patches.absent)
    sys.stdout.write(json.dumps(final) + "\n")


# ------------------------------------------------------------------- check

def _boundary(lam, l: int, i: int):
    """Removable and addable nodes of residue i (content row - column)."""
    removable, addable = [], []
    for a in range(len(lam) + 1):
        row = lam[a] if a < len(lam) else 0
        below = lam[a + 1] if a + 1 < len(lam) else 0
        if row > below and (a - row + 1) % l == i:
            rows = list(lam)
            rows[a] -= 1
            removable.append(tuple(p for p in rows if p))
        if (a == 0 or row < lam[a - 1]) and (a - row) % l == i:
            rows = list(lam) + [0]
            rows[a] += 1
            addable.append(tuple(p for p in rows if p))
    return removable, addable


def expected_explicit(query: dict) -> list:
    """e_i / f_i image by localization: geometric_e, normalized."""
    from affine_fock import equivariant

    l, lam = query["l"], tuple(query["lam"])
    kind, i = query["g"][0], int(query["g"][2:])
    removable, addable = _boundary(lam, l, i)
    image = []
    norm = equivariant.normalization
    if kind == "e":
        for mu in removable:
            coeff = equivariant.geometric_e(i, lam, mu, l) * Fraction(norm(mu, l), norm(lam, l))
            image.append([list(mu), str(coeff)])
    else:
        # <f_i lam, mu> = <e_i mu, lam>: the two are adjoint on this basis.
        for mu in addable:
            coeff = equivariant.geometric_e(i, mu, lam, l) * Fraction(norm(lam, l), norm(mu, l))
            image.append([list(mu), str(coeff)])
    return sorted(image)


def check_answer(query: dict, reply: dict) -> bool:
    if "error" in reply:
        return False
    if query["kind"] == "cq_roundtrip":
        c, q = reply["c"], reply["q"]
        return (
            reply["lam"] == query["lam"]
            and len(c) == len(q) == query["l"]
            and sum(c) == 0
            and sum(map(sum, q)) == query["weight"]
        )
    if query["kind"] == "act_explicit":
        return reply["image"] == expected_explicit(query)
    from affine_fock import fock, frenkel_kac

    lam = tuple(query["lam"])
    want = frenkel_kac.explicit_action(query["g"], fock.Vec.basis(lam), query["l"])
    return reply["image"] == _image_json(want)


if __name__ == "__main__":
    if sys.argv[1:2] != ["serve"]:
        sys.exit("usage: stream.py serve [--trace]")
    serve("--trace" in sys.argv[2:])
