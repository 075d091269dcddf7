"""Command-line front end.

Subcommands: core-quotient (the bijection and its inverse), act (apply one
generator to one basis vector in a chosen realization), verify (run a named
consistency suite and exit nonzero on mismatch), matrix (operator matrix on
the graded-lex basis slice). Output is JSON by default, deterministic byte
for byte; --pretty switches to a short human form.

Exit codes: 0 success, 1 suite mismatch, 2 malformed input, 3 constraint
violation, 4 a --degree above MAX_DEGREE (40), an --l above MAX_L (1000) or
a --g p_i(m) whose mode m exceeds MAX_DEGREE in size.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import core_quotient, equivariant, fock, frenkel_kac
from .frenkel_kac import (
    explicit_action,
    parse_generator,
    shape_sort_key,
    shape_vec_json,
    transport,
    transport_inverse,
)
from .partitions import (
    Vec,
    as_partition,
    partitions_up_to,
    remove_node,
    residue_boundary,
)


# Largest --degree accepted: the degree-40 slice already holds 215,308
# shapes and takes about 44 MB peak RSS just to enumerate, before any
# suite work. A constant, not an option.
MAX_DEGREE = 40

# Largest --l accepted: at --degree 0 relations checks all l^2 pairs (i, j)
# and frenkel-kac meets rim hooks of size 2l, so verify --suite all takes
# 14 s and 85 MB peak RSS at l = 1000. A constant, not an option.
MAX_L = 1000


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _check_l(value: int) -> int:
    if value < 2:
        raise _CliError(2, f"--l must be at least 2, got {value}")
    if value > MAX_L:
        raise _CliError(4, f"--l {value} exceeds the limit {MAX_L}")
    return value


def _check_degree(value: int) -> int:
    if value < 0:
        raise _CliError(2, f"--degree must be nonnegative, got {value}")
    if value > MAX_DEGREE:
        raise _CliError(4, f"--degree {value} exceeds the limit {MAX_DEGREE}")
    return value


def _check_mode(mode: int | None) -> None:
    if mode is not None and abs(mode) > MAX_DEGREE:  # a mode of p_i(m) is a degree
        raise _CliError(4, f"--g mode {mode} exceeds the limit {MAX_DEGREE}")


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(2, f"malformed {what}: {exc}") from exc


def _load_partition(text: str) -> tuple[int, ...]:
    return _as_partition(_load_json(text, "--lambda"), "--lambda")


def _as_partition(data, what: str) -> tuple[int, ...]:
    if not isinstance(data, list) or not all(type(p) is int for p in data):
        raise _CliError(2, f"{what} must be a JSON list of integers")
    try:
        return as_partition(data)
    except ValueError as exc:
        raise _CliError(2, f"{what}: {exc}") from exc


def _plabel(lam) -> str:
    return json.dumps(list(lam), separators=(",", ":"))


def _pretty_vec(entries: list) -> list[str]:
    if not entries:
        return ["0"]
    return [f"{e['coeff']} * {_plabel(e['label']['partition'])}" for e in entries]


def _emit(args, obj, pretty_lines) -> None:
    # pretty_lines() is called only under --pretty, so JSON mode formats none
    if getattr(args, "pretty", False):
        for line in pretty_lines():
            print(line)
    else:
        print(json.dumps(obj))


# ----------------------------------------------------------- subcommands

def cmd_core_quotient(args) -> int:
    l = _check_l(args.l)
    if args.inverse:
        if args.c is None or args.q is None:
            raise _CliError(2, "--inverse needs --c and --q")
        c = _load_json(args.c, "--c")
        q = _load_json(args.q, "--q")
        if not isinstance(c, list) or not all(type(x) is int for x in c):
            raise _CliError(2, "--c must be a JSON list of integers")
        if not isinstance(q, list) or not all(isinstance(p, list) for p in q):
            raise _CliError(2, "--q must be a JSON list of partitions")
        parts = tuple(_as_partition(p, "--q entry") for p in q)
        try:
            lam = core_quotient.cq_inverse(c, parts, l)
        except ValueError as exc:
            raise _CliError(3, str(exc)) from exc
        out = {
            "l": l,
            "core_vector": list(c),
            "quotient": [list(p) for p in parts],
            "lambda": list(lam),
        }
        _emit(args, out, lambda: [f"lambda = {_plabel(lam)}"])
        return 0
    if args.lam is None:
        raise _CliError(2, "need --lambda (or --inverse with --c/--q)")
    lam = _load_partition(args.lam)
    c, q = core_quotient.core_and_quotient(lam, l)
    round_trip = core_quotient.cq_inverse(c, q, l) == lam
    out = {
        "l": l,
        "lambda": list(lam),
        "core_vector": list(c),
        "quotient": [list(p) for p in q],
        "round_trip_ok": round_trip,
    }
    _emit(args, out, lambda: [
        f"c = {_plabel(c)}",
        f"q = {_plabel(map(list, q))}",
        f"round trip ok: {str(round_trip).lower()}",
    ])
    return 0


def _geometric_image(i: int, lam, l: int) -> Vec:
    terms = {}
    for x, step, _ in residue_boundary(lam, i, l)[1]:
        if step > 0:
            continue
        mu = remove_node(lam, x)
        terms[mu] = equivariant.geometric_e(i, lam, mu, l) * Fraction(
            equivariant.normalization(mu, l), equivariant.normalization(lam, l)
        )
    return Vec(terms)


def cmd_act(args) -> int:
    l = _check_l(args.l)
    lam = _load_partition(args.lam)
    try:
        kind, p, q, mode = parse_generator(args.g, l)  # the one parse of --g
        _check_mode(mode)  # before the action
        if args.side == "explicit":
            image = Vec.basis(lam).apply(frenkel_kac._explicit_map(kind, p, q, mode, l))
        elif args.side == "frenkel-kac":
            moved = transport(Vec.basis(lam), l).apply(frenkel_kac._fk_map(kind, p, q, mode, l))
            image = transport_inverse(moved, l)
        elif kind != "e":
            raise ValueError("--side geometric supports only e_i generators")
        else:
            image = _geometric_image(q, lam, l)
    except ValueError as exc:
        raise _CliError(2, str(exc)) from exc
    entries = shape_vec_json(image)
    out = {
        "generator": args.g,
        "l": l,
        "lambda": list(lam),
        "side": args.side,
        "image": entries,
    }
    _emit(args, out, lambda: _pretty_vec(entries))
    return 0


# Suite name to runner(l, degree), in the order `--suite all` runs them.
_SUITES = {
    "boson-fermion": lambda l, degree: fock.verify_boson_fermion(degree, max_charge=2),
    "frenkel-kac": frenkel_kac.verify_intertwining,
    "geometric": equivariant.verify_geometric_match,
    "fixed-points": equivariant.verify_fixed_points,
    "relations": frenkel_kac.verify_relations,
}


def cmd_verify(args) -> int:
    l = _check_l(args.l)
    _check_degree(args.degree)
    names = _SUITES if args.suite == "all" else (args.suite,)
    reports = {name: _SUITES[name](l, args.degree) for name in names}
    ok = all(rep["status"] == "ok" for rep in reports.values())
    if args.suite == "all":
        out = {
            "suite": "all",
            "status": "ok" if ok else "mismatch",
            "l": l,
            "degree": args.degree,
            "suites": reports,
        }
    else:
        out = {"suite": args.suite, **reports[args.suite]}
    _emit(args, out, lambda: [
        f"suite {name}: {rep['status']} ({len(rep['failures'])} failures)"
        for name, rep in reports.items()
    ])
    return 0 if ok else 1


def cmd_matrix(args) -> int:
    l = _check_l(args.l)
    _check_degree(args.degree)

    def apply_fn(lam) -> Vec:
        return explicit_action(args.g, Vec.basis(lam), l)

    try:
        _check_mode(parse_generator(args.g, l)[3])  # before the slice is enumerated
        labels = partitions_up_to(args.degree)
        rows, cols, entries = fock.operator_matrix(apply_fn, labels, shape_sort_key)
    except ValueError as exc:
        raise _CliError(2, str(exc)) from exc
    items = sorted(entries.items())
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["row", "col", "value"])
        for (ri, ci), value in items:
            writer.writerow([_plabel(rows[ri]), _plabel(cols[ci]), str(value)])
        return 0
    out = {
        "generator": args.g,
        "l": l,
        "degree": args.degree,
        "rows": [list(r) for r in rows],
        "cols": [list(c) for c in cols],
        "entries": [
            {"row": ri, "col": ci, "value": str(value)}
            for (ri, ci), value in items
        ],
    }
    _emit(args, out, lambda: [
        f"{_plabel(rows[ri])} <- {_plabel(cols[ci])}: {value}"
        for (ri, ci), value in items
    ] or ["empty"])
    return 0


# ----------------------------------------------------------------- driver

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-fock",
        description="Exact level-one Fock space computations and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("core-quotient", help="core vector and quotient tuple")
    p.add_argument("--l", type=int, required=True, help="number of residue classes")
    p.add_argument("--lambda", dest="lam", help="partition as a JSON list")
    p.add_argument("--inverse", action="store_true", help="rebuild lambda from --c/--q")
    p.add_argument("--c", help="core vector as a JSON list (with --inverse)")
    p.add_argument("--q", help="quotient tuple as a JSON list of lists (with --inverse)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_core_quotient)

    p = sub.add_parser("act", help="apply one generator to one basis vector")
    p.add_argument("--g", required=True, help="generator: e_i, f_i, h_i, or p_i(m)")
    p.add_argument("--lambda", dest="lam", required=True, help="partition as a JSON list")
    p.add_argument("--l", type=int, required=True)
    p.add_argument(
        "--side",
        choices=["explicit", "frenkel-kac", "geometric"],
        default="explicit",
        help="realization to compute in",
    )
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("verify", help="run a consistency suite")
    p.add_argument("--suite", choices=list(_SUITES) + ["all"], required=True)
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("matrix", help="operator matrix on the degree slice")
    p.add_argument("--g", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_matrix)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
