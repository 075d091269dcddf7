"""Desk-scale acceptance gate.

Each test covers one acceptance criterion, prints a single [PASS]/[FAIL]
line, and asserts. Windows are fixed; everything is exact arithmetic.
"""

import json
import subprocess
import sys
import time

from affine_fock import core_quotient as cq
from affine_fock import equivariant as eq
from affine_fock import fock
from affine_fock import frenkel_kac as fk
from affine_fock import partitions as pt


def _report(capsys, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(("[PASS] " if ok else "[FAIL] ") + label)


def test_01_core_quotient_round_trip_and_size_law(capsys):
    ok = True
    for l in (2, 3, 4, 5):
        for lam in pt.partitions_up_to(12):
            c, q = cq.core_and_quotient(lam, l)
            if cq.cq_inverse(c, q, l) != lam:
                ok = False
            core_size = pt.size(cq.core_partition(c, l))
            if pt.size(lam) != core_size + l * sum(pt.size(p) for p in q):
                ok = False
    _report(capsys, ok, "01 core/quotient round trip and size law (l in 2..5, size <= 12)")
    assert ok


def test_02_dimension_vector_and_character_identity(capsys):
    ok = True
    for l in (2, 3, 4, 5):
        for lam in pt.partitions_up_to(12):
            c, q = cq.core_and_quotient(lam, l)
            hooks = sum(pt.size(p) for p in q)
            if eq.points_vector(c, hooks, l) != pt.residue_counts(lam, l):
                ok = False
            if cq.quotient_char_rhs(c, q, l) != pt.diagonal_char(lam):
                ok = False
    _report(capsys, ok, "02 residue dimension vector and blockwise character identity (l in 2..5, size <= 12)")
    assert ok


def test_03_boson_fermion_correspondence(capsys):
    report = fock.verify_boson_fermion(max_degree=6, max_charge=2)
    ok = report["status"] == "ok" and report["failures"] == []
    _report(capsys, ok, "03 boson-fermion field identities (degree <= 6, |charge| <= 2)")
    assert ok, report["failures"][:3]


def test_04_intertwining_explicit_vs_vertex(capsys):
    reports = [fk.verify_intertwining(l, 6) for l in (2, 3)]
    ok = all(r["status"] == "ok" for r in reports)
    _report(capsys, ok, "04 explicit action matches vertex-operator action (l in {2,3}, size <= 6, all generators)")
    assert ok, [r["failures"][:3] for r in reports]


def test_05_affine_relations(capsys):
    report = fk.verify_relations(3, 6)
    ok = report["status"] == "ok" and report["failures"] == []
    _report(capsys, ok, "05 Cartan, e/f, and Serre relations on degree <= 6 slices (l = 3)")
    assert ok, report["failures"][:3]


def test_06_fixed_point_correspondence(capsys):
    reports = [eq.verify_fixed_points(l, 12) for l in (2, 3, 4, 5)]
    ok = all(r["status"] == "ok" and r["failures"] == [] for r in reports)
    _report(capsys, ok, "06 chamber characters agree across the bijection (l in 2..5, size <= 12)")
    assert ok


def test_07_tangent_two_formulas_and_hook_bijection(capsys):
    ok = True
    for l in (2, 3, 4):
        for lam in pt.partitions_up_to(10):
            if eq.tangent_char_formula(lam, l) != eq.tangent_char_point(lam, l):
                ok = False
            gaps = sorted(int(y - x) for x, y in eq.hook_pairs(lam, l))
            hooks = sorted(h for h in pt.hook_lengths(lam).values() if h % l == 0)
            if gaps != hooks:
                ok = False
    _report(capsys, ok, "07 tangent character two ways plus Maya hook pairing (l in 2..4, size <= 10)")
    assert ok


def test_08_geometric_coefficients_match(capsys):
    reports = [eq.verify_geometric_match(l, 10) for l in (2, 3)]
    ok = all(r["status"] == "ok" and r["failures"] == [] for r in reports)
    _report(capsys, ok, "08 localization coefficients match the explicit action, parity congruence (l in {2,3})")
    assert ok, [r["failures"][:3] for r in reports]


SEAM_FLIPS = [
    (
        "from affine_fock import frenkel_kac as fk\nfk.ETA_SCAN_SIDE = 'right'",
        ["verify", "--suite", "frenkel-kac", "--l", "2", "--degree", "4"],
    ),
    (
        # at l = 2 the sign table has a single entry and this flip is a
        # no-op, so the probe runs at l = 3
        "from affine_fock import frenkel_kac as fk\nfk.EPSILON_NEG_OFFSETS = (0,)",
        ["verify", "--suite", "frenkel-kac", "--l", "3", "--degree", "4"],
    ),
    (
        "from affine_fock import fock\nfock.FERMION_SIGN = 1",
        ["verify", "--suite", "boson-fermion", "--l", "2", "--degree", "4"],
    ),
]


def test_09_mutation_sensitivity(capsys):
    # each flipped sign convention must be caught by some suite at low degree
    codes = []
    for patch, argv in SEAM_FLIPS:
        script = (
            f"{patch}\n"
            "import sys\n"
            "from affine_fock import cli\n"
            f"sys.exit(cli.main({argv!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        codes.append(proc.returncode)
    ok = codes == [1, 1, 1]
    _report(capsys, ok, f"09 each flipped sign convention breaks a suite at degree <= 4 (exit codes {codes})")
    assert ok


def test_10_deterministic_reports(capsys):
    cmd = [
        sys.executable, "-m", "affine_fock",
        "verify", "--suite", "all", "--l", "3", "--degree", "6",
    ]
    start = time.monotonic()
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and json.loads(first.stdout)["status"] == "ok"
        and elapsed < 600
    )
    _report(capsys, ok, f"10 verify --suite all twice: byte-identical, exit 0 ({elapsed:.1f}s)")
    assert ok
