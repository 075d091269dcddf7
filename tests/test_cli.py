import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from affine_fock import cli
from affine_fock import frenkel_kac as fk
from affine_fock.partitions import Vec, partitions_up_to


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "affine_fock", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_core_quotient_forward_frozen(capsys):
    code, out, err = run_main(capsys, "core-quotient", "--l", "2", "--lambda", "[1]")
    assert code == 0 and err == ""
    assert out == (
        '{"l": 2, "lambda": [1], "core_vector": [1, -1],'
        ' "quotient": [[], []], "round_trip_ok": true}\n'
    )


def test_core_quotient_pretty(capsys):
    code, out, _ = run_main(
        capsys, "core-quotient", "--l", "2", "--lambda", "[1]", "--pretty"
    )
    assert code == 0
    assert out == "c = [1,-1]\nq = [[],[]]\nround trip ok: true\n"


def test_core_quotient_inverse_frozen(capsys):
    code, out, _ = run_main(
        capsys,
        "core-quotient", "--l", "2", "--inverse", "--c", "[1,-1]", "--q", "[[1],[]]",
    )
    assert code == 0
    assert json.loads(out) == {
        "l": 2,
        "core_vector": [1, -1],
        "quotient": [[1], []],
        "lambda": [1, 1, 1],
    }


def test_inverse_rejects_nonzero_sum(capsys):
    code, _, err = run_main(
        capsys,
        "core-quotient", "--l", "2", "--inverse", "--c", "[1,0]", "--q", "[[],[]]",
    )
    assert code == 3
    assert err.startswith("error:")


def test_json_booleans_are_not_integers(capsys):
    """JSON true/false parse as Python bools, which are ints; both the
    partition check and the --c check refuse them with exit 2."""
    for argv, what in (
        (("core-quotient", "--l", "2", "--lambda", "[true]"), "--lambda"),
        (("act", "--g", "e_0", "--lambda", "[false]", "--l", "2"), "--lambda"),
        (
            ("core-quotient", "--l", "2", "--inverse", "--c", "[true,-1]", "--q", "[[],[]]"),
            "--c",
        ),
        (
            ("core-quotient", "--l", "2", "--inverse", "--c", "[1,-1]", "--q", "[[true],[]]"),
            "--q entry",
        ),
    ):
        code, out, err = run_main(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {what} must be a JSON list of integers\n"


def test_act_explicit_frozen(capsys):
    code, out, _ = run_main(capsys, "act", "--g", "e_0", "--lambda", "[1]", "--l", "2")
    assert code == 0
    assert out == (
        '{"generator": "e_0", "l": 2, "lambda": [1], "side": "explicit",'
        ' "image": [{"coeff": "1", "label": {"partition": []}}]}\n'
    )


def test_act_pretty(capsys):
    code, out, _ = run_main(
        capsys, "act", "--g", "f_0", "--lambda", "[]", "--l", "2", "--pretty"
    )
    assert code == 0 and out == "1 * [1]\n"
    code, out, _ = run_main(
        capsys, "act", "--g", "e_1", "--lambda", "[]", "--l", "2", "--pretty"
    )
    assert code == 0 and out == "0\n"


@pytest.mark.parametrize("g", ["e_1", "f_0", "h_1", "p_1(-1)"])
def test_act_sides_agree(capsys, g):
    images = {}
    for side in ("explicit", "frenkel-kac"):
        code, out, _ = run_main(
            capsys,
            "act", "--g", g, "--lambda", "[2,1]", "--l", "2", "--side", side,
        )
        assert code == 0
        images[side] = json.loads(out)["image"]
    assert images["explicit"] == images["frenkel-kac"]


def test_act_geometric_side_matches_explicit(capsys):
    """act --side geometric gives the explicit image on every shape of size
    <= 7 and every e_i at l = 2, 3, 4, e_0 (the delta_{i0} sign) included."""
    moved = 0
    for l in (2, 3, 4):
        for lam in partitions_up_to(7):
            for i in range(l):
                images = {}
                for side in ("explicit", "geometric"):
                    code, out, _ = run_main(
                        capsys,
                        "act", "--g", f"e_{i}", "--lambda", json.dumps(list(lam)),
                        "--l", str(l), "--side", side,
                    )
                    assert code == 0
                    images[side] = json.loads(out)["image"]
                assert images["explicit"] == images["geometric"], (l, lam, i)
                moved += len(images["geometric"])
    # every removable node of every shape, once per l
    assert moved == 3 * sum(len(set(lam)) for lam in partitions_up_to(7))


def test_act_malformed_inputs_exit_2(capsys):
    assert run_main(capsys, "act", "--g", "q_1", "--lambda", "[]", "--l", "2")[0] == 2
    assert run_main(capsys, "act", "--g", "e_5", "--lambda", "[]", "--l", "2")[0] == 2
    assert run_main(capsys, "act", "--g", "e_0", "--lambda", "[1,", "--l", "2")[0] == 2
    assert run_main(capsys, "act", "--g", "e_0", "--lambda", "[1,2]", "--l", "2")[0] == 2
    code, _, err = run_main(
        capsys,
        "act", "--g", "f_0", "--lambda", "[]", "--l", "2", "--side", "geometric",
    )
    assert code == 2 and "e_i" in err


# Each entry that takes a generator name reads it through one parse, so
# the library routes and both subcommands refuse a bad name alike. After
# strip(), the index and the mode are each an optional minus sign and ASCII
# digits; the first nine names used to act (e_٣ as e_3, p_1(1_0) as
# p_1(10)) or fail with int()'s own message.
BAD_NAMES = [
    ("e_\u0663", "malformed generator: 'e_\u0663'"),
    ("p_1(1_0)", "malformed generator: 'p_1(1_0)'"),
    ("p_ 1( 2 )", "malformed generator: 'p_ 1( 2 )'"),
    ("p_+1(+2)", "malformed generator: 'p_+1(+2)'"),
    ("e_+1", "malformed generator: 'e_+1'"),
    ("e_--1", "malformed generator: 'e_--1'"),
    ("p_x(1)", "malformed generator: 'p_x(1)'"),
    ("p_1(x)", "malformed generator: 'p_1(x)'"),
    ("p_1()", "malformed generator: 'p_1()'"),
    ("q_1", "malformed generator: 'q_1'"),
    (" p_1(2 ", "malformed generator: 'p_1(2'"),
    ("e_1(2)", "only p takes a mode argument: 'e_1(2)'"),
    ("p_1(0)", "the degree-zero mode is excluded"),
    ("e_4", "residue must be 0..3: 4"),
    ("p_-1(1)", "residue must be 0..3: -1"),
]


@pytest.mark.parametrize("g, message", BAD_NAMES, ids=[g for g, _ in BAD_NAMES])
def test_every_entry_refuses_a_bad_name_alike(capsys, g, message):
    l, b = 4, Vec.basis((2, 1))
    for call in (
        lambda: fk.explicit_action(g, b, l),
        lambda: fk.fk_action(g, fk.transport(b, l), l),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    for argv in (
        ("act", "--g", g, "--lambda", "[2,1]", "--l", "4"),
        ("act", "--g", g, "--lambda", "[2,1]", "--l", "4", "--side", "frenkel-kac"),
        ("matrix", "--g", g, "--l", "4", "--degree", "3"),
    ):
        assert run_main(capsys, *argv) == (2, "", f"error: {message}\n")


def test_act_and_matrix_refuse_a_broken_scan_side_alike(capsys, monkeypatch):
    """A bad ETA_SCAN_SIDE reaches explicit_action's one check from both
    commands; matrix used to end in a traceback (exit 1)."""
    monkeypatch.setattr(fk, "ETA_SCAN_SIDE", "middle")
    message = "error: side must be 'left' or 'right', got 'middle'\n"
    for argv in (
        ("act", "--g", "e_1", "--lambda", "[2,1]", "--l", "3"),
        ("matrix", "--g", "f_0", "--l", "3", "--degree", "3"),
    ):
        assert run_main(capsys, *argv) == (2, "", message)


def test_act_parses_the_generator_once(capsys, monkeypatch):
    """The vertex side reads the name only in fk_action; the command used
    to parse it a second time up front."""
    calls = []
    plain = fk.parse_generator

    def counted(g, l):
        calls.append(g)
        return plain(g, l)

    monkeypatch.setattr(fk, "parse_generator", counted)
    monkeypatch.setattr(cli, "parse_generator", counted)
    argv = ("act", "--side", "frenkel-kac", "--g", "p_1(2)", "--lambda", "[2,1]", "--l", "3")
    assert run_main(capsys, *argv)[0] == 0
    assert calls == ["p_1(2)"]


def test_negative_degree_exits_2(capsys):
    for argv in (
        ("verify", "--suite", "all", "--degree", "-1"),
        ("verify", "--suite", "boson-fermion", "--degree", "-1"),
        ("matrix", "--g", "f_0", "--l", "3", "--degree", "-2"),
    ):
        code, out, err = run_main(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: --degree must be nonnegative, got {argv[-1]}\n"


def test_argparse_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["act", "--lambda", "[]", "--l", "2"])
    assert exc.value.code == 2


def test_overflow_exit_4(capsys):
    """A --degree, an --l or a p_i(m) mode above its bound is refused
    before any enumeration or action, on every command that takes it."""
    for argv in (
        ("verify", "--suite", "relations", "--degree", "41"),
        ("matrix", "--g", "f_0", "--l", "3", "--degree", "41"),
    ):
        code, out, err = run_main(capsys, *argv)
        assert code == 4 and out == ""
        assert err == "error: --degree 41 exceeds the limit 40\n"
    assert cli.MAX_DEGREE == 40
    assert cli._check_degree(40) == 40
    for argv in (
        ("verify", "--suite", "relations", "--l", "20000", "--degree", "0"),
        ("matrix", "--g", "f_0", "--l", "1001", "--degree", "0"),
        ("core-quotient", "--l", "1000000", "--lambda", "[1]"),
        ("act", "--side", "frenkel-kac", "--g", "e_1", "--lambda", "[1]", "--l", "1001"),
    ):
        code, out, err = run_main(capsys, *argv)
        assert code == 4 and out == ""
        assert err == f"error: --l {argv[argv.index('--l') + 1]} exceeds the limit 1000\n"
    assert cli.MAX_L == 1000
    assert cli._check_l(1000) == 1000
    for m in (41, -41):
        for argv in (
            ("act", "--g", f"p_1({m})", "--lambda", "[1]", "--l", "3"),
            ("act", "--side", "frenkel-kac", "--g", f"p_1({m})", "--lambda", "[1]", "--l", "3"),
            ("matrix", "--g", f"p_1({m})", "--l", "3", "--degree", "0"),
        ):
            code, out, err = run_main(capsys, *argv)
            assert code == 4 and out == ""
            assert err == f"error: --g mode {m} exceeds the limit 40\n"
    code, out, _ = run_main(capsys, "act", "--g", "p_1(-40)", "--lambda", "[1]", "--l", "3")
    assert code == 0 and out


def test_matrix_json_frozen(capsys):
    code, out, _ = run_main(
        capsys, "matrix", "--g", "h_0", "--l", "2", "--degree", "2"
    )
    assert code == 0
    assert json.loads(out) == {
        "generator": "h_0",
        "l": 2,
        "degree": 2,
        "rows": [[], [1], [2], [1, 1]],
        "cols": [[], [1], [2], [1, 1]],
        "entries": [
            {"row": 0, "col": 0, "value": "1"},
            {"row": 1, "col": 1, "value": "-1"},
            {"row": 2, "col": 2, "value": "1"},
            {"row": 3, "col": 3, "value": "1"},
        ],
    }


def test_matrix_csv_frozen(capsys):
    code, out, _ = run_main(
        capsys, "matrix", "--g", "h_0", "--l", "2", "--degree", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out == (
        "row,col,value\n"
        "[],[],1\n"
        "[1],[1],-1\n"
        "[2],[2],1\n"
        '"[1,1]","[1,1]",1\n'
    )


def test_matrix_pretty_frozen(capsys):
    """The 27 --pretty lines of f_0 on the l = 3, degree-6 slice, pinned by
    their sha256 from before the pretty lines were built lazily."""
    code, out, _ = run_main(
        capsys, "matrix", "--g", "f_0", "--l", "3", "--degree", "6", "--pretty"
    )
    assert code == 0
    assert out.splitlines()[:2] == ["[1] <- []: 1", "[4] <- [3]: 1"]
    assert len(out.splitlines()) == 27
    digest = "fcb12697560e1b3bd030cfe70de623f42c3f9eb8533bfba02998e810d491265b"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--g", "f_0", "--l", "3", "--degree", "6"),
        ("core-quotient", "--l", "3", "--lambda", "[4,2,1]"),
        ("core-quotient", "--l", "2", "--inverse", "--c", "[1,-1]", "--q", "[[1],[]]"),
    ],
)
def test_json_mode_formats_no_pretty_line(capsys, monkeypatch, argv):
    """Only --pretty prints the pretty lines, so JSON mode builds none: no
    _plabel call. Building them eagerly made 54 for the matrix."""
    calls = []
    plain = cli._plabel

    def counted(lam):
        calls.append(lam)
        return plain(lam)

    monkeypatch.setattr(cli, "_plabel", counted)
    code, out, _ = run_main(capsys, *argv)
    assert code == 0 and json.loads(out) and calls == []
    code, pretty, _ = run_main(capsys, *argv, "--pretty")
    assert code == 0 and calls and not pretty.startswith("{")


def test_matrix_formats_same_entries(capsys):
    code, jout, _ = run_main(capsys, "matrix", "--g", "f_1", "--l", "2", "--degree", "3")
    assert code == 0
    data = json.loads(jout)
    from_json = {
        (json.dumps(data["rows"][e["row"]], separators=(",", ":")),
         json.dumps(data["cols"][e["col"]], separators=(",", ":")),
         e["value"])
        for e in data["entries"]
    }
    code, cout, _ = run_main(
        capsys, "matrix", "--g", "f_1", "--l", "2", "--degree", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = cout.splitlines()
    assert lines[0] == "row,col,value"
    import csv as csv_mod

    from_csv = {tuple(row) for row in csv_mod.reader(lines[1:])}
    assert from_csv == from_json


def test_matrix_empty_slice(capsys):
    code, out, _ = run_main(capsys, "matrix", "--g", "e_0", "--l", "2", "--degree", "0")
    assert code == 0
    assert json.loads(out) == {
        "generator": "e_0",
        "l": 2,
        "degree": 0,
        "rows": [],
        "cols": [[]],
        "entries": [],
    }
    code, out, _ = run_main(
        capsys, "matrix", "--g", "e_0", "--l", "2", "--degree", "0", "--pretty"
    )
    assert code == 0 and out == "empty\n"


def test_verify_single_suite_shape(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--suite", "fixed-points", "--l", "4", "--degree", "10"
    )
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "fixed-points"
    assert data["status"] == "ok"
    assert data["failures"] == []


def test_verify_all_deterministic_across_processes():
    first = run_proc("verify", "--suite", "all", "--l", "2", "--degree", "4")
    second = run_proc("verify", "--suite", "all", "--l", "2", "--degree", "4")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    assert data["suite"] == "all"
    assert data["status"] == "ok"
    assert set(data["suites"]) == {
        "boson-fermion", "frenkel-kac", "geometric", "fixed-points", "relations",
    }


def test_verify_mismatch_exits_1():
    """A deliberately broken sign table must be caught by the cross-check."""
    script = (
        "import sys\n"
        "from affine_fock import frenkel_kac as fk\n"
        "from affine_fock import cli\n"
        "fk.ETA_SCAN_SIDE = 'right'\n"
        "sys.exit(cli.main(['verify', '--suite', 'frenkel-kac',"
        " '--l', '2', '--degree', '3']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "mismatch"


def test_importing_the_cli_leaves_maya_out():
    """The integer Fock routines take bead and HALF from partitions, so the
    library's import path does not load the Fraction-based maya module."""
    script = "import sys, affine_fock.cli\nprint('affine_fock.maya' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_console_script_available():
    exe = shutil.which("affine-fock")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "core-quotient" in proc.stdout
