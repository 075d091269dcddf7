import json
import os
import shutil
import subprocess
import sys

import pytest

from affine_fock import cli
from affine_fock.fock import DegreeOverflowError


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
    images = {}
    for side in ("explicit", "geometric"):
        code, out, _ = run_main(
            capsys,
            "act", "--g", "e_1", "--lambda", "[2,2]", "--l", "2", "--side", side,
        )
        assert code == 0
        images[side] = json.loads(out)["image"]
    assert images["explicit"] == images["geometric"]


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


def test_overflow_exit_4(capsys, monkeypatch):
    def boom(*_args, **_kwargs):
        raise DegreeOverflowError("window exceeded")

    monkeypatch.setattr(cli, "explicit_action", boom)
    code, _, err = run_main(capsys, "act", "--g", "e_0", "--lambda", "[]", "--l", "2")
    assert code == 4
    assert "window" in err


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


def test_console_script_available():
    exe = shutil.which("affine-fock")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "core-quotient" in proc.stdout
