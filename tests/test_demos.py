"""Every demo script runs to completion from the source tree."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("AFFINE_FOCK_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-B", str(demo)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    assert DEMOS
