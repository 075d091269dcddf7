"""Every demo script runs to completion from the source tree and prints the
same bytes as when its digest was pinned."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout. A change that alters what a demo prints
# must re-pin its digest here, on purpose.
STDOUT_SHA256 = {
    "01_partitions_and_hooks.py": "897c1dacb437ac070cb8fe54ca5217f3c3e7bc613793c63241cbb03595bd903d",
    "02_maya_diagrams.py": "7a96051d59b8ccdfbe9b53e90557dc3b0272a5d0cc46e35a0d835cb3fa30bc74",
    "03_core_quotient.py": "ac5ff6ffd95ef637c148e1cc862998342600be87d6d56d996c3be9b27d2bfefa",
    "04_boson_fermion.py": "e51ad60bfe0bb0933cdef90ea14b5dc3ef7909c5c7d64511b1631c95dadffe33",
    "05_affine_action.py": "e72de23e07672c5a56983d80c41a182a9adfe1d6d4803ebb3e38e4a9369f9e08",
    "06_equivariant_weights.py": "ae3bc9a3b4a9e9be67a4cbf378f96d2e6f119d8e59ce9d4691bb8c4f80658af2",
    "07_cli_tour.py": "6a4378ca79e8a164a7cd8208c29d7d6a4b3312759709e49ae6e4f6975eb0f1a1",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", str(demo)], capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)
