"""Each experiment script runs to completion at its smallest arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("domination_scaling.py", ["--kmax", "6", "--seeds", "1", "--exact-kmax", "4"]),
    ("flattening_sweep.py", ["--trials", "5", "--nmax", "16"]),
    ("selection_error_sweep.py", ["--k", "4", "--d", "8", "--trials", "2"]),
])
def test_script_runs(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
