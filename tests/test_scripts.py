"""The experiment scripts run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,header", [
    ("holonomy_convergence.py", ["--grids", "64", "128"],
     ["N", "raw", "error", "ratio", "corrected", "delta"]),
    ("subspace_roundtrip.py", ["--trials", "2", "--depth", "3"],
     ["trial", "unitarity", "defect", "residue", "variation", "winding"]),
])
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == header
