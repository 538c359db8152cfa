import os
import subprocess
import sys
from pathlib import Path

import pytest

import entdyn

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, script):
    # each demo runs as a script against the package under test, in a
    # scratch directory, and exits 0
    env = {**os.environ, "PYTHONPATH": str(Path(entdyn.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
