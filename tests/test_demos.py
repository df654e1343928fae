"""Smoke test: every demo script runs to completion on the package under test.

Each demo runs in a child interpreter whose ``PYTHONPATH`` leads with the
directory of the imported ``eigenalign``, so the demos exercise the same
code as the rest of the suite whatever the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigenalign

PACKAGE_ROOT = str(Path(eigenalign.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_all_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (os.pathsep.join([PACKAGE_ROOT, inherited])
                         if inherited else PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          cwd=tmp_path, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
