"""Smoke test: one round of every benchmark workload runs and is correct.

Each workload in ``perfbench/workloads.NAMES`` runs once through
``perfbench/run.py --workload W --seed 3 --seconds 0`` in a child
interpreter, from the root of the checkout; the benchmark imports the
package from that checkout's ``src/``. The test reads only the result line
(exit code, ``correct`` and ``failed``), never a timing. Like any benchmark
run it writes its records under ``.perfbench_run/`` in the checkout, which
is gitignored. A second test replays ``perfbench/make_reference.py`` on a
copy of the package and the benchmark, so a library change that breaks
the script, or moves a stored verdict, shows in the test run.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def workload_names():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.NAMES


@pytest.mark.parametrize("workload", workload_names())
def test_one_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0"],
        capture_output=True, cwd=ROOT, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def verdicts(path):
    return {(r["n"], r["k"], r["seed"]): r["verdict"]
            for r in json.loads(path.read_text())["records"]}


def test_make_reference_replays(tmp_path):
    # the script rewrites the reference in the copy, never in the checkout
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "eigenalign",
                    tmp_path / "src" / "eigenalign", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/make_reference.py"],
        capture_output=True, cwd=tmp_path, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    tracked = verdicts(ROOT / "perfbench" / "probe_reference.json")
    assert verdicts(tmp_path / "perfbench" / "probe_reference.json") == tracked
