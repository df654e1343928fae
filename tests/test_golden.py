"""Replay the golden corpus of CLI runs (``tests/golden/``) and compare.

Exit codes and every non-numeric token of stdout and the written files
must match the corpus exactly; numbers must agree within 1e-9 absolutely
or relatively, since a refactor of the solvers may move last bits.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden")

_spec = importlib.util.spec_from_file_location(
    "make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_cli_runs_match_corpus(tmp_path):
    expected = json.loads(make_golden.CORPUS.read_text(encoding="utf-8"))
    actual = make_golden.replay(tmp_path)
    assert len(actual) == len(expected)
    problems = [line for exp, act in zip(expected, actual)
                for line in make_golden.record_mismatches(exp, act)]
    assert not problems, "\n".join(problems)


def test_comparison_catches_changes():
    check = make_golden.text_mismatch
    assert check("residual=1.000000e-03 PASS", "residual=1.0000000001e-03 PASS") is None
    assert check("x 1e-17", "x 3e-17") is None
    assert check("x=1.0 PASS", "x=1.0 FAIL") is not None
    assert check("iterations=37", "iterations=38") is not None
    assert check("[0.5, 1.5]", "[0.5, 1.5000001]") is not None
    assert check('{"a": 1}', '{"b": 1}') is not None
