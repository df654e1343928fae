"""Golden corpus of CLI runs: the runs, their replay and their comparison.

``RUNS`` is a fixed sequence of ``eigenalign`` invocations (gen, the three
solve methods, verify, rates, infeasible and a small sweep) at fixed seeds
and N from 2 to 5. Later runs read the files earlier runs wrote, so the
sequence is replayed in order in one working directory. Each run records
its exit code, its stdout and every file it wrote.

Regenerate the corpus from the root of a checkout with::

    PYTHONPATH=src python tests/golden/make_golden.py

With ``--replay PATH`` the records go to PATH instead and the corpus is left
untouched. The corpus pins numbers only to ``TOL``; to check that a change
leaves every byte alone, replay both checkouts and compare the two files::

    PYTHONPATH=src python tests/golden/make_golden.py --replay new.json
    PYTHONPATH=../parent/src python tests/golden/make_golden.py --replay old.json
    cmp old.json new.json

``tests/test_golden.py`` replays the runs on the code under test and
compares them with the committed corpus: every non-numeric token must be
identical, every number must agree within ``TOL`` absolutely or
relatively (the looser of the two).
"""

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("corpus.json")

#: Absolute-or-relative tolerance on every number in stdout and files.
TOL = 1e-9

# Each entry: (argv, files the run writes). All seeds are explicit, so the
# EIGENALIGN_SEED default never enters.
RUNS = [
    (["gen", "--users", "3", "--nt", "2", "--nr", "2", "--seed", "42",
      "--out", "c3n2.json"], ["c3n2.json"]),
    (["gen", "--users", "4", "--nt", "3", "--nr", "3", "--seed", "7",
      "--out", "c4n3.json"], ["c4n3.json"]),
    (["gen", "--users", "5", "--nt", "4", "--nr", "4", "--seed", "3",
      "--out", "c5n4.json"], ["c5n4.json"]),
    (["gen", "--users", "6", "--nt", "5", "--nr", "5", "--seed", "11",
      "--out", "c6n5.json"], ["c6n5.json"]),
    (["gen", "--users", "3", "--nt", "3", "--nr", "3", "--seed", "5",
      "--out", "c3n3.json"], ["c3n3.json"]),
    (["gen", "--users", "4", "--nt", "2", "--nr", "2", "--seed", "1",
      "--out", "c4n2.json"], ["c4n2.json"]),
    (["gen", "--users", "2", "--nt", "1", "--nr", "1", "--seed", "0"], []),
    (["solve", "--method", "eigen", "--in", "c3n2.json",
      "--out", "s3n2_eigen.json"], ["s3n2_eigen.json"]),
    (["solve", "--method", "eigen", "--in", "c4n3.json",
      "--out", "s4n3_eigen.json"], ["s4n3_eigen.json"]),
    (["solve", "--method", "eigen", "--in", "c5n4.json",
      "--out", "s5n4_eigen.json"], ["s5n4_eigen.json"]),
    (["solve", "--method", "eigen", "--in", "c6n5.json",
      "--out", "s6n5_eigen.json"], ["s6n5_eigen.json"]),
    (["solve", "--method", "eigen", "--in", "c3n3.json"], []),
    (["solve", "--method", "loop", "--in", "c3n2.json",
      "--out", "s3n2_loop.json"], ["s3n2_loop.json"]),
    (["solve", "--method", "loop", "--in", "c3n3.json",
      "--out", "s3n3_loop.json"], ["s3n3_loop.json"]),
    (["solve", "--method", "loop", "--in", "c4n3.json"], []),
    (["solve", "--method", "iterative", "--in", "c3n2.json",
      "--seed", "1", "--max-iters", "400", "--out", "s3n2_iter.json"],
     ["s3n2_iter.json"]),
    (["solve", "--method", "iterative", "--in", "c4n2.json",
      "--seed", "2", "--max-iters", "150", "--out", "s4n2_iter.json"],
     ["s4n2_iter.json"]),
    (["verify", "--channel", "c3n2.json", "--solution", "s3n2_eigen.json"],
     []),
    (["verify", "--channel", "c5n4.json", "--solution", "s5n4_eigen.json"],
     []),
    (["verify", "--channel", "c3n3.json", "--solution", "s3n3_loop.json"],
     []),
    (["verify", "--channel", "c3n2.json", "--solution", "s3n2_iter.json"],
     []),
    (["verify", "--channel", "c4n2.json", "--solution", "s4n2_iter.json"],
     []),
    (["verify", "--channel", "c4n3.json", "--solution", "s3n2_eigen.json"],
     []),
    (["rates", "--channel", "c4n3.json", "--solution", "s4n3_eigen.json",
      "--snr-db", "0:10:30"], []),
    (["rates", "--channel", "c6n5.json", "--solution", "s6n5_eigen.json",
      "--snr-db=-10:5:20"], []),
    (["rates", "--channel", "c4n2.json", "--solution", "s4n2_iter.json",
      "--snr-db", "0:10:20"], []),
    (["infeasible", "--seed", "0"], []),
    (["infeasible", "--seed", "3"], []),
    (["sweep", "--n-range", "2:3", "--k-range", "3:5", "--seeds", "3",
      "--max-iters", "200", "--out", "sweep.json"], ["sweep.json"]),
]


def replay(workdir):
    """Run ``RUNS`` in order inside ``workdir`` with the imported package;
    returns one ``{"argv", "exit", "stdout", "files"}`` record per run."""
    from eigenalign import cli

    records = []
    with contextlib.chdir(workdir):
        for argv, outputs in RUNS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:   # argparse usage errors
                    code = exc.code
            files = {name: Path(name).read_text(encoding="utf-8")
                     for name in outputs if Path(name).exists()}
            records.append({"argv": argv, "exit": code,
                            "stdout": out.getvalue(), "files": files})
    return records


_NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    r"|(?<![A-Za-z_])[-+]?(?:nan|inf|NaN|Infinity)(?![A-Za-z_])")


def text_mismatch(expected, actual, tol=TOL):
    """First difference between two texts, or None. Numbers are compared
    within ``tol`` (absolute or relative, the looser); the text between
    them must be identical."""
    exp_nums = _NUMBER.findall(expected)
    act_nums = _NUMBER.findall(actual)
    exp_rest = _NUMBER.split(expected)
    act_rest = _NUMBER.split(actual)
    if exp_rest != act_rest or len(exp_nums) != len(act_nums):
        for i, (a, b) in enumerate(zip(exp_rest, act_rest)):
            if a != b:
                return f"text differs at segment {i}: {a!r} != {b!r}"
        return (f"{len(exp_nums)} numbers expected, {len(act_nums)} found"
                f" ({len(exp_rest)} vs {len(act_rest)} segments)")
    for a_text, b_text in zip(exp_nums, act_nums):
        a, b = float(a_text), float(b_text)
        if a == b or (a != a and b != b):
            continue
        gap = abs(a - b)
        if not gap <= tol * max(1.0, abs(a), abs(b)):
            return f"number {a_text} became {b_text}"
    return None


def record_mismatches(expected, actual):
    """Every difference between two replay records, as text lines."""
    where = " ".join(expected["argv"])
    out = []
    if expected["argv"] != actual["argv"]:
        return [f"{where}: run list differs from the corpus"]
    if expected["exit"] != actual["exit"]:
        out.append(f"{where}: exit {actual['exit']}, expected"
                   f" {expected['exit']}")
    diff = text_mismatch(expected["stdout"], actual["stdout"])
    if diff:
        out.append(f"{where}: stdout {diff}")
    if sorted(expected["files"]) != sorted(actual["files"]):
        out.append(f"{where}: wrote {sorted(actual['files'])}, expected"
                   f" {sorted(expected['files'])}")
    for name in sorted(set(expected["files"]) & set(actual["files"])):
        diff = text_mismatch(expected["files"][name], actual["files"][name])
        if diff:
            out.append(f"{where}: {name} {diff}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="Replay the golden CLI runs"
                                     " and write their records.")
    parser.add_argument("--replay", metavar="PATH", type=Path, default=CORPUS,
                        help="write the records to PATH, not to the corpus")
    out = parser.parse_args(argv).replay
    with tempfile.TemporaryDirectory() as tmp:
        records = replay(tmp)
    out.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} runs to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
