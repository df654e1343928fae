"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. The feasibility sweep (criteria 5 and 6) runs the
full 3 x 6 grid at 20 seeds x 5000 iterations and takes 12-15 s on a
2-core host: its N = 2, 3 and 4 batches (under 1 s, about 3.5 s and
about 7 s) run one after another. Everything else finishes in seconds.
"""

import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import eigenalign
from eigenalign import analysis, closed_form
from eigenalign.channel import NetworkDims, generate
from eigenalign.iterative import warm_start_check

SWEEP_N = [2, 3, 4]
SWEEP_K = [3, 4, 5, 6, 7, 8]
SWEEP_SEEDS = 20
SWEEP_MAX_ITERS = 5000


def _report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _alignment_residual(net, sol):
    worst = 0.0
    for i, j in permutations(range(net.dims.k), 2):
        worst = max(worst, abs(sol.combiners[i].conj()
                               @ net.h[i, j] @ sol.precoders[j]))
    return worst


def _channel_scale(net):
    return float(np.linalg.norm(net.h, axis=(2, 3)).max())


@pytest.fixture(scope="module")
def sweep_result():
    return analysis.feasibility_sweep(SWEEP_N, SWEEP_K, SWEEP_SEEDS,
                                      max_iters=SWEEP_MAX_ITERS,
                                      keep_traces=True)


def test_criterion_1_closed_form_correctness():
    failures = []
    for n in (2, 3, 4, 5):
        for seed in range(100):
            net = generate(NetworkDims(n + 1, n, n), seed)
            try:
                sol = closed_form.solve_eigen_method(net)
            except Exception as exc:   # any error counts as a failure
                failures.append((n, seed, repr(exc)))
                continue
            scale = _channel_scale(net)
            if _alignment_residual(net, sol) > 1e-8 * scale:
                failures.append((n, seed, "residual"))
                continue
            for i in range(n + 1):
                gain = abs(sol.combiners[i].conj() @ net.h[i, i]
                           @ sol.precoders[i])
                if gain < 1e-6 * np.linalg.norm(net.h[i, i]):
                    failures.append((n, seed, f"rank user {i}"))
                    break
    _report(1, "closed form solves 100/100 seeds at N=2..5 within"
               " residual 1e-8 and rank 1e-6 bounds",
            not failures, detail=f"failures: {failures[:5]}")


def test_criterion_2_cube_relation():
    worst = 0.0
    for n in (2, 3):
        for seed in range(50):
            net = generate(NetworkDims(3, n, n), seed)
            report = closed_form.cube_relation_check(net)
            worst = max(worst, report.worst_mismatch)
            if not report.passed:
                _report(2, "cubed stacked spectrum lands on the loop"
                           " spectrum", False,
                        detail=f"N={n} seed={seed} worst={report.worst_mismatch:.2e}")
    _report(2, "cubed stacked spectrum matches the loop spectrum within"
               " relative 1e-6 on 50 seeds at N=2,3",
            worst <= 1e-6, detail=f"worst mismatch {worst:.2e}")


def test_criterion_3_loop_method_validity():
    failures = []
    for n in (2, 3):
        for seed in range(100):
            net = generate(NetworkDims(3, n, n), seed)
            try:
                sol = closed_form.solve_loop_method(net)
            except Exception as exc:
                failures.append((n, seed, repr(exc)))
                continue
            if not analysis.verify(net, sol).passed:
                failures.append((n, seed, "verify"))
    _report(3, "loop method passes verification on 100/100 seeds at"
               " N=2 and the odd N=3",
            not failures, detail=f"failures: {failures[:5]}")


def test_criterion_4_warm_start_fixed_point():
    failures = []
    cases = [(NetworkDims(3, 2, 2), seed) for seed in range(10)]
    cases += [(NetworkDims(4, 3, 3), seed) for seed in range(10)]
    for dims, seed in cases:
        net = generate(dims, seed)
        sol = closed_form.solve_eigen_method(net)
        report = warm_start_check(net, sol)
        if report.initial_leakage >= 1e-12 or report.max_leakage >= 1e-10:
            failures.append((dims.k, seed, report.initial_leakage,
                             report.max_leakage))
    _report(4, "closed-form warm starts give initial leakage < 1e-12 and"
               " drift < 1e-10 over 100 iterations on 20 seeds",
            not failures, detail=f"failures: {failures[:5]}")


def test_criterion_5_iterative_monotonicity(sweep_result):
    worst_rise = 0.0
    for trace in sweep_result.traces:
        if len(trace) > 1:
            worst_rise = max(worst_rise, float(np.diff(trace).max()))
    _report(5, "leakage trace non-increasing (slack 1e-12) on every run"
               " in the sweep",
            worst_rise <= 1e-12, detail=f"worst rise {worst_rise:.2e}")


def test_criterion_6_achievability_table(sweep_result):
    print()
    print(analysis.render_feasibility_table(sweep_result, SWEEP_N, SWEEP_K))
    mismatches = []
    for n in SWEEP_N:
        for k in SWEEP_K:
            cell = sweep_result.cells[(n, k)]
            expected = "feasible" if k <= 2 * n - 1 else "infeasible"
            if cell.verdict != expected:
                mismatches.append(
                    f"(N={n},K={k}): expected {expected}, got {cell.verdict}"
                    f" ({cell.feasible_seeds}/{cell.infeasible_seeds}/"
                    f"{cell.inconclusive_seeds} seeds"
                    f" feasible/infeasible/inconclusive)")
    _report(6, "sweep reproduces the achievability pattern (K <= 2N-1"
               " feasible, K > 2N-1 infeasible) at thresholds 1e-6/1e-3",
            not mismatches, detail="; ".join(mismatches))


def test_criterion_7_four_user_incompatibility():
    violations = []
    smallest = np.inf
    for seed in range(100, 200):
        net = generate(NetworkDims(4, 2, 2), seed)
        report = analysis.infeasibility_demo(net)
        smallest = min(smallest, report.min_chordal_distance)
        if report.min_chordal_distance <= 0.01:
            violations.append((seed, report.min_chordal_distance))
    _report(7, "minimum eigenvector chordal distance > 0.01 on 100/100"
               " seeds of the 4-user 2x2 network",
            not violations,
            detail=f"smallest distance {smallest:.4f}; violations {violations}")


def test_criterion_8_degrees_of_freedom():
    failures = []
    for k in (3, 4, 5):
        target = k * 10.0 * np.log2(10.0) / 10.0
        for seed in range(5):
            net = generate(NetworkDims(k, k - 1, k - 1), seed)
            sol = closed_form.solve_eigen_method(net)
            points = analysis.sum_rate_curve(net, sol, [30.0, 40.0])
            slope = points[1].sum_rate - points[0].sum_rate
            if abs(slope - target) > 0.10 * target:
                failures.append((k, seed, slope))
    _report(8, "sum-rate slope between 30 and 40 dB equals K*3.32 bits"
               " within 10% at K=3,4,5",
            not failures, detail=f"failures: {failures}")


# The directory holding the eigenalign this process imported. CLI children
# put it first on PYTHONPATH, so they run the same code whatever their cwd
# (a relative PYTHONPATH such as ``src`` would resolve against tmp_path).
PACKAGE_ROOT = str(Path(eigenalign.__file__).resolve().parents[1])


def _run_cli(args, cwd):
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (os.pathsep.join([PACKAGE_ROOT, inherited])
                         if inherited else PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, "-m", "eigenalign.cli"] + args,
                          capture_output=True, cwd=cwd, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_9_cli_determinism(tmp_path):
    gen = ["gen", "--users", "3", "--nt", "2", "--nr", "2", "--seed", "42",
           "--out", "chan.json"]
    # name: (arguments, output files, exit code documented in the README;
    # `infeasible` exits 1 because confirmed infeasibility is a negative
    # finding).
    commands = {
        "gen": (gen, ["chan.json"], 0),
        "solve-eigen": (["solve", "--method", "eigen", "--in", "chan.json",
                         "--out", "sol_eigen.json"], ["sol_eigen.json"], 0),
        "solve-loop": (["solve", "--method", "loop", "--in", "chan.json",
                        "--out", "sol_loop.json"], ["sol_loop.json"], 0),
        "solve-iterative": (["solve", "--method", "iterative", "--in",
                             "chan.json", "--out", "sol_iter.json",
                             "--seed", "3"], ["sol_iter.json"], 0),
        "verify": (["verify", "--channel", "chan.json", "--solution",
                    "sol_eigen.json"], [], 0),
        "rates": (["rates", "--channel", "chan.json", "--solution",
                   "sol_eigen.json", "--snr-db", "0:10:40"], [], 0),
        "infeasible": (["infeasible", "--seed", "42"], [], 1),
        "sweep": (["sweep", "--n-range", "2", "--k-range", "3:4", "--seeds",
                   "2", "--max-iters", "2000", "--out", "sweep.json"],
                  ["sweep.json"], 0),
    }
    differing = []
    misbehaving = []
    for name, (args, outputs, expected_code) in commands.items():
        runs = []
        for run in (1, 2):
            code, stdout, stderr = _run_cli(args, tmp_path)
            files = {out: (tmp_path / out).read_bytes()
                     for out in outputs if (tmp_path / out).exists()}
            if code != expected_code or stderr or len(files) < len(outputs):
                misbehaving.append(
                    f"{name} run {run}: exit {code} (documented"
                    f" {expected_code}), files {sorted(files)} of {outputs},"
                    f" stderr {stderr.decode(errors='replace').strip()!r}")
            runs.append((code, stdout, files))
        if runs[0] != runs[1]:
            differing.append(name)
    _report(9, "byte-identical stdout, files and exit codes across two"
               " consecutive runs of every subcommand, each run exiting"
               " with its documented code and an empty stderr",
            not differing and not misbehaving,
            detail=f"differing: {differing}; misbehaving: {misbehaving}")
