"""The three workloads: what one operation does, its inputs, and its checks.

A workload turns the run's seed into inputs (its constructor), lists one
round of operations (``operations``, each timed on its own by ``run.py``,
which passes it a ``checkpoint`` callable it may call between units of
work) and checks a round's outcomes afterwards (``check_round``, outside the
timed region). A check that fails is recorded against its operation
instead of aborting the run. Every round of a run repeats the
same inputs, so each round is also checked against the first one.
"""

import contextlib
import inspect
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Criterion 1 bounds: alignment residual relative to the largest channel
# norm, and direct-link gain relative to that link's norm.
ALIGN_BOUND = 1e-8
GAIN_BOUND = 1e-6
# Criterion 5 slack on a rise of the leakage trace.
MONOTONE_SLACK = 1e-12
SNR_DB = [0.0, 10.0, 20.0, 30.0, 40.0]
# The 4-user 2x2 demo calls the two loop eigenbases incompatible above a
# chordal distance of 1e-2 (criterion 7's bound). About 0.4% of random
# networks (6 of seeds 0-1499) land between 1e-3 and 1e-2 and are reported
# "compatible, not ruled out". What must hold for every network is that
# the verdict follows the bound and that the loops share no eigenvector.
DEMO_TOL = 1e-2
SHARED_EIGENVECTOR = 1e-6


def demo_failures(distance, incompatible):
    bad = []
    if incompatible != (distance > DEMO_TOL):
        bad.append(f"4-user demo verdict incompatible={incompatible}"
                   f" contradicts its distance {distance:.3e}")
    if not distance > SHARED_EIGENVECTOR:
        bad.append(f"4-user demo loops share an eigenvector"
                   f" (distance {distance:.3e})")
    return bad


class ProbeSweep:
    """One ``feasibility_sweep`` call over a 2 x 2 (N, K) grid, 20 seeds a
    cell: (3, 4) and (3, 5) converge, (2, 4) and (2, 5) run to the cap."""

    name = "probe_sweep"
    N_VALUES = [2, 3]
    K_VALUES = [4, 5]
    SEEDS_PER_CELL = 20
    SEED_POOL = 100
    MAX_ITERS = 600
    FEASIBLE_TOL = 1e-6
    INFEASIBLE_TOL = 1e-3
    REFERENCE = HERE / "probe_reference.json"
    trace_rounds = 1
    work_unit = "seed-iterations"

    def __init__(self, ea, seed):
        self.ea = ea
        rng = np.random.default_rng(seed)
        self.seeds = sorted(int(s) for s in rng.choice(
            self.SEED_POOL, self.SEEDS_PER_CELL, replace=False))
        self.sample_index = seed % self.SEEDS_PER_CELL
        self.has_progress = "progress" in inspect.signature(
            ea.analysis.feasibility_sweep).parameters
        self.reference = self._expected_counts()
        self.first = None
        self.resampled = False

    @classmethod
    def reference_params(cls):
        return {"n_values": cls.N_VALUES, "k_values": cls.K_VALUES,
                "seed_pool": cls.SEED_POOL, "max_iters": cls.MAX_ITERS,
                "feasible_tol": cls.FEASIBLE_TOL,
                "infeasible_tol": cls.INFEASIBLE_TOL}

    def _expected_counts(self):
        doc = json.loads(self.REFERENCE.read_text())
        if doc["params"] != self.reference_params():
            raise SystemExit(f"{self.REFERENCE} was made for other sweep"
                             " parameters; regenerate it")
        counts = {}
        for row in doc["records"]:
            if row["seed"] in self.seeds:
                cell = counts.setdefault((row["n"], row["k"]), {
                    "feasible": 0, "infeasible": 0, "inconclusive": 0})
                cell[row["verdict"]] += 1
        return counts

    def sweep(self, seeds, checkpoint=None):
        # A sweep lasts seconds, long enough for the host to change speed
        # within it, so the run is checkpointed after every record through
        # the sweep's ``progress`` callback where the library offers one.
        progress = {}
        if checkpoint and self.has_progress:
            progress["progress"] = lambda record: checkpoint()
        return self.ea.analysis.feasibility_sweep(
            self.N_VALUES, self.K_VALUES, seeds, max_iters=self.MAX_ITERS,
            feasible_tol=self.FEASIBLE_TOL,
            infeasible_tol=self.INFEASIBLE_TOL, keep_traces=True, **progress)

    def warm_up(self):
        self.ea.analysis.feasibility_sweep([2], [3], [0], max_iters=20)

    def operations(self):
        return [(self.sweep, (self.seeds,))]

    def work(self, outcomes):
        return sum(r.iterations for o in outcomes if o.output
                   for r in o.output.records)

    def verdict_of(self, final):
        if final <= self.FEASIBLE_TOL:
            return "feasible"
        if final > self.INFEASIBLE_TOL:
            return "infeasible"
        return "inconclusive"

    def check_round(self, outcomes):
        for outcome in outcomes:
            if outcome.output is not None:
                self._check(outcome.output, outcome.failures)

    def _check(self, result, bad):
        for rec, trace in zip(result.records, result.traces):
            where = f"(n={rec.n_t}, k={rec.k}, seed={rec.seed})"
            if len(trace) > 1 and np.diff(trace).max() > MONOTONE_SLACK:
                bad.append(f"leakage rises in {where}")
            if (rec.final_leakage != float(trace[-1])
                    or rec.iterations != len(trace) - 1):
                bad.append(f"record disagrees with its trace in {where}")
            if rec.verdict != self.verdict_of(rec.final_leakage):
                bad.append(f"verdict {rec.verdict} does not match leakage"
                           f" {rec.final_leakage:.3e} in {where}")
        for (n, k), cell in result.cells.items():
            got = {"feasible": cell.feasible_seeds,
                   "infeasible": cell.infeasible_seeds,
                   "inconclusive": cell.inconclusive_seeds}
            if got != self.reference.get((n, k)):
                bad.append(f"cell ({n}, {k}) verdict counts {got} differ"
                           f" from the reference {self.reference.get((n, k))}")
        rows = [(r.n_t, r.k, r.seed, r.iterations, r.final_leakage, r.verdict)
                for r in result.records]
        if self.first is None:
            self.first = rows
        elif rows != self.first:
            bad.append("records differ from the first round's")
        if not self.resampled:
            self.resampled = True
            self._check_single_runs(result, bad)

    def _check_single_runs(self, result, bad):
        """A record must not depend on the batch it ran in: re-run one
        record a cell through a single ``iterate``."""
        ea = self.ea
        per_cell = len(self.seeds)
        for rec in result.records[self.sample_index::per_cell]:
            net = ea.channel.generate(
                ea.channel.NetworkDims(rec.k, rec.n_t, rec.n_r), rec.seed)
            cfg = ea.iterative.IterativeConfig(
                d=rec.d, max_iters=self.MAX_ITERS,
                leakage_tol=self.FEASIBLE_TOL, seed=rec.seed)
            trace = ea.iterative.iterate(net, cfg)
            if (trace.iterations != rec.iterations
                    or float(trace.leakage[-1]) != rec.final_leakage):
                bad.append(f"single run of (n={rec.n_t}, k={rec.k},"
                           f" seed={rec.seed}) gives {trace.iterations}"
                           f" iterations, leakage {trace.leakage[-1]!r};"
                           f" the sweep recorded {rec.iterations},"
                           f" {rec.final_leakage!r}")

    def close(self):
        pass


class ClosedFormMC:
    """Monte Carlo of the closed-form path; one operation is one seed's
    pass through criteria 1-3, 7 and 8's calls."""

    name = "closed_form_mc"
    PASSES_PER_ROUND = 128
    EIGEN_N = (2, 3, 4, 5)
    LOOP_N = (2, 3)
    trace_rounds = 1
    work_unit = "seed passes"

    def __init__(self, ea, seed):
        self.ea = ea
        self.pass_seeds = [seed * self.PASSES_PER_ROUND + i
                           for i in range(self.PASSES_PER_ROUND)]

    def one_pass(self, s, checkpoint=None):
        ch, cf, an = self.ea.channel, self.ea.closed_form, self.ea.analysis
        nets = {}
        eigen = []
        for n in self.EIGEN_N:
            net = ch.generate(ch.NetworkDims(n + 1, n, n), s)
            nets[(n + 1, n)] = net
            sol = cf.solve_eigen_method(net)
            report = an.verify(net, sol)
            rates = an.sum_rate_curve(net, sol, SNR_DB)
            eigen.append((net, sol, report, rates))
        loops = []
        for n in self.LOOP_N:
            net = nets.get((3, n)) or ch.generate(ch.NetworkDims(3, n, n), s)
            loops.append((net, cf.solve_loop_method(net),
                          cf.cube_relation_check(net)))
        demo = an.infeasibility_demo(ch.generate(ch.NetworkDims(4, 2, 2), s))
        return eigen, loops, demo

    def warm_up(self):
        self.one_pass(self.pass_seeds[0])

    def operations(self):
        return [(self.one_pass, (s,)) for s in self.pass_seeds]

    def work(self, outcomes):
        return len(outcomes)

    def _solution_ok(self, net, sol):
        """Criterion 1's bounds, computed here rather than by ``verify``."""
        scale = float(np.linalg.norm(net.h, axis=(2, 3)).max())
        k = net.dims.k
        worst = max(abs(sol.combiners[i].conj() @ net.h[i, j]
                        @ sol.precoders[j])
                    for i in range(k) for j in range(k) if i != j)
        gains_ok = all(
            abs(sol.combiners[i].conj() @ net.h[i, i] @ sol.precoders[i])
            >= GAIN_BOUND * np.linalg.norm(net.h[i, i]) for i in range(k))
        return worst <= ALIGN_BOUND * scale and gains_ok

    def check_round(self, outcomes):
        for outcome in outcomes:
            if outcome.output is not None:
                self._check(outcome.output, outcome.failures)

    def _check(self, output, bad):
        eigen, loops, demo = output
        for net, sol, report, rates in eigen:
            where = f"K={net.dims.k} seed={net.seed}"
            if not report.passed or not self._solution_ok(net, sol):
                bad.append(f"eigen solution fails verification at {where}")
            sums = [p.sum_rate for p in rates]
            if not np.all(np.isfinite(sums)) or np.any(np.diff(sums) <= 0):
                bad.append(f"sum rates not finite and increasing at {where}")
        for net, sol, cube in loops:
            where = f"N={net.dims.n_t} seed={net.seed}"
            if not self._solution_ok(net, sol):
                bad.append(f"loop solution fails verification at {where}")
            if not cube.passed:
                bad.append(f"cube relation fails at {where}"
                           f" (worst {cube.worst_mismatch:.2e})")
        bad.extend(demo_failures(demo.min_chordal_distance,
                                 demo.incompatible))

    def close(self):
        pass


class CliFiles:
    """In-process ``cli.main`` sessions on files, stdout captured. One
    operation is one session; a round has two sessions at each N."""

    name = "cli_files"
    LARGE_N = (5, 6, 7, 5, 6, 7)
    trace_rounds = 2
    work_unit = "sessions"
    SUBCOMMANDS = ["gen", "solve", "verify", "rates", "gen", "solve",
                   "infeasible"]
    # Iterations to converge on a 3-user 2x2 network are heavy-tailed (over
    # seeds 0-299: median 48, 90th percentile 129, largest 2510). The cap
    # keeps a session's time from hanging on its seed's draw; 18% of the
    # seeds reach it and exit 1.
    ITER_CAP = 100
    ITER_TOL = 1e-6

    def __init__(self, ea, seed, scratch):
        self.ea = ea
        self.root = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
        self.sessions = []
        for j, n in enumerate(self.LARGE_N):
            s = seed * len(self.LARGE_N) + j
            d = self.root / f"s{j}"
            d.mkdir()
            self.sessions.append((s, n, d))
        self.first = None

    def _commands(self, s, n, d):
        chan, sol = str(d / "chan.json"), str(d / "sol.json")
        small, small_sol = str(d / "small.json"), str(d / "small_sol.json")
        return [
            ["gen", "--users", str(n + 1), "--nt", str(n), "--nr", str(n),
             "--seed", str(s), "--out", chan],
            ["solve", "--method", "eigen", "--in", chan, "--out", sol],
            ["verify", "--channel", chan, "--solution", sol],
            ["rates", "--channel", chan, "--solution", sol,
             "--snr-db", "0:10:40"],
            ["gen", "--users", "3", "--nt", "2", "--nr", "2",
             "--seed", str(s), "--out", small],
            ["solve", "--method", "iterative", "--in", small,
             "--out", small_sol, "--seed", str(s),
             "--max-iters", str(self.ITER_CAP), "--tol", str(self.ITER_TOL)],
            ["infeasible", "--seed", str(s)],
        ]

    def session(self, s, n, d, checkpoint=None):
        results = []
        for argv in self._commands(s, n, d):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.ea.cli.main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def warm_up(self):
        self.session(*self.sessions[0])

    def operations(self):
        return [(self.session, args) for args in self.sessions]

    def work(self, outcomes):
        return len(outcomes)

    def check_round(self, outcomes):
        """Check the first round in full; every later round must repeat its
        exit codes, stdout and files byte for byte."""
        snapshot = [(o.output, {p.name: p.read_bytes()
                                for p in sorted(d.iterdir())})
                    for o, (_, _, d) in zip(outcomes, self.sessions)]
        if self.first is None:
            self.first = snapshot
            for (s, n, d), outcome in zip(self.sessions, outcomes):
                if outcome.output is not None:
                    self._check_session(s, n, d, outcome)
            return
        for o, now, then in zip(outcomes, snapshot, self.first):
            if now != then:
                o.failures.append("session output differs from the first"
                                  " round's bytes")

    def _check_session(self, s, n, d, outcome):
        ea, bad = self.ea, outcome.failures
        # ``solve --method iterative`` exits 1 when the leakage is still
        # above the tolerance at the cap.
        found = re.search(r"leakage=(\S+) iterations=(\d+)",
                          outcome.output[5][1])
        converged = bool(found) and float(found.group(1)) <= self.ITER_TOL
        if not found or int(found.group(2)) > self.ITER_CAP:
            bad.append("solve --method iterative printed no leakage within"
                       " the iteration cap")
        # ``infeasible`` exits 1 when it rules alignment out.
        demo = outcome.output[6][1]
        found = re.search(r"^min_chordal_distance=(\S+)", demo, re.M)
        incompatible = "\nINFEASIBLE " in demo
        if found:
            bad.extend(demo_failures(float(found.group(1)), incompatible))
        else:
            bad.append("infeasible printed no min_chordal_distance")
        expected = [0, 0, 0, 0, 0, 0 if converged else 1,
                    1 if incompatible else 0]
        for cmd, want, (code, _, err) in zip(self.SUBCOMMANDS, expected,
                                             outcome.output):
            if code != want:
                bad.append(f"{cmd} exited {code}, expected {want}: {err}")
        if outcome.output[2][1].splitlines()[-1:] != ["PASS"]:
            bad.append("verify did not print PASS")
        try:
            for name, dims in (("chan.json", (n + 1, n, n)),
                               ("small.json", (3, 2, 2))):
                net = ea.channel.deserialize((d / name).read_bytes())
                if net != ea.channel.generate(ea.channel.NetworkDims(*dims),
                                              s):
                    bad.append(f"{name} does not re-parse to its network")
            for name in ("sol.json", "small_sol.json"):
                ea.closed_form.solution_from_document((d / name).read_bytes())
        except (OSError, ea.errors.EigenalignError) as exc:
            bad.append(f"written document does not re-parse: {exc!r}")

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def make(name, ea, seed, scratch):
    """The workload ``name`` with its inputs drawn from ``seed``; files go
    under ``scratch``."""
    if name == ProbeSweep.name:
        return ProbeSweep(ea, seed)
    if name == ClosedFormMC.name:
        return ClosedFormMC(ea, seed)
    if name == CliFiles.name:
        return CliFiles(ea, seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


NAMES = [ProbeSweep.name, ClosedFormMC.name, CliFiles.name]
