#!/usr/bin/env python3
"""Benchmark of the eigenalign package, run from the root of a checkout.

    python3 perfbench/run.py --workload probe_sweep --seed 1 --seconds 36 --trace 0

Workloads: ``probe_sweep``, ``closed_form_mc`` and ``cli_files`` (see
``perfbench/README.md``). The package is imported from ``src/`` of the
checkout; the benchmark exits non-zero without a result when it is missing.

``--trace 0`` repeats rounds of the workload for ``--seconds`` seconds of
timed work and reports the end-to-end metrics. ``--trace 1`` runs a fixed
number of rounds four times, alternately untraced and with every layer's
public functions wrapped, and reports per-layer metrics from the faster
traced pass; the two traced passes must give identical counts. Correctness is checked outside
the timed region and failures are counted, not raised.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it carry the
machine facts and run details, which are also written, with the spans of a
traced run, under ``.perfbench_run/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads are fixed before numpy is imported. One thread: the matrices
# are at most 35 x 35, and a second BLAS thread would compete with the
# single benchmark process for the two cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
sys.path.insert(0, str(HERE))

#: Fresh-process set-ups per run, besides the run's own; setup_s is the median.
SETUP_CHILDREN = 5


def load_package():
    """Import ``eigenalign`` from the checkout's ``src/`` and nowhere else."""
    if not (SRC / "eigenalign" / "__init__.py").is_file():
        sys.exit(f"perfbench: no eigenalign sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eigenalign
    import eigenalign.cli  # noqa: F401  (not imported by the package)
    if Path(eigenalign.__file__).resolve().parent != SRC / "eigenalign":
        sys.exit(f"perfbench: eigenalign imported from {eigenalign.__file__},"
                 f" not from {SRC}")
    return eigenalign


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(np, workload, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "eigenalign").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
    }


class Outcome:
    """One operation's raw and scaled time, output and the failures found
    for it."""

    __slots__ = ("seconds", "scaled", "output", "failures")

    def __init__(self, seconds, scaled, output, failures):
        self.seconds = seconds
        self.scaled = scaled
        self.output = output
        self.failures = failures


def timed(clock, func, args, cal_before, split=True):
    """Run one operation and scale its time to reference host speed.

    With ``split``, the operation may call the ``checkpoint`` it is given
    between units of work. Each stretch between checkpoints is scaled by CALIBRATION_REF_S
    over the mean of the calibration kernel's times at its two ends; the
    kernel's own time is not counted. Returns the outcome and the last
    kernel time, which is the next operation's first.
    """
    raw = scaled = 0.0
    cal, t0 = cal_before, clock()

    def checkpoint():
        nonlocal raw, scaled, cal, t0
        dt = clock() - t0
        after = calibrate(clock)
        raw += dt
        scaled += dt * 2 * CALIBRATION_REF_S / (cal + after)
        cal, t0 = after, clock()

    try:
        out = func(*args, checkpoint=checkpoint if split else None)
        failures = []
    except Exception as exc:   # an operation that raises is a failure
        out = None
        failures = [f"raised {exc!r}"]
    checkpoint()
    return Outcome(raw, scaled, out, failures), cal


# A shared host can run this process up to 2.2x slower for periods from
# seconds to minutes, with CPU time slowing along with wall time. A fixed
# kernel of the benchmark's own (small complex eig and svd calls plus
# interpreted dict updates, like the library's mix) is timed before and
# after every operation, and each operation's time is scaled to the host
# speed at which the kernel takes CALIBRATION_REF_S. On a 2-core Xeon VM,
# over 100 s of closed-form passes, raw times swung by up to 60% while
# their ratio to the kernel stayed within 3%.
CALIBRATION_REF_S = 4.0e-3


def calibrate(clock):
    """Seconds taken by one run of the fixed calibration kernel."""
    import numpy as np
    rng = np.random.default_rng(12345)
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in (6, 12, 20)]
    t0 = clock()
    for _ in range(8):
        for m in mats:
            np.linalg.eig(m)
            np.linalg.svd(m, compute_uv=False)
        d = {}
        for i in range(300):
            d[i % 17] = d.get(i % 17, 0.0) + i * 0.5
    return clock() - t0


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest sample. Below 21 samples that percentile lies under the median,
    so the second largest is reported instead: the highest sample that a
    single outlier cannot set."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 1:
        return ordered[0], 100.0, n
    if n < 21:
        return ordered[-2], 100.0 * (n - 1) / n, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def timed_rounds(workload, rounds=None, seconds=None, split=True):
    """Run rounds until ``rounds`` are done or another round would end
    after ``seconds``; check each round after its timed region.

    Operation times are scaled to reference host speed (see ``timed``).
    """
    clock = time.perf_counter
    scaled, raw, cal, failures = [], [], [], []
    attempted = failed = work = 0
    start = clock()
    while True:
        round_start = clock()
        outcomes = []
        before = calibrate(clock)
        for func, args in workload.operations():
            outcome, before = timed(clock, func, args, before, split)
            outcomes.append(outcome)
            cal.append(before)
        workload.check_round(outcomes)
        scaled.append([o.scaled for o in outcomes])
        raw.append(sum(o.seconds for o in outcomes))
        work = workload.work(outcomes)
        for o in outcomes:
            attempted += 1
            if o.failures:
                failed += 1
                failures.extend(o.failures)
        now = clock()
        if rounds is not None:
            if len(raw) == rounds:
                break
        elif now - start + (now - round_start) > seconds:
            break
    return {"scaled": scaled, "raw": raw, "work": work,
            "host_slowdown": statistics.median(cal) / CALIBRATION_REF_S,
            "attempted": attempted, "failed": failed, "failures": failures}


def end_to_end(workload, setup_samples, seconds):
    """End-to-end metrics of the rounds of one run, at reference host
    speed: ``wall_s`` is the median over rounds of a round's scaled time,
    and latency is taken over every scaled operation time of the run."""
    res = timed_rounds(workload, seconds=seconds)
    wall = statistics.median(sum(row) for row in res["scaled"])
    latencies = [t for row in res["scaled"] for t in row]
    tail_s, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "throughput_per_s": (res["work"] / wall, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "success_ratio": (1.0 - res["failed"] / res["attempted"], "ratio"),
    }
    detail = {
        "rounds": len(res["raw"]), "operations": res["attempted"],
        "raw_round_s_median": statistics.median(res["raw"]),
        "host_slowdown": res["host_slowdown"],
        "throughput_unit": f"{workload.work_unit}/s",
        "latency_tail_percentile": tail_pct, "latency_samples": n,
        "error_ratio": res["failed"] / res["attempted"],
        "setup_samples_s": setup_samples,
        "failures": res["failures"][:20],
    }
    return res["attempted"], res["failed"], metrics, detail


def _row(summary, qualname):
    return summary.get(qualname) or {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                     "counts": {}}


def exact_counts(tracer):
    """The counts a later change can cite: calls and boundary counts per
    traced function, and the iteration totals."""
    counts = {q: [row["calls"], sorted(row["counts"].items())]
              for q, row in tracer.summary().items()}
    counts["iterative.top_level"] = sorted(
        (k, v) for k, v in tracer.top_level_iterate_counts().items()
        if k != "ms")
    return counts


def per_layer(tracer, overhead_s):
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    summary = tracer.summary()
    m = {}

    sweep = _row(summary, "analysis.feasibility_sweep")
    loose = tracer.top_level_iterate_counts()
    seed_iters = sweep["counts"].get("iterations", 0) + loose["iterations"]
    runs = sweep["counts"].get("runs", 0) + loose["runs"]
    converged = sweep["counts"].get("converged", 0) + loose["converged"]
    capped = (sweep["counts"].get("capped_iterations", 0)
              + loose["capped_iterations"])
    driving_ms = sweep["ms"] + loose["ms"]
    m["iterative.us_per_seed_iter"] = (
        driving_ms * 1e3 / seed_iters if seed_iters else 0.0, "us")
    m["iterative.seed_iters"] = (seed_iters, "count")
    m["iterative.capped_iter_share"] = (
        capped / seed_iters if seed_iters else 0.0, "ratio")
    m["iterative.converged_ratio"] = (converged / runs if runs else 0.0,
                                      "ratio")
    m["iterative.iterate.calls"] = (_row(summary, "iterative.iterate")["calls"],
                                    "count")
    m["iterative.iterate.ms"] = (_row(summary, "iterative.iterate")["ms"], "ms")
    m["analysis.feasibility_sweep.calls"] = (sweep["calls"], "count")
    m["analysis.feasibility_sweep.self_ms"] = (sweep["self_ms"], "ms")

    for q in ("linalg.eig_general", "linalg.solve", "linalg.condition_estimate",
              "linalg.null_space_orthonormal", "closed_form.build_stacked",
              "closed_form.solve_eigen_method", "closed_form.solve_loop_method",
              "closed_form.cube_relation_check", "analysis.verify",
              "analysis.sum_rate_curve", "analysis.infeasibility_demo",
              "channel.generate"):
        row = _row(summary, q)
        m[f"{q}.calls"] = (row["calls"], "count")
        m[f"{q}.self_ms"] = (row["self_ms"], "ms")

    for q in ("channel.serialize", "channel.deserialize",
              "closed_form.solution_to_document",
              "closed_form.solution_from_document"):
        row = _row(summary, q)
        m[f"{q}.calls"] = (row["calls"], "count")
        m[f"{q}.ms"] = (row["ms"], "ms")
        if q.startswith("channel."):
            m[f"{q}.bytes"] = (row["counts"].get("bytes", 0), "bytes")

    cli_self = sum(row["self_ms"] for q, row in summary.items()
                   if q.startswith("cli."))
    for sub in ("gen", "solve", "verify", "rates", "infeasible"):
        m[f"cli.{sub}.ms"] = (_row(summary, f"cli.cmd_{sub}")["ms"], "ms")
    m["cli.main.calls"] = (_row(summary, "cli.main")["calls"], "count")
    m["cli.self_ms"] = (cli_self, "ms")

    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (len(tracer.spans), "count")

    absent = sorted(set(tracer.absent)
                    | {q for q, row in summary.items() if row["calls"] == 0})
    return m, absent


def traced(workload, ea, tag):
    from tracer import Tracer

    rounds = workload.trace_rounds
    plain, passes = [], []
    # Alternate, so that both kinds of pass see the host alike. Operations
    # are not split by calibration checkpoints here: a checkpoint inside a
    # traced call would count as that call's self time.
    for _ in range(2):
        plain.append(timed_rounds(workload, rounds=rounds, split=False))
        tracer = Tracer(ea)
        with tracer.active():
            passes.append((tracer, timed_rounds(workload, rounds=rounds,
                                                split=False)))
    untraced_s = min(sum(map(sum, p["scaled"])) for p in plain)
    tracer, res = min(passes, key=lambda p: sum(map(sum, p[1]["scaled"])))
    traced_s = sum(map(sum, res["scaled"]))
    metrics, absent = per_layer(tracer, traced_s - untraced_s)

    runs = plain + [r for _, r in passes]
    attempted = sum(r["attempted"] for r in runs) + 1
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    first, second = (exact_counts(t) for t, _ in passes)
    if first != second:
        failed += 1
        failures.append("counts differ between two traced passes: "
                        + ", ".join(q for q in first
                                    if first[q] != second.get(q)))
    tracer.write_spans(OUT / f"spans-{tag}.jsonl")
    detail = {
        "rounds_per_pass": rounds,
        "untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
        "absent": absent, "exact_counts": first,
        "error_ratio": failed / attempted,
        "failures": failures[:20],
    }
    return attempted, failed, metrics, detail


def child_setup(args):
    """Time one set-up in a fresh interpreter (interpreter start excluded),
    scaled to reference host speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up in a fresh process failed:\n"
                 f"{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    t0 = time.perf_counter()
    ea = load_package()
    import numpy as np
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {workloads.NAMES}")
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, ea, args.seed, OUT)
    try:
        workload.warm_up()
        setup_s = time.perf_counter() - t0
        setup_s *= CALIBRATION_REF_S / statistics.median(
            calibrate(time.perf_counter) for _ in range(5))
        if args.setup_only:
            print(repr(setup_s))
            return 0
        facts = machine_facts(np, args.workload, args.seed)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            attempted, failed, metrics, detail = traced(workload, ea, tag)
        else:
            setup_samples = [setup_s] + [child_setup(args)
                                         for _ in range(SETUP_CHILDREN)]
            attempted, failed, metrics, detail = end_to_end(
                workload, setup_samples, args.seconds)
    finally:
        workload.close()

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"machine": facts, "detail": detail, "result": result}, indent=1))
    print("perfbench machine " + json.dumps(facts))
    print("perfbench detail " + json.dumps(
        {k: v for k, v in detail.items() if k != "exact_counts"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
