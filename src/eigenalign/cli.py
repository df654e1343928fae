"""Command-line frontend: gen, solve, verify, rates, infeasible, sweep.

Every subcommand is a pure function of its flags and input files, so
repeated runs produce byte-identical output. Exit codes: 0 success /
positive finding, 1 negative finding (failed verification, rank-deficient
or non-converged solve, confirmed infeasibility, inconclusive sweep cell),
2 usage or malformed input (a request larger than the machine can hold
too), 3 no usable eigenpair, 4 I/O failure.

``EIGENALIGN_SEED``, read on every call, provides the default of ``--seed``.
"""

import argparse
import functools
import os
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, channel, closed_form, iterative
from .errors import (ConfigMismatch, DimensionMismatch, EigenalignError,
                     MalformedDocument, NoUsableEigenpair,
                     RankDeficientSolution, ShapeMismatch)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NO_EIGENPAIR = 3
EXIT_IO = 4

#: Most points ``rates --snr-db`` accepts.
MAX_SNR_POINTS = 10_000

#: Most values ``sweep --n-range`` or ``--k-range`` accepts.
MAX_RANGE_VALUES = 1_000

#: Most seeds ``sweep --seeds`` runs per cell.
MAX_SWEEP_SEEDS = 1_000


def _default_seed():
    text = os.environ.get("EIGENALIGN_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"EIGENALIGN_SEED must be an integer, got {text!r}") from None


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path, data):
    if path is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _parse_int_range(text, flag):
    lo, sep, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"{flag} expects A or A:B, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"{flag} range is empty: {text!r}")
    if hi - lo >= MAX_RANGE_VALUES:
        raise ValueError(f"{flag} allows at most {MAX_RANGE_VALUES} values,"
                         f" {text!r} asks for {hi - lo + 1}")
    return list(range(lo, hi + 1))


def _parse_snr_range(text):
    try:
        start, step, stop = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"--snr-db expects A:STEP:B, got {text!r}") from None
    if not np.all(np.isfinite([start, step, stop])):
        raise ValueError(f"--snr-db needs finite A, STEP and B, got {text!r}")
    if step <= 0:
        raise ValueError("--snr-db step must be positive")
    if stop < start:
        raise ValueError("--snr-db range is empty")
    count = np.floor((stop - start) / step + 1e-9) + 1   # inf on overflow
    if not count <= MAX_SNR_POINTS:
        raise ValueError(f"--snr-db allows at most {MAX_SNR_POINTS} points,"
                         f" {text!r} asks for {count:.6g}")
    return [start + i * step for i in range(int(count))]


def cmd_gen(args):
    net = channel.generate(
        channel.NetworkDims(args.users, args.nt, args.nr), args.seed)
    _write_bytes(args.out, channel.serialize(net))
    return EXIT_OK


def cmd_solve(args):
    net = channel.deserialize(_read_bytes(args.infile))
    head, failure = "", None
    try:
        if args.method == "iterative":
            trace = iterative.iterate(net, iterative.IterativeConfig(
                d=(1,) * net.dims.k, max_iters=args.max_iters,
                leakage_tol=args.tol, seed=args.seed))
            head = (f" leakage={trace.leakage[-1]:.6e}"
                    f" iterations={trace.iterations}")
            if not trace.converged:
                failure = (f"leakage above threshold {args.tol:.6e} after"
                           f" {trace.iterations} iterations")
            sol = closed_form._rank_gate(net, closed_form.AlignmentSolution(
                trace.precoders, trace.combiners, None))
        else:
            sol = (closed_form.solve_eigen_method if args.method == "eigen"
                   else closed_form.solve_loop_method)(net)
    except RankDeficientSolution as exc:
        sol = exc.solution
        failure = failure or f"rank condition: {exc}"
    lam = sol.eigenvalue   # None on the iterative route only
    tail = "" if lam is None else f" lambda={lam.real:.12g}{lam.imag:+.12g}j"
    if args.out:
        _write_bytes(args.out, closed_form.solution_to_document(
            net, sol, args.method))
    report = closed_form.verify(net, sol)
    print(f"method={args.method}{head}"
          f" residual={report.alignment_residual:.6e}"
          f" rank_metric={np.min(report.relative_gains):.6e}{tail}")
    if failure is not None:
        print(f"FAIL {failure}")
        return EXIT_NEGATIVE
    return EXIT_OK


def _load_solved_network(args):
    """The ``--channel`` network and the ``--solution`` built for it."""
    net = channel.deserialize(_read_bytes(args.channel))
    sol, dims, _ = closed_form.solution_from_document(_read_bytes(args.solution))
    if dims != net.dims:
        raise ShapeMismatch(
            f"solution was built for (k={dims.k}, nt={dims.n_t},"
            f" nr={dims.n_r}) but the channel file has (k={net.dims.k},"
            f" nt={net.dims.n_t}, nr={net.dims.n_r})")
    return net, sol


def cmd_verify(args):
    net, sol = _load_solved_network(args)
    report = closed_form.verify(net, sol)
    k = net.dims.k
    print("pair residual_grid (rows: receiver i, cols: transmitter j)")
    for i in range(k):
        print(" ".join(f"{report.residuals[i, j]:.6e}" for j in range(k)))
    print("rank_metrics " + " ".join(f"{m:.6e}" for m in report.rank_metrics))
    print(f"align_tol={closed_form.ALIGN_TOL:.1e} rank_tol="
          f"{closed_form.RANK_TOL:.1e} channel_scale={report.channel_scale:.6e}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_rates(args):
    net, sol = _load_solved_network(args)
    snr_list = _parse_snr_range(args.snr_db)
    points = analysis.sum_rate_curve(net, sol, snr_list)
    k = net.dims.k
    print("snr_db " + " ".join(f"rate_user_{i + 1}" for i in range(k))
          + " sum_rate")
    for p in points:
        print(f"{p.snr_db:.2f} "
              + " ".join(f"{r:.6f}" for r in p.per_user)
              + f" {p.sum_rate:.6f}")
    return EXIT_OK


def cmd_infeasible(args):
    net = channel.generate(channel.NetworkDims(4, 2, 2), args.seed)
    report = analysis.infeasibility_demo(net)
    print(f"seed={args.seed}")
    print("chordal_distances (rows: first loop, cols: second loop)")
    for row in report.distances:
        print(" ".join(f"{d:.6e}" for d in row))
    print(f"min_chordal_distance={report.min_chordal_distance:.6e}"
          f" closest_pair={report.closest_pair[0]},{report.closest_pair[1]}")
    print(f"joint_residual={report.joint_residual:.6e}")
    if report.incompatible:
        print("INFEASIBLE single-stream alignment: the two loop products"
              " share no eigenvector")
        return EXIT_NEGATIVE
    print("COMPATIBLE eigenvectors found; alignment not ruled out")
    return EXIT_OK


def cmd_sweep(args):
    n_values = _parse_int_range(args.n_range, "--n-range")
    k_values = _parse_int_range(args.k_range, "--k-range")
    if args.seeds > MAX_SWEEP_SEEDS:
        raise ValueError(f"--seeds allows at most {MAX_SWEEP_SEEDS},"
                         f" got {args.seeds}")
    result = analysis.feasibility_sweep(
        n_values, k_values, args.seeds, max_iters=args.max_iters)
    sys.stdout.write(analysis.records_table(result.records))
    print()
    sys.stdout.write(analysis.render_feasibility_table(result, n_values,
                                                       k_values))
    if args.out:
        doc = {
            "records": [
                {"n": r.n_t, "k": r.k, "seed": r.seed,
                 "final_leakage": r.final_leakage,
                 "iterations": r.iterations, "verdict": r.verdict}
                for r in result.records],
            "cells": [asdict(c) for c in result.cells.values()],
        }
        _write_bytes(args.out, channel._dumps(doc))
    if any(c.verdict == "inconclusive" for c in result.cells.values()):
        return EXIT_NEGATIVE
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eigenalign",
        description="Construct, verify and stress-test interference"
                    " alignment on constant MIMO interference channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random channel file")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--nr", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve alignment on a channel file")
    p.add_argument("--method", choices=("eigen", "loop", "iterative"),
                   required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--max-iters", type=int, default=iterative.DEFAULT_MAX_ITERS)
    p.add_argument("--tol", type=float, default=iterative.DEFAULT_LEAKAGE_TOL)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution against a channel")
    p.add_argument("--channel", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rates", help="interference-free rate table")
    p.add_argument("--channel", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--snr-db", required=True,
                   help="range A:STEP:B in dB, endpoints included,"
                   f" at most {MAX_SNR_POINTS} points")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("infeasible",
                       help="4-user 2x2 eigenvector-incompatibility demo")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_infeasible)

    p = sub.add_parser("sweep", help="feasibility sweep over an (N, K) grid")
    p.add_argument("--n-range", required=True, help="A or A:B, inclusive")
    p.add_argument("--k-range", required=True, help="A or A:B, inclusive")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=iterative.DEFAULT_MAX_ITERS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


#: The parser :func:`main` builds once per process; it fills ``--seed``.
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        seed = _default_seed()
        args = _parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = seed
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NoUsableEigenpair as exc:
        print(f"no usable eigenpair: {exc}", file=sys.stderr)
        return EXIT_NO_EIGENPAIR
    except (MalformedDocument, ShapeMismatch, DimensionMismatch,
            ConfigMismatch, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EigenalignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
