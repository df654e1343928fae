"""Verification, rate curves, the 4-user counterexample, and the
feasibility sweep.

Rates assume unit-power symbols, unit-norm zero-forcing combiners (which
preserve the unit noise variance) and a perfectly suppressed interference
term, so each user sees the scalar channel ``u_i^H H_ii v_i`` and
contributes ``log2(1 + snr |u_i^H H_ii v_i|^2)`` bits per channel use.

The sweep drives the alternating minimizer over a grid of (N, K) cells and
many seeds and reduces each cell to feasible / infeasible / inconclusive
by fixed leakage thresholds, next to the dimension-count prediction that
single-stream alignment works iff ``n_r + n_t - 1 >= k``.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channel import NetworkDims, generate
from .closed_form import (ALIGN_TOL, RANK_TOL, _back_substitute,
                          _channel_ratios, _gain_report, _interference_columns)
from .errors import DimensionMismatch, ShapeMismatch, UnverifiedSolution
from .iterative import IterativeConfig, iterate_batch

#: Chordal distance above which the two eigenbases count as incompatible.
INCOMPATIBILITY_TOL = 1e-2


@dataclass
class VerificationReport:
    """Raw alignment residuals and direct-link gains with the verdict.

    ``residuals[i, j]`` is ``|u_i^H H_ij v_j|`` for ``i != j`` (diagonal
    zero); ``rank_metrics[i]`` is ``|u_i^H H_ii v_i|``. The verdict
    compares residuals against ``align_tol`` times the largest channel
    Frobenius norm and gains against ``rank_tol * ||H_ii||_F``.
    """

    residuals: np.ndarray
    rank_metrics: np.ndarray
    passed: bool
    align_tol: float
    rank_tol: float
    channel_scale: float


def verify(net, sol, align_tol=ALIGN_TOL, rank_tol=RANK_TOL):
    """Evaluate all K(K-1) alignment residuals and K direct-link gains."""
    k = net.dims.k
    for name, n in (("precoders", net.dims.n_t), ("combiners", net.dims.n_r)):
        if (shape := np.shape(getattr(sol, name))) != (k, n):
            raise ShapeMismatch(
                f"{name} have shape {shape}, expected {(k, n)}")
    gains, direct, scale = _gain_report(net, sol.precoders, sol.combiners)
    residuals = np.where(np.eye(k, dtype=bool), 0.0, gains)
    rank_metrics = np.diagonal(gains).copy()
    passed = bool(residuals.max() <= align_tol * scale
                  and np.all(rank_metrics >= rank_tol * direct))
    return VerificationReport(residuals, rank_metrics, passed,
                              align_tol, rank_tol, scale)


@dataclass
class RatePoint:
    """Per-user and sum rates (bits per channel use) at one SNR."""

    snr_db: float
    per_user: np.ndarray
    sum_rate: float


def sum_rate_curve(net, sol, snr_db_list):
    """Interference-free rates over an SNR list for a verified solution.

    Raises
    ------
    UnverifiedSolution
        If ``verify`` fails: with residual interference the formula would
        overstate the rates.
    """
    report = verify(net, sol)
    if not report.passed:
        raise UnverifiedSolution(
            f"solution fails verification (max residual"
            f" {report.residuals.max():.3e}); rates would be"
            " interference-limited")
    gains_sq = report.rank_metrics ** 2
    points = []
    for snr_db in snr_db_list:
        snr = 10.0 ** (snr_db / 10.0)
        per_user = np.log2(1.0 + snr * gains_sq)
        points.append(RatePoint(float(snr_db), per_user, float(per_user.sum())))
    return points


@dataclass
class InfeasibilityReport:
    """Eigenbasis incompatibility of the two 4-user loop products.

    Single-stream alignment would need the two products to share an
    eigenvector (both fix the same precoder); ``min_chordal_distance``
    measures how far the closest pair of unit eigenvectors is from that,
    and ``joint_residual`` shows how badly the best compromise precoder
    violates alignment.
    """

    distances: np.ndarray
    min_chordal_distance: float
    closest_pair: tuple
    joint_residual: float
    incompatible: bool


def infeasibility_demo(net, incompatibility_tol=INCOMPATIBILITY_TOL):
    """The 4-user, 2x2 counterexample, made quantitative.

    Composing the alignment constraints around the two distinct 4-user
    loops pins the second precoder to an eigenvector of two independent
    matrix products simultaneously. This computes both products, all their
    eigenvectors, and the minimum chordal distance ``sqrt(1 - |a^H b|^2)``
    over cross pairs; it also sets the precoder to the phase-aligned
    average of the closest pair, back-substitutes the rest, and reports
    the resulting (normalized) best-case alignment residual. A degenerate
    channel raises SingularChannel: the first denominator over the
    condition cap, in the order (0, 1), (3, 2), (1, 0), (2, 3), (3, 1), or
    a numerator that annihilates a precoder of the chain (h[1, 2] for
    user 1, h[2, 0] for user 4).
    """
    if net.dims.k != 4 or net.dims.n_t != 2 or net.dims.n_r != 2:
        raise DimensionMismatch(
            f"the demonstrator is specific to K=4 users with 2x2 channels,"
            f" got K={net.dims.k}, {net.dims.n_r}x{net.dims.n_t}")

    # Every ratio inv(h[l, den]) h[l, num] used below, by denominator.
    dens = [(0, 1), (3, 2), (1, 0), (2, 3), (3, 1)]
    ratios = dict(zip(dens, _channel_ratios(net, dens)))

    def ratio(l, den, num):
        return ratios[l, den][num]

    # Loop A: receivers 1, 4, 2, 3 (1-based); loop B: receivers 1, 3, 2, 4.
    prod_a = ratio(0, 1, 2) @ ratio(3, 2, 0) @ ratio(1, 0, 3) @ ratio(2, 3, 1)
    prod_b = ratio(0, 1, 3) @ ratio(2, 3, 0) @ ratio(1, 0, 2) @ ratio(3, 1, 2)

    vecs_a = linalg.eig_general(prod_a)[1]
    vecs_b = linalg.eig_general(prod_b)[1]
    overlaps = np.abs(vecs_a.conj().T @ vecs_b)
    distances = np.sqrt(np.maximum(0.0, 1.0 - overlaps ** 2))
    closest = np.unravel_index(int(np.argmin(distances)), distances.shape)
    min_dist = float(distances[closest])

    a = vecs_a[:, closest[0]]
    b = vecs_b[:, closest[1]]
    overlap = np.vdot(a, b)
    if abs(overlap) > 0:
        b = b * np.conj(overlap / abs(overlap))
    v2 = a + b
    v2 = v2 / np.linalg.norm(v2)

    # Back-substitute the remaining precoders along one consistent chain.
    v3, v1, v4 = _back_substitute(v2, ((ratio(3, 2, 1), 3, (3, 1)),
                                       (ratio(1, 0, 2), 1, (1, 2)),
                                       (ratio(2, 3, 0), 4, (2, 0))))
    precoders = np.stack([v1, v2, v3, v4])

    # Best least-squares combiners: weakest left singular direction of the
    # interference each receiver sees.
    combiners = np.stack([
        np.linalg.svd(_interference_columns(net, precoders, i))[0][:, -1]
        for i in range(4)])
    gains, _, scale = _gain_report(net, precoders, combiners)
    worst = np.max(gains, where=~np.eye(4, dtype=bool), initial=0.0)

    return InfeasibilityReport(
        distances=distances,
        min_chordal_distance=min_dist,
        closest_pair=(int(closest[0]), int(closest[1])),
        joint_residual=float(worst / scale),
        incompatible=min_dist > incompatibility_tol,
    )


@dataclass(frozen=True)
class FeasibilityRecord:
    """Outcome of one iterative run at one (n, k, seed) grid point."""

    n_t: int
    n_r: int
    k: int
    d: tuple
    seed: int
    final_leakage: float
    iterations: int
    verdict: str


@dataclass
class CellSummary:
    """Aggregated verdict for one (n, k) cell of the sweep."""

    n: int
    k: int
    verdict: str
    feasible_seeds: int
    infeasible_seeds: int
    inconclusive_seeds: int
    predicted_feasible: bool


@dataclass
class SweepResult:
    records: list
    cells: dict
    traces: list | None = field(default=None, repr=False)


def predicted_feasible(n_r, n_t, k):
    """Dimension-count prediction for single-stream alignment."""
    return n_r + n_t - 1 >= k


def feasibility_sweep(n_values, k_values, seeds, max_iters=5000,
                      feasible_tol=1e-6, infeasible_tol=1e-3, quorum=0.9,
                      keep_traces=False, progress=None):
    """Run the iterative probe over an (N, K) grid of square networks.

    ``seeds`` may be an integer count (seeds 0..count-1, any integral
    type but ``bool``) or an explicit list of integers. A run is feasible
    when its final leakage drops below ``feasible_tol``, infeasible when
    it still exceeds ``infeasible_tol`` at the iteration cap, inconclusive
    otherwise; a cell verdict needs a ``quorum`` fraction of its runs to
    agree. Records are produced in sorted (n, k, seed) order, so the
    result does not depend on how the work is scheduled. Each cell runs
    all its seeds as one ``iterate_batch``; ``progress`` is called once
    per record, in record order, in a burst after each cell's batch.

    Raises
    ------
    ValueError
        If ``seeds`` is a ``bool`` or a non-integral count, holds a
        non-integral seed, names no seed, or repeats one, or if
        ``n_values`` or ``k_values`` repeats a value.
    """
    def integral(x):
        return isinstance(x, numbers.Integral) and not isinstance(x, bool)

    def distinct(name, values):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must be distinct, got {values}")
        return values

    # the grid first: a count of seeds becomes a list only past it
    n_values = distinct("n_values", sorted(int(n) for n in n_values))
    k_values = distinct("k_values", sorted(int(k) for k in k_values))
    if integral(seeds):
        seeds = list(range(int(seeds)))
    elif isinstance(seeds, (bool, numbers.Number)):
        raise ValueError(f"seeds must be a count or a list, got {seeds!r}")
    else:
        seeds = list(seeds)
        if not all(integral(s) for s in seeds):
            raise ValueError(f"seeds must be integers, got {seeds}")
        seeds = distinct("seeds", sorted(int(s) for s in seeds))
    if not seeds:
        raise ValueError("the sweep needs at least one seed")

    records = []
    traces = [] if keep_traces else None
    cells = {}
    for n in n_values:
        for k in k_values:
            nets = [generate(NetworkDims(k, n, n), seed) for seed in seeds]
            cfgs = [IterativeConfig(d=(1,) * k, max_iters=max_iters,
                                    leakage_tol=feasible_tol, seed=seed)
                    for seed in seeds]
            counts = {"feasible": 0, "infeasible": 0, "inconclusive": 0}
            for seed, trace in zip(seeds, iterate_batch(nets, cfgs)):
                final = float(trace.leakage[-1])
                if final <= feasible_tol:
                    verdict = "feasible"
                elif final > infeasible_tol:
                    verdict = "infeasible"
                else:
                    verdict = "inconclusive"
                counts[verdict] += 1
                records.append(FeasibilityRecord(
                    n_t=n, n_r=n, k=k, d=(1,) * k, seed=seed,
                    final_leakage=final, iterations=trace.iterations,
                    verdict=verdict))
                if keep_traces:
                    traces.append(trace.leakage)
                if progress is not None:
                    progress(records[-1])
            total = len(seeds)
            if counts["feasible"] >= quorum * total:
                cell_verdict = "feasible"
            elif counts["infeasible"] >= quorum * total:
                cell_verdict = "infeasible"
            else:
                cell_verdict = "inconclusive"
            cells[(n, k)] = CellSummary(
                n=n, k=k, verdict=cell_verdict,
                feasible_seeds=counts["feasible"],
                infeasible_seeds=counts["infeasible"],
                inconclusive_seeds=counts["inconclusive"],
                predicted_feasible=predicted_feasible(n, n, k))
    return SweepResult(records, cells, traces)


_CELL_CHARS = {"feasible": "Y", "infeasible": ".", "inconclusive": "?"}


def records_table(records):
    """Per-run tabular text: n k seed final_leakage iterations verdict."""
    lines = ["n k seed final_leakage iterations verdict"]
    for r in records:
        lines.append(f"{r.n_t} {r.k} {r.seed} {r.final_leakage:.6e}"
                     f" {r.iterations} {r.verdict}")
    return "\n".join(lines) + "\n"


def render_feasibility_table(result, n_values, k_values):
    """Achievability grid (rows N, columns K) with the prediction column.

    Y = feasible, . = infeasible, ? = inconclusive; a trailing column
    shows the largest K the dimension count allows, and cells that
    disagree with it are flagged with '!'.
    """
    header = " N\\K |" + "".join(f" {k:>2}" for k in k_values) + " | predicted"
    lines = [header, "-" * len(header)]
    for n in n_values:
        row = f" {n:>3} |"
        for k in k_values:
            cell = result.cells[(n, k)]
            mark = _CELL_CHARS[cell.verdict]
            if (cell.verdict != "inconclusive"
                    and (cell.verdict == "feasible") != cell.predicted_feasible):
                mark += "!"
            row += f" {mark:<2}"
        row += " | K <= " + str(2 * n - 1)
        lines.append(row)
    lines.append("")
    lines.append("Y feasible, . infeasible, ? inconclusive,"
                 " ! disagrees with the dimension count")
    return "\n".join(lines) + "\n"
