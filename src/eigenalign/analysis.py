"""Rate curves, the 4-user counterexample, and the feasibility sweep.

The rate curves and the demonstrator judge filters with ``verify`` from
:mod:`eigenalign.closed_form`, which owns it and its report.

Rates assume unit-power symbols, unit-norm zero-forcing combiners (which
preserve the unit noise variance) and a perfectly suppressed interference
term, so each user sees the scalar channel ``u_i^H H_ii v_i`` and
contributes ``log2(1 + snr |u_i^H H_ii v_i|^2)`` bits per channel use.

The sweep hands the alternating minimizer bare channel grids, one draw per
(N, K) cell over many seeds, and reduces each cell to feasible /
infeasible / inconclusive by fixed leakage thresholds, next to the
dimension-count prediction that single-stream alignment works iff
``n_r + n_t - 1 >= k``.
"""

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channel import (InterferenceNetwork, NetworkDims, _count, _grids,
                      _instance, _positive, _values)
from .closed_form import (AlignmentSolution, _back_substitute, _channel_ratios,
                          _interference, _power_scaled, verify)
from .errors import DimensionMismatch, UnverifiedSolution
from .iterative import (DEFAULT_LEAKAGE_TOL, DEFAULT_MAX_ITERS,
                        _random_precoders, _run_batch)

#: Chordal distance above which the two eigenbases count as incompatible.
INCOMPATIBILITY_TOL = 1e-2

#: Share of a cell's runs that must agree on a feasible or infeasible verdict.
QUORUM = 0.9


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
        overstate the rates, and a zero direct link carries none.
    ValueError
        If ``snr_db_list`` is not iterable, an SNR entry is not a real
        number (``bool`` is not), or its received power ``snr |u_i^H
        H_ii v_i|^2`` is not finite (at any SNR once the strongest gain's
        square overflows).
    """
    snr_db_list = _values("snr_db_list", snr_db_list, "SNRs in dB")
    report = verify(net, sol)
    if not report.passed:
        raise UnverifiedSolution(
            f"solution fails verification (max residual"
            f" {report.residuals.max():.3e}, weakest gain"
            f" {report.rank_metrics.min():.3e})")
    strongest = float(report.rank_metrics.max())
    strongest *= strongest   # a float's product is inf, not a warning
    points = []
    for i, snr_db in enumerate(snr_db_list):
        if isinstance(snr_db, bool) or not isinstance(snr_db, numbers.Real):
            raise ValueError(f"SNR entry {i} must be a real number of dB,"
                             f" got {snr_db!r}")
        try:
            snr = math.pow(10.0, snr_db / 10.0)
        except OverflowError:
            snr = math.inf
        if not math.isfinite(snr * strongest):
            raise ValueError(f"SNR {snr_db} dB gives no finite received power")
        per_user = np.log2(1.0 + snr * report.rank_metrics ** 2)
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


def infeasibility_demo(net):
    """The 4-user, 2x2 counterexample, made quantitative.

    Composing the alignment constraints around the two distinct 4-user
    loops pins the second precoder to an eigenvector of two independent
    matrix products simultaneously. This computes both products, all their
    eigenvectors, and the minimum chordal distance ``sqrt(1 - |a^H b|^2)``
    over cross pairs; it also sets the precoder to the phase-aligned
    average of the closest pair, back-substitutes the rest, and reports
    the resulting (normalized) best-case alignment residual. The bases
    count as incompatible above :data:`INCOMPATIBILITY_TOL`. A degenerate
    channel raises SingularChannel: the first denominator over the
    condition cap, in the order (0, 1), (3, 2), (1, 0), (2, 3), (3, 1), or
    a numerator that annihilates a precoder of the chain (h[1, 2] for
    user 1, h[2, 0] for user 4).
    """
    _instance("net", net, InterferenceNetwork)
    if net.dims.k != 4 or net.dims.n_t != 2 or net.dims.n_r != 2:
        raise DimensionMismatch(
            f"the demonstrator is specific to K=4 users with 2x2 channels,"
            f" got K={net.dims.k}, {net.dims.n_r}x{net.dims.n_t}")

    # Every ratio inv(h[l, den]) h[l, num] used below, by denominator.
    dens = [(0, 1), (3, 2), (1, 0), (2, 3), (3, 1)]
    # each ratio scaled: no loop product, nor its square, over- or underflows
    ratios = dict(zip(dens, _power_scaled(_channel_ratios(net, dens),
                                          axes=(2, 3))[0]))

    # Loop A: receivers 1, 4, 2, 3 (1-based); loop B: receivers 1, 3, 2, 4.
    prod_a = (ratios[0, 1][2] @ ratios[3, 2][0] @ ratios[1, 0][3]
              @ ratios[2, 3][1])
    prod_b = (ratios[0, 1][3] @ ratios[2, 3][0] @ ratios[1, 0][2]
              @ ratios[3, 1][2])

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
    v3, v1, v4 = _back_substitute(v2, ((ratios[3, 2][1], 3, (3, 1)),
                                       (ratios[1, 0][2], 1, (1, 2)),
                                       (ratios[2, 3][0], 4, (2, 0))))
    precoders = np.stack([v1, v2, v3, v4])

    # Least-squares combiners: each receiver's weakest left singular vector,
    # on the whole network scaled at once (each channel on its own would
    # change them).
    h = _power_scaled(net.h)[0]
    combiners = np.linalg.svd(_interference(h, precoders))[0][..., -1]
    report = verify(net, AlignmentSolution(precoders, combiners, None))

    return InfeasibilityReport(
        distances=distances,
        min_chordal_distance=min_dist,
        closest_pair=(int(closest[0]), int(closest[1])),
        joint_residual=report.alignment_residual,
        incompatible=min_dist > INCOMPATIBILITY_TOL,
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
    traces: list | None = field(repr=False)


def predicted_feasible(n_r, n_t, k):
    """Dimension-count prediction for single-stream alignment."""
    return _count("n_r", n_r) + _count("n_t", n_t) - 1 >= _count("k", k, 2)


def feasibility_sweep(n_values, k_values, seeds, max_iters=DEFAULT_MAX_ITERS,
                      feasible_tol=DEFAULT_LEAKAGE_TOL, infeasible_tol=1e-3,
                      keep_traces=False, progress=None):
    """Run the iterative probe over an (N, K) grid of square networks.

    ``seeds`` is a count (seeds 0..count-1) or a list of seeds; every value
    may be of any integral type but ``bool``. A run is feasible when its
    final leakage drops below ``feasible_tol``, infeasible when it still
    exceeds ``infeasible_tol`` at the iteration cap, inconclusive otherwise;
    a cell verdict needs a :data:`QUORUM` fraction of its runs to agree.
    Records are produced in sorted (n, k, seed) order, so the result does
    not depend on how the work is scheduled. Each N draws a cell's channel
    grids at once and runs all its cells as one engine batch, each run
    bitwise its seed's ``iterate``, in ascending N; ``progress`` is called
    once per record, in record order, after the last batch.

    Raises
    ------
    ValueError
        If a grid value, a seed, the count or ``max_iters`` is not integral
        or out of range (N < 1, K < 2, seed < 0, count < 1, max_iters < 1,
        more values than a list holds), if ``n_values``, ``k_values`` or
        ``seeds`` names no value (checked before anything is drawn), if the
        grid or the seeds repeat a value, if a tolerance is not a number > 0
        (``bool`` is not) or exceeds the other, or if ``keep_traces`` is no
        bool or ``progress`` is neither None nor callable.
    """
    _instance("progress", progress, (type(None), Callable), "None or callable")
    _instance("keep_traces", keep_traces, bool)
    max_iters = _count("max_iters", max_iters)
    if (feasible_tol := _positive("feasible_tol", feasible_tol)) > _positive(
            "infeasible_tol", infeasible_tol):
        raise ValueError(f"feasible_tol {feasible_tol!r} exceeds"
                         f" infeasible_tol {infeasible_tol!r}")
    if isinstance(seeds, numbers.Number):
        seeds = range(_count("seeds", seeds))
    # the grid first: a count of seeds becomes a list only past it
    checked = []
    for name, values, least, noun in (
            ("n_values", n_values, 1, "N"), ("k_values", k_values, 2, "K"),
            ("seeds", seeds, 0, "seed")):
        checked.append(sorted(_count(name, x, least) for x in
                              _values(name, values, "integers")))
        if not checked[-1]:
            raise ValueError(f"the sweep needs at least one {noun}")
        if len(set(checked[-1])) != len(checked[-1]):
            raise ValueError(f"{name} must be distinct, got {checked[-1]}")
    n_values, k_values, seeds = checked

    def job(n):   # one engine batch over all of N's cells and seeds
        hs = [h for k in k_values for h in _grids(NetworkDims(k, n, n), seeds)]
        pre = _random_precoders(n, [len(h) for h in hs], seeds * len(k_values))
        return _run_batch(hs, pre, max_iters, feasible_tol)

    records = []
    traces = [] if keep_traces else None
    cells = {}
    for n, batch in zip(n_values, [job(n) for n in n_values]):
        batch = iter(batch)
        for k in k_values:
            counts = {"feasible": 0, "infeasible": 0, "inconclusive": 0}
            for seed, trace in zip(seeds, batch):
                final = float(trace.leakage[-1])
                verdict = ("feasible" if final <= feasible_tol else
                           "infeasible" if final > infeasible_tol else
                           "inconclusive")
                counts[verdict] += 1
                records.append(FeasibilityRecord(
                    n_t=n, n_r=n, k=k, d=(1,) * k, seed=seed,
                    final_leakage=final, iterations=trace.iterations,
                    verdict=verdict))
                if keep_traces:
                    traces.append(trace.leakage)
                if progress is not None:
                    progress(records[-1])
            agreed = [v for v in ("feasible", "infeasible")
                      if counts[v] >= QUORUM * len(seeds)]
            cells[(n, k)] = CellSummary(
                n=n, k=k, verdict=(agreed + ["inconclusive"])[0],
                feasible_seeds=counts["feasible"],
                infeasible_seeds=counts["infeasible"],
                inconclusive_seeds=counts["inconclusive"],
                predicted_feasible=predicted_feasible(n, n, k))
    return SweepResult(records, cells, traces)


_CELL_CHARS = {"feasible": "Y", "infeasible": ".", "inconclusive": "?"}


def records_table(records):
    """Per-run tabular text: n k seed final_leakage iterations verdict."""
    lines = ["n k seed final_leakage iterations verdict"]
    for r in _values("records", records, "FeasibilityRecords"):
        _instance("records", r, FeasibilityRecord, "FeasibilityRecords")
        lines.append(f"{r.n_t} {r.k} {r.seed} {r.final_leakage:.6e}"
                     f" {r.iterations} {r.verdict}")
    return "\n".join(lines) + "\n"


def render_feasibility_table(result, n_values, k_values):
    """Achievability grid (rows N, columns K) with the prediction column.

    Y = feasible, . = infeasible, ? = inconclusive; a trailing column
    shows the largest K the dimension count allows, and cells that
    disagree with it are flagged with '!'. ValueError names a ``result``
    that is not a :class:`SweepResult`, a grid that is no iterable of counts
    (N >= 1, K >= 2), or the first ``(n, k)`` that it holds no cell for.
    """
    _instance("result", result, SweepResult)
    n_values, k_values = ([_count(name, x, least) for x in _values(
        name, values, "integers")] for name, values, least in (
            ("n_values", n_values, 1), ("k_values", k_values, 2)))
    header = " N\\K |" + "".join(f" {k:>2}" for k in k_values) + " | predicted"
    lines = [header, "-" * len(header)]
    for n in n_values:
        row = f" {n:>3} |"
        for k in k_values:
            if (cell := result.cells.get((n, k))) is None:
                raise ValueError(f"the sweep result has no cell (n, k) ="
                                 f" {(n, k)}")
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
