import tracemalloc

import numpy as np
import pytest

from eigenalign import analysis, closed_form
from eigenalign.channel import InterferenceNetwork, NetworkDims, generate
from eigenalign.closed_form import AlignmentSolution, SolutionDiagnostics
from eigenalign.errors import (DimensionMismatch, RankDeficientSolution,
                               ShapeMismatch, SingularChannel,
                               UnverifiedSolution)
from eigenalign.iterative import IterativeConfig, iterate


def manual_solution(precoders, combiners):
    k = len(precoders)
    return AlignmentSolution(np.asarray(precoders, dtype=complex),
                             np.asarray(combiners, dtype=complex),
                             np.ones(k, dtype=int), None,
                             SolutionDiagnostics(0.0, None, None, True))


class TestVerify:
    def test_closed_form_passes(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        report = analysis.verify(net, sol)
        assert report.passed
        assert report.residuals.shape == (3, 3)
        assert np.all(np.diag(report.residuals) == 0)

    def test_broken_precoder_fails(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        broken = manual_solution(sol.precoders.copy(), sol.combiners.copy())
        rng = np.random.Generator(np.random.PCG64(1))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        broken.precoders[1] = v / np.linalg.norm(v)
        report = analysis.verify(net, broken)
        assert not report.passed
        bound = report.align_tol * report.channel_scale
        assert report.residuals[0, 1] > bound or report.residuals[2, 1] > bound
        # the gain kernel against the link-by-link products
        gains = np.array([[abs(broken.combiners[i].conj() @ net.h[i, j]
                               @ broken.precoders[j]) for j in range(3)]
                          for i in range(3)])
        np.testing.assert_allclose(report.residuals,
                                   gains * (1 - np.eye(3)), rtol=1e-12,
                                   atol=1e-14)
        np.testing.assert_allclose(report.rank_metrics, np.diag(gains),
                                   rtol=1e-12)

    def test_degenerate_identity_network_fails_rank(self):
        h = np.tile(np.eye(2, dtype=complex), (3, 3, 1, 1))
        net = InterferenceNetwork(NetworkDims(3, 2, 2), h)
        with pytest.raises(RankDeficientSolution) as err:
            closed_form.solve_eigen_method(net)
        report = analysis.verify(net, err.value.solution)
        assert not report.passed
        assert report.rank_metrics.min() < 1e-10
        assert report.residuals.max() <= report.align_tol * report.channel_scale

    def test_shape_mismatch(self):
        net = generate(NetworkDims(3, 2, 2), 0)
        sol = closed_form.solve_eigen_method(net)
        other = generate(NetworkDims(4, 3, 3), 0)
        with pytest.raises(ShapeMismatch) as err:
            analysis.verify(other, sol)
        assert str(err.value) == ("precoders have shape (3, 2),"
                                  " expected (4, 3)")
        # right precoders, combiners of the wrong width
        wide = manual_solution(sol.precoders, np.ones((3, 3)))
        with pytest.raises(ShapeMismatch) as err:
            analysis.verify(net, wide)
        assert str(err.value) == ("combiners have shape (3, 3),"
                                  " expected (3, 2)")


class TestRates:
    def test_unit_gain_one_bit(self):
        # isolated links with identity direct channels: gain exactly 1
        h = np.zeros((2, 2, 2, 2), dtype=complex)
        h[0, 0] = np.eye(2)
        h[1, 1] = np.eye(2)
        net = InterferenceNetwork(NetworkDims(2, 2, 2), h)
        e1 = np.array([1.0, 0.0], dtype=complex)
        sol = manual_solution([e1, e1], [e1, e1])
        points = analysis.sum_rate_curve(net, sol, [0.0])
        np.testing.assert_allclose(points[0].per_user, [1.0, 1.0], atol=1e-12)
        assert points[0].sum_rate == pytest.approx(2.0, abs=1e-12)

    def test_rates_vanish_at_low_snr(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        points = analysis.sum_rate_curve(net, sol, [-100.0])
        assert points[0].sum_rate < 1e-8

    def test_dof_slope(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        points = analysis.sum_rate_curve(net, sol, [30.0, 40.0])
        slope = points[1].sum_rate - points[0].sum_rate
        target = 3 * 10 * np.log2(10) / 10
        assert abs(slope - target) < 0.1 * target

    def test_monotone_in_snr(self):
        net = generate(NetworkDims(3, 2, 2), 3)
        sol = closed_form.solve_loop_method(net)
        points = analysis.sum_rate_curve(net, sol, [0.0, 10.0, 20.0, 30.0])
        rates = [p.sum_rate for p in points]
        assert np.all(np.diff(rates) > 0)

    def test_unverified_rejected(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        rng = np.random.Generator(np.random.PCG64(2))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        broken = manual_solution(sol.precoders.copy(), sol.combiners.copy())
        broken.precoders[2] = v / np.linalg.norm(v)
        with pytest.raises(UnverifiedSolution):
            analysis.sum_rate_curve(net, broken, [10.0])


class TestInfeasibilityDemo:
    def test_gaussian_seeds_incompatible(self):
        for seed in range(100, 120):
            net = generate(NetworkDims(4, 2, 2), seed)
            report = analysis.infeasibility_demo(net)
            assert report.min_chordal_distance > 0.01
            assert report.incompatible

    def test_joint_residual_large(self):
        net = generate(NetworkDims(4, 2, 2), 42)
        report = analysis.infeasibility_demo(net)
        assert report.joint_residual > 1e-2

    def test_engineered_shared_eigenvectors(self):
        # identical cross channels make both loop products the identity,
        # so the eigenvector sets coincide and the distance collapses
        rng = np.random.Generator(np.random.PCG64(0))
        h = np.zeros((4, 4, 2, 2), dtype=complex)
        for i in range(4):
            for j in range(4):
                h[i, j] = (np.eye(2) if i != j else
                           rng.standard_normal((2, 2))
                           + 1j * rng.standard_normal((2, 2)))
        net = InterferenceNetwork(NetworkDims(4, 2, 2), h)
        report = analysis.infeasibility_demo(net)
        assert report.min_chordal_distance < 1e-8
        assert not report.incompatible
        assert report.joint_residual < 1e-8

    @pytest.mark.parametrize("singular,named", [
        ([(3, 1), (2, 3)], (2, 3)),
        ([(1, 0), (3, 2)], (3, 2)),
        ([(0, 1), (3, 1)], (0, 1)),
    ])
    def test_first_failing_denominator_named(self, singular, named):
        # the denominators are checked in the order (0, 1), (3, 2), (1, 0),
        # (2, 3), (3, 1); the first singular one is named
        h = generate(NetworkDims(4, 2, 2), 5).h.copy()
        for pair in singular:
            h[pair] = np.ones((2, 2))
        net = InterferenceNetwork(NetworkDims(4, 2, 2), h)
        with pytest.raises(SingularChannel) as err:
            analysis.infeasibility_demo(net)
        assert err.value.pair == named

    @pytest.mark.parametrize("seed", [3, 42])
    @pytest.mark.parametrize("zeroed,user", [((1, 2), 1), ((2, 0), 4)])
    def test_degenerate_numerator_named(self, seed, zeroed, user):
        # h[1, 2] carries v3 to v1 and h[2, 0] carries v1 to v4; a zero
        # one passes the condition check but annihilates that precoder
        h = generate(NetworkDims(4, 2, 2), seed).h.copy()
        h[zeroed] = 0.0
        net = InterferenceNetwork(NetworkDims(4, 2, 2), h)
        with pytest.raises(SingularChannel,
                           match=f"^back-substitution for user {user} ") as err:
            analysis.infeasibility_demo(net)
        assert err.value.pair == zeroed

    def test_deterministic(self):
        net = generate(NetworkDims(4, 2, 2), 42)
        a = analysis.infeasibility_demo(net)
        b = analysis.infeasibility_demo(net)
        assert np.array_equal(a.distances, b.distances)
        assert a.min_chordal_distance == b.min_chordal_distance
        assert a.joint_residual == b.joint_residual

    def test_transmit_basis_invariance(self):
        # one unitary applied to every transmit side conjugates both loop
        # products, which preserves eigenvector angles
        net = generate(NetworkDims(4, 2, 2), 9)
        z = (np.random.Generator(np.random.PCG64(99))
             .standard_normal((2, 2)))
        q, _ = np.linalg.qr(z + 1j * z.T)
        h = np.array([[net.h[i, j] @ q for j in range(4)] for i in range(4)])
        rotated = InterferenceNetwork(net.dims, h)
        a = analysis.infeasibility_demo(net)
        b = analysis.infeasibility_demo(rotated)
        assert abs(a.min_chordal_distance - b.min_chordal_distance) < 1e-9

    def test_dimension_gate(self):
        with pytest.raises(DimensionMismatch):
            analysis.infeasibility_demo(generate(NetworkDims(3, 2, 2), 0))
        with pytest.raises(DimensionMismatch):
            analysis.infeasibility_demo(generate(NetworkDims(4, 3, 3), 0))


class TestFeasibilitySweep:
    def test_two_user_cells(self):
        result = analysis.feasibility_sweep([2], [3, 4], seeds=3,
                                            max_iters=3000)
        assert result.cells[(2, 3)].verdict == "feasible"
        assert result.cells[(2, 4)].verdict == "infeasible"
        assert result.cells[(2, 3)].predicted_feasible
        assert not result.cells[(2, 4)].predicted_feasible

    def test_records_ordering_and_fields(self):
        result = analysis.feasibility_sweep([2], [3], seeds=[5, 1, 3],
                                            max_iters=500)
        seeds = [r.seed for r in result.records]
        assert seeds == [1, 3, 5]
        rec = result.records[0]
        assert rec.n_t == rec.n_r == 2 and rec.k == 3
        assert rec.verdict in ("feasible", "infeasible", "inconclusive")
        assert rec.final_leakage >= 0

    def test_keep_traces_monotone(self):
        result = analysis.feasibility_sweep([2], [3, 4], seeds=2,
                                            max_iters=1500, keep_traces=True)
        assert len(result.traces) == len(result.records)
        for trace in result.traces:
            assert np.all(np.diff(trace) <= 1e-12)

    def test_records_equal_single_runs(self):
        result = analysis.feasibility_sweep([2], [3, 4], seeds=[2, 0, 1],
                                            max_iters=200, keep_traces=True)
        assert {r.iterations for r in result.records} > {200}
        for rec, trace in zip(result.records, result.traces):
            net = generate(NetworkDims(rec.k, rec.n_t, rec.n_r), rec.seed)
            alone = iterate(net, IterativeConfig(
                d=rec.d, max_iters=200, leakage_tol=1e-6, seed=rec.seed))
            assert rec.iterations == alone.iterations
            assert rec.final_leakage == float(alone.leakage[-1])
            assert np.array_equal(trace, alone.leakage)

    def test_progress_once_per_record_in_order(self):
        seen = []
        result = analysis.feasibility_sweep([2], [3, 4], seeds=[3, 1],
                                            max_iters=100,
                                            progress=seen.append)
        assert len(seen) == len(result.records) == 4
        assert all(a is b for a, b in zip(seen, result.records))

    @pytest.mark.parametrize("seeds", [0, [], [4, 4], True, [1.5, 2.7], 2.5])
    def test_rejects_bad_seed_sets(self, seeds):
        with pytest.raises(ValueError):
            analysis.feasibility_sweep([2], [3], seeds, max_iters=10)

    @pytest.mark.parametrize("n_values, k_values", [([2, 2], [3]), ([2], [3, 3])])
    def test_rejects_repeated_grid_values(self, n_values, k_values):
        # one cell per (n, k): a repeat would count its seeds twice
        with pytest.raises(ValueError, match="must be distinct"):
            analysis.feasibility_sweep(n_values, k_values, [0, 1], max_iters=10)

    @pytest.mark.parametrize("n_values, k_values, message", [
        ([2, 2], [3], "n_values must be distinct, got [2, 2]"),
        ([2], [3, 3], "k_values must be distinct, got [3, 3]"),
    ])
    def test_repeated_grid_refused_before_seeds(self, n_values, k_values,
                                                message):
        # the grid is checked before a seed count becomes a list, so a
        # huge count costs nothing here
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                analysis.feasibility_sweep(n_values, k_values, 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        assert peak < 2_000_000

    def test_render_table(self):
        result = analysis.feasibility_sweep([2], [3, 4], seeds=2,
                                            max_iters=3000)
        text = analysis.render_feasibility_table(result, [2], [3, 4])
        assert "N\\K" in text
        row = [line for line in text.splitlines() if line.strip().startswith("2 ")]
        assert len(row) == 1
        assert "Y" in row[0] and "." in row[0]
        assert "K <= 3" in row[0]

    def test_records_table_format(self):
        result = analysis.feasibility_sweep([2], [3], seeds=1, max_iters=500)
        text = analysis.records_table(result.records)
        lines = text.strip().splitlines()
        assert lines[0] == "n k seed final_leakage iterations verdict"
        assert lines[1].startswith("2 3 0 ")
        # any integral count but bool, NumPy integers included
        again = analysis.feasibility_sweep([2], [3], seeds=np.int64(1),
                                           max_iters=500)
        assert again.records == result.records

    def test_prediction_rule(self):
        assert analysis.predicted_feasible(2, 2, 3)
        assert not analysis.predicted_feasible(2, 2, 4)
        assert analysis.predicted_feasible(3, 3, 5)
        assert not analysis.predicted_feasible(3, 3, 6)
        assert analysis.predicted_feasible(4, 4, 7)
        assert not analysis.predicted_feasible(4, 4, 8)
