import re
import traceback
import tracemalloc
import warnings

import numpy as np
import pytest

from eigenalign import analysis, channel, closed_form
from eigenalign.channel import InterferenceNetwork, NetworkDims, generate
from eigenalign.closed_form import AlignmentSolution
from eigenalign.errors import (DimensionMismatch, RankDeficientSolution,
                               ShapeMismatch, SingularChannel,
                               UnverifiedSolution)
from eigenalign.iterative import (IterativeConfig, _random_precoders,
                                  _run_batch, iterate)


def manual_solution(precoders, combiners):
    return AlignmentSolution(np.asarray(precoders, dtype=complex),
                             np.asarray(combiners, dtype=complex), None)


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
        bound = closed_form.ALIGN_TOL * report.channel_scale
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

    @pytest.mark.parametrize("name", ["precoders", "combiners"])
    @pytest.mark.parametrize("bad", [
        np.full((3, 2), object(), dtype=object), np.full((3, 2), "a"),
        np.full((3, 2), "1")])
    def test_non_numeric_filters_refused(self, name, bad):
        # a ValueError naming the filters, never a TypeError from einsum
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        filters = {"precoders": sol.precoders, "combiners": sol.combiners}
        filters[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be an array of"
                           " numbers$"):
            analysis.verify(net, AlignmentSolution(**filters, eigenvalue=None))

    @pytest.mark.parametrize("name", ["precoders", "combiners"])
    def test_out_of_range_int_refused(self, name):
        # an int past the float range is no finite number: a ValueError
        # naming the filters, never an OverflowError from the conversion
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        filters = {"precoders": sol.precoders.tolist(),
                   "combiners": sol.combiners.tolist()}
        filters[name][1][0] = 10 ** 400
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            analysis.verify(net, AlignmentSolution(**filters, eigenvalue=None))

    @pytest.mark.parametrize("dims", [(3, 2, 2), (4, 3, 3)])
    @pytest.mark.parametrize("name", ["precoders", "combiners"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0, -np.inf)])
    def test_non_finite_filters_refused(self, dims, name, bad):
        net = generate(NetworkDims(*dims), 1)
        sol = closed_form.solve_eigen_method(net)
        getattr(sol, name)[0, 0] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            analysis.verify(net, sol)

    @pytest.mark.parametrize("dims", [(3, 2, 2), (4, 3, 3)])
    def test_large_filters_scale_out(self, dims):
        # each filter is scaled by its own power of two: gains within the
        # float range are the raw ones, past it they read inf, never NaN
        net = generate(NetworkDims(*dims), 1)
        sol = closed_form.solve_eigen_method(net)
        base = analysis.verify(net, sol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mid = analysis.verify(net, manual_solution(sol.precoders * 1e100,
                                                       sol.combiners * 1e50))
            big = analysis.verify(net, manual_solution(sol.precoders * 1e200,
                                                       sol.combiners * 1e200))
        np.testing.assert_allclose(mid.relative_gains,
                                   base.relative_gains * 1e150, rtol=1e-12)
        np.testing.assert_allclose(mid.residuals, base.residuals * 1e150,
                                   rtol=1e-9, atol=1e150 * 1e-14)
        assert mid.channel_scale == base.channel_scale
        assert np.isinf(big.relative_gains).all()
        assert np.isinf(big.rank_metrics).all()
        assert big.alignment_residual == np.inf and not big.passed
        assert not np.isnan(big.residuals).any()

    def test_degenerate_identity_network_fails_rank(self):
        h = np.tile(np.eye(2, dtype=complex), (3, 3, 1, 1))
        net = InterferenceNetwork(NetworkDims(3, 2, 2), h)
        with pytest.raises(RankDeficientSolution) as err:
            closed_form.solve_eigen_method(net)
        report = analysis.verify(net, err.value.solution)
        assert not report.passed
        assert report.rank_metrics.min() < 1e-10
        bound = closed_form.ALIGN_TOL * report.channel_scale
        assert report.residuals.max() <= bound

    @pytest.mark.parametrize("zeroed", ["all", "h00"])
    def test_zero_direct_link_never_passes(self, zeroed):
        # 0 >= RANK_TOL * ||H_00||_F holds at H_00 = 0; a zero gain must fail
        net = generate(NetworkDims(3, 2, 2), 1)
        sol = closed_form.solve_eigen_method(net)
        h = net.h.copy()
        if zeroed == "all":
            h[...] = 0.0
        else:
            h[0, 0] = 0.0
        zero = InterferenceNetwork(net.dims, h)
        report = analysis.verify(zero, sol)
        assert not report.passed and report.rank_metrics[0] == 0.0
        with pytest.raises(UnverifiedSolution, match="weakest gain 0.000e"):
            analysis.sum_rate_curve(zero, sol, [10.0])

    def test_zero_direct_link_fails_rank_gate(self):
        net = generate(NetworkDims(3, 2, 2), 1)
        h = net.h.copy()
        h[0, 0] = 0.0
        zero = InterferenceNetwork(net.dims, h)
        with pytest.raises(RankDeficientSolution, match=r"direct link of"
                           r" user 0 .* \(gain 0.000e\+00 < 1e-06\)") as err:
            closed_form.solve_eigen_method(zero)
        assert err.value.user == 0
        report = analysis.verify(zero, err.value.solution)
        assert report.relative_gains[0] == 0.0
        assert not report.passed

    def test_shape_mismatch(self):
        net = generate(NetworkDims(3, 2, 2), 0)
        sol = closed_form.solve_eigen_method(net)
        other = generate(NetworkDims(4, 3, 3), 0)
        with pytest.raises(ShapeMismatch) as err:
            analysis.verify(other, sol)
        assert str(err.value) == ("precoders: shape (3, 2),"
                                  " expected (4, 3)")
        # right precoders, combiners of the wrong width
        wide = manual_solution(sol.precoders, np.ones((3, 3)))
        with pytest.raises(ShapeMismatch) as err:
            analysis.verify(net, wide)
        assert str(err.value) == ("combiners: shape (3, 3),"
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

    def test_solve_verify_and_rates_compute_one_report(self, spy):
        # the rank gate's report serves the caller's verify and the rates
        computed = spy(closed_form, "_report")
        net = generate(NetworkDims(5, 4, 4), 3)
        sol = closed_form.solve_eigen_method(net)
        report = analysis.verify(net, sol)
        points = analysis.sum_rate_curve(net, sol, [0.0, 10.0])
        assert len(computed) == 1
        np.testing.assert_array_equal(
            points[1].per_user, np.log2(1.0 + 10.0 * report.rank_metrics ** 2))

    def test_unverified_rejected(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        rng = np.random.Generator(np.random.PCG64(2))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        broken = manual_solution(sol.precoders.copy(), sol.combiners.copy())
        broken.precoders[2] = v / np.linalg.norm(v)
        with pytest.raises(UnverifiedSolution):
            analysis.sum_rate_curve(net, broken, [10.0])


    @pytest.mark.parametrize("snr_db", [
        4000.0, np.float64(4000.0), 3085.0, float("inf"), float("nan")])
    def test_overflowing_snr_refused(self, snr_db):
        # 10 ** (dB / 10) overflows a float above about 3082.5 dB, and the
        # received power snr * gain^2 may overflow below it
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        assert np.isfinite(analysis.sum_rate_curve(net, sol, [3000.0])[0]
                           .sum_rate)
        with pytest.raises(ValueError, match=f"^SNR {snr_db} dB gives no"
                           " finite received power$"):
            analysis.sum_rate_curve(net, sol, [0.0, snr_db])

    @pytest.mark.parametrize("factor", [1e200, 1e-310])
    def test_extreme_channel_scales(self, factor):
        # at 1e200 the gains' squares overflow, so every SNR is refused
        # before any square is taken; at 1e-310 they underflow to no rate
        net = generate(NetworkDims(3, 2, 2), 1)
        scaled = InterferenceNetwork(net.dims, net.h * factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = closed_form.solve_eigen_method(scaled)
            if factor > 1:
                with pytest.raises(ValueError, match="^SNR 0.0 dB gives no"
                                   " finite received power$"):
                    analysis.sum_rate_curve(scaled, sol, [0.0, 10.0])
                return
            points = analysis.sum_rate_curve(scaled, sol, [0.0, 10.0])
        assert [p.sum_rate for p in points] == [0.0, 0.0]

    @pytest.mark.parametrize("snr_db", ["10", None, 1 + 2j, True])
    def test_non_real_snr_refused(self, snr_db):
        # a ValueError naming the entry, not a TypeError from / or math.pow;
        # True is no SNR of 1 dB
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        with pytest.raises(ValueError, match=r"^SNR entry 1 must be a real"
                           rf" number of dB, got {re.escape(repr(snr_db))}$"):
            analysis.sum_rate_curve(net, sol, [0.0, snr_db, 10.0])


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

    @pytest.mark.parametrize("factor", [1e200, 1e-310])
    def test_extreme_channel_scales(self, factor):
        net = generate(NetworkDims(4, 2, 2), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = analysis.infeasibility_demo(
                InterferenceNetwork(net.dims, net.h * factor))
        base = analysis.infeasibility_demo(net)
        assert got.closest_pair == base.closest_pair
        assert np.abs(got.distances - base.distances).max() <= 1e-12
        assert got.joint_residual == pytest.approx(base.joint_residual,
                                                   rel=1e-9)

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
        # each N's batch mixes runs that converge with runs that reach the
        # cap; N = 2 takes the projector path, N = 3 the 3x3 closed form and
        # N = 4 eigh
        result = analysis.feasibility_sweep([2, 3, 4], [3, 4, 5, 8],
                                            seeds=[2, 0, 1], max_iters=200,
                                            keep_traces=True)
        for n in (2, 3, 4):
            assert {r.iterations for r in result.records if r.n_t == n} > {200}
        for rec, trace in zip(result.records, result.traces):
            net = generate(NetworkDims(rec.k, rec.n_t, rec.n_r), rec.seed)
            alone = iterate(net, IterativeConfig(
                d=rec.d, max_iters=200, leakage_tol=1e-6, seed=rec.seed))
            assert rec.iterations == alone.iterations
            assert rec.final_leakage == float(alone.leakage[-1])
            assert np.array_equal(trace, alone.leakage)

    def test_one_batch_per_n(self, monkeypatch):
        # every cell of an N shares one engine batch, each run from its
        # seed's draw; records and progress keep the sorted (n, k, seed)
        # order
        calls, seen = [], []
        run_batch = analysis._run_batch

        def spy(hs, vs, max_iters, tol):
            calls.append([(h.shape[-1], len(h), v) for h, v in zip(hs, vs)])
            assert (max_iters, tol) == (30, 1e-6)
            return run_batch(hs, vs, max_iters, tol)

        monkeypatch.setattr(analysis, "_run_batch", spy)
        result = analysis.feasibility_sweep([3, 2], [4, 3], seeds=[2, 0],
                                            max_iters=30,
                                            progress=seen.append)
        order = [(n, k, seed) for n in (2, 3) for k in (3, 4)
                 for seed in (0, 2)]
        assert [[run[:2] for run in call] for call in calls] == [
            [cell[:2] for cell in order[:4]], [cell[:2] for cell in order[4:]]]
        for (n, k, v), (_, _, seed) in zip(calls[0] + calls[1], order):
            assert np.array_equal(v, _random_precoders(n, [k], [seed])[0])
        assert [(r.n_t, r.k, r.seed) for r in result.records] == order
        assert seen == result.records and all(
            a is b for a, b in zip(seen, result.records))

    def test_one_stream_derivation_per_cell_and_batch(self, monkeypatch):
        # an (n, k) cell's channels come from one stream derivation and the
        # starting precoders of an N's batch from one more; the networks
        # handed to the probe are bitwise those of generate
        derivations, handed = [], []
        streams, run_batch = channel._streams, analysis._run_batch

        def spy_streams(seeds, keys):
            derivations.append((np.shape(keys)[1], len(keys)))
            return streams(seeds, keys)

        def spy_batch(hs, vs, max_iters, tol):
            handed.extend(hs)
            return run_batch(hs, vs, max_iters, tol)

        monkeypatch.setattr(channel, "_streams", spy_streams)
        monkeypatch.setattr(analysis, "_run_batch", spy_batch)
        analysis.feasibility_sweep([3, 2], [4, 3], seeds=[2, 0, 5],
                                   max_iters=5)
        # key width 2 is a channel draw (3 seeds x K^2 keys), width 1 the
        # precoders (3 seeds x (3 + 4) keys)
        assert derivations == [(2, 27), (2, 48), (1, 21)] * 2
        grid = [(n, k, seed) for n in (2, 3) for k in (3, 4)
                for seed in (0, 2, 5)]
        assert len(handed) == len(grid)
        for h, (n, k, seed) in zip(handed, grid):
            ref = generate(NetworkDims(k, n, n), seed)
            assert h.shape == ref.h.shape
            assert h.tobytes() == ref.h.tobytes()

    def test_progress_once_per_record_in_order(self):
        seen = []
        result = analysis.feasibility_sweep([2], [3, 4], seeds=[3, 1],
                                            max_iters=100,
                                            progress=seen.append)
        assert len(seen) == len(result.records) == 4
        assert all(a is b for a, b in zip(seen, result.records))

    def test_progress_after_all_batches(self, monkeypatch):
        # the records are assembled after the last batch
        seen, run_batch = [], analysis._run_batch

        def spy(hs, vs, max_iters, tol):
            seen.append(hs[0].shape[-1])
            return run_batch(hs, vs, max_iters, tol)

        monkeypatch.setattr(analysis, "_run_batch", spy)
        result = analysis.feasibility_sweep([3, 2], [3], seeds=[1, 0],
                                            max_iters=20,
                                            progress=seen.append)
        assert seen[:2] == [2, 3] and seen[2:] == result.records
        assert [(r.n_t, r.seed) for r in seen[2:]] == [(2, 0), (2, 1), (3, 0),
                                                       (3, 1)]

    @pytest.mark.parametrize("failing", [2, 3])
    def test_batch_error_raised_as_is(self, monkeypatch, failing):
        # an error in any N's batch leaves the sweep as it was raised,
        # with the frame that raised it on its traceback
        def run_batch(hs, vs, max_iters, tol):
            if hs[0].shape[-1] == failing:
                raise DimensionMismatch(f"no batch at N = {failing}")
            return _run_batch(hs, vs, max_iters, tol)

        monkeypatch.setattr(analysis, "_run_batch", run_batch)
        with pytest.raises(DimensionMismatch,
                           match=f"^no batch at N = {failing}$") as info:
            analysis.feasibility_sweep([2, 3], [3], 2, max_iters=10)
        assert run_batch.__code__ in [
            frame.f_code for frame, _ in traceback.walk_tb(info.tb)]

    @pytest.mark.parametrize("progress", [1.5, "print", [print]])
    def test_rejects_bad_progress(self, progress, monkeypatch):
        # refused before any network is drawn, not at the first record
        def draw(*args):
            raise AssertionError("a network was drawn")

        monkeypatch.setattr(analysis, "_grids", draw)
        with pytest.raises(ValueError, match=re.escape(
                f"progress must be None or callable, got"
                f" {type(progress).__name__}")):
            analysis.feasibility_sweep([2], [3], 2, progress=progress)

    @pytest.mark.parametrize("max_iters", [0, True, 1.5])
    def test_rejects_bad_iteration_cap(self, max_iters):
        with pytest.raises(ValueError, match=re.escape(
                f"max_iters must be >= 1 and integral, got {max_iters!r}")):
            analysis.feasibility_sweep([2], [3], 2, max_iters=max_iters)

    @pytest.mark.parametrize("seeds", [0, [], [4, 4], True, [1.5, 2.7], 2.5])
    def test_rejects_bad_seed_sets(self, seeds):
        with pytest.raises(ValueError):
            analysis.feasibility_sweep([2], [3], seeds, max_iters=10)

    @pytest.mark.parametrize("k_values, seeds, name, values", [
        ([3], 2 ** 63, "seeds", range(2 ** 63)),
        ([3], 2 ** 70, "seeds", range(2 ** 70)),
        (range(2, 2 ** 64), 1, "k_values", range(2, 2 ** 64)),
    ])
    def test_rejects_more_values_than_a_list_holds(self, k_values, seeds,
                                                   name, values):
        # a ValueError, not the OverflowError of list(range(2 ** 63)); no
        # count here is one the host could try to allocate
        with pytest.raises(ValueError) as err:
            analysis.feasibility_sweep([2], k_values, seeds)
        assert str(err.value) == f"{name} has too many values, got {values!r}"

    @pytest.mark.parametrize("n_values, k_values, seeds, message", [
        ([], [4], 2, "the sweep needs at least one N"),
        ([2], [], 2, "the sweep needs at least one K"),
        ([2], [4], [], "the sweep needs at least one seed"),
    ])
    def test_rejects_empty_grid(self, n_values, k_values, seeds, message,
                                monkeypatch):
        # refused before any network is drawn
        def draw(*args):
            raise AssertionError("a network was drawn")

        monkeypatch.setattr(analysis, "_grids", draw)
        with pytest.raises(ValueError) as err:
            analysis.feasibility_sweep(n_values, k_values, seeds)
        assert str(err.value) == message

    @pytest.mark.parametrize("n_values, k_values, message", [
        ([2.7], [3.9], "n_values must be >= 1 and integral, got 2.7"),
        ([2], [3.0], "k_values must be >= 2 and integral, got 3.0"),
        ([True], [3], "n_values must be >= 1 and integral, got True"),
        ([2], [True], "k_values must be >= 2 and integral, got True"),
        ([0], [3], "n_values must be >= 1 and integral, got 0"),
        ([2], [1], "k_values must be >= 2 and integral, got 1"),
    ])
    def test_rejects_bad_grid_values(self, n_values, k_values, message):
        # refused as given, never truncated to another cell
        with pytest.raises(ValueError) as err:
            analysis.feasibility_sweep(n_values, k_values, 1, max_iters=10)
        assert str(err.value) == message

    @pytest.mark.parametrize("tols, message", [
        ((1e-3, 1e-6), "feasible_tol 0.001 exceeds infeasible_tol 1e-06"),
        (("1e-6", 1e-3), "feasible_tol must be > 0, got '1e-6'"),
        ((1e-6, None), "infeasible_tol must be > 0, got None"),
        ((0.0, 1e-3), "feasible_tol must be > 0, got 0.0"),
        ((float("nan"), 1e-3), "feasible_tol must be > 0, got nan"),
        ((True, 2.0), "feasible_tol must be > 0, got True"),
    ])
    def test_rejects_bad_tolerances(self, tols, message):
        # checked before any network is drawn; equal tolerances are allowed
        with pytest.raises(ValueError) as err:
            analysis.feasibility_sweep([2], [3], 1, max_iters=10,
                                       feasible_tol=tols[0],
                                       infeasible_tol=tols[1])
        assert str(err.value) == message
        result = analysis.feasibility_sweep([2], [3], 1, max_iters=10,
                                            feasible_tol=1e-6,
                                            infeasible_tol=1e-6)
        assert len(result.records) == 1

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

    @pytest.mark.parametrize("n_values, k_values, missing", [
        ([2], [3, 4], (2, 4)), ([3, 2], [3], (3, 3))])
    def test_render_table_refuses_missing_cell(self, n_values, k_values,
                                               missing):
        # a grid value the sweep did not run names its cell, not a KeyError
        result = analysis.feasibility_sweep([2], [3], seeds=1, max_iters=5)
        with pytest.raises(ValueError, match=re.escape(f"no cell (n, k) ="
                                                       f" {missing}")):
            analysis.render_feasibility_table(result, n_values, k_values)

    @pytest.mark.parametrize("result", [None, {"cells": {}}, []])
    def test_render_table_refuses_other_results(self, result):
        # named as the argument, not an AttributeError on .cells
        with pytest.raises(ValueError, match="^result must be a SweepResult,"
                           f" got {type(result).__name__}$"):
            analysis.render_feasibility_table(result, [2], [3])

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
