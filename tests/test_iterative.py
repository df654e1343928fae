import numpy as np
import pytest

from eigenalign import closed_form, iterative
from eigenalign.channel import InterferenceNetwork, NetworkDims, generate
from eigenalign.errors import ConfigMismatch
from eigenalign.iterative import (IterativeConfig, iterate, iterate_batch,
                                  warm_start_check)


def zero_cross_network(k, n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    h = np.zeros((k, k, n, n), dtype=complex)
    for i in range(k):
        h[i, i] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return InterferenceNetwork(NetworkDims(k, n, n), h)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterativeConfig(d=(0, 1))
        with pytest.raises(ValueError):
            IterativeConfig(d=(1, 1), max_iters=0)
        with pytest.raises(ValueError):
            IterativeConfig(d=(1, 1), leakage_tol=0.0)

    def test_mismatch_against_network(self):
        net = generate(NetworkDims(3, 2, 2), 0)
        with pytest.raises(ConfigMismatch):
            iterate(net, IterativeConfig(d=(1, 1)))
        with pytest.raises(ConfigMismatch):
            iterate(net, IterativeConfig(d=(3, 1, 1)))


class TestIterate:
    def test_no_interference_zero_at_start(self):
        net = zero_cross_network(2, 2)
        trace = iterate(net, IterativeConfig(d=(1, 1), seed=0))
        assert trace.leakage[0] == 0.0
        assert trace.converged
        assert trace.iterations == 0

    def test_feasible_three_user(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        trace = iterate(net, IterativeConfig(d=(1, 1, 1), max_iters=5000,
                                             leakage_tol=1e-6, seed=42))
        assert trace.converged
        assert trace.leakage[-1] < 1e-6
        assert trace.iterations <= 5000

    def test_infeasible_four_user_majority(self):
        # one batch, which TestBatch pins to the single runs' bits
        seeds = range(20)
        traces = iterate_batch(
            [generate(NetworkDims(4, 2, 2), seed) for seed in seeds],
            [IterativeConfig(d=(1,) * 4, max_iters=5000, leakage_tol=1e-6,
                             seed=seed) for seed in seeds])
        stuck = sum(trace.leakage[-1] > 1e-3 for trace in traces)
        assert stuck > 10

    @pytest.mark.parametrize("k,n,seed", [(3, 2, 0), (4, 2, 1), (4, 3, 2)])
    def test_monotone_trace(self, k, n, seed):
        net = generate(NetworkDims(k, n, n), seed)
        trace = iterate(net, IterativeConfig(d=(1,) * k, max_iters=800,
                                             leakage_tol=1e-9, seed=seed))
        assert np.all(np.diff(trace.leakage) <= 1e-12)

    def test_truncated_unitary_outputs(self):
        net = generate(NetworkDims(3, 4, 4), 5)
        trace = iterate(net, IterativeConfig(d=(2, 1, 2), max_iters=50,
                                             leakage_tol=1e-9, seed=5))
        for mats, d in ((trace.precoders, (2, 1, 2)),
                        (trace.combiners, (2, 1, 2))):
            for m, di in zip(mats, d):
                gram = m.conj().T @ m
                assert np.abs(gram - np.eye(di)).max() < 1e-10

    def test_deterministic(self):
        net = generate(NetworkDims(3, 2, 2), 8)
        cfg = IterativeConfig(d=(1, 1, 1), max_iters=200, seed=8)
        a = iterate(net, cfg)
        b = iterate(net, cfg)
        assert np.array_equal(a.leakage, b.leakage)
        for x, y in zip(a.precoders, b.precoders):
            assert np.array_equal(x, y)

    def test_multistream_monotone(self):
        # d = 2 per user on a 3-user 4x4 network (a feasible multi-stream
        # setting); uniform streams keep the alternation monotone
        net = generate(NetworkDims(3, 4, 4), 4)
        trace = iterate(net, IterativeConfig(d=(2, 2, 2), max_iters=400,
                                             leakage_tol=1e-8, seed=4))
        assert np.all(np.diff(trace.leakage) <= 1e-12)


def covariances(kind, count=400, seed=0):
    """Hermitian PSD 2x2 matrices of one kind, ``(count, 2, 2)``."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def gram(cols):
        w = (rng.standard_normal((count, 2, cols))
             + 1j * rng.standard_normal((count, 2, cols)))
        return w @ w.conj().swapaxes(-1, -2)

    if kind == "random":
        return gram(4)
    if kind == "near_rank_one":
        return gram(1) + 1e-7 * gram(2)
    if kind == "real":
        return gram(3).real.astype(complex)
    if kind == "diagonal":
        cov = np.zeros((count, 2, 2), dtype=complex)
        cov[:, 0, 0], cov[:, 1, 1] = rng.uniform(0, 3, (2, count))
        cov[:3, 0, 0], cov[:3, 1, 1] = [0.0, 2.0, 1.5], [1.0, 0.0, 1.5]
        return cov
    if kind == "zero":
        return np.zeros((count, 2, 2), dtype=complex)
    if kind == "scaled_identity":
        return rng.uniform(0, 5, (count, 1, 1)) * np.eye(2, dtype=complex)
    if kind == "tiny":
        return 1e-150 * gram(3)
    if kind == "huge":
        return 1e150 * gram(3)
    raise ValueError(kind)


class TestWeakest2x2:
    """The closed-form kernel against ``np.linalg.eigh``, phase included."""

    @pytest.mark.parametrize("kind", [
        "random", "near_rank_one", "real", "diagonal", "zero",
        "scaled_identity", "tiny", "huge"])
    def test_matches_eigh(self, kind):
        cov = covariances(kind)
        vals, vecs = np.linalg.eigh(cov)
        got_vals, got_vecs = iterative._weakest_2x2(cov)
        assert got_vals.shape == (len(cov), 1)
        assert got_vecs.shape == (len(cov), 2, 1)
        assert np.isfinite(got_vecs).all()
        scale = np.abs(vals).max(axis=1)
        assert np.all(np.abs(got_vals[:, 0] - vals[:, 0]) <= 1e-14 * scale)
        assert np.abs(got_vecs[:, :, 0] - vecs[:, :, 0]).max() <= 1e-12

    def test_identity_gives_first_axis(self):
        for alpha in (0.0, 1.0, 3.5):
            _, vecs = iterative._weakest_2x2(alpha * np.eye(2, dtype=complex))
            assert np.array_equal(vecs[:, 0], [1.0, 0.0])

    def test_batch_is_bitwise_each_alone(self):
        cov = np.concatenate([covariances(kind, count=5) for kind in (
            "random", "near_rank_one", "diagonal", "zero")])
        vals, vecs = iterative._weakest_2x2(cov.reshape(4, 5, 2, 2))
        for i, one in enumerate(cov):
            val, vec = iterative._weakest_2x2(one[None])
            assert np.array_equal(val[0], vals.reshape(-1, 1)[i])
            assert np.array_equal(vec[0], vecs.reshape(-1, 2, 1)[i])


class TestBatch:
    @pytest.mark.parametrize("dims,d,cap", [((3, 2, 2), (1, 1, 1), 60),
                                            ((3, 4, 4), (2, 1, 2), 30)])
    def test_runs_equal_single_runs(self, dims, d, cap):
        seeds = range(8)
        nets = [generate(NetworkDims(*dims), s) for s in seeds]
        cfgs = [IterativeConfig(d=d, max_iters=cap, leakage_tol=1e-6, seed=s)
                for s in seeds]
        batch = iterate_batch(nets, cfgs)
        stops = [t.iterations for t in batch]
        # runs leave the batch at different iterations, some at the cap
        assert cap in stops and min(stops) < cap
        for net, cfg, got in zip(nets, cfgs, batch):
            alone = iterate(net, cfg)
            assert got.iterations == alone.iterations
            assert got.converged == alone.converged
            assert np.array_equal(got.leakage, alone.leakage)
            for a, b in zip(got.precoders + got.combiners,
                            alone.precoders + alone.combiners):
                assert a.shape == b.shape
                assert np.array_equal(a, b)

    def test_validation(self):
        net = generate(NetworkDims(3, 2, 2), 0)
        cfg = IterativeConfig(d=(1, 1, 1))
        with pytest.raises(ValueError):
            iterate_batch([], [])
        with pytest.raises(ValueError):
            iterate_batch([net], [cfg, cfg])
        with pytest.raises(ConfigMismatch):
            iterate_batch([net, generate(NetworkDims(3, 3, 3), 1)], [cfg, cfg])
        with pytest.raises(ConfigMismatch):
            iterate_batch([net, net],
                          [cfg, IterativeConfig(d=(1, 1, 1), max_iters=10)])
        with pytest.raises(ConfigMismatch):
            iterate_batch([net], [IterativeConfig(d=(1, 1))])


class TestWarmStart:
    def test_closed_form_is_fixed_point(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        cfg = IterativeConfig(d=(1, 1, 1), seed=42)
        report = warm_start_check(net, cfg, sol)
        assert report.initial_leakage < 1e-12
        assert report.max_leakage < 1e-10
        assert report.passed
        # a leakage of exactly 0.0 must not end the check early
        assert report.iterations == 100
        assert len(report.trace) == 101

    def test_initial_value_against_direct_functional(self):
        # upper-bound oracle: leakage of the closed-form combiners
        # themselves; the optimal combiners can only do better
        net = generate(NetworkDims(3, 2, 2), 6)
        sol = closed_form.solve_eigen_method(net)
        cross = sum(np.linalg.norm(net.h[i, j]) ** 2
                    for i, j in net.cross_pairs())
        direct = sum(abs(sol.combiners[i].conj() @ net.h[i, j]
                         @ sol.precoders[j]) ** 2
                     for i, j in net.cross_pairs())
        cfg = IterativeConfig(d=(1, 1, 1), seed=6)
        report = warm_start_check(net, cfg, sol)
        assert report.initial_leakage <= direct / cross + 1e-15
        assert report.initial_leakage < 1e-12

    def test_larger_network_fixed_point(self):
        net = generate(NetworkDims(4, 3, 3), 7)
        sol = closed_form.solve_eigen_method(net)
        cfg = IterativeConfig(d=(1,) * 4, seed=7)
        report = warm_start_check(net, cfg, sol, iterations=37)
        assert report.initial_leakage < 1e-12
        assert report.max_leakage < 1e-10
        assert report.iterations == 37

    def test_random_precoders_leak(self):
        net = generate(NetworkDims(3, 2, 2), 15)
        cfg = IterativeConfig(d=(1, 1, 1), max_iters=1, leakage_tol=1e-30,
                              seed=15)
        trace = iterate(net, cfg)
        assert trace.leakage[0] > 1e-3

    def test_multistream_config_rejected(self):
        net = generate(NetworkDims(3, 4, 4), 0)
        sol = closed_form.solve_eigen_method(generate(NetworkDims(3, 2, 2), 0))
        with pytest.raises(ConfigMismatch):
            warm_start_check(net, IterativeConfig(d=(2, 2, 2)), sol)
