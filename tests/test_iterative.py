import warnings
from itertools import permutations

import numpy as np
import pytest

from eigenalign import closed_form, iterative, linalg
from eigenalign.channel import InterferenceNetwork, NetworkDims, generate
from eigenalign.errors import ConfigMismatch, ShapeMismatch
from eigenalign.iterative import (WARM_ITERATIONS, IterativeConfig, iterate,
                                  warm_start_check)


def zero_cross_network(k, n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    h = np.zeros((k, k, n, n), dtype=complex)
    for i in range(k):
        h[i, i] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return InterferenceNetwork(NetworkDims(k, n, n), h)


def run_batch(nets, cfgs):
    """The feasibility sweep's path: every ``iterate(nets[s], cfgs[s])`` as
    one batch of the engine, from one seeded draw of all the precoders.
    The networks share their antenna counts, the configs their stopping
    rule."""
    assert len({(net.dims.n_t, net.dims.n_r) for net in nets}) == 1
    assert len({(cfg.max_iters, cfg.leakage_tol) for cfg in cfgs}) == 1
    pre = iterative._random_precoders(nets[0].dims.n_t,
                                      [net.dims.k for net in nets],
                                      [cfg.seed for cfg in cfgs])
    return iterative._run_batch([net.h for net in nets], pre,
                                cfgs[0].max_iters, cfgs[0].leakage_tol)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterativeConfig(d=(0, 1))
        with pytest.raises(ValueError):
            IterativeConfig(d=(1, 1), max_iters=0)
        with pytest.raises(ValueError):
            IterativeConfig(d=(1, 1), leakage_tol=0.0)

    @pytest.mark.parametrize("field,value", [
        ("d", (1.5, 1, 1)), ("d", (True, 1, 1)), ("max_iters", 2.5),
        ("max_iters", True), ("max_iters", 3.0)])
    def test_non_integral_refused(self, field, value):
        kwargs = {"d": (1, 1, 1), field: value}
        with pytest.raises(ValueError, match="must be >= 1 and integral"):
            IterativeConfig(**kwargs)

    @pytest.mark.parametrize("tol", ["a", None, float("nan"), 0.0, -1e-6,
                                     1e-6j, True])
    def test_leakage_tol_refused(self, tol):
        # the type is checked before the range: never a bare TypeError, and
        # True is no tolerance of 1
        with pytest.raises(ValueError, match="^leakage_tol must be > 0, got"):
            IterativeConfig(d=(1, 1, 1), leakage_tol=tol)

    @pytest.mark.parametrize("seed", [2.5, 3.0, True, False, -1, "1", None])
    def test_seed_refused(self, seed):
        # refused where the config is built, not deep inside a run
        with pytest.raises(ValueError, match="seed must be >= 0 and integral"):
            IterativeConfig(d=(1, 1, 1), seed=seed)

    def test_numpy_integers_accepted(self):
        cfg = IterativeConfig(d=np.ones(3, dtype=np.int64),
                              max_iters=np.int32(2), seed=np.uint8(7))
        assert cfg.d == (1, 1, 1) and cfg.max_iters == 2 and cfg.seed == 7
        assert all(type(x) is int for x in cfg.d + (cfg.max_iters, cfg.seed))
        trace = iterate(generate(NetworkDims(4, 2, 2), 0), IterativeConfig(
            d=(1,) * 4, max_iters=np.int64(2), leakage_tol=1e-30))
        assert trace.iterations == 2 and len(trace.leakage) == 3

    @pytest.mark.parametrize("d", [(2, 2, 2), (1, 2, 1)])
    def test_one_stream_per_user(self, d):
        # refuses streams the network's 4 antennas could carry
        net = generate(NetworkDims(3, 4, 4), 0)
        with pytest.raises(ConfigMismatch, match="one stream for each of"
                           " the 3 users"):
            iterate(net, IterativeConfig(d=d))

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
        traces = run_batch(
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
        trace = iterate(net, IterativeConfig(d=(1, 1, 1), max_iters=50,
                                             leakage_tol=1e-9, seed=5))
        for mats in (trace.precoders, trace.combiners):
            assert mats.shape == (3, 4)
            assert np.abs(np.linalg.norm(mats, axis=1) - 1.0).max() < 1e-10

    def test_deterministic(self):
        net = generate(NetworkDims(3, 2, 2), 8)
        cfg = IterativeConfig(d=(1, 1, 1), max_iters=200, seed=8)
        a = iterate(net, cfg)
        b = iterate(net, cfg)
        assert np.array_equal(a.leakage, b.leakage)
        for x, y in zip(a.precoders, b.precoders):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("dims,seed", [((3, 2, 2), 1), ((4, 3, 3), 2)])
    def test_power_of_two_scale_runs_same_bits(self, dims, seed):
        # the 2x2 (N = 2) and 3x3 (N = 3) kernels; the direct links
        # never interfere, so only the scale of the cross links could count
        net = generate(NetworkDims(*dims), seed)
        cfg = IterativeConfig(d=(1,) * dims[0], max_iters=300, seed=seed)
        base = iterate(net, cfg)
        direct = np.eye(dims[0])[:, :, None, None]
        cross = 1.0 - direct
        for factor in (2.0 ** -700, 2.0 ** 500, 2.0 ** -600 * cross + direct,
                       cross + 2.0 ** 300 * direct):
            got = iterate(InterferenceNetwork(net.dims, net.h * factor), cfg)
            assert got.iterations == base.iterations
            assert np.array_equal(got.leakage, base.leakage)
            assert np.array_equal(got.precoders, base.precoders)
            assert np.array_equal(got.combiners, base.combiners)

    @pytest.mark.parametrize("dims,seed", [
        ((3, 2, 2), 1), ((4, 2, 2), 0), ((4, 3, 3), 2), ((5, 3, 3), 0)])
    def test_extreme_scales_keep_verdict(self, dims, seed):
        # (4, 2, 2) and (5, 3, 3) are infeasible (K > 2N - 1) and must not
        # read converged at a scale where the leakage underflows; at the
        # float limit (largest part 1.7e308) an entry's modulus is inf
        net = generate(NetworkDims(*dims), seed)
        cfg = IterativeConfig(d=(1,) * dims[0], max_iters=300, seed=seed)
        base = iterate(net, cfg)
        limit = 1.7e308 / np.abs(net.h.view(np.float64)).max()
        for factor in (1e-200, 1e160, limit):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = iterate(InterferenceNetwork(net.dims, net.h * factor),
                              cfg)
            assert got.iterations == base.iterations
            assert got.converged == base.converged
            assert np.allclose(got.leakage, base.leakage, rtol=1e-6,
                               atol=1e-12)


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


def entries(cov):
    """The entries ``a``, ``c`` and ``b`` of ``[[a, b*], [b, c]]``."""
    return cov[..., 0, 0].real, cov[..., 1, 1].real, cov[..., 1, 0]


def interference_covariances(net, filters, reverse=False):
    """Every receiver's interference covariance ``(K, n, n)`` from unit
    transmit filters ``(K, n)``; ``reverse``, every transmitter's from
    receive filters over the conjugated links."""
    h = net.h * (1.0 - np.eye(net.dims.k))[:, :, None, None]
    if reverse:
        h = h.transpose(1, 0, 3, 2).conj()
    g = (h @ filters[None, :, :, None])[..., 0]   # H_ij x_j at [i, j]
    return np.einsum("ija,ijb->iab", g, g.conj())


class TestExit2x2:
    """An N = 2 run carries projectors and forms its unit filters once,
    from ``eigh`` of its last covariances, when it leaves the batch."""

    NETS = [generate(NetworkDims(k, 2, 2), seed)
            for k, seed in ((3, 1), (4, 0), (5, 2), (3, 42))]

    def traces(self, cap):
        return run_batch(self.NETS, [IterativeConfig(
            d=(1,) * net.dims.k, max_iters=cap, seed=net.seed)
            for net in self.NETS])

    def test_filters_are_unit_vectors(self):
        for trace in self.traces(500):
            for filters in (trace.precoders, trace.combiners):
                assert np.abs(np.linalg.norm(filters, axis=1) - 1).max() < 1e-14

    def test_filters_are_eighs_weakest_vectors(self):
        # a run capped at c ends on the reverse half from its combiners at
        # c - 1, then on the forward half from its new precoders
        for net, old, new in zip(self.NETS, self.traces(1), self.traces(2)):
            assert old.iterations == 1 and new.iterations == 2
            for filters, cov in (
                    (new.precoders, interference_covariances(
                        net, old.combiners, reverse=True)),
                    (new.combiners, interference_covariances(
                        net, new.precoders))):
                ref = np.linalg.eigh(cov)[1][..., 0]
                assert np.abs(filters - ref).max() <= 1e-12

    @pytest.mark.parametrize("scale", [0.0, 1.0, 3.7, 2.0 ** -600])
    def test_zero_or_scalar_identity_covariance_gives_e1(self, scale):
        # every precoder e1 and the cross links I or the swap, alternating
        # around the ring: each covariance, either way, is scale^2 I
        rng = np.random.Generator(np.random.PCG64(7))
        h = rng.standard_normal((3, 3, 2, 2)) + 0j
        for i, j in [(i, j) for i in range(3) for j in range(3) if i != j]:
            h[i, j] = scale * (np.eye(2) if (i - j) % 3 == 1
                               else np.eye(2)[::-1])
        e1 = np.tile([1.0 + 0j, 0.0], (3, 1))
        trace = iterative._run_batch([h], [e1[..., None]], 3, -np.inf)[0]
        assert trace.iterations == 3
        assert np.array_equal(trace.precoders, e1)
        assert np.array_equal(trace.combiners, e1)

    def test_exit_at_start_in_mixed_batch_equals_single_run(self):
        # a run without cross links leaves at iteration 0, with its drawn
        # precoders and e1 combiners, beside runs of other user counts
        nets = [self.NETS[1], zero_cross_network(3, 2), self.NETS[0],
                zero_cross_network(5, 2, seed=1)]
        cfgs = [IterativeConfig(d=(1,) * net.dims.k, max_iters=40, seed=s)
                for s, net in enumerate(nets)]
        batch = run_batch(nets, cfgs)
        stops = [t.iterations for t in batch]
        assert stops[1::2] == [0, 0] and 0 < stops[2] < stops[0] == 40
        for trace in batch[1::2]:
            assert np.array_equal(trace.combiners, np.tile(
                [1.0, 0.0], (len(trace.combiners), 1)))
        assert_single_runs(nets, cfgs, batch)


def equal_diagonal(cov):
    """``cov`` with both diagonal entries set to the larger one."""
    cov = cov.copy()
    cov[:, 0, 0] = cov[:, 1, 1] = np.maximum(cov[:, 0, 0].real,
                                            cov[:, 1, 1].real)
    return cov


def pauli(cov):
    """Pauli coordinates ``(m, h, Re b, Im b)`` of ``[[a, b*], [b, c]]``
    stacks ``(..., 2, 2)``, on a new last axis."""
    a, c, b = entries(cov)
    return np.stack([(a + c) / 2, (a - c) / 2, b.real, b.imag], axis=-1)


def projector_step(cov, values=True):
    """The projector step on each of ``S`` runs' ``K`` covariances, ``cov``
    ``(S, K, 2, 2)``: with identity maps the step's covariances are its
    input. Returns the eigenvalues ``(S, K)`` and the new state ``(2, S, K,
    4)``, projectors over covariances."""
    s, k = cov.shape[:2]
    maps = np.broadcast_to(np.eye(4 * k), (s, 4 * k, 4 * k)).copy()
    vals, new = iterative._projector_half(
        [maps], [slice(0, s * k)], pauli(cov).reshape(1, -1, 4), values)
    return None if vals is None else vals.reshape(s, k), new.reshape(
        2, s, k, 4)


def projector(coords):
    """The 2x2 projectors ``(..., 2, 2)`` of Pauli coordinates ``(...,
    4)``."""
    half, t, x, y = np.moveaxis(coords, -1, 0)
    return np.stack([np.stack([half + t, x - 1j * y], axis=-1),
                     np.stack([x + 1j * y, half - t], axis=-1)], axis=-2)


class TestProjectorHalf:
    """The N = 2 step on projectors against ``np.linalg.eigh``: eigenvalues
    to 1e-14 of the largest, projectors to 1e-12 of ``x x^H``."""

    @pytest.mark.parametrize("kind", [
        "random", "near_rank_one", "real", "diagonal", "zero",
        "scaled_identity", "tiny", "huge", "equal_diagonal"])
    def test_matches_eigh(self, kind):
        cov = (equal_diagonal(covariances("random")) if kind == "equal_diagonal"
               else covariances(kind))
        vals, vecs = np.linalg.eigh(cov)
        got_vals, state = projector_step(cov[:, None])
        assert got_vals.shape == (len(cov), 1)
        assert state.shape == (2, len(cov), 1, 4)
        assert np.isfinite(state).all()
        scale = np.abs(vals).max(axis=1)
        assert np.all(np.abs(got_vals[:, 0] - vals[:, 0]) <= 1e-14 * scale)
        ref = vecs[:, :, :1] * vecs[:, None, :, 0].conj()
        assert np.abs(projector(state[0, :, 0]) - ref).max() <= 1e-12
        assert np.array_equal(state[1], pauli(cov[:, None]))

    @pytest.mark.parametrize("kind", ["zero", "scaled_identity"])
    def test_multiples_of_identity_give_first_axis(self, kind):
        # e1 e1^H, as eigh's first axis
        _, state = projector_step(covariances(kind)[:, None])
        assert np.array_equal(projector(state[0, :, 0]),
                              np.broadcast_to([[1, 0], [0, 0]], (400, 2, 2)))

    def test_batch_is_bitwise_each_alone(self):
        cov = np.concatenate([covariances(kind, count=5) for kind in (
            "random", "near_rank_one", "diagonal", "zero")])
        vals, state = projector_step(cov.reshape(4, 5, 2, 2))
        for i, one in enumerate(cov):
            val, alone = projector_step(one[None, None])
            assert np.array_equal(val[0, 0], vals[i // 5, i % 5])
            assert np.array_equal(alone[:, 0, 0], state[:, i // 5, i % 5])

    def test_state_without_values_bitwise(self):
        # the reverse half reads only the new state
        cov = np.concatenate([covariances(kind, count=5) for kind in (
            "random", "near_rank_one", "diagonal", "zero")])[None]
        vals, state = projector_step(cov)
        none, alone = projector_step(cov, values=False)
        assert vals is not None and none is None
        assert np.array_equal(state, alone)


def covariances3(kind, count=400, seed=0):
    """Hermitian PSD 3x3 matrices of one kind, ``(count, 3, 3)``, Hermitian
    to the bit (real diagonal, conjugate triangles)."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def hermitian(cov):
        return (cov + cov.conj().swapaxes(-1, -2)) / 2

    def gram(cols):
        w = gauss(count, 3, cols)
        return hermitian(w @ w.conj().swapaxes(-1, -2))

    eye = np.eye(3, dtype=complex)
    if kind in ("random", "rank_two", "rank_one"):
        return gram({"random": 4, "rank_two": 2, "rank_one": 1}[kind])
    if kind == "real":
        return gram(3).real.astype(complex)
    if kind == "diagonal":
        cov = rng.uniform(0, 3, (count, 3, 1)) * eye
        cov[:3] = np.diag([0.0, 2.0, 1.0]), np.diag([1.5, 1.5, 4.0]), 0 * eye
        return cov
    if kind == "zero":
        return np.zeros((count, 3, 3), dtype=complex)
    if kind == "scaled_identity":
        return rng.uniform(0, 5, (count, 1, 1)) * eye
    if kind == "perturbed_identity":
        return hermitian(rng.uniform(0, 5, (count, 1, 1)) * eye
                         + 1e-17 * gram(3))
    if kind == "close_pair":
        # the two weakest eigenvalues 1e-9 apart, in a random basis
        q = np.linalg.qr(gauss(count, 3, 3))[0]
        lam = rng.uniform(0.5, 1.0, (count, 1)) * [1.0, 1.0 + 1e-9, 3.0]
        return hermitian((q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2))
    if kind == "tiny":
        return 1e-150 * gram(3)
    if kind == "huge":
        return 1e150 * gram(3)
    raise ValueError(kind)


def stacked(cov):
    """The 3x3 kernel's input: the matrix axes first, C-ordered."""
    return np.ascontiguousarray(np.moveaxis(cov, (-2, -1), (0, 1)))


class TestWeakest3x3:
    """The trigonometric-cubic kernel against ``np.linalg.eigh``: values to
    1e-14 lambda_max, vectors to 1e-12 up to a phase."""

    @pytest.mark.parametrize("kind", [
        "random", "rank_two", "rank_one", "real", "diagonal", "zero",
        "scaled_identity", "perturbed_identity", "close_pair", "tiny",
        "huge"])
    def test_matches_eigh(self, kind):
        cov = covariances3(kind)
        vals, vecs = np.linalg.eigh(cov)
        got_vals, got_vecs = iterative._weakest_3x3(stacked(cov))
        assert got_vals.shape == (len(cov), 1)
        assert got_vecs.shape == (len(cov), 3, 1)
        assert np.isfinite(got_vals).all() and np.isfinite(got_vecs).all()
        scale = np.abs(vals).max(axis=1)
        assert np.all(np.abs(got_vals[:, 0] - vals[:, 0]) <= 1e-14 * scale)
        got, ref = got_vecs[:, :, 0], vecs[:, :, 0]
        overlap = np.sum(ref.conj() * got, axis=-1, keepdims=True)
        phase = overlap / np.abs(overlap)
        assert np.abs(got - ref * phase).max() <= 1e-12

    def test_closed_form_decides_separated_matrices(self):
        # eigh's bits only where the weakest pair is not separated
        cov = covariances3("random")
        from_eigh = np.all(iterative._weakest_3x3(stacked(cov))[1][..., 0]
                           == np.linalg.eigh(cov)[1][..., 0], axis=1)
        assert np.count_nonzero(from_eigh) < len(cov) // 50
        for kind in ("rank_one", "close_pair", "perturbed_identity"):
            cov = covariances3(kind)
            vals, vecs = iterative._weakest_3x3(stacked(cov))
            ref_vals, ref_vecs = np.linalg.eigh(cov)
            assert np.array_equal(vals[:, 0], ref_vals[:, 0])
            assert np.array_equal(vecs[..., 0], ref_vecs[..., 0])

    def test_identity_gives_first_axis(self):
        for alpha in (0.0, 1.0, 3.5, 0.1):
            vals, vecs = iterative._weakest_3x3(
                stacked(alpha * np.eye(3, dtype=complex)[None]))
            assert vals[0, 0] == alpha
            assert np.array_equal(vecs[0, :, 0], [1.0, 0.0, 0.0])

    def test_batch_is_bitwise_each_alone(self):
        cov = np.concatenate([covariances3(kind, count=5) for kind in (
            "random", "rank_two", "close_pair", "zero")])
        vals, vecs = iterative._weakest_3x3(
            stacked(cov.reshape(4, 5, 3, 3)))
        for i, one in enumerate(cov):
            val, vec = iterative._weakest_3x3(stacked(one[None]))
            assert np.array_equal(val[0], vals.reshape(-1, 1)[i])
            assert np.array_equal(vec[0], vecs.reshape(-1, 3, 1)[i])

    def test_vectors_without_values_bitwise(self):
        cov = stacked(np.concatenate([covariances3(kind, count=5) for kind in (
            "random", "rank_one", "diagonal")]))
        vals, vecs = iterative._weakest_3x3(cov)
        none, alone = iterative._weakest_3x3(cov, values=False)
        assert vals is not None and none is None
        assert np.array_equal(vecs, alone)


def half_iteration_grid(kind, s=6, k=4, n_t=3, seed=0, n_out=2):
    """A channel grid ``(S, K, K, n_out, n_t)``, ``[s, i, j]`` the link from
    transmitter ``j`` to receiver ``i``, and unit filters ``(S, K, n_t, 1)``
    of one kind, for the receive side of a half-iteration."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    h, filters = gauss(s, k, k, n_out, n_t), gauss(s, k, n_t, 1)
    if kind == "real":
        h, filters = (x.real.astype(complex) for x in (h, filters))
    elif kind in ("near_rank_one", "near_rank_two"):
        # every link into receiver i sends along the same n_out - 1
        # directions
        h = gauss(s, k, 1, n_out, n_out - 1) @ gauss(s, k, k, n_out - 1,
                                                   n_t) + 1e-7 * h
    elif kind == "zero_cross":
        h = h * np.eye(k)[:, :, None, None]
    filters /= np.linalg.norm(filters, axis=2, keepdims=True)
    return h, filters


def reference_covariances(h, filters):
    """Receiver ``i``'s covariance ``sum_{j != i} H_ij v_j v_j^H H_ij^H``,
    one receiver and one transmitter at a time, straight from the grid:
    ``(S, K, n_out, n_out)``."""
    s, k, _, n_out, _ = h.shape
    cov = np.zeros((s, k, n_out, n_out), dtype=complex)
    for r in range(s):
        for i in range(k):
            for j in range(k):
                if j != i:
                    g = h[r, i, j] @ filters[r, j]
                    cov[r, i] += g @ g.conj().T
    return cov


def engine_links(h):
    """The engine's forward links of a grid: ``[s, j]`` stacks the cross
    links ``H_ij`` of transmitter ``j`` over the receivers ``i``."""
    s, k, _, n_out, n_t = h.shape
    cross = h * (1.0 - np.eye(k))[:, :, None, None]
    return cross.transpose(0, 2, 1, 3, 4).reshape(s, k, k * n_out, n_t)


def group_rows(grids):
    """Each grid's receivers in the engine's flat buffers, grid after
    grid."""
    ends = np.cumsum([0] + [h.shape[0] * h.shape[1] for h, _ in grids])
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def assert_weakest_pairs(vals, vecs, cov):
    """Weakest eigenvalues ``(R,)`` to 1e-14 of the largest and unit
    vectors ``(R, n)`` to 1e-12 up to a phase, against ``eigh`` of the
    covariances ``(R, n, n)``."""
    ref_vals, ref_vecs = np.linalg.eigh(cov)
    scale = ref_vals[..., -1]
    assert np.all(np.abs(vals - ref_vals[..., 0]) <= 1e-14 * scale)
    ref = ref_vecs[..., 0]
    overlap = np.sum(ref.conj() * vecs, axis=-1, keepdims=True)
    phase = overlap / np.abs(overlap)
    assert np.abs(vecs - ref * phase).max() <= 1e-12


class TestHalfIteration:
    """The half-iterations against a per-receiver oracle that sums ``H_ij
    v_j v_j^H H_ij^H`` over ``j != i`` from the channel grid: the fused N =
    3 path, ``eigh`` (a 2-antenna side of a non-square network) and the N
    = 2 projector step through its real map, each on one group and on
    groups of different K in one call."""

    @pytest.mark.parametrize("kind", [
        "random", "real", "near_rank_one", "zero_cross"])
    def test_matches_covariance_eigh(self, kind):
        self.check([half_iteration_grid(kind)])

    @pytest.mark.parametrize("kind", [
        "random", "real", "near_rank_two", "zero_cross"])
    def test_three_antennas_match_covariance_eigh(self, kind):
        self.check([half_iteration_grid(kind, n_out=3)])

    @pytest.mark.parametrize("n_out", [2, 3])
    def test_groups_of_different_k(self, n_out):
        self.check([half_iteration_grid("random", s=s, k=k, seed=k,
                                        n_out=n_out)
                    for s, k in ((3, 3), (1, 5), (4, 4))])

    @pytest.mark.parametrize("kind", [
        "random", "real", "near_rank_one", "zero_cross"])
    def test_projectors_match_covariance_eigh(self, kind):
        self.check_projectors([half_iteration_grid(kind, n_t=2)])

    def test_projector_groups_of_different_k(self):
        self.check_projectors([half_iteration_grid("random", s=s, k=k,
                                                   n_t=2, seed=k)
                               for s, k in ((3, 3), (1, 5), (4, 4))])

    @staticmethod
    def check(grids):
        filters = np.concatenate([f.reshape(-1, *f.shape[2:])
                                  for _, f in grids])
        vals, vecs = iterative._half_iteration(
            [engine_links(h) for h, _ in grids], group_rows(grids), filters)
        cov = np.concatenate([reference_covariances(h, f).reshape(
            -1, *h.shape[3:4] * 2) for h, f in grids])
        assert vals.shape == (len(cov), 1)
        assert vecs.shape == (len(cov), len(cov[0]), 1)
        assert_weakest_pairs(vals[:, 0], vecs[..., 0], cov)

    @staticmethod
    def check_projectors(grids):
        x = np.concatenate([f[..., 0].reshape(-1, 2) for _, f in grids])
        vals, new = iterative._projector_half(
            [iterative._real_map(h * (1.0 - np.eye(h.shape[1]))[
                :, :, None, None]) for h, _ in grids], group_rows(grids),
            pauli(x[:, :, None] * x[:, None, :].conj())[None])
        cov = np.concatenate([reference_covariances(h, f).reshape(-1, 2, 2)
                              for h, f in grids])
        assert vals.shape == (len(cov),) and new.shape == (2, len(cov), 4)
        ref_vals, ref_vecs = np.linalg.eigh(cov)
        scale = ref_vals[:, -1]
        assert np.all(np.abs(vals - ref_vals[:, 0]) <= 1e-14 * scale)
        assert np.all(np.abs(new[1] - pauli(cov)) <= 1e-14 * scale[:, None])
        ref = ref_vecs[..., :1] * ref_vecs[..., None, :, 0].conj()
        assert np.abs(projector(new[0]) - ref).max() <= 1e-12


def assert_single_runs(nets, cfgs, batch):
    """Every trace of ``batch`` is bitwise the single ``iterate`` of its
    pair: leakage, iteration count and filters."""
    for net, cfg, got in zip(nets, cfgs, batch, strict=True):
        alone = iterate(net, cfg)
        assert got.iterations == alone.iterations
        assert got.converged == alone.converged
        assert np.array_equal(got.leakage, alone.leakage)
        dims = net.dims
        for a, b, n in ((got.precoders, alone.precoders, dims.n_t),
                        (got.combiners, alone.combiners, dims.n_r)):
            assert a.shape == b.shape == (dims.k, n)
            assert np.array_equal(a, b)


class TestBatch:
    @pytest.mark.parametrize("dims,d,cap", [((3, 2, 2), (1, 1, 1), 60),
                                            ((4, 3, 3), (1, 1, 1, 1), 12),
                                            ((5, 3, 3), (1,) * 5, 100),
                                            ((4, 2, 3), (1,) * 4, 60),
                                            ((4, 3, 2), (1,) * 4, 60)])
    def test_runs_equal_single_runs(self, dims, d, cap):
        seeds = range(8)
        nets = [generate(NetworkDims(*dims), s) for s in seeds]
        cfgs = [IterativeConfig(d=d, max_iters=cap, leakage_tol=1e-6, seed=s)
                for s in seeds]
        batch = run_batch(nets, cfgs)
        stops = [t.iterations for t in batch]
        # runs leave the batch at different iterations, some at the cap
        assert cap in stops and min(stops) < cap
        assert_single_runs(nets, cfgs, batch)

    @pytest.mark.parametrize("users,n_t,n_r,cap,seeds", [
        ((5, 3, 4), 2, 2, 60, (0, 1, 3, 4)), ((5, 4), 3, 3, 12, (1, 3, 4, 7)),
        ((5, 4), 2, 3, 60, (0, 5, 8))])
    def test_mixed_user_counts_equal_single_runs(self, users, n_t, n_r, cap,
                                                 seeds):
        # user counts interleaved: the batch groups its runs by K and
        # returns them in input order
        pairs = [(k, seed) for seed in seeds for k in users]
        nets = [generate(NetworkDims(k, n_t, n_r), seed) for k, seed in pairs]
        cfgs = [IterativeConfig(d=(1,) * k, max_iters=cap, leakage_tol=1e-6,
                                seed=seed) for k, seed in pairs]
        batch = run_batch(nets, cfgs)
        ends = [max(t.iterations for t, (kk, _) in zip(batch, pairs)
                    if kk == k) for k in users]
        # one group empties and drops out while another runs to the cap
        assert min(ends) < cap == max(ends)
        assert_single_runs(nets, cfgs, batch)


class TestWarmStart:
    def test_closed_form_is_fixed_point(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        report = warm_start_check(net, sol)
        assert report.initial_leakage < 1e-12
        assert report.max_leakage < 1e-10
        assert report.passed
        # a leakage of exactly 0.0 must not end the check early
        assert WARM_ITERATIONS == 100
        assert len(report.trace) == WARM_ITERATIONS + 1

    def test_initial_value_against_direct_functional(self):
        # upper-bound oracle: leakage of the closed-form combiners
        # themselves; the optimal combiners can only do better
        net = generate(NetworkDims(3, 2, 2), 6)
        sol = closed_form.solve_eigen_method(net)
        cross = sum(np.linalg.norm(net.h[i, j]) ** 2
                    for i, j in permutations(range(net.dims.k), 2))
        direct = sum(abs(sol.combiners[i].conj() @ net.h[i, j]
                         @ sol.precoders[j]) ** 2
                     for i, j in permutations(range(net.dims.k), 2))
        report = warm_start_check(net, sol)
        assert report.initial_leakage <= direct / cross + 1e-15
        assert report.initial_leakage < 1e-12

    def test_larger_network_fixed_point(self):
        net = generate(NetworkDims(4, 3, 3), 7)
        sol = closed_form.solve_eigen_method(net)
        report = warm_start_check(net, sol)
        assert report.initial_leakage < 1e-12
        assert report.max_leakage < 1e-10
        assert len(report.trace) == WARM_ITERATIONS + 1

    def test_float_limit_fixed_point(self):
        # the largest real or imaginary part at 1.7e308: no modulus is read
        net = generate(NetworkDims(4, 3, 3), 1)
        sol = closed_form.solve_eigen_method(net)
        big = InterferenceNetwork(
            net.dims, net.h * (1.7e308 / np.abs(net.h.view(np.float64)).max()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = warm_start_check(big, sol)
        assert report.passed

    @pytest.mark.parametrize("dims", [(3, 2, 2), (4, 3, 3)])
    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_precoder_size_does_not_count(self, dims, factor):
        # each precoder's direction seeds the run, whatever its norm
        net = generate(NetworkDims(*dims), 1)
        sol = closed_form.solve_eigen_method(net)
        base = warm_start_check(net, sol)
        sol.precoders = sol.precoders * factor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = warm_start_check(net, sol)
        assert report.passed and base.passed
        # the same leakages to rounding: all lie near 1e-17
        np.testing.assert_allclose(report.trace, base.trace, rtol=0,
                                   atol=1e-15)

    @pytest.mark.parametrize("dims", [(3, 2, 2), (4, 3, 3)])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0, np.nan)])
    def test_non_finite_precoders_refused(self, dims, bad):
        net = generate(NetworkDims(*dims), 1)
        sol = closed_form.solve_eigen_method(net)
        sol.precoders[0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^precoders must be finite$"):
                warm_start_check(net, sol)

    @pytest.mark.parametrize("dims", [(3, 2, 2), (4, 3, 3)])
    def test_zero_precoder_fails(self, dims):
        # a user that sends nothing leaks nothing, yet nothing is aligned:
        # the check fails and still runs and reports the whole trace
        net = generate(NetworkDims(*dims), 1)
        sol = closed_form.solve_eigen_method(net)
        sol.precoders[0] = 0.0
        report = warm_start_check(net, sol)
        assert not report.passed
        assert report.max_leakage < iterative.WARM_DRIFT_TOL
        assert len(report.trace) == WARM_ITERATIONS + 1

    def test_random_precoders_leak(self):
        net = generate(NetworkDims(3, 2, 2), 15)
        cfg = IterativeConfig(d=(1, 1, 1), max_iters=1, leakage_tol=1e-30,
                              seed=15)
        trace = iterate(net, cfg)
        assert trace.leakage[0] > 1e-3

    @pytest.mark.parametrize("bad", [
        np.full((3, 2), object(), dtype=object), np.full((3, 2), "a")])
    def test_non_numeric_precoders_refused(self, bad):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        sol.precoders = bad
        with pytest.raises(ValueError, match="^precoders must be an array of"
                           " numbers$"):
            warm_start_check(net, sol)

    def test_multistream_config_rejected(self):
        # a solution for 2 antennas does not fit a network with 4: there is
        # no config to refuse, so the precoders' shape is, as verify does
        net = generate(NetworkDims(3, 4, 4), 0)
        sol = closed_form.solve_eigen_method(generate(NetworkDims(3, 2, 2), 0))
        with pytest.raises(ShapeMismatch, match=r"^precoders: shape"
                           r" \(3, 2\), expected \(3, 4\)$"):
            warm_start_check(net, sol)


def chordal(x, y):
    """Chordal distance between unit vectors along the last axis."""
    overlap = np.abs(np.sum(x.conj() * y, axis=-1))
    return np.sqrt(np.maximum(1.0 - overlap ** 2, 0.0))


def test_converged_runs_land_on_closed_form_solutions():
    # Near an aligned point the normalized leakage grows quadratically in
    # the chordal distance d of the filters from it, L ~ kappa d^2. A run
    # that stops at L <= 1e-6 thus lies within sqrt(1e-6 / kappa); the
    # bound 0.1 allows kappa down to 1e-4, about 12x below the flattest of
    # these three networks (runs stop 0.008 to 0.029 away). Their distinct
    # closed-form solutions lie 0.58 or more apart, so 0.1 names one.
    bound = 0.1
    nets = [generate(NetworkDims(3, 2, 2), seed) for seed in range(3)]
    traces = run_batch(
        [net for net in nets for _ in range(12)],
        [IterativeConfig(d=(1, 1, 1), seed=probe)
         for _ in nets for probe in range(12)])
    assert sum(trace.converged for trace in traces) >= 30
    for n, net in enumerate(nets):
        values, vectors, _ = linalg.eig_general(
            closed_form.build_stacked(net))
        solutions = []
        for i in range(len(values)):
            blocks = vectors[:, i].reshape(3, 2)
            sol = closed_form._finish_solution(
                net, blocks / np.linalg.norm(blocks, axis=1)[:, None],
                complex(values[i]))
            solutions.append(np.concatenate([sol.precoders, sol.combiners]))
        apart = [chordal(x, y).max() for x in solutions for y in solutions]
        assert all(dist < 1e-6 or dist > 4 * bound for dist in apart)
        for trace in traces[12 * n:12 * (n + 1)]:
            if not trace.converged:
                continue
            filters = np.concatenate([trace.precoders, trace.combiners])
            assert min(chordal(filters, sol).max()
                       for sol in solutions) < bound


def reference_run(net, cfg):
    """The probe in vector form, with explicit sums over the cross links and
    ``np.linalg.eigh``, from the engine's seeded precoders: ``(iterations,
    final leakage, precoders, combiners)``."""
    h, k = net.h, net.dims.k
    cross = [(i, j) for i in range(k) for j in range(k) if i != j]
    energy = sum(np.linalg.norm(h[i, j]) ** 2 for i, j in cross)
    v = iterative._random_precoders(net.dims.n_t, [k], [cfg.seed])[0][..., 0]
    for it in range(cfg.max_iters + 1):
        if it:   # precoder j: the weakest direction of sum_i H_ij^H u u^H H_ij
            g = {(i, j): h[i, j].conj().T @ u[i] for i, j in cross}
            v = [np.linalg.eigh(sum(np.outer(g[i, j], g[i, j].conj())
                                    for i in range(k) if i != j))[1][:, 0]
                 for j in range(k)]
        g = {(i, j): h[i, j] @ v[j] for i, j in cross}
        eig = [np.linalg.eigh(sum(np.outer(g[i, j], g[i, j].conj())
                                  for j in range(k) if j != i))
               for i in range(k)]
        u = [vecs[:, 0] for _, vecs in eig]
        leakage = max(sum(vals[0] for vals, _ in eig), 0.0) / energy
        if leakage <= cfg.leakage_tol:
            break
    return it, leakage, np.array(v), np.array(u)


@pytest.mark.parametrize("k,seeds,cap", [(3, range(30), 5000),
                                         (4, range(10), 200)])
def test_iterate_matches_vector_form_reference(k, seeds, cap):
    # an oracle that shares only the seeded draw with the engine: no
    # projectors, no power-of-two scaling, no closed form, no batch
    for seed in seeds:
        net = generate(NetworkDims(k, 2, 2), seed)
        cfg = IterativeConfig(d=(1,) * k, max_iters=cap, seed=seed)
        trace = iterate(net, cfg)
        iterations, leakage, precoders, combiners = reference_run(net, cfg)
        assert trace.iterations == iterations
        assert abs(trace.leakage[-1] - leakage) <= 1e-9 * leakage
        assert chordal(trace.precoders, precoders).max() < 1e-6
        assert chordal(trace.combiners, combiners).max() < 1e-6
