import dataclasses
import json
import re
import sys
import threading
import warnings
from itertools import permutations

import numpy as np
import pytest

from eigenalign import channel, cli, closed_form, iterative, linalg
from eigenalign.channel import InterferenceNetwork, NetworkDims, generate
from eigenalign.errors import (DimensionMismatch, EmptyNullSpace,
                               MalformedDocument, RankDeficientSolution,
                               ShapeMismatch, SingularChannel)


def alignment_residual(net, sol):
    """Independent oracle: evaluate the zero-forcing conditions directly."""
    worst = 0.0
    for i, j in permutations(range(net.dims.k), 2):
        worst = max(worst, abs(sol.combiners[i].conj()
                               @ net.h[i, j] @ sol.precoders[j]))
    return worst


def channel_scale(net):
    return max(np.linalg.norm(net.h[i, j])
               for i in range(net.dims.k) for j in range(net.dims.k))


def identity_cross_network(k, n, direct_seed=None):
    """All cross channels identity; direct channels generic when seeded."""
    h = np.zeros((k, k, n, n), dtype=complex)
    rng = np.random.Generator(np.random.PCG64(direct_seed or 0))
    for i in range(k):
        for j in range(k):
            if i == j and direct_seed is not None:
                h[i, j] = (rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n)))
            else:
                h[i, j] = np.eye(n)
    return InterferenceNetwork(NetworkDims(k, n, n), h)


#: The free nonzero parameter of the parametrization, fixed to -1.
SHIFT = -1.0


def stacked_oracle(net):
    """Independent derivation of the compensated matrix.

    Returns the stacked cross channels ``S`` (zero diagonal blocks), the
    cyclic block-row shift ``P`` and the shifted diagonal blocks ``D``
    (block r is ``h[r-1, r]``). Then
    ``compensated == -SHIFT * (inv(D) P S - I)``.
    """
    k, n = net.dims.k, net.dims.n_t
    stacked, permutation, block_diagonal = (
        np.zeros((k * n, k * n), dtype=complex) for _ in range(3))
    for r in range(k):
        l = (r - 1) % k
        permutation[r * n:(r + 1) * n, l * n:(l + 1) * n] = np.eye(n)
        block_diagonal[r * n:(r + 1) * n, r * n:(r + 1) * n] = net.h[l, r]
        for c in range(k):
            if c != r:
                stacked[r * n:(r + 1) * n, c * n:(c + 1) * n] = net.h[r, c]
    return stacked, permutation, block_diagonal


def rebuilt_compensated(net):
    stacked, permutation, block_diagonal = stacked_oracle(net)
    return -SHIFT * (np.linalg.inv(block_diagonal) @ permutation @ stacked
                     - np.eye(len(stacked)))


class TestBuildStacked:
    def test_identity_channels_block_cyclic(self):
        net = identity_cross_network(3, 2)
        compensated = closed_form.build_stacked(net)
        expected = np.zeros((6, 6), dtype=complex)
        expected[0:2, 2:4] = np.eye(2)
        expected[2:4, 4:6] = np.eye(2)
        expected[4:6, 0:2] = np.eye(2)
        np.testing.assert_allclose(compensated, expected, atol=1e-14)
        # spectrum: the three cube roots of unity, each twice
        values = np.sort_complex(np.linalg.eigvals(compensated))
        roots = [-0.5 - 0.8660254037844386j, -0.5 - 0.8660254037844386j,
                 -0.5 + 0.8660254037844386j, -0.5 + 0.8660254037844386j,
                 1.0, 1.0]
        np.testing.assert_allclose(values, np.sort_complex(np.array(roots)),
                                   atol=1e-12)

    def test_block_sparsity_mask(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        compensated = closed_form.build_stacked(net)
        n = 2
        # zero on the diagonal and in column r - 1 (mod 3)
        mask = ~np.eye(3, dtype=bool)
        mask[[0, 1, 2], [2, 0, 1]] = False
        for r in range(3):
            row_nonzero = 0
            for c in range(3):
                block = compensated[r * n:(r + 1) * n, c * n:(c + 1) * n]
                if mask[r, c]:
                    assert np.abs(block).max() > 0
                    row_nonzero += 1
                else:
                    assert np.abs(block).max() == 0
            assert row_nonzero == 1   # K = 3: a single nonzero block per row

    def test_block_value_against_direct_product(self):
        # block (row 2, col 3) in 1-based terms must equal
        # inv(h[0,1]) @ h[0,2], computed here through a separate inverse
        net = generate(NetworkDims(4, 3, 3), 7)
        compensated = closed_form.build_stacked(net)
        n = 3
        block = compensated[1 * n:2 * n, 2 * n:3 * n]
        oracle = np.linalg.inv(net.h[0, 1]) @ net.h[0, 2]
        np.testing.assert_allclose(block, oracle, atol=1e-12)

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
    def test_compensation_identity(self, n, seed):
        # compensated == -shift (inv(block_diagonal) permutation stacked - I)
        net = generate(NetworkDims(n + 1, n, n), seed)
        compensated = closed_form.build_stacked(net)
        rebuilt = rebuilt_compensated(net)
        assert np.abs(compensated - rebuilt).max() < 1e-10

    def test_permutation_structure(self):
        net = generate(NetworkDims(4, 3, 3), 0)
        _, p, _ = stacked_oracle(net)
        assert np.array_equal(p @ p.conj().T, np.eye(12).astype(complex))
        n = 3
        for r in range(4):
            target = (r - 1) % 4
            block = p[r * n:(r + 1) * n, target * n:(target + 1) * n]
            assert np.array_equal(block, np.eye(n).astype(complex))

    def test_dimension_gates(self):
        with pytest.raises(DimensionMismatch):
            closed_form.build_stacked(generate(NetworkDims(3, 3, 3), 0))
        with pytest.raises(DimensionMismatch):
            closed_form.build_stacked(generate(NetworkDims(3, 2, 3), 0))

    def test_singular_channel_named(self):
        net = generate(NetworkDims(3, 2, 2), 1)
        h = net.h.copy()
        h[0, 2] = np.array([[1.0, 1.0], [1.0, 1.0]])
        broken = InterferenceNetwork(net.dims, h)
        with pytest.raises(SingularChannel) as err:
            closed_form.build_stacked(broken)
        assert err.value.pair == (0, 2)


def with_blocks(net, blocks):
    """``net`` with the channels named in ``blocks`` replaced."""
    h = net.h.copy()
    for pair, block in blocks.items():
        h[pair] = block
    return InterferenceNetwork(net.dims, h)


class TestChannelCheck:
    """The batched condition check and the ratios behind every route."""

    def test_identity_denominator(self):
        # an identity denominator leaves the whole channel row unchanged
        net = with_blocks(generate(NetworkDims(4, 2, 2), 3),
                          {(2, 1): np.eye(2)})
        ratios = closed_form._channel_ratios(net, [(2, 1)])
        assert ratios.shape == (1, 4, 2, 2)
        np.testing.assert_array_equal(ratios[0], net.h[2])

    def test_ratio_residual(self):
        net = generate(NetworkDims(6, 5, 5), 12)
        pairs = [(0, 1), (4, 2), (5, 0)]
        ratios = closed_form._channel_ratios(net, pairs)
        for (l, den), row in zip(pairs, ratios):
            for c in range(6):
                assert (np.linalg.norm(net.h[l, den] @ row[c] - net.h[l, c])
                        <= 1e-10 * np.linalg.norm(net.h[l, den])
                        * np.linalg.norm(row[c]))

    def test_singular_raises(self):
        net = with_blocks(generate(NetworkDims(3, 2, 2), 0),
                          {(1, 2): np.ones((2, 2))})
        with pytest.raises(SingularChannel) as err:
            closed_form._channel_ratios(net, [(0, 1), (1, 2)])
        assert err.value.pair == (1, 2)

    def test_condition_cap(self):
        net = generate(NetworkDims(3, 2, 2), 4)
        refused = with_blocks(net, {(0, 1): np.diag([1.0, 1e-13])})
        with pytest.raises(SingularChannel, match="exceeds cap 1e\\+12"):
            closed_form.build_stacked(refused)
        # just inside the cap the channel is accepted and inverted
        accepted = with_blocks(net, {(0, 1): np.diag([1.0, 1e-11])})
        block = closed_form.build_stacked(accepted)[2:4, 4:6]
        oracle = np.diag([1.0, 1e11]) @ accepted.h[0, 2]
        np.testing.assert_allclose(block, oracle, rtol=1e-12)

    def test_zero_channel_reports_inf(self):
        net = with_blocks(generate(NetworkDims(3, 2, 2), 1),
                          {(0, 2): np.zeros((2, 2))})
        with pytest.raises(SingularChannel) as err:
            closed_form.build_stacked(net)
        assert str(err.value) == ("cross channel (0, 2): condition estimate"
                                  " inf exceeds cap 1e+12")

    @pytest.mark.parametrize("singular,eigen_pair,loop_pair", [
        ([(0, 1), (2, 0)], (0, 1), (2, 0)),
        ([(0, 2), (1, 2)], (0, 2), (1, 2)),
    ])
    def test_first_failing_pair_per_route(self, singular, eigen_pair,
                                          loop_pair):
        # the eigen route walks all cross pairs in row-major order; the
        # loop routes walk their denominators (2, 0), (0, 1), (1, 2)
        net = with_blocks(generate(NetworkDims(3, 2, 2), 1),
                          {pair: np.ones((2, 2)) for pair in singular})
        routes = {closed_form.build_stacked: eigen_pair,
                  closed_form.solve_eigen_method: eigen_pair,
                  closed_form.solve_loop_method: loop_pair,
                  closed_form.loop_matrix: loop_pair,
                  closed_form.cube_relation_check: loop_pair}
        for route, pair in routes.items():
            with pytest.raises(SingularChannel) as err:
                route(net)
            assert err.value.pair == pair, route.__name__

    def test_ratio_overflow_refused(self):
        # both channels pass the cap, but their ratio leaves the float range
        net = generate(NetworkDims(3, 2, 2), 1)
        h = net.h.copy()
        h[0, 1] *= 1e-300
        h[0, 2] *= 1e300
        with pytest.raises(SingularChannel, match=re.escape(
                "cross channel (0, 1): its ratios to receiver 0's channels"
                " overflow")) as err:
            closed_form.solve_eigen_method(InterferenceNetwork(net.dims, h))
        assert err.value.pair == (0, 1)

    @pytest.mark.parametrize("n", [2, 5])
    def test_one_condition_svd_per_solve(self, n, monkeypatch):
        # the eigen route checks its K(K-1) cross channels in one batched
        # SVD and does not check the K denominators among them again
        batches = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if kwargs.get("compute_uv") is False:
                batches.append(np.shape(a)[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        closed_form.solve_eigen_method(generate(NetworkDims(n + 1, n, n), 0))
        assert batches == [(n + 1) * n]


class TestEigenMethod:
    def test_gaussian_seed42(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        assert alignment_residual(net, sol) < 1e-10
        norms = np.linalg.norm(sol.precoders, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        norms = np.linalg.norm(sol.combiners, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert sol.eigenvalue is not None and abs(sol.eigenvalue) > 0

    def test_all_identity_rank_deficient(self):
        net = identity_cross_network(3, 2)   # direct channels identity too
        with pytest.raises(RankDeficientSolution) as err:
            closed_form.solve_eigen_method(net)
        sol = err.value.solution
        assert sol is not None
        assert alignment_residual(net, sol) < 1e-10
        gains = closed_form.verify(net, sol).relative_gains
        assert gains[err.value.user] < 1e-8

    def test_diagonal_cross_channels_axis_aligned(self):
        # diag(2, 1/2) cross channels: the dominant eigenvector rides the
        # first axis, so every precoder is e1 and every combiner e2 up to
        # phase; direct channels are generic so the rank condition holds.
        rng = np.random.Generator(np.random.PCG64(3))
        h = np.zeros((3, 3, 2, 2), dtype=complex)
        for i in range(3):
            for j in range(3):
                if i == j:
                    h[i, j] = (rng.standard_normal((2, 2))
                               + 1j * rng.standard_normal((2, 2)))
                else:
                    h[i, j] = np.diag([2.0, 0.5])
        net = InterferenceNetwork(NetworkDims(3, 2, 2), h)
        sol = closed_form.solve_eigen_method(net)
        assert alignment_residual(net, sol) < 1e-10
        np.testing.assert_allclose(np.abs(sol.precoders[:, 1]), 0, atol=1e-10)
        np.testing.assert_allclose(np.abs(sol.combiners[:, 0]), 0, atol=1e-10)

    def test_larger_size(self):
        net = generate(NetworkDims(5, 4, 4), 3)
        sol = closed_form.solve_eigen_method(net)
        assert alignment_residual(net, sol) < 1e-8 * channel_scale(net)

    def test_deterministic(self):
        net = generate(NetworkDims(4, 3, 3), 9)
        a = closed_form.solve_eigen_method(net)
        b = closed_form.solve_eigen_method(net)
        assert np.array_equal(a.precoders, b.precoders)
        assert np.array_equal(a.combiners, b.combiners)
        assert a.eigenvalue == b.eigenvalue

    def test_eigen_consistency(self):
        # the chosen eigenpair's residual, as eig_general reports it, is
        # within the bound the eigen filter applies
        net = generate(NetworkDims(3, 2, 2), 11)
        compensated = closed_form.build_stacked(net)
        sol = closed_form.solve_eigen_method(net)
        values, _, residuals = linalg.eig_general(compensated)
        chosen = np.flatnonzero(values == sol.eigenvalue)
        assert chosen.size == 1
        assert residuals[chosen[0]] <= 1e-8 * np.linalg.norm(compensated)

    def test_combiner_phase_fixed(self):
        net = generate(NetworkDims(3, 2, 2), 13)
        sol = closed_form.solve_eigen_method(net)
        for u in sol.combiners:
            lead = u[np.argmax(np.abs(u))]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_linear_dependency_witness(self):
        # at each receiver the N interfering signals must be dependent:
        # smallest singular value within 1e-8 of zero relative to largest
        for seed in range(5):
            net = generate(NetworkDims(4, 3, 3), seed)
            sol = closed_form.solve_eigen_method(net)
            for i in range(4):
                cols = np.column_stack([net.h[i, j] @ sol.precoders[j]
                                        for j in range(4) if j != i])
                s = np.linalg.svd(cols, compute_uv=False)
                assert s[-1] <= 1e-8 * s[0]

    def test_scale_invariance_of_validity(self):
        from eigenalign.analysis import verify
        net = generate(NetworkDims(3, 2, 2), 21)
        sol = closed_form.solve_eigen_method(net)
        for factor in (1e3, 1e-3 * (1 + 2j)):
            h = net.h.copy()
            h[0, 1] = h[0, 1] * factor
            scaled = InterferenceNetwork(net.dims, h)
            assert verify(scaled, sol).passed

    @pytest.mark.parametrize("factor", [1e300, 1e200, 1e-300, 1e-310])
    def test_extreme_channel_scales_verify(self, factor):
        # the norms and the channel ratios come from the channels scaled by
        # a power of two, so entries near 1e300 do not overflow and
        # subnormal ones near 1e-310 do not reach LAPACK
        net = generate(NetworkDims(3, 2, 2), 42)
        base = closed_form.verify(net, closed_form.solve_eigen_method(net))
        scaled = InterferenceNetwork(net.dims, net.h * factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = closed_form.solve_eigen_method(scaled)
            report = closed_form.verify(scaled, sol)
        assert base.passed and report.passed
        assert np.abs(report.relative_gains - base.relative_gains).max() <= 1e-12
        assert abs(report.alignment_residual - base.alignment_residual) <= 1e-12
        assert report.channel_scale == pytest.approx(factor * base.channel_scale,
                                                     rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_eigenpair_verifies(self, n):
        # not only the first usable eigenpair: all KN pass the three
        # filters of solve_eigen_method and finish into verified solutions
        from eigenalign.analysis import verify
        k = n + 1
        for seed in range(5):
            net = generate(NetworkDims(k, n, n), seed)
            compensated = closed_form.build_stacked(net)
            scale = np.linalg.norm(compensated)
            values, vectors, residuals = linalg.eig_general(compensated)
            assert np.all(np.abs(values) > 1e-8 * scale)
            assert np.all(residuals <= 1e-8 * scale)
            for i in range(k * n):
                blocks = vectors[:, i].reshape(k, n)
                norms = np.linalg.norm(blocks, axis=1)
                assert np.all(norms >= closed_form.BLOCK_TOL / np.sqrt(k))
                sol = closed_form._finish_solution(
                    net, blocks / norms[:, None], complex(values[i]))
                assert verify(net, sol).passed
                assert alignment_residual(net, sol) < 1e-8 * channel_scale(net)


def eig_general_solution(net):
    """The eigen route's pick among all of ``eig_general``'s eigenpairs:
    the first with a nonzero value, an in-bound residual and usable
    blocks, finished into a solution (None if there is none)."""
    compensated = closed_form.build_stacked(net)
    k, n = net.dims.k, net.dims.n_t
    tol = 1e-8 * np.linalg.norm(compensated)
    values, vectors, residuals = linalg.eig_general(compensated)
    for value, vector, residual in zip(values, vectors.T, residuals):
        norms = np.linalg.norm(vector.reshape(k, n), axis=1)
        if (abs(value) > tol and residual <= tol
                and np.all(norms >= closed_form.BLOCK_TOL / np.sqrt(k))):
            return closed_form._finish_solution(
                net, vector.reshape(k, n) / norms[:, None], complex(value))
    return None


#: A small-integer K = 3, N = 2 network whose first candidate eigenvalue,
#: 2^(1/3), comes out of ``eigvals`` such that LU finds the shifted matrix
#: exactly singular.
SINGULAR_SHIFT = [[[[0, 1], [2, 1]], [[-2, -1], [1, 2]], [[2, 2], [0, -2]]],
                  [[[-1, -2], [-2, 0]], [[0, 0], [1, 0]], [[1, 1], [2, -2]]],
                  [[[-1, 0], [0, -1]], [[1, 1], [-2, 0]], [[1, -1], [0, -2]]]]


class TestEigenPath:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_eig_general_reference(self, n):
        for seed in range(20):
            net = generate(NetworkDims(n + 1, n, n), seed)
            sol = closed_form.solve_eigen_method(net)
            ref = eig_general_solution(net)
            assert sol.eigenvalue == ref.eigenvalue   # bitwise
            assert np.abs(sol.precoders - ref.precoders).max() <= 1e-12
            assert np.abs(sol.combiners - ref.combiners).max() <= 1e-12

    def test_singular_shift_falls_back(self):
        net = InterferenceNetwork(NetworkDims(3, 2, 2),
                                  np.array(SINGULAR_SHIFT, dtype=complex))
        compensated = closed_form.build_stacked(net)
        values = np.linalg.eigvals(compensated)
        first = values[linalg._order(values)][0]
        with pytest.raises(np.linalg.LinAlgError):
            linalg._eigenvector(compensated, first)
        # no LinAlgError: the scan starts over with eig_general's vectors
        sol = closed_form.solve_eigen_method(net)
        assert closed_form.verify(net, sol).passed
        ref = eig_general_solution(net)
        assert sol.eigenvalue == ref.eigenvalue
        assert np.array_equal(sol.precoders, ref.precoders)
        assert np.array_equal(sol.combiners, ref.combiners)

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflowing_inverse_iteration_falls_back(self, n):
        # at each receiver every cross channel but the inverted one is
        # scaled by 1e-300: the compensated entries are near 1e-300, the
        # shifted solve overflows, and the scan starts over with
        # eig_general's vectors instead of dividing inf by inf
        net = generate(NetworkDims(n + 1, n, n), 1)
        h = net.h.copy()
        for l in range(n + 1):
            for c in set(range(n + 1)) - {l, (l + 1) % (n + 1)}:
                h[l, c] *= 1e-300
        net = InterferenceNetwork(net.dims, h)
        compensated = closed_form.build_stacked(net)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = list(closed_form._stacked_eigenpairs(compensated, 0.0))
            # the route scales the matrix by a power of two first
            sol = closed_form.solve_eigen_method(net)
        values, vectors, residuals = linalg.eig_general(compensated)
        assert len(pairs) == len(values)
        for (value, vector, residual), *ref in zip(pairs, values, vectors.T,
                                                    residuals):
            assert value == ref[0] and residual == ref[2]
            assert np.array_equal(vector, ref[1])
        ref = eig_general_solution(net)
        assert closed_form.verify(net, sol).passed
        assert abs(sol.eigenvalue - ref.eigenvalue) <= 1e-12 * abs(
            ref.eigenvalue)
        assert np.abs(sol.precoders - ref.precoders).max() <= 1e-12


def interference_columns(net, precoders, receiver):
    """Receiver ``receiver``'s interference matrix, one column at a time."""
    return np.column_stack([net.h[receiver, j] @ precoders[j]
                            for j in range(net.dims.k) if j != receiver])


def zero_forcing_oracle(net, precoders):
    """The zero-forcing finish one receiver at a time: the first left null
    vector of each receiver's interference matrix, rotated by the scalar
    ``abs`` so its largest-modulus entry is real positive."""
    combiners = []
    for i in range(net.dims.k):
        u, rank = linalg._left_null(interference_columns(net, precoders, i))
        u = u[:, rank]
        lead = u[int(np.argmax(np.abs(u)))]
        combiners.append(u * np.conj(lead / abs(lead)))
    return np.stack(combiners)


class TestBatchedFinish:
    """One stacked product and one batched SVD give the same bits as the
    per-receiver loop."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_eigen_combiners_equal_oracle(self, n):
        for seed in range(10):
            net = generate(NetworkDims(n + 1, n, n), seed)
            sol = closed_form.solve_eigen_method(net)
            assert np.array_equal(sol.combiners,
                                  zero_forcing_oracle(net, sol.precoders))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_loop_combiners_equal_oracle(self, n):
        # n = 4 has a 2-dimensional null space; the first vector is taken
        for seed in range(10):
            net = generate(NetworkDims(3, n, n), seed)
            sol = closed_form.solve_loop_method(net)
            assert np.array_equal(sol.combiners,
                                  zero_forcing_oracle(net, sol.precoders))

    def test_demo_combiners_equal_oracle(self, monkeypatch):
        # the demo reports its combiners only through verify: capture the
        # solution it passes there and rebuild the least-squares combiners
        # (last left singular vector) receiver by receiver
        from eigenalign import analysis
        seen = []

        def spy(net, sol):
            seen.append(sol)
            return closed_form.verify(net, sol)

        monkeypatch.setattr(analysis, "verify", spy)
        for seed in range(10):
            net = generate(NetworkDims(4, 2, 2), seed)
            report = analysis.infeasibility_demo(net)
            sol = seen.pop()
            precoders, combiners = sol.precoders, sol.combiners
            oracle = np.stack([
                np.linalg.svd(interference_columns(net, precoders, i))[0][:, -1]
                for i in range(4)])
            assert np.array_equal(combiners, oracle)
            gains = np.abs(np.einsum("ia,ijab,jb->ij", np.conj(oracle), net.h,
                                     precoders))
            worst = np.max(gains, where=~np.eye(4, dtype=bool), initial=0.0)
            scale = np.linalg.norm(net.h, axis=(2, 3)).max()
            assert report.joint_residual == float(worst / scale)

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_row_rank_message_unchanged(self, n):
        # K = N + 1 random precoders: every receiver sees N generic columns
        net = generate(NetworkDims(n + 1, n, n), 0)
        rng = np.random.Generator(np.random.PCG64(n))
        precoders = (rng.standard_normal((n + 1, n))
                     + 1j * rng.standard_normal((n + 1, n)))
        with pytest.raises(EmptyNullSpace) as oracle:
            zero_forcing_oracle(net, precoders)
        with pytest.raises(EmptyNullSpace) as err:
            closed_form._finish_solution(net, precoders, None)
        assert str(err.value) == str(oracle.value) == (
            f"matrix of shape ({n}, {n}) has full row rank {n}")

    def test_raises_past_a_receiver_with_null_space(self):
        # identity cross channels: receiver 0 sees (e1, e1) and keeps a null
        # vector, receivers 1 and 2 see (e2, e1) with full row rank
        net = identity_cross_network(3, 2, direct_seed=2)
        precoders = np.eye(2, dtype=complex)[[1, 0, 0]]
        for finish in (lambda: zero_forcing_oracle(net, precoders),
                       lambda: closed_form._finish_solution(
                           net, precoders, None)):
            with pytest.raises(EmptyNullSpace, match=r"^matrix of shape"
                               r" \(2, 2\) has full row rank 2$"):
                finish()

def spectrum_gap(x, y):
    """Largest distance from an eigenvalue of either matrix to the nearest
    eigenvalue of the other, relative to the largest modulus."""
    a, b = np.linalg.eigvals(x), np.linalg.eigvals(y)
    gaps = np.abs(a[:, None] - b[None, :])
    worst = max(gaps.min(axis=0).max(), gaps.min(axis=1).max())
    return worst / np.abs(a).max()


class TestInvariances:
    """Network maps that leave the compensated spectrum alone. Under
    ``H_ij -> A_i H_ij B_j`` block ``(r, c)`` becomes ``B_r^-1 X_rc B_c``, a
    block similarity; relabelling the users cyclically permutes the blocks
    (the coupling mask is cyclic); a global scale cancels in every ratio."""

    @staticmethod
    def transformed(net, rng):
        k, n = net.dims.k, net.dims.n_t
        a, b = (rng.standard_normal((k, n, n))
                + 1j * rng.standard_normal((k, n, n)) for _ in range(2))
        yield a[:, None] @ net.h @ b[None, :]
        yield np.roll(net.h, 1, axis=(0, 1))
        yield 1e3 * (0.6 - 0.8j) * net.h

    @pytest.mark.parametrize("n", [2, 3])
    def test_spectrum_verify_and_fixed_point(self, n):
        from eigenalign.analysis import verify
        rng = np.random.Generator(np.random.PCG64(n))
        for seed in range(2):
            net = generate(NetworkDims(n + 1, n, n), seed)
            base = closed_form.build_stacked(net)
            for h in self.transformed(net, rng):
                moved = InterferenceNetwork(net.dims, h)
                moved_stacked = closed_form.build_stacked(moved)
                assert spectrum_gap(base, moved_stacked) < 1e-11
                sol = closed_form.solve_eigen_method(moved)
                assert verify(moved, sol).passed
                assert iterative.warm_start_check(moved, sol).passed


class TestLoopMethod:
    def test_gaussian_seed42(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_loop_method(net)
        assert alignment_residual(net, sol) < 1e-10

    def test_odd_dimension_no_extension(self):
        # odd N solved directly, one stream per user
        net = generate(NetworkDims(3, 3, 3), 11)
        sol = closed_form.solve_loop_method(net)
        assert alignment_residual(net, sol) < 1e-8 * channel_scale(net)
        assert sol.precoders.shape == sol.combiners.shape == (3, 3)

    def test_identity_cross_channels(self):
        # loop matrix is the identity: anything aligns, interference is
        # collinear at every receiver
        net = identity_cross_network(3, 3, direct_seed=17)
        sol = closed_form.solve_loop_method(net)
        assert alignment_residual(net, sol) < 1e-10
        assert np.all(closed_form.verify(net, sol).relative_gains
                      >= closed_form.RANK_TOL)

    def test_wrong_user_count(self):
        with pytest.raises(DimensionMismatch):
            closed_form.solve_loop_method(generate(NetworkDims(4, 2, 2), 0))

    def test_non_square_refused(self):
        with pytest.raises(DimensionMismatch, match="^loop method needs square"
                           " channels, got 3x2$"):
            closed_form.solve_loop_method(generate(NetworkDims(3, 2, 3), 0))

    def test_loop_matrix_is_the_ratio_product(self):
        # inv(h31) h32 inv(h12) h13 inv(h23) h21, 1-based, from separate
        # inverses; the ratios do not see the scale of the network
        net = generate(NetworkDims(3, 3, 3), 4)
        inv = np.linalg.inv
        h = net.h
        oracle = (inv(h[2, 0]) @ h[2, 1] @ inv(h[0, 1]) @ h[0, 2]
                  @ inv(h[1, 2]) @ h[1, 0])
        loop = closed_form.loop_matrix(net)
        np.testing.assert_allclose(loop, oracle, rtol=0,
                                   atol=1e-12 * np.abs(oracle).max())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = closed_form.loop_matrix(InterferenceNetwork(
                net.dims, net.h * 1e200))
        np.testing.assert_allclose(scaled, loop, rtol=0,
                                   atol=1e-12 * np.abs(loop).max())

    @pytest.mark.parametrize("factor", [1e200, 1e-310])
    def test_extreme_channel_scales(self, factor):
        net = generate(NetworkDims(3, 2, 2), 1)
        scaled = InterferenceNetwork(net.dims, net.h * factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = closed_form.solve_loop_method(scaled)
            report = closed_form.verify(scaled, sol)
        base = closed_form.verify(net, closed_form.solve_loop_method(net))
        assert report.passed
        assert np.abs(report.relative_gains - base.relative_gains).max() <= 1e-12

    @pytest.mark.parametrize("zeroed, user", [((1, 0), 3), ((0, 2), 2)])
    def test_back_substitution_failure(self, zeroed, user):
        # a zero numerator passes the condition check but annihilates the
        # precoder carried through it: h[1, 0] gives v3, h[0, 2] gives v2
        net = with_blocks(generate(NetworkDims(3, 2, 2), 1),
                          {zeroed: np.zeros((2, 2))})
        with pytest.raises(SingularChannel,
                           match=f"^back-substitution for user {user} ") as err:
            closed_form.solve_loop_method(net)
        assert err.value.pair == zeroed

    def test_methods_agree_on_validity(self):
        # both routes must satisfy the residual bound on the same network
        # (the chosen eigenvectors are free, so solutions need not match)
        for seed in (1, 2, 3):
            net = generate(NetworkDims(3, 2, 2), seed)
            bound = 1e-8 * channel_scale(net)
            assert alignment_residual(net, closed_form.solve_eigen_method(net)) < bound
            assert alignment_residual(net, closed_form.solve_loop_method(net)) < bound


class TestCubeRelation:
    def test_identity_channels(self):
        net = identity_cross_network(3, 2, direct_seed=5)
        report = closed_form.cube_relation_check(net)
        assert report.passed
        for _, cube, matched, rel in report.matches:
            assert abs(cube - 1.0) < 1e-10
            assert abs(matched - 1.0) < 1e-10

    @pytest.mark.parametrize("n,seed", [(2, 42), (3, 13)])
    def test_gaussian(self, n, seed):
        net = generate(NetworkDims(3, n, n), seed)
        report = closed_form.cube_relation_check(net)
        assert report.passed
        assert len(report.matches) == 3 * n
        assert report.worst_mismatch <= 1e-6

    def test_wrong_user_count(self):
        with pytest.raises(DimensionMismatch):
            closed_form.cube_relation_check(generate(NetworkDims(4, 3, 3), 0))

    @pytest.mark.parametrize("factor", [1e200, 1e-310])
    def test_extreme_channel_scales(self, factor):
        net = generate(NetworkDims(3, 2, 2), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = closed_form.cube_relation_check(
                InterferenceNetwork(net.dims, net.h * factor))
        base = closed_form.cube_relation_check(net)
        assert report.passed and len(report.matches) == len(base.matches)
        # the cubes, whose order among equal moduli follows rounding
        got, ref = (np.array([m[1] for m in r.matches]) for r in (report, base))
        assert np.abs(got[:, None] - ref).min(axis=1).max() <= 1e-12 * np.abs(
            ref).max()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reports_equal_eig_general_reference(self, n):
        # the report built from eig_general's two spectra, bit for bit
        for seed in range(10):
            net = generate(NetworkDims(3, n, n), seed)
            compensated, _, loop, _ = closed_form._loop_system(net, "")
            stacked = linalg.eig_general(compensated)[0]
            loop_vals = linalg.eig_general(loop)[0]
            vals = stacked[np.abs(stacked) > 1e-8 * np.abs(stacked).max()]
            match, rel = closed_form._match_cubes(vals ** 3, loop_vals)
            ref = [(complex(v), complex(v ** 3), complex(loop_vals[j]),
                    float(e))
                   for v, j, e in zip(vals, match, rel)]
            report = closed_form.cube_relation_check(net)
            assert report.matches == ref
            assert report.worst_mismatch == max(rel)

    def test_loop_value_taken_at_most_three_times(self):
        # 1.2 lies nearest to 1, which nearest-neighbour matching would
        # then take four times; 1 has three cube roots, so 1.2 goes to 2
        cubes = np.array([1.0, 1.0, 1.0, 1.2, 2.0, 2.0], dtype=complex)
        loop_vals = np.array([1.0, 2.0], dtype=complex)
        assert np.bincount(np.argmin(np.abs(cubes[:, None] - loop_vals),
                                     axis=1)).max() == 4
        match, rel = closed_form._match_cubes(cubes, loop_vals)
        assert match.tolist() == [0, 0, 0, 1, 1, 1]
        np.testing.assert_allclose(rel, [0, 0, 0, 0.4, 0, 0])

    def test_singular_channel_named(self):
        # the same error, naming the same pair, as the two solve routes
        net = generate(NetworkDims(3, 2, 2), 1)
        h = net.h.copy()
        h[0, 1] = np.array([[1.0, 2.0], [2.0, 4.0]])
        broken = InterferenceNetwork(net.dims, h)
        for route in (closed_form.cube_relation_check,
                      closed_form.solve_eigen_method,
                      closed_form.solve_loop_method):
            with pytest.raises(SingularChannel) as err:
                route(broken)
            assert err.value.pair == (0, 1)


class TestSolutionDocument:
    def test_round_trip(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        doc = closed_form.solution_to_document(net, sol, "eigen")
        back, dims, method = closed_form.solution_from_document(doc)
        assert dims == net.dims
        assert method == "eigen"
        np.testing.assert_array_equal(back.precoders, sol.precoders)
        np.testing.assert_array_equal(back.combiners, sol.combiners)
        assert back.eigenvalue == sol.eigenvalue

        # bit-exact for signed zeros, the smallest subnormals and huge
        # finite values, in every float the document carries; on a zero
        # channel, so that the residual and gains written stay finite
        extremes = np.array([-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.0])
        filters = (extremes + 1j * extremes[::-1]).reshape(3, 2)
        sol = closed_form.AlignmentSolution(
            filters, filters[::-1].copy(), complex(-0.0, -5e-324))
        zero = InterferenceNetwork(net.dims, np.zeros_like(net.h))
        data = closed_form.solution_to_document(zero, sol, "eigen")
        assert json.loads(data)["residual"] == 0.0
        back, _, _ = closed_form.solution_from_document(data)
        for got, sent in ((back.precoders, sol.precoders),
                          (back.combiners, sol.combiners)):
            assert got.dtype == np.complex128 and np.array_equal(got, sent)
            assert got.tobytes() == sent.tobytes()
        assert (np.complex128(back.eigenvalue).tobytes()
                == np.complex128(sol.eigenvalue).tobytes())
        assert closed_form.solution_to_document(zero, back, "eigen") == data

    @pytest.mark.parametrize("field", ["residual", "rank_metric"])
    def test_integer_past_the_digit_limit(self, field):
        # Python refuses to read an integer of more than 4300 digits
        net = generate(NetworkDims(3, 2, 2), 42)
        doc = json.loads(closed_form.solution_to_document(
            net, closed_form.solve_eigen_method(net), "eigen"))
        data = json.dumps(dict(doc, **{field: "long"})).replace(
            '"long"', "1" + "0" * 4999)
        with pytest.raises(MalformedDocument, match="^" + re.escape(
                "integer with too many digits (at document root)") + "$"):
            closed_form.solution_from_document(data)

    @pytest.mark.parametrize("method", [3, None, ["eigen"]])
    def test_method_the_reader_refuses_is_refused(self, method):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        doc = json.loads(closed_form.solution_to_document(net, sol, "eigen"))
        with pytest.raises(MalformedDocument, match="method"):
            closed_form.solution_from_document(
                json.dumps(dict(doc, method=method)))
        with pytest.raises(ValueError, match="^method must be a string, got"
                           f" {type(method).__name__}$"):
            closed_form.solution_to_document(net, sol, method)
        for name in ("", "loop", "iterative"):
            data = closed_form.solution_to_document(net, sol, name)
            assert closed_form.solution_from_document(data)[2] == name

    @pytest.mark.parametrize("method", ["\x00", '"\\u0000"', "é", "a\nb"])
    def test_method_text_written_with_json_escapes(self, method):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        data = closed_form.solution_to_document(net, sol, method)
        assert b'\n "method": ' + json.dumps(method).encode() + b",\n" in data
        assert closed_form.solution_from_document(data)[2] == method

    def test_one_filter_gate_per_document(self, monkeypatch):
        # the writer and its verify share one pass through the array gate
        net = generate(NetworkDims(3, 2, 2), 4)
        sol = closed_form.solve_eigen_method(net)
        expected = closed_form.solution_to_document(net, sol, "eigen")
        calls, gate = [], closed_form._filters

        def spy(net, sol):
            calls.append(sol)
            return gate(net, sol)

        monkeypatch.setattr(closed_form, "_filters", spy)
        assert closed_form.solution_to_document(net, sol, "eigen") == expected
        assert len(calls) == 1

    def test_deterministic_bytes(self):
        net = generate(NetworkDims(3, 2, 2), 4)
        sol = closed_form.solve_loop_method(net)
        a = closed_form.solution_to_document(net, sol, "loop")
        b = closed_form.solution_to_document(net, sol, "loop")
        assert a == b

    @pytest.mark.parametrize("method", ["eigen", "loop"])
    def test_rewrite_reproduces_bytes(self, method):
        # parse and write back, with the residual kept or nulled: the
        # writer recomputes residual and rank_metric from the channel, so
        # the bytes are the first writer's, and they parse again
        net = generate(NetworkDims(3, 2, 2), 4)
        solve = {"eigen": closed_form.solve_eigen_method,
                 "loop": closed_form.solve_loop_method}[method]
        first = closed_form.solution_to_document(net, solve(net), method)
        doc = json.loads(first)
        nulled = (json.dumps(dict(doc, residual=None), indent=1)
                  + "\n").encode()
        assert b'"residual": null' in nulled
        for data in (first, nulled):
            sol, dims, parsed = closed_form.solution_from_document(data)
            again = closed_form.solution_to_document(net, sol, parsed)
            assert again == first
            closed_form.solution_from_document(again)
        report = closed_form.verify(net, solve(net))
        assert doc["residual"] == report.alignment_residual
        assert doc["rank_metric"] == report.relative_gains.min()

    def test_malformed_documents(self):
        net = generate(NetworkDims(3, 2, 2), 4)
        sol = closed_form.solve_eigen_method(net)
        doc = json.loads(closed_form.solution_to_document(net, sol, "eigen"))

        bad = dict(doc, **{"lambda": 3.0})
        with pytest.raises(MalformedDocument, match="^" + re.escape(
                "expected a list of length 2 (at lambda)") + "$"):
            closed_form.solution_from_document(json.dumps(bad))

        bad = json.loads(json.dumps(doc))
        bad["users"][1]["v"] = [[0.1, "x"], [0.2, 0.3]]
        with pytest.raises(MalformedDocument, match="^" + re.escape(
                "expected a finite number (at users[1].v[0][1])") + "$"):
            closed_form.solution_from_document(json.dumps(bad))

        # residual and rank_metric are finite numbers or absent
        for edit in ({"residual": None}, {"rank_metric": None}):
            parsed, _, _ = closed_form.solution_from_document(
                json.dumps(dict(doc, **edit)))
            np.testing.assert_array_equal(parsed.precoders, sol.precoders)
        absent = {k: v for k, v in doc.items()
                  if k not in ("residual", "rank_metric")}
        closed_form.solution_from_document(json.dumps(absent))
        for name in ("residual", "rank_metric"):
            for value in ("oops", False, [1.0], float("nan")):
                with pytest.raises(MalformedDocument, match=re.escape(
                        f"expected a finite number (at {name})")):
                    closed_form.solution_from_document(
                        json.dumps(dict(doc, **{name: value})))

        # booleans are not numbers; NaN, Infinity, dimensions NetworkDims
        # refuses and a non-string method are malformed too
        def entry(value):
            return {"users": [doc["users"][0],
                              dict(doc["users"][1], v=[value, [0.0, 0.0]]),
                              doc["users"][2]]}
        for edit in ({"lambda": ["a", "b"]}, {"lambda": [True, False]},
                     {"lambda": [float("nan"), 0.0]}, {"k": 1}, {"nt": 0},
                     {"k": True}, {"format": True}, {"residual": False},
                     {"residual": float("inf")}, entry([True, False]),
                     entry([float("nan"), 0.0]), entry([0.0, -float("inf")]),
                     {"method": 3}, {"method": None}):
            with pytest.raises(MalformedDocument):
                closed_form.solution_from_document(json.dumps(dict(doc, **edit)))
        # a JSON integer past the float range is no finite number
        for name in ("residual", "rank_metric"):
            with pytest.raises(MalformedDocument, match=re.escape(
                    f"expected a finite number (at {name})")):
                closed_form.solution_from_document(
                    json.dumps(dict(doc, **{name: 10 ** 400})))
        data = closed_form.solution_to_document(net, sol, "eigen")
        with pytest.raises(MalformedDocument, match="UTF-8"):
            closed_form.solution_from_document(
                data.replace(b'"eigen"', b'"\xe9igen"'))

    @pytest.mark.parametrize("field, edit", [
        ("users[1].v", lambda sol: sol.precoders.__setitem__((1, 0), np.nan)),
        ("users[2].u", lambda sol: sol.combiners.__setitem__(
            (2, 1), complex(0.0, np.nan))),
        ("lambda", lambda sol: setattr(sol, "eigenvalue", complex(np.inf, 0))),
        ("lambda", lambda sol: setattr(sol, "eigenvalue", complex(0, np.nan))),
        ("residual", lambda sol: (sol.precoders.__setitem__((0, 0), 1e308),
                                  sol.combiners.__setitem__((1, 0), 1e308))),
        ("lambda text", lambda sol: setattr(sol, "eigenvalue", "abc")),
        ("lambda object", lambda sol: setattr(sol, "eigenvalue", object())),
        ("lambda int", lambda sol: setattr(sol, "eigenvalue", 10 ** 400)),
        ("lambda list", lambda sol: setattr(sol, "eigenvalue", [1, 2])),
        ("lambda array", lambda sol: setattr(sol, "eigenvalue",
                                             np.array([1 + 1j, 2]))),
    ])
    def test_non_finite_fields_refused_before_writing(self, field, edit):
        # JSON has no NaN or Infinity: the reader would refuse the token, so
        # the writer names the field instead of writing it; every field
        # meets the package's array gate, which names it as verify does
        net = generate(NetworkDims(3, 2, 2), 4)
        sol = closed_form.solve_eigen_method(net)
        edit(sol)
        error, message = {
            "users[1].v": (ValueError, "precoders must be finite"),
            "users[2].u": (ValueError, "combiners must be finite"),
            "lambda": (ValueError, "lambda must be finite"),
            "residual": (ValueError, "residual must be finite"),
            "lambda text": (ValueError, "lambda must be an array of numbers"),
            "lambda object": (ValueError, "lambda must be an array of numbers"),
            "lambda int": (ValueError, "lambda must be finite"),
            "lambda list": (ShapeMismatch, "lambda: shape (2,), expected ()"),
            "lambda array": (ShapeMismatch,
                             "lambda: shape (2,), expected ()")}[field]
        with warnings.catch_warnings():   # the residual's gain overflows
            warnings.simplefilter("ignore")
            with pytest.raises(error, match="^" + re.escape(message) + "$"):
                closed_form.solution_to_document(net, sol, "eigen")


def spread_network(net, factor):
    """``net`` with each receiver's cross channel that no route inverts,
    ``(l, l + 2)``, times ``factor``: the loop matrix scales with it."""
    h = net.h.copy()
    for l in range(net.dims.k):
        h[l, (l + 2) % net.dims.k] *= factor
    return InterferenceNetwork(net.dims, h)


def same_bits(a, b):
    """Two reports or solutions field by field, arrays to the byte."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape,
                                                       y.tobytes()), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


class TestMemos:
    def test_solve_verify_and_document_compute_one_report(self, spy):
        # the rank gate, the caller's verify and the writer share a report
        computed = spy(closed_form, "_report")
        net = generate(NetworkDims(4, 3, 3), 5)
        sol = closed_form.solve_eigen_method(net)
        report = closed_form.verify(net, sol)
        closed_form.solution_to_document(net, sol, "eigen")
        assert closed_form.verify(net, sol) is report
        assert len(computed) == 1

    def test_cli_solve_computes_one_report(self, tmp_path, spy):
        chan, out = str(tmp_path / "chan.json"), str(tmp_path / "sol.json")
        assert cli.main(["gen", "--users", "4", "--nt", "3", "--nr", "3",
                         "--seed", "2", "--out", chan]) == 0
        computed = spy(closed_form, "_report")
        assert cli.main(["solve", "--method", "eigen", "--in", chan,
                         "--out", out]) == 0
        assert len(computed) == 1

    def test_loop_solve_and_cube_check_build_one_system(self, spy):
        built = spy(closed_form, "_compensated_matrix")
        net = generate(NetworkDims(3, 3, 3), 4)
        closed_form.solve_loop_method(net)
        assert closed_form.cube_relation_check(net).passed
        closed_form.loop_matrix(net)
        assert len(built) == 1

    def test_hit_equals_fresh_report(self):
        net = generate(NetworkDims(3, 2, 2), 8)
        sol = closed_form.solve_eigen_method(net)
        report = closed_form.verify(net, sol)
        closed_form._report_memo = None
        fresh = closed_form._verified(net, *closed_form._filters(net, sol))
        assert fresh is not report
        same_bits(report, fresh)

    def test_filter_edited_in_place_recomputed(self, spy):
        computed = spy(closed_form, "_report")
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        assert closed_form.verify(net, sol).passed
        sol.precoders[2] = sol.precoders[2, ::-1]
        assert not closed_form.verify(net, sol).passed
        assert len(computed) == 2

    def test_equal_network_computed_anew(self, spy):
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_eigen_method(net)
        report = closed_form.verify(net, sol)
        computed, built = (spy(closed_form, name) for name in
                           ("_report", "_compensated_matrix"))
        twin = InterferenceNetwork(net.dims, net.h, seed=net.seed)
        assert twin == net
        again = closed_form.verify(twin, sol)
        assert again is not report
        same_bits(report, again)
        closed_form.loop_matrix(net)
        closed_form.loop_matrix(twin)
        assert (len(computed), len(built)) == (1, 2)

    def test_writeable_network_not_reused(self, spy):
        # channels made writeable again may have changed under the network
        computed, built = (spy(closed_form, name) for name in
                           ("_report", "_compensated_matrix"))
        net = generate(NetworkDims(3, 2, 2), 42)
        sol = closed_form.solve_loop_method(net)
        net.h.flags.writeable = True
        closed_form.verify(net, sol)
        closed_form.loop_matrix(net)
        assert (len(computed), len(built)) == (2, 2)

    def test_threads_get_their_own_reports(self):
        # threads sharing the memo each get the report of their own
        # network and filters: key and report are replaced together
        cases = []
        for seed in range(4):
            net = generate(NetworkDims(3, 2, 2), seed)
            sol = closed_form.solve_loop_method(net)
            cases.append((net, sol, closed_form._report(
                net, *closed_form._filters(net, sol))))
        wrong = []

        def work(net, sol, expected):
            for _ in range(300):
                report = closed_form.verify(net, sol)
                if report.residuals.tobytes() != expected.residuals.tobytes():
                    wrong.append(net.seed)

        threads = [threading.Thread(target=work, args=case)
                   for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_report_frozen_and_read_only(self):
        net = generate(NetworkDims(3, 2, 2), 42)
        report = closed_form.verify(net, closed_form.solve_eigen_method(net))
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.passed = False
        for name in ("residuals", "rank_metrics", "relative_gains"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(report, name)[...] = 0.0

    @pytest.mark.parametrize("factor", [1.0, 2.0 ** 300])
    def test_loop_matrix_written_leaves_the_route(self, factor):
        net = spread_network(generate(NetworkDims(3, 2, 2), 6), factor)
        assert (closed_form._loop_system(net, "")[3] == 0) == (factor == 1.0)
        loop = closed_form.loop_matrix(net)
        assert loop.flags.writeable
        loop[...] = 0.0
        expected = closed_form.solve_loop_method(
            InterferenceNetwork(net.dims, net.h))
        same_bits(closed_form.solve_loop_method(net), expected)
