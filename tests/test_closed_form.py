import numpy as np
import pytest

from eigenalign import channel, closed_form
from eigenalign.channel import InterferenceNetwork, NetworkDims, generate
from eigenalign.errors import (DimensionMismatch, RankDeficientSolution,
                               SingularChannel)


def alignment_residual(net, sol):
    """Independent oracle: evaluate the zero-forcing conditions directly."""
    worst = 0.0
    for i, j in net.cross_pairs():
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
        mask = closed_form.coupling_mask(3)
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
        assert sol.diagnostics.rank_metrics[err.value.user] < 1e-8

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
        net = generate(NetworkDims(3, 2, 2), 11)
        compensated = closed_form.build_stacked(net)
        sol = closed_form.solve_eigen_method(net)
        assert sol.diagnostics.eigen_residual <= (
            1e-8 * np.linalg.norm(compensated))

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
        assert list(sol.streams) == [1, 1, 1]

    def test_identity_cross_channels(self):
        # loop matrix is the identity: anything aligns, interference is
        # collinear at every receiver
        net = identity_cross_network(3, 3, direct_seed=17)
        sol = closed_form.solve_loop_method(net)
        assert alignment_residual(net, sol) < 1e-10
        assert sol.diagnostics.rank_ok

    def test_wrong_user_count(self):
        with pytest.raises(DimensionMismatch):
            closed_form.solve_loop_method(generate(NetworkDims(4, 2, 2), 0))

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
        doc = closed_form.solution_to_document(sol, net.dims, "eigen")
        back, dims, method = closed_form.solution_from_document(doc)
        assert dims == net.dims
        assert method == "eigen"
        np.testing.assert_array_equal(back.precoders, sol.precoders)
        np.testing.assert_array_equal(back.combiners, sol.combiners)
        assert back.eigenvalue == sol.eigenvalue

    def test_deterministic_bytes(self):
        net = generate(NetworkDims(3, 2, 2), 4)
        sol = closed_form.solve_loop_method(net)
        a = closed_form.solution_to_document(sol, net.dims, "loop")
        b = closed_form.solution_to_document(sol, net.dims, "loop")
        assert a == b

    def test_malformed_documents(self):
        import json

        from eigenalign.errors import MalformedDocument
        net = generate(NetworkDims(3, 2, 2), 4)
        sol = closed_form.solve_eigen_method(net)
        doc = json.loads(closed_form.solution_to_document(sol, net.dims, "eigen"))

        bad = dict(doc, **{"lambda": 3.0})
        with pytest.raises(MalformedDocument, match="lambda"):
            closed_form.solution_from_document(json.dumps(bad))

        bad = json.loads(json.dumps(doc))
        bad["users"][1]["v"] = [[0.1, "x"], [0.2, 0.3]]
        with pytest.raises(MalformedDocument, match=r"users\[1\]"):
            closed_form.solution_from_document(json.dumps(bad))

        null_residual = dict(doc, residual=None)
        parsed, _, _ = closed_form.solution_from_document(
            json.dumps(null_residual))
        assert np.isnan(parsed.diagnostics.alignment_residual)

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
        data = closed_form.solution_to_document(sol, net.dims, "eigen")
        with pytest.raises(MalformedDocument, match="UTF-8"):
            closed_form.solution_from_document(
                data.replace(b'"eigen"', b'"\xe9igen"'))

