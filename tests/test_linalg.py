import numpy as np
import pytest

from eigenalign import closed_form, linalg
from eigenalign.channel import NetworkDims, generate
from eigenalign.errors import EmptyNullSpace


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) * np.sqrt(0.5)


class TestEigGeneral:
    def test_diagonal(self):
        values, vectors, _ = linalg.eig_general(
            np.diag([2.0, 3.0]).astype(complex))
        assert list(values) == [3.0, 2.0]
        np.testing.assert_allclose(np.abs(vectors[:, 0]), [0, 1], atol=1e-14)
        np.testing.assert_allclose(np.abs(vectors[:, 1]), [1, 0], atol=1e-14)

    def test_rank_one_all_ones(self):
        values, _, _ = linalg.eig_general(np.ones((2, 2), dtype=complex))
        values = sorted(values, key=abs, reverse=True)
        np.testing.assert_allclose(values[0], 2.0, atol=1e-14)
        np.testing.assert_allclose(values[1], 0.0, atol=1e-14)

    def test_companion_cube_roots(self):
        # z^3 - 1; expected roots frozen from an independent root finder
        # (mpmath.polyroots). Compared by angle: the three moduli tie only
        # up to rounding, so their relative order is not part of the
        # contract.
        companion = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        expected = [
            -0.5 - 0.8660254037844386j,
            1.0 + 0.0j,
            -0.5 + 0.8660254037844386j,
        ]
        values, _, _ = linalg.eig_general(companion)
        got = sorted(values, key=np.angle)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert np.all(np.abs(np.abs(values) - 1.0) < 1e-12)

    @pytest.mark.parametrize("n,seed", [(3, 0), (5, 1), (8, 2), (12, 3)])
    def test_residual_trace_det(self, n, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = random_complex(rng, n, n)
        scale = np.linalg.norm(a)
        values, vectors, residuals = linalg.eig_general(a)
        assert values.shape == residuals.shape == (n,)
        assert vectors.shape == (n, n)
        for i in range(n):
            assert abs(np.linalg.norm(vectors[:, i]) - 1.0) < 1e-12
            # each residual against the pair taken alone
            alone = np.linalg.norm(a @ vectors[:, i] - values[i] * vectors[:, i])
            assert abs(residuals[i] - alone) <= 1e-12 * scale
            assert residuals[i] <= 1e-8 * scale
        assert abs(values.sum() - np.trace(a)) <= 1e-8 * scale
        assert abs(values.prod() - np.linalg.det(a)) <= 1e-6 * abs(np.linalg.det(a))

    def test_ordering_is_modulus_then_angle(self):
        a = np.diag([1.0 + 0j, -1.0 + 0j, 1j, -1j, 2.0 + 0j])
        values = linalg.eig_general(a)[0]
        assert values[0] == 2.0
        angles = np.angle(values[1:])
        assert np.all(np.diff(angles) > 0)

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(9))
        a = random_complex(rng, 6, 6)
        first = linalg.eig_general(a)
        second = linalg.eig_general(a)
        for p, q in zip(first, second):
            assert np.array_equal(p, q)

    def test_rejects_nan(self):
        a = np.eye(2, dtype=complex)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            linalg.eig_general(a)


class TestEigenvector:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_eig_general(self, n):
        # every eigenpair of twenty stacked matrices: the same unit vector
        # as zgeev's, phase included (largest entry real positive)
        for seed in range(20):
            a = closed_form.build_stacked(
                generate(NetworkDims(n + 1, n, n), seed))
            values, vectors, _ = linalg.eig_general(a)
            for value, vector in zip(values, vectors.T):
                got = linalg._eigenvector(a, value)
                assert np.abs(got - vector).max() <= 1e-12

    @pytest.mark.parametrize("value", [1.0, 2.0])
    def test_singular_shift_raises(self, value):
        # an exactly computed eigenvalue of a triangular matrix leaves an
        # exact zero pivot
        a = np.array([[1.0, 5.0], [0.0, 2.0]], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            linalg._eigenvector(a, value)


def null_space_orthonormal(a):
    """The left null space of one matrix by ``linalg._left_null``'s rule."""
    u, rank = linalg._left_null(np.asarray(a, dtype=complex))
    return u[:, rank:]


class TestNullSpace:
    def test_collinear_columns(self):
        a = np.array([[1, 1], [0, 0]], dtype=complex)
        basis = null_space_orthonormal(a)
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0, 1], atol=1e-14)

    def test_full_rank_raises(self):
        rng = np.random.Generator(np.random.PCG64(3))
        a = random_complex(rng, 2, 2)
        with pytest.raises(EmptyNullSpace):
            null_space_orthonormal(a)

    def test_tall_orthonormal_columns(self):
        # 3x2 with orthonormal columns: the single left-null vector must
        # match the conjugated cross product of the columns (up to phase).
        rng = np.random.Generator(np.random.PCG64(7))
        q, _ = np.linalg.qr(random_complex(rng, 3, 2))
        basis = null_space_orthonormal(q)
        assert basis.shape == (3, 1)
        u = basis[:, 0]
        assert np.abs(u.conj() @ q).max() < 1e-10
        oracle = np.cross(q[:, 0].conj(), q[:, 1].conj())
        oracle = oracle / np.linalg.norm(oracle)
        assert abs(abs(np.vdot(oracle, u)) - 1.0) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_orthonormality_and_annihilation(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        # rank-2 matrix in a 5-dimensional row space
        a = random_complex(rng, 5, 2) @ random_complex(rng, 2, 4)
        basis = null_space_orthonormal(a)
        assert basis.shape == (5, 3)
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(3)).max() < 1e-12
        assert np.linalg.norm(basis.conj().T @ a) <= 1e-8 * np.linalg.norm(a)
