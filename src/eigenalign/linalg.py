"""Dense complex linear-algebra primitives of the closed form and analysis.

Everything here operates on plain ``numpy.ndarray`` objects with dtype
``complex128``. The heavy lifting (QR iteration, SVD, LU) is delegated to
LAPACK through ``numpy.linalg``; what this module adds is the contract the
rest of the package relies on: a fixed deterministic eigenvalue ordering
and residuals reported alongside eigenvectors. A caller that needs one
eigenvector takes the values from ``np.linalg.eigvals`` in that order and
the vector of one computed value by inverse iteration.
"""

import numpy as np

from .errors import EmptyNullSpace

#: Relative singular-value threshold below which a direction counts as null.
DEFAULT_RANK_TOL = 1e-8


def eig_general(a):
    """All eigenpairs of a general (non-Hermitian) square complex matrix.

    Pairs are ordered by descending ``|value|`` with ties broken by
    ascending complex argument, which makes downstream eigenvector
    selection deterministic. Each vector is normalized to unit Euclidean
    norm; its residual is ``||a @ vector - value * vector||``. For
    defective matrices the best-effort vectors of the QR iteration may
    have large residuals; callers filter on them.

    Parameters
    ----------
    a : array_like
        Square, finite complex matrix (else numpy's ``LinAlgError``).

    Returns
    -------
    values : ndarray of shape (n,)
    vectors : ndarray of shape (n, n)
        Column ``i`` belongs to ``values[i]``.
    residuals : ndarray of shape (n,)
    """
    a = np.asarray(a, dtype=np.complex128)
    values, vectors = np.linalg.eig(a)
    order = _order(values)
    values = values[order]
    vectors = vectors[:, order] / np.linalg.norm(vectors[:, order], axis=0)
    residuals = np.linalg.norm(a @ vectors - vectors * values, axis=0)
    return values, vectors, residuals


def _order(values):
    """:func:`eig_general`'s order: descending ``|value|``, ties by argument."""
    return np.lexsort((np.angle(values), -np.abs(values)))


def _eigenvector(a, value):
    """The unit eigenvector of ``a`` for its computed eigenvalue ``value``:
    two inverse-iteration steps on ``a - value I`` from the ones vector,
    the largest-modulus entry made real positive as zgeev does. Numpy's
    LinAlgError if a step's solve fails or leaves no finite vector."""
    shifted = a.copy()
    shifted.flat[::len(a) + 1] -= value
    x = np.ones(len(a), dtype=np.complex128)
    for _ in range(2):
        x = np.linalg.solve(shifted, x)
        if not 0 < abs(lead := x[np.argmax(np.abs(x))]) < np.inf:
            raise np.linalg.LinAlgError("inverse iteration left no vector")
        x /= lead
    return x / np.linalg.norm(x)


def _left_null(a):
    """One SVD of the stack ``a`` (..., rows, cols): left singular vectors
    ``u`` and each rank, the count of singular values above
    :data:`DEFAULT_RANK_TOL` times the largest (left null space ``u[...,
    rank:]``). Raises EmptyNullSpace naming the first matrix of full row
    rank."""
    u, s, _ = np.linalg.svd(a)
    rank = np.sum(s > DEFAULT_RANK_TOL * s[..., :1], axis=-1)
    if (full := np.flatnonzero(rank >= a.shape[-2])).size:
        raise EmptyNullSpace(f"matrix of shape {a.shape[-2:]} has full row"
                             f" rank {rank.flat[full[0]]}")
    return u, rank
