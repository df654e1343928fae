"""Closed-form interference alignment via a stacked eigenvalue problem.

For a K-user network with square N x N channels and K = N + 1, requiring
the K - 1 = N interfering signals at each receiver to be linearly
dependent turns the alignment conditions into one standard eigenvalue
problem on a KN x KN block matrix assembled from the cross channels. Every
eigenvector with a nonzero eigenvalue encodes all K precoders at once; the
combiners then come from the orthogonal complement of the (at most
(N-1)-dimensional) interference subspace at each receiver.

For K = 3 the cyclic structure collapses further: composing the three
pairwise alignment constraints around the user loop gives an N x N
eigenproblem for the first precoder alone, from which the other two follow
by back-substitution. Both routes are implemented, plus a spectral
consistency check tying them together (each stacked eigenvalue, cubed,
must land on the spectrum of the loop matrix).
"""

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import _parse_vector, _read_document, _real
from .errors import (DimensionMismatch, MalformedDocument, NoUsableEigenpair,
                     RankDeficientSolution, SingularChannel)

#: Version tag written into every solution document.
SOLUTION_FORMAT = 1

#: Minimum norm of one per-user block of a usable stacked eigenvector,
#: relative to the 1/sqrt(K) norm an evenly spread unit vector would have.
BLOCK_TOL = 1e-8

#: Alignment residual bound, relative to the largest channel Frobenius norm.
ALIGN_TOL = 1e-8

#: Minimum direct-link gain |u^H H_ii v| relative to ||H_ii||_F.
RANK_TOL = 1e-6

#: 2-norm condition estimate at or above which a cross channel is refused.
CONDITION_CAP = 1e12


def coupling_mask(k):
    """Boolean (k, k) grid marking the nonzero blocks of the compensated
    matrix: everything except the diagonal and column ``(row - 1) mod k``."""
    mask = ~np.eye(k, dtype=bool)
    for r in range(k):
        mask[r, (r - 1) % k] = False
    return mask


@dataclass
class SolutionDiagnostics:
    """Residual summary attached to every solution.

    ``alignment_residual`` is max over cross links of ``|u_i^H H_ij v_j|``
    divided by the largest channel Frobenius norm; ``rank_metrics`` holds
    the per-user normalized direct-link gains ``|u_i^H H_ii v_i| / ||H_ii||_F``.
    """

    alignment_residual: float
    rank_metrics: np.ndarray | None
    eigen_residual: float | None
    rank_ok: bool


@dataclass
class AlignmentSolution:
    """Per-user unit-norm precoders and combiners, one stream each."""

    precoders: np.ndarray   # (K, n_t)
    combiners: np.ndarray   # (K, n_r)
    streams: np.ndarray     # (K,) ints, all ones for the closed forms
    eigenvalue: complex | None
    diagnostics: SolutionDiagnostics


def _channel_ratios(net, pairs, checked=None):
    """The ratios ``inv(h[l, den]) @ h[l, c]`` for every ``(l, den)`` in
    ``pairs`` and every column ``c``, as a (len(pairs), K, n, n) array,
    from one batched solve against the whole channel rows. Every route
    that inverts a cross channel goes through here, and checks once.

    Raises
    ------
    SingularChannel
        Naming the first ``(l, den)`` of ``checked`` (``pairs``, or a
        superset) whose 2-norm condition estimate, from one batched SVD, is
        not below :data:`CONDITION_CAP`; an exactly singular one reports inf.
    """
    checked = pairs if checked is None else checked
    s = np.linalg.svd(net.h[tuple(np.transpose(checked))], compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[:, -1] == 0.0, np.inf, s[:, 0] / s[:, -1])
    bad = np.flatnonzero(cond >= CONDITION_CAP)
    if bad.size:
        l, den = checked[bad[0]]
        raise SingularChannel(
            f"cross channel ({l}, {den}): condition estimate"
            f" {cond[bad[0]]:.3e} exceeds cap {CONDITION_CAP:.0e}",
            pair=(l, den))
    l, den = np.transpose(pairs)
    k, n_r, n_t = net.dims.k, net.dims.n_r, net.dims.n_t
    rows = net.h[l].transpose(0, 2, 1, 3).reshape(len(pairs), n_r, k * n_t)
    out = np.linalg.solve(net.h[l, den], rows)
    return out.reshape(len(pairs), n_t, k, n_t).transpose(0, 2, 1, 3)


def _compensated_matrix(net, checked=None):
    """The compensated matrix from one ratio call (``checked`` as there);
    no dimension gate, so the K = 3 routes reuse it for any square N."""
    k, n = net.dims.k, net.dims.n_t
    blocks = _channel_ratios(net, [((r - 1) % k, r) for r in range(k)],
                             checked)
    blocks[~coupling_mask(k)] = 0.0
    return blocks.transpose(0, 2, 1, 3).reshape(k * n, k * n)


def build_stacked(net):
    """The KN x KN compensated matrix for a K = N + 1 square network.

    Block ``(r, c)`` is ``inv(h[r-1, r]) @ h[r-1, c]`` on
    :func:`coupling_mask`, zero elsewhere; its eigenvectors encode the
    precoders. All K(K-1) cross channels must pass the condition cap, not
    only the K blocks inverted; they are checked in row-major order.

    Raises
    ------
    DimensionMismatch
        If the channels are not square or K != N + 1.
    SingularChannel
        If some cross channel fails the condition cap.
    """
    k, n_t, n_r = net.dims.k, net.dims.n_t, net.dims.n_r
    if n_t != n_r:
        raise DimensionMismatch(
            f"the construction needs square channels, got {n_r}x{n_t}")
    if k != n_t + 1:
        raise DimensionMismatch(
            f"the construction needs K = N + 1 users, got K={k}, N={n_t}")
    return _compensated_matrix(net, net.cross_pairs())


def _fix_phase(v):
    """Rotate so the largest-modulus entry is real positive."""
    idx = int(np.argmax(np.abs(v)))
    return v * np.conj(v[idx] / abs(v[idx]))


def _interference_columns(net, precoders, receiver):
    cols = [net.h[receiver, j] @ precoders[j]
            for j in range(net.dims.k) if j != receiver]
    return np.column_stack(cols)


def _gain_report(net, precoders, combiners):
    """The (K, K) grid of ``|u_i^H H_ij v_j|``, receiver i by transmitter j
    (cross links off the diagonal, direct links on it), the K direct-link
    Frobenius norms ``||H_ii||_F`` and the largest channel Frobenius norm.
    Every residual and gain is read from here; callers compare."""
    gains = np.abs(np.einsum("ia,ijab,jb->ij", np.conj(combiners), net.h,
                             precoders))
    norms = np.linalg.norm(net.h, axis=(2, 3))
    return gains, np.diagonal(norms), float(norms.max())


def _diagnosed_solution(net, precoders, combiners, eigenvalue=None,
                        eigen_residual=None):
    """One stream per user: wrap the filters in an
    :class:`AlignmentSolution` with its :class:`SolutionDiagnostics`.
    Every route builds its solution here, closed-form and iterative."""
    k = net.dims.k
    gains, direct, scale = _gain_report(net, precoders, combiners)
    rank_metrics = np.diagonal(gains) / direct
    diag = SolutionDiagnostics(
        alignment_residual=float(
            np.max(gains, where=~np.eye(k, dtype=bool), initial=0.0) / scale),
        rank_metrics=rank_metrics,
        eigen_residual=eigen_residual,
        rank_ok=bool(np.all(rank_metrics >= RANK_TOL)),
    )
    return AlignmentSolution(np.asarray(precoders), combiners,
                             np.ones(k, dtype=int), eigenvalue, diag)


def _finish_solution(net, precoders, eigenvalue, eigen_residual):
    """Zero-forcing combiners, diagnostics and the rank gate of both
    closed-form routes. Raises RankDeficientSolution (with the otherwise
    complete solution attached) when a direct link is zero-forced away."""
    combiners = np.stack([
        _fix_phase(linalg.null_space_orthonormal(
            _interference_columns(net, precoders, i))[:, 0])
        for i in range(net.dims.k)])
    sol = _diagnosed_solution(net, precoders, combiners, eigenvalue,
                              eigen_residual)
    if not sol.diagnostics.rank_ok:
        rank_metrics = sol.diagnostics.rank_metrics
        user = int(np.argmin(rank_metrics))
        raise RankDeficientSolution(
            f"direct link of user {user} is confined to the interference"
            f" subspace (gain {rank_metrics[user]:.3e} < {RANK_TOL:.0e})",
            user=user, solution=sol)
    return sol


def solve_eigen_method(net):
    """Solve alignment through the stacked eigenvalue problem.

    Scans the eigenpairs of the compensated matrix in the fixed order
    (descending ``|value|``, ties by argument) and keeps the first one with
    a nonzero eigenvalue, an in-bound eigenvector residual, and all K
    per-user blocks of usable size; the blocks, normalized, are the
    precoders.

    Raises
    ------
    DimensionMismatch, SingularChannel
        Propagated from :func:`build_stacked`.
    NoUsableEigenpair
        If every eigenpair fails the filters (a measure-zero event for
        generically drawn channels).
    RankDeficientSolution
        If interference aligns but some direct link is lost with it.
    """
    compensated = build_stacked(net)
    k, n = net.dims.k, net.dims.n_t
    scale = float(np.linalg.norm(compensated))
    values, vectors, residuals = linalg.eig_general(compensated)
    norms = np.linalg.norm(vectors.T.reshape(-1, k, n), axis=2)
    usable = ((np.abs(values) > 1e-8 * scale) & (residuals <= 1e-8 * scale)
              & np.all(norms >= BLOCK_TOL / np.sqrt(k), axis=1))
    if not usable.any():
        raise NoUsableEigenpair(
            "every eigenpair has a near-zero eigenvalue, an out-of-bound"
            " residual, or a vanishing per-user block")
    i = int(np.argmax(usable))
    precoders = vectors[:, i].reshape(k, n) / norms[i][:, None]
    return _finish_solution(net, precoders, complex(values[i]),
                            float(residuals[i]))


def _loop_system(net, what):
    """The K = 3 gate, then the compensated matrix, the three loop factors
    ``(inv(h31) h32, inv(h12) h13, inv(h23) h21)``, which are its nonzero
    blocks ``(r, r + 1)``, and their product, the loop matrix; ``what``
    names the caller in errors."""
    if net.dims.k != 3:
        raise DimensionMismatch(f"{what} needs K = 3, got K={net.dims.k}")
    if net.dims.n_t != net.dims.n_r:
        raise DimensionMismatch(
            f"{what} needs square channels, got {net.dims.n_r}x{net.dims.n_t}")
    n = net.dims.n_t
    compensated = _compensated_matrix(net)
    blocks = compensated.reshape(3, n, 3, n)
    first, second, third = (blocks[r, :, (r + 1) % 3] for r in range(3))
    return compensated, (first, second, third), first @ second @ third


def loop_matrix(net):
    """The N x N product matrix of the 3-user loop equations."""
    return _loop_system(net, "loop method")[2]


def _back_substitute(v, steps):
    """Carry the precoder ``v`` along ``(ratio, user, pair)`` steps, each
    ratio mapping the last precoder to the next, normalized; returns them
    in step order. A step that annihilates the precoder raises
    SingularChannel naming (1-based) ``user`` and the degenerate numerator
    channel ``pair``."""
    out = []
    for factor, user, pair in steps:
        v = factor @ v
        if (norm := np.linalg.norm(v)) < 1e-12:
            raise SingularChannel(
                f"back-substitution for user {user} annihilated the"
                f" precoder; channel {pair} is degenerate", pair=pair)
        out.append(v := v / norm)
    return out


def solve_loop_method(net):
    """Solve the 3-user case by composing the pairwise constraints.

    Works for any square N >= 2 (odd N included; no channel extension is
    needed): the first precoder is the dominant eigenvector of
    :func:`loop_matrix`, the third and second follow by back-substitution
    through the receivers they interfere at, and combiners are built as in
    the stacked route.
    """
    _, (_, second, third), loop = _loop_system(net, "loop method")
    values, vectors, residuals = linalg.eig_general(loop)
    v1 = vectors[:, 0]
    v3, v2 = _back_substitute(v1, ((third, 3, (1, 0)), (second, 2, (0, 2))))
    precoders = np.stack([v1, v2, v3])
    return _finish_solution(net, precoders, complex(values[0]),
                            float(residuals[0]))


@dataclass
class CubeRelationReport:
    """Match of each cubed stacked eigenvalue against the loop spectrum.

    ``matches`` rows are (stacked value, its cube, its loop value, relative
    mismatch), one per nonzero stacked eigenvalue; ``worst_mismatch`` is
    the largest relative mismatch.
    """

    matches: list
    worst_mismatch: float
    passed: bool = False


def _match_cubes(cubes, loop_vals):
    """The loop value index of each cube and its relative mismatch. Pairs
    are taken by ascending mismatch, each loop value at most three times,
    so no loop value stands in for more cubes than it has cube roots."""
    rel = np.abs(cubes[:, None] - loop_vals) / np.maximum(
        np.abs(cubes)[:, None], np.abs(loop_vals))
    match = np.full(len(cubes), -1)
    taken = np.zeros(len(loop_vals), dtype=int)
    for flat in np.argsort(rel, axis=None, kind="stable"):
        i, j = divmod(int(flat), len(loop_vals))
        if match[i] < 0 and taken[j] < 3:
            match[i] = j
            taken[j] += 1
    return match, rel[np.arange(len(cubes)), match]


def cube_relation_check(net, rel_tol=1e-6):
    """Verify that stacked and loop spectra are consistent for K = 3.

    The compensated matrix is block-cyclic for K = 3, so its cube is block
    diagonal with three blocks similar to the loop matrix: the nonzero
    stacked eigenvalues, cubed, are the loop spectrum with every value
    taken three times. The cubes are matched to it one-to-one (see
    :func:`_match_cubes`); ``passed`` applies ``rel_tol`` to the worst
    relative mismatch.
    """
    compensated, _, loop = _loop_system(net, "cube relation check")
    stacked_vals = linalg.eig_general(compensated)[0]
    loop_vals = linalg.eig_general(loop)[0]

    vals = stacked_vals[np.abs(stacked_vals) > 1e-8 * np.abs(stacked_vals).max()]
    cubes = vals ** 3
    match, rel = _match_cubes(cubes, loop_vals)
    matches = [(complex(v), complex(q), complex(loop_vals[j]), float(e))
               for v, q, j, e in zip(vals, cubes, match, rel)]
    worst = float(rel.max()) if len(rel) else 0.0
    return CubeRelationReport(matches, worst,
                              passed=worst <= rel_tol and bool(matches))


def solution_to_document(sol, dims, method=""):
    """Serialize a solution to the versioned JSON solution document."""
    doc = {
        "format": SOLUTION_FORMAT,
        "k": dims.k,
        "nt": dims.n_t,
        "nr": dims.n_r,
        "method": method,
        "lambda": (None if sol.eigenvalue is None
                   else [float(sol.eigenvalue.real), float(sol.eigenvalue.imag)]),
        "residual": float(sol.diagnostics.alignment_residual),
        "rank_metric": (None if sol.diagnostics.rank_metrics is None
                        else float(np.min(sol.diagnostics.rank_metrics))),
        "users": [
            {"v": [[float(x.real), float(x.imag)] for x in sol.precoders[i]],
             "u": [[float(x.real), float(x.imag)] for x in sol.combiners[i]]}
            for i in range(dims.k)
        ],
    }
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def solution_from_document(data):
    """Parse a solution document; returns (solution, dims, method).

    Raises
    ------
    MalformedDocument
        On anything :func:`eigenalign.channel.deserialize` refuses in the
        shared header (bytes, JSON, ``format``, ``k/nt/nr``) and entries,
        and on a bad ``users`` list, ``lambda``, ``residual`` or
        ``method``.
    """
    doc, dims = _read_document(data, SOLUTION_FORMAT, "solution")
    users = doc.get("users")
    if (not isinstance(users, list) or len(users) != dims.k
            or any(not isinstance(u, dict) for u in users)):
        raise MalformedDocument(f"'users' must list {dims.k} objects", "users")
    precoders = np.stack([
        _parse_vector(u.get("v"), dims.n_t, f"users[{i}].v")
        for i, u in enumerate(users)])
    combiners = np.stack([
        _parse_vector(u.get("u"), dims.n_r, f"users[{i}].u")
        for i, u in enumerate(users)])
    lam = doc.get("lambda")
    eigenvalue = (None if lam is None
                  else complex(_parse_vector([lam], 1, "lambda")[0]))
    residual = doc.get("residual")
    method = doc.get("method", "")
    if type(method) is not str:
        raise MalformedDocument("field 'method' must be a string", "method")
    diag = SolutionDiagnostics(
        alignment_residual=(float("nan") if residual is None
                            else _real(residual, "residual")),
        rank_metrics=None,
        eigen_residual=None,
        rank_ok=True,
    )
    sol = AlignmentSolution(precoders, combiners,
                            np.ones(dims.k, dtype=int), eigenvalue, diag)
    return sol, dims, method
