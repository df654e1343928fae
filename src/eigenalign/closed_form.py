"""Closed-form interference alignment via a stacked eigenvalue problem.

For a K-user network with square N x N channels and K = N + 1, requiring
the K - 1 = N interfering signals at each receiver to be linearly
dependent turns the alignment conditions into one standard eigenvalue
problem on a KN x KN block matrix assembled from the cross channels. Every
eigenvector with a nonzero eigenvalue encodes all K precoders at once; one
batched SVD then takes every combiner from the orthogonal complement of the
(at most (N-1)-dimensional) interference subspace at its receiver.

For K = 3 the cyclic structure collapses further: composing the three
pairwise alignment constraints around the user loop gives an N x N
eigenproblem for the first precoder alone, from which the other two follow
by back-substitution. Both routes are implemented, plus a spectral
consistency check tying them together (each stacked eigenvalue, cubed,
must land on the spectrum of the loop matrix).

:func:`verify` alone turns filters into residuals, gains and the verdict;
the rank gate of the solve routes and the solution documents read it.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import (InterferenceNetwork, _array, _dumps, _entries, _instance,
                      _read_document, _real, _walk)
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

#: Largest relative mismatch of a cubed stacked and a loop eigenvalue.
CUBE_TOL = 1e-6

#: 2-norm condition estimate at or above which a cross channel is refused.
CONDITION_CAP = 1e12

# One-entry memos, each ``(network, key, result)`` of the last computation,
# replaced in one assignment: :func:`verify`'s report, keyed on the filter
# bytes, and :func:`_loop_system`'s system. A network's channels are
# read-only, so the network object stands for them.
_report_memo = None
_loop_memo = None


@dataclass
class AlignmentSolution:
    """Per-user unit-norm precoders and combiners, one stream each."""

    precoders: np.ndarray   # (K, n_t)
    combiners: np.ndarray   # (K, n_r)
    eigenvalue: complex | None


@dataclass(frozen=True)
class VerificationReport:
    """Raw alignment residuals and direct-link gains with the verdict.

    ``residuals[i, j]`` is ``|u_i^H H_ij v_j|`` for ``i != j`` (diagonal
    zero), ``rank_metrics[i]`` is ``|u_i^H H_ii v_i|`` and
    ``relative_gains[i]`` that over ``||H_ii||_F`` (0 for a zero link).
    ``alignment_residual`` is the largest residual over ``channel_scale``,
    the largest channel Frobenius norm (0 when all channels are zero). The
    verdict compares residuals against ``ALIGN_TOL`` times the scale and
    each relative gain against ``RANK_TOL``; a zero link never passes. The
    ratios and the verdict come from channels and filters scaled by powers
    of two, so a raw value past the float range reads inf and none is NaN.
    A report is frozen and its arrays read-only: :func:`verify` may hand
    the same report to several callers.
    """

    residuals: np.ndarray
    rank_metrics: np.ndarray
    passed: bool
    channel_scale: float
    relative_gains: np.ndarray
    alignment_residual: float


def _power_scaled(h, axes=None):
    """The one scale rule: ``h`` and 0 if its largest real or imaginary part
    lies in (2^-100, 2^100), where no product of eight entries over- or
    underflows, else ``h`` times the power of two ``2^-e`` that brings it
    into [1/2, 1), and ``e``. With ``axes`` just 0 if every nonzero part
    lies inside, else each subarray over ``axes`` brought into [1/2, 1) on
    its own: ``e`` keeps ``axes`` as ones. Inside, ``h`` is kept as given:
    ``zgeev`` is not bitwise scale-equivariant, even under a power of two."""
    h = np.ascontiguousarray(h)
    parts = np.abs(h.view(np.float64))
    big = np.maximum.reduce(parts, axis=None)
    least = big if axes is None else np.minimum.reduce(parts, axis=None)
    if not least:   # exact zeros cannot over- or underflow
        least = np.minimum.reduce(parts, None, where=parts > 0, initial=np.inf)
    if 2.0 ** -100 < least and big < 2.0 ** 100:
        return h, 0
    if axes is not None:
        big = np.maximum.reduce(parts, axis=axes, keepdims=True)
    exp = np.frexp(big)[1]
    return np.ldexp(h.view(np.float64), -exp).view(np.complex128), exp


def _unscaled(x, exp, what):
    """``x`` times ``2^exp``; NoUsableEigenpair naming ``what`` on overflow."""
    if not exp:
        return x
    with np.errstate(over="ignore"):
        x = np.ldexp(np.array(x, np.complex128, ndmin=1).view(np.float64),
                     exp).view(np.complex128).reshape(np.shape(x))
    if not np.isfinite(x).all():
        raise NoUsableEigenpair(f"the {what} overflows the float range")
    return x


def _filters(net, sol):
    """``sol``'s precoders and combiners through the array gate: all of
    :func:`verify`'s checks, which :func:`warm_start_check` and the
    solution writer share."""
    dims = _instance("net", net, InterferenceNetwork).dims
    _instance("sol", sol, AlignmentSolution)
    return (_array("precoders", sol.precoders, (dims.k, dims.n_t)),
            _array("combiners", sol.combiners, (dims.k, dims.n_r)))


def verify(net, sol):
    """Evaluate all K(K-1) alignment residuals and K direct-link gains.

    Raises
    ------
    ValueError
        If ``net`` is not an InterferenceNetwork or ``sol`` not an
        AlignmentSolution, or a filter array holds text, an entry that is
        not a number, or one that is not finite.
    ShapeMismatch
        If the filters are not ``(K, n_t)`` and ``(K, n_r)``.
    """
    return _verified(net, *_filters(net, sol))


def _recalled(memo, net, key=None):
    """The result ``memo`` holds for the object ``net`` and ``key``, or
    None; never for a network whose channels were made writeable again."""
    if (memo is not None and memo[0] is net and memo[1] == key
            and not net.h.flags.writeable):
        return memo[2]
    return None


def _verified(net, pre, comb):
    """:func:`verify`'s report on filters already through :func:`_filters`:
    the last report again for the same network and filter bytes."""
    global _report_memo
    key = pre.tobytes(), comb.tobytes()
    if (report := _recalled(_report_memo, net, key)) is None:
        report = _report(net, pre, comb)
        _report_memo = net, key, report
    return report


def _report(net, pre, comb):
    """:func:`_verified`'s report, computed."""
    k = net.dims.k
    # gains and np.linalg.norm's Frobenius sums, on the channels and filters
    # scaled out of over- and underflow each by its own power of two: norm
    # (i, j) in units of 2^e[i, j], gain (i, j) in units of 2^g[i, j]
    h, e = _power_scaled(net.h, axes=(2, 3))
    (comb, c), (pre, p) = (_power_scaled(x, axes=(1,)) for x in (comb, pre))
    gains = np.abs(np.einsum("ia,ijab,jb->ij", np.conj(comb), h, pre))
    norms = np.sqrt((h.conj() * h).real.sum(axis=(2, 3)))
    direct = np.diagonal(norms)   # a zero link gives 0 / inf
    relative = np.diagonal(gains) / np.where(direct > 0, direct, np.inf)
    residuals = np.where(np.eye(k, dtype=bool), 0.0, gains)
    worst, scale = residuals.max(), norms.max()
    if any(isinstance(x, np.ndarray) for x in (e, c, p)):   # some scaled
        e = np.reshape(e, np.shape(e)[:2])
        g = np.broadcast_to(e + c + np.transpose(p), (k, k))
        with np.errstate(over="ignore"):   # a raw value past the range: inf
            # the verdict in the units of the largest norm exponent
            worst, scale = (np.ldexp(x, y - np.max(e)).max()
                            for x, y in ((residuals, g), (norms, e)))
            relative = np.ldexp(relative, np.diagonal(g - e))
            residuals, gains, norms = (np.ldexp(x, y) for x, y in (
                (residuals, g), (gains, g), (norms, e)))
    passed = bool(worst <= ALIGN_TOL * scale and np.all(relative >= RANK_TOL))
    direct = np.diagonal(gains).copy()
    for x in (residuals, direct, relative):
        x.flags.writeable = False
    return VerificationReport(residuals, direct, passed, float(norms.max()),
                              relative, float(worst / scale) if scale else 0.0)


def _rank_gate(net, sol):
    """``sol``, or RankDeficientSolution naming the weakest user (solution
    attached) if :func:`verify` finds a direct link zero-forced away. The
    closed-form routes and the CLI's iterative route all pass here."""
    relative = verify(net, sol).relative_gains
    if not np.all(relative >= RANK_TOL):
        user = int(np.argmin(relative))
        raise RankDeficientSolution(
            f"direct link of user {user} is confined to the interference"
            f" subspace (gain {relative[user]:.3e} < {RANK_TOL:.0e})",
            user=user, solution=sol)
    return sol


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
        Else naming the first of ``pairs`` whose ratios overflow.
    """
    checked = pairs if checked is None else checked
    h, exp = _power_scaled(net.h, axes=(2, 3))   # each link on its own
    s = np.linalg.svd(h[tuple(np.transpose(checked))], compute_uv=False)
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
    rows = h[l].transpose(0, 2, 1, 3).reshape(len(pairs), n_r, k * n_t)
    out = np.linalg.solve(h[l, den], rows).reshape(
        len(pairs), n_t, k, n_t).transpose(0, 2, 1, 3)
    if np.ndim(exp):   # ratio (l, den, c) times 2^(exp[l, c] - exp[l, den])
        with np.errstate(over="ignore"):
            out = np.ldexp(np.ascontiguousarray(out).view(np.float64),
                           exp[l] - exp[l, den][:, None]).view(np.complex128)
        if not (finite := np.isfinite(out).all(axis=(1, 2, 3))).all():
            l, den = pairs[np.argmin(finite)]
            raise SingularChannel(f"cross channel ({l}, {den}): its ratios"
                                  f" to receiver {l}'s channels overflow",
                                  pair=(l, den))
    return out


def _compensated_matrix(net, what, checked=None):
    """The compensated matrix from one ratio call (``checked`` as there),
    behind the one square-channel gate, naming ``what``; no gate on K."""
    k, n, n_r = net.dims.k, net.dims.n_t, net.dims.n_r
    if n != n_r:
        raise DimensionMismatch(f"{what} needs square channels, got {n_r}x{n}")
    blocks = _channel_ratios(net, [((r - 1) % k, r) for r in range(k)],
                             checked)
    r = np.arange(k)
    blocks[r, r] = blocks[r, r - 1] = 0.0
    return blocks.transpose(0, 2, 1, 3).reshape(k * n, k * n)


def build_stacked(net):
    """The KN x KN compensated matrix for a K = N + 1 square network.

    Block ``(r, c)`` is ``inv(h[r-1, r]) @ h[r-1, c]``, zero on the
    diagonal and in column ``r - 1``; its eigenvectors encode the
    precoders. All K(K-1) cross channels must pass the condition cap, not
    only the K blocks inverted; they are checked in row-major order.

    Raises
    ------
    DimensionMismatch
        If K != N + 1 (checked first) or the channels are not square.
    SingularChannel
        If some cross channel fails the condition cap.
    """
    k, n = _instance("net", net, InterferenceNetwork).dims.k, net.dims.n_t
    if k != n + 1:
        raise DimensionMismatch(
            f"the construction needs K = N + 1 users, got K={k}, N={n}")
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    return _compensated_matrix(net, "the construction", pairs)


def _interference(h, precoders):
    """Every receiver's interference matrix, ``(K, n_r, K - 1)``, on the grid
    ``h``: receiver ``i``'s columns are ``H_ij v_j`` for ``j != i`` in
    ascending ``j``, the off-diagonal blocks of one stacked product."""
    k = len(h)
    g = (h @ precoders[None, :, :, None])[..., 0]   # H_ij v_j at [i, j]
    return g[~np.eye(k, dtype=bool)].reshape(k, k - 1, -1).swapaxes(1, 2)


def _finish_solution(net, precoders, eigenvalue):
    """Zero-forcing combiners (each receiver's first left null vector, one
    batched SVD, largest entry turned real positive) and the rank gate of
    both closed-form routes. Each channel is scaled on its own: scaling a
    column leaves a left null space as it is."""
    h = _power_scaled(net.h, axes=(2, 3))[0]
    u, rank = linalg._left_null(_interference(h, precoders))
    combiners = u[np.arange(net.dims.k), :, rank]
    lead = np.take_along_axis(
        combiners, np.argmax(np.abs(combiners), axis=1)[:, None], axis=1)
    combiners *= np.conj(lead / np.hypot(lead.real, lead.imag))
    return _rank_gate(net, AlignmentSolution(precoders, combiners, eigenvalue))


def _stacked_eigenpairs(a, tol):
    """Each ``(value, unit vector, residual)`` of ``a`` with ``|value| >
    tol`` in ``eig_general``'s order, each vector by inverse iteration; all
    from ``eig_general`` once a value has a neighbour within ``tol`` (no
    unique vector) or its shifted solve fails."""
    values = np.linalg.eigvals(a)
    values = values[linalg._order(values)]
    try:
        for value in values[np.abs(values) > tol]:
            if np.count_nonzero(np.abs(values - value) <= tol) > 1:
                raise np.linalg.LinAlgError("eigenvalue not separated")
            vector = linalg._eigenvector(a, value)
            yield value, vector, np.linalg.norm(a @ vector - value * vector)
    except np.linalg.LinAlgError:
        values, vectors, residuals = linalg.eig_general(a)
        big = np.abs(values) > tol
        yield from zip(values[big], vectors.T[big], residuals[big])


def solve_eigen_method(net):
    """Solve alignment through the stacked eigenvalue problem.

    Scans the eigenpairs of the compensated matrix in the fixed order
    (descending ``|value|``, ties by argument) and keeps the first one with
    a nonzero eigenvalue, an in-bound eigenvector residual, and all K
    per-user blocks of usable size; the blocks, normalized, are the
    precoders. Only the eigenvalues are solved for all pairs; each scanned
    vector comes from inverse iteration (see :func:`_stacked_eigenpairs`).

    Raises
    ------
    DimensionMismatch, SingularChannel
        Propagated from :func:`build_stacked`.
    NoUsableEigenpair
        If every eigenpair fails the filters (a measure-zero event for
        generically drawn channels), or the eigenvalue kept overflows.
    RankDeficientSolution
        If interference aligns but some direct link is lost with it.
    """
    compensated, exp = _power_scaled(build_stacked(net))
    k, n = net.dims.k, net.dims.n_t
    tol = 1e-8 * float(np.linalg.norm(compensated))
    for value, vector, residual in _stacked_eigenpairs(compensated, tol):
        norms = np.linalg.norm(vector.reshape(k, n), axis=1)
        if residual <= tol and np.all(norms >= BLOCK_TOL / np.sqrt(k)):
            precoders = vector.reshape(k, n) / norms[:, None]
            value = _unscaled(value, exp, "stacked eigenvalue")
            return _finish_solution(net, precoders, complex(value))
    raise NoUsableEigenpair(
        "every eigenpair has a near-zero eigenvalue, an out-of-bound"
        " residual, or a vanishing per-user block")


def _loop_system(net, what):
    """The K = 3 gate, then the compensated matrix times ``2^-e`` (no loop
    matrix entry, nor its square, over- or underflows); its blocks ``(r, r
    + 1)``, the loop factors ``(inv(h31) h32, inv(h12) h13, inv(h23) h21)``;
    their product, the loop matrix times ``2^-3e``; and ``e``. The arrays
    are read-only: the last network's system is handed out again. Only a
    built system is kept, so each caller's error names its own ``what``."""
    global _loop_memo
    if (system := _recalled(_loop_memo, net)) is not None:
        return system
    if _instance("net", net, InterferenceNetwork).dims.k != 3:
        raise DimensionMismatch(f"{what} needs K = 3, got K={net.dims.k}")
    n = net.dims.n_t
    compensated, exp = _power_scaled(_compensated_matrix(net, what))
    compensated.flags.writeable = False
    blocks = compensated.reshape(3, n, 3, n)
    first, second, third = (blocks[r, :, (r + 1) % 3] for r in range(3))
    loop = first @ second @ third
    loop.flags.writeable = False
    system = compensated, (first, second, third), loop, exp
    _loop_memo = net, None, system
    return system


def loop_matrix(net):
    """The N x N product matrix of the 3-user loop equations, a fresh
    array."""
    _, _, loop, exp = _loop_system(net, "loop method")
    return _unscaled(loop, 3 * exp, "loop matrix") if exp else loop.copy()


def _back_substitute(v, steps):
    """Carry the precoder ``v`` along ``(ratio, user, pair)`` steps, each
    ratio mapping the last precoder to the next, normalized; returns them
    in step order. A step that annihilates the precoder, leaving at most
    1e-12 of the ratio's Frobenius norm, raises SingularChannel naming
    (1-based) ``user`` and the degenerate numerator channel ``pair``."""
    out = []
    for factor, user, pair in steps:
        v = factor @ v
        if (norm := np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(factor):
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
    the stacked route. NoUsableEigenpair if the eigenvalue overflows.
    """
    _, (_, second, third), loop, exp = _loop_system(net, "loop method")
    values, vectors, _ = linalg.eig_general(loop)
    v1 = vectors[:, 0]
    v3, v2 = _back_substitute(v1, ((third, 3, (1, 0)), (second, 2, (0, 2))))
    precoders = np.stack([v1, v2, v3])
    value = _unscaled(values[0], 3 * exp, "loop eigenvalue")
    return _finish_solution(net, precoders, complex(value))


@dataclass
class CubeRelationReport:
    """Match of each cubed stacked eigenvalue against the loop spectrum.

    ``matches`` rows are (stacked value, its cube, its loop value, relative
    mismatch), one per nonzero stacked eigenvalue; ``worst_mismatch`` is
    the largest relative mismatch.
    """

    matches: list
    worst_mismatch: float
    passed: bool


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


def cube_relation_check(net):
    """Verify that stacked and loop spectra are consistent for K = 3.

    The compensated matrix is block-cyclic for K = 3, so its cube is block
    diagonal with three blocks similar to the loop matrix: the nonzero
    stacked eigenvalues, cubed, are the loop spectrum with every value
    taken three times. The cubes are matched to it one-to-one (see
    :func:`_match_cubes`); ``passed`` applies :data:`CUBE_TOL` to the worst
    relative mismatch. NoUsableEigenpair if a reported value overflows.
    """
    compensated, _, loop, exp = _loop_system(net, "cube relation check")
    stacked_vals, loop_vals = (v[linalg._order(v)] for v in (
        np.linalg.eigvals(compensated), np.linalg.eigvals(loop)))

    vals = stacked_vals[np.abs(stacked_vals) > 1e-8 * np.abs(stacked_vals).max()]
    cubes = vals ** 3
    match, rel = _match_cubes(cubes, loop_vals)
    vals, cubes, loop_vals = (_unscaled(x, e, "spectrum") for x, e in (
        (vals, exp), (cubes, 3 * exp), (loop_vals, 3 * exp)))
    matches = [(complex(v), complex(q), complex(loop_vals[j]), float(e))
               for v, q, j, e in zip(vals, cubes, match, rel)]
    worst = float(rel.max()) if len(rel) else 0.0
    return CubeRelationReport(matches, worst, worst <= CUBE_TOL and bool(matches))


def solution_to_document(net, sol, method):
    """Serialize a solution to the versioned JSON solution document, written
    by :func:`eigenalign.channel._dumps`; its ``residual`` and ``rank_metric``
    are :func:`verify`'s ``alignment_residual`` and weakest relative gain on
    ``net``. The filters meet :func:`verify`'s checks first; ``lambda``,
    ``residual`` and ``rank_metric`` meet the same array gate as one number
    each, so NaN or infinity, which the reader refuses, text or a non-number
    raises ValueError naming the field, and more than one number
    ShapeMismatch. A ``method`` that is not a string, which the reader
    refuses too, raises ValueError."""
    _instance("method", method, str, "a string")
    filters = _filters(net, sol)
    report = _verified(net, *filters)
    lam, res, gain = (
        x if x is None else _array(name, x, ()) for name, x in (
            ("lambda", sol.eigenvalue),
            ("residual", report.alignment_residual),
            ("rank_metric", np.min(report.relative_gains))))
    return _dumps({"format": SOLUTION_FORMAT, "k": net.dims.k, "nt": net.dims.n_t,
                   "nr": net.dims.n_r, "method": method, "lambda": lam,
                   "residual": float(res.real), "rank_metric": float(gain.real),
                   "users": [{"v": v, "u": u} for v, u in zip(*filters)]})


def solution_from_document(data):
    """Parse a solution document; returns (solution, dims, method).

    Raises
    ------
    MalformedDocument
        On anything :func:`eigenalign.channel.deserialize` refuses in the
        shared header (bytes, JSON, ``format``, ``k/nt/nr``) and entries,
        on a ``users`` value that is not a list of objects, on a bad
        ``lambda`` or ``method``, or on a ``residual`` or ``rank_metric``
        that is neither a finite number nor absent (``null``).
    ShapeMismatch
        When the ``users`` list, a user's ``v`` or ``u``, or one of their
        ``[re, im]`` pairs or ``lambda``'s, has another length than ``k``,
        ``nt``, ``nr`` or 2.
    """
    doc, dims = _read_document(data, SOLUTION_FORMAT, "solution")
    users = doc.get("users")
    if type(users) is not list or len(users) != dims.k:
        _walk(users, (dims.k,), "users")   # raises at the list itself
    for i, user in enumerate(users):
        if type(user) is not dict:
            raise MalformedDocument("expected an object", f"users[{i}]")
    precoders, combiners = (
        np.stack([_entries(u.get(key), (n,), f"users[{i}].{key}")
                  for i, u in enumerate(users)])
        for key, n in (("v", dims.n_t), ("u", dims.n_r)))
    lam = doc.get("lambda")
    eigenvalue = None if lam is None else complex(_entries(lam, (), "lambda"))
    # checked, not kept: verify recomputes both
    for name in ("residual", "rank_metric"):
        if (value := doc.get(name)) is not None:
            _real(value, name)
    method = doc.get("method", "")
    if type(method) is not str:
        raise MalformedDocument("field 'method' must be a string", "method")
    return AlignmentSolution(precoders, combiners, eigenvalue), dims, method
