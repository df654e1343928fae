"""Alternating leakage minimization over forward and reciprocal networks.

Each half-iteration points every combiner at the weakest eigen-directions
of its local interference covariance; the reciprocal half does the same
for the precoders on the conjugated links. The total leakage (sum over
receivers of interference power surviving the combiners, normalized by
the total cross-channel energy so thresholds are channel-scale-free) is
non-increasing and its trace is the feasibility probe: it collapses to
numerical zero exactly when alignment is achievable.

Every user sends one stream at unit power, the paper's setting (all
multiplexing gains one): a config with any other stream count is refused,
and a warm start takes a solution's one precoder per user, with no config.
Initial precoders are Haar-random unit vectors drawn from PCG64 streams
``SeedSequence(seed, spawn_key=(i,))``, one one-word key per user; a batch
draws every run's streams in one derivation and one QR.

One engine runs independent runs that share their antenna counts. A run
keeps only its cross links; out of the closed form's scale window, each
run is scaled by its own power of two, under which the engine is
equivariant: any scale runs the same bits. Runs
of one K form a group, whose linear step fills its part of one buffer of
every run's receivers; the eigen-solve, the leakage and the convergence
mask then act once on the whole buffer, and a run leaves the batch when
its leakage reaches the tolerance. With two antennas on each side a
filter travels as its projector ``x x^H``: a half-iteration is one real
matrix-vector product per run and the closed-form projector onto each
weakest eigenvector, and a run leaving the batch takes its unit filters
from ``eigh`` of its last covariances. Other shapes take a matmul per
group and one eigen-solve a half, ``_weakest_3x3``'s closed form for n =
3, else ``eigh``. Every operation acts on each run's matrices alone and the
solver depends on the shape only, so a run is bitwise the same in any
batch. ``iterate`` and ``warm_start_check`` are batches of one; the
feasibility sweep runs one batch per antenna count.
"""

from array import array
from dataclasses import dataclass, field

import numpy as np

from .channel import _count, _gaussians, _numeric, _positive
from .closed_form import AlignmentSolution, _power_scaled
from .errors import ConfigMismatch

#: Leakage below this counts as converged by default.
DEFAULT_LEAKAGE_TOL = 1e-6

#: Default iteration cap.
DEFAULT_MAX_ITERS = 5000

#: A warm start runs WARM_ITERATIONS full iterations and holds if its first
#: leakage is below WARM_INITIAL_TOL and no later one reaches WARM_DRIFT_TOL.
WARM_INITIAL_TOL = 1e-12
WARM_DRIFT_TOL = 1e-10
WARM_ITERATIONS = 100


@dataclass(frozen=True)
class IterativeConfig:
    """Stream counts (ints >= 1), stopping rule and seed (an int >= 0)."""

    d: tuple
    max_iters: int = DEFAULT_MAX_ITERS
    leakage_tol: float = DEFAULT_LEAKAGE_TOL
    seed: int = 0

    def __post_init__(self):
        if not np.iterable(self.d):
            raise ValueError(f"d must be an iterable of stream counts, got"
                             f" {self.d!r}")
        object.__setattr__(self, "d", tuple(_count("stream count", x)
                                            for x in self.d))
        object.__setattr__(self, "max_iters",
                           _count("max_iters", self.max_iters))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        _positive("leakage_tol", self.leakage_tol)


@dataclass
class LeakageTrace:
    """Outcome of one run: the leakage sequence and the final filters.

    ``leakage[t]`` is the normalized total leakage after the combiner
    update of iteration ``t`` (entry 0 reflects the initial precoders).
    ``precoders`` is ``(K, n_t)`` and ``combiners`` is ``(K, n_r)``, one
    unit vector per user, the layout of ``AlignmentSolution``.
    """

    leakage: np.ndarray
    precoders: np.ndarray = field(repr=False)
    combiners: np.ndarray = field(repr=False)
    converged: bool
    iterations: int


def _random_precoders(n_t, ks, seeds):
    """Seeded Haar precoders ``(ks[s], n_t, 1)`` of each seed, one QR."""
    rows = [(seed, (i,)) for k, seed in zip(ks, seeds) for i in range(k)]
    q, r = np.linalg.qr(_gaussians(*zip(*rows), (n_t, 1)))
    return np.split(q * (r / np.abs(r)), np.cumsum(ks)[:-1])


#: Rows (``3 i + j`` holds m_ij) of the factors of the cofactors m_(k+1)(i+1)
#: m_(k+2)(i+2) - m_(k+1)(i+2) m_(k+2)(i+1) (mod 3), adj[i, k] at ``3 k + i``.
_COFACTOR_ROWS = np.array([3 * ((k + a) % 3) + (i + b) % 3 for a, b in (
    (1, 1), (1, 2), (2, 2), (2, 1)) for k in range(3) for i in range(3)])


@np.errstate(all="ignore")
def _weakest_3x3(cov, values=True):
    """Weakest eigenpair of each Hermitian PSD 3x3 matrix of the C-ordered
    stack ``cov``, matrix axes first: ``(3, 3, ...)``.

    Each matrix is scaled by the power of two that brings its trace into
    [1/2, 1). With ``B = A - (tr / 3) I``, ``p^2 = tr(B^2) / 6 = -tr(adj B)
    / 3`` and ``r = det B / (2 p^3)``, the eigenvalue is ``tr / 3 + 2p
    cos(arccos(r) / 3 + 2 pi / 3)``, the trigonometric cubic (Kopp,
    arXiv:physics/0610206), and ``adj(A - lambda I) = (l2 - l1) (l3 - l1) x
    x^H`` gives the vector: its column with the largest real diagonal entry,
    normalized. That column is no longer than l2 - l1; where it is shorter
    than 2^-7 (the two weakest eigenvalues close, or A near a multiple of I)
    or NaN, ``eigh`` of that matrix alone gives the pair. Each step acts on
    each matrix alone, so no result depends on the batch. Returns
    eigenvalues ``(..., 1)``, None unless ``values``, and unit eigenvectors
    ``(..., 3, 1)``.
    """
    shape = cov.shape[2:]
    mant, exp = np.frexp(np.add.reduce(cov.reshape(9, -1)[0::4].real))
    m = np.ldexp(cov.view(np.float64).reshape(9, -1, 2),
                 -exp[:, None]).view(np.complex128)[..., 0]
    q = mant / 3.0
    m[0::4].real -= q                                        # B
    prod = m.take(_COFACTOR_ROWS, axis=0)
    prod = prod[:18] * prod[18:]
    adj = prod[:9] - prod[9:]
    p2 = np.add.reduce(adj[0::4].real) / -3.0
    det = np.add.reduce(m[:3] * adj[:3]).real   # row 0 of B, column 0 of adj
    h = -2.0 * np.sqrt(p2)      # lambda - q = -2p cos(arccos(-r) / 3)
    mu = h * np.cos(np.arccos(det / (h * p2)) / 3.0)
    adj += mu * m.conj()       # adj(B - mu I) = adj B + mu B^T + mu^2 I
    adj[0::4].real += mu * mu
    n = adj.shape[1]
    vec = adj.reshape(3, 3, n)[adj[0::4].real.argmax(axis=0), :,
                               np.arange(n)]
    norm = np.sqrt(np.square(vec.view(np.float64)).sum(axis=1, keepdims=True))
    vec /= norm
    vals = np.ldexp(q + mu, exp)[:, None] if values else None
    if not norm.min() >= 2.0 ** -7:   # NaN too
        kept = norm[:, 0] >= 2.0 ** -7
        ref_vals, ref_vecs = np.linalg.eigh(
            cov.reshape(3, 3, n)[:, :, ~kept].transpose(2, 0, 1))
        vec[~kept] = ref_vecs[..., 0]
        if values:
            vals[~kept] = ref_vals[:, :1]
    return (vals.reshape(shape + (1,)) if values else None,
            vec.reshape(shape + (3, 1)))


#: The Pauli basis ``B = (I, sigma_z, sigma_x, sigma_y)``, ``tr(B_x B_y) = 2
#: delta_xy``: ``[[a, b*], [b, c]]`` has coordinates ``m = (a + c) / 2``,
#: ``h = (a - c) / 2``, ``Re b``, ``Im b`` and eigenvalues ``m +- r``, ``r =
#: hypot(h, |b|)``.
_PAULI = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]]])


def _real_map(h):
    """The real map ``(S, 4K, 4K)`` of the Pauli coordinates of the filter
    projectors ``P_j`` of all transmitters (column ``4 j + y``) to those of
    the covariances ``sum_j H_ij P_j H_ij^H`` of all receivers (row ``4 i +
    x``), for 2x2 channels ``h`` ``(S, K, K, 2, 2)``. Its transpose is the
    map of the reverse half, ``Q_i -> sum_i H_ij^H Q_i H_ij``."""
    s, k = h.shape[:2]
    # tr(B_x H B_y H^H) / 2 weighs H_qa conj(H_pb) by (B_x / 2)_pq (B_y)_ab;
    # the table is built per call: at import it cost every process ~0.3 MB
    kron = h[..., None, :, :, None] * h.conj()[..., :, None, None, :]
    pairs = np.multiply.outer(_PAULI / 2, _PAULI).transpose(1, 2, 4, 5, 0, 3)
    m = (kron.reshape(s, k * k, 16) @ pairs.reshape(16, 16)).real
    return np.ascontiguousarray(m.reshape(s, k, k, 4, 4).transpose(
        0, 1, 3, 2, 4)).reshape(s, 4 * k, 4 * k)


def _projector_half(maps, rows, state, values=True):
    """The half-iteration of n = 2 filters carried as projectors ``x x^H``:
    ``maps[g]``, group ``g``'s :func:`_real_map`, takes the Pauli rows
    ``state[0, rows[g]]`` to the covariances' ``(m, h, Re b, Im b)``, whose
    weakest projector is ``(1, -h / r, -Re b / r, -Im b / r) / 2``, or
    ``diag(1, 0)`` (``eigh``'s ``e1``) at ``r = 0``. Returns the eigenvalues
    ``m - r`` ``(R,)``, None unless ``values``, and the new state ``(2, R,
    4)``: the projectors over the covariances.
    """
    new = np.empty((2,) + state.shape[1:])
    p, q = new[0], new[1]
    for m, part in zip(maps, rows):   # each run's own map product
        np.matmul(m, state[0, part].reshape(len(m), -1, 1),
                  out=q[part].reshape(len(m), -1, 1))
    r = np.hypot(q[:, 1], np.hypot(q[:, 2], q[:, 3]))
    safe = r if r.all() else np.where(r == 0, 1.0, r)
    np.multiply(q[:, 1:], -0.5 / safe[:, None], out=p[:, 1:])
    p[:, 0] = 0.5
    if safe is not r:   # diag(1, 0) at a multiple of I
        p[r == 0, 1] = 0.5
    return q[:, 0] - r if values else None, new


def _half_iteration(links, rows, filters, values=True):
    """One half-iteration for every run and every receiver at once:
    ``links[g][s, j]`` stacks group ``g``'s ``H_ij`` over the receivers
    ``i`` (zero for ``i = j``), its filters ``filters[rows[g]]`` of ``(R, n,
    1)``. Receiver ``i``'s covariance sums ``g_ij g_ij^H`` over ``j``,
    ``g_ij`` the blocks of ``links @ filters``. Returns its weakest
    eigenvalue ``(R, 1)`` (for n = 3 only if ``values``) and eigenvector.
    """
    n = links[0].shape[2] // links[0].shape[1]
    cov = np.empty((3, 3, len(filters)) if n == 3 else (len(filters), n, n),
                   dtype=np.complex128)
    for link, part in zip(links, rows):
        s, k = link.shape[:2]
        g = (link @ filters[part].reshape(s, k, -1, 1)).reshape(s, k, k, n)
        if n == 3:   # g_ij at [s, j, i]; (p, q) sums g_ij[p] conj(g_ij[q])
            g = np.ascontiguousarray(g.transpose(1, 3, 0, 2))   # [j, :, s, i]
            np.add.reduce(g[:, :, None] * g[:, None].conj(),
                          out=cov[:, :, part].reshape(3, 3, s, k))
        else:
            w = np.ascontiguousarray(g.transpose(0, 2, 3, 1))   # [s, i, :, j]
            cov[part] = (w @ w.conj().swapaxes(-1, -2)).reshape(-1, n, n)
    if n == 3:
        return _weakest_3x3(cov, values)
    vals, vecs = np.linalg.eigh(cov)
    return vals[:, :1], vecs[..., :1]


def _run_batch(hs, vs, max_iters, tol):
    """The iteration engine: run ``s`` on channels ``hs[s]`` ``(K, K, n_r,
    n_t)`` from precoders ``vs[s]`` ``(K, n_t, 1)``, one ``LeakageTrace``
    a run, in input order."""
    n_r, n_t = hs[0].shape[2:]
    runs = sorted(range(len(hs)), key=lambda s: len(hs[s]))   # by K
    fwd, rev, denom, state = [], [], [], []
    for k in sorted({len(h) for h in hs}):
        group = [r for r in runs if len(hs[r]) == k]
        h, v = (np.stack([x[r] for r in group]) for x in (hs, vs))
        # the cross links only, each run out of the window scaled on its own
        h = _power_scaled(h * (1.0 - np.eye(k))[:, :, None, None],
                          axes=(1, 2, 3, 4))[0]
        energy = (np.linalg.norm(h, axis=(3, 4)) ** 2).sum(axis=(1, 2))
        denom.append(np.where(energy > 0, energy, 1.0))
        if n_t == n_r == 2:   # a row of Pauli coordinates tr(B_x x x^H) / 2
            x = v[:, :, None]
            state.append((x.conj() * _PAULI / 2 * x.swapaxes(-1, -2)).real.sum(
                axis=(3, 4)).reshape(1, -1, 4))
            fwd.append(_real_map(h))
            rev.append(np.ascontiguousarray(fwd[-1].swapaxes(1, 2)))
        else:   # forward[s, j] stacks H_ij over i, reverse[s, i] H_ij^H over j
            state.append(v.reshape(-1, n_t, 1))
            fwd.append(h.transpose(0, 2, 1, 3, 4).reshape(-1, k, k * n_r, n_t))
            rev.append(h.swapaxes(3, 4).conj().reshape(-1, k, k * n_t, n_r))
    del h   # the scaled channels live on in the links only
    if n_t == n_r == 2:   # projectors; at the end, eigh of the covariances
        step, axis = _projector_half, 1   # rebuilt from state[1]'s coordinates
        vectors = lambda st: np.linalg.eigh(
            (st[1] @ _PAULI.reshape(4, 4)).reshape(-1, 2, 2))[1][..., :1]
    else:
        step, axis, vectors = _half_iteration, 0, np.asarray
    v = np.concatenate(state, axis)

    def layout():   # each group's receivers in the buffers
        ends = np.cumsum([0, *users])[np.cumsum([0, *map(len, fwd)])].tolist()
        return [slice(a, b) for a, b in zip(ends, ends[1:])]

    users = np.array([len(hs[r]) for r in runs])   # K of each active run
    leakages, traces = [array("d") for _ in runs], [None] * len(runs)
    denom, rows = np.concatenate(denom), layout()
    vals, u = step(fwd, rows, v)
    it = 0
    while True:
        leakage = np.maximum(np.concatenate([np.add.reduce(vals[r].reshape(
            len(f), -1), axis=1) for f, r in zip(fwd, rows)]), 0.0) / denom
        for r, value in zip(runs, leakage.tolist()):
            leakages[r].append(value)
        # the convergence mask: a run leaves the batch once its leakage
        # reaches ``tol`` (or is NaN), and every run leaves at the cap
        active = leakage > tol if it < max_iters else np.zeros(len(runs), bool)
        if not active.all():
            done, kept = np.flatnonzero(~active), np.repeat(active, users)
            ends = np.cumsum(users[done])[:-1]   # split the rows run by run
            pre = ([vs[runs[p]] for p in done] if it == 0 else   # as drawn
                   np.split(vectors(np.compress(~kept, v, axis)), ends))
            for p, x, y in zip(done, pre, np.split(
                    vectors(np.compress(~kept, u, axis)), ends)):
                r = runs[p]   # the trace reads the leakages without a copy
                traces[r] = LeakageTrace(
                    np.frombuffer(leakages[r]), x[..., 0].copy(),
                    y[..., 0].copy(), converged=leakages[r][-1] <= tol,
                    iterations=it)
            if not active.any():
                return traces
            groups = np.split(active, np.cumsum([len(f) for f in fwd])[:-1])
            fwd, rev = ([x[m] for x, m in zip(xs, groups) if m.any()]
                        for xs in (fwd, rev))   # an emptied group drops out
            v, u = (np.compress(kept, x, axis) for x in (v, u))
            denom, users = denom[active], users[active]
            runs = [r for r, keep in zip(runs, active) if keep]
            rows = layout()
        _, v = step(rev, rows, u, values=False)
        vals, u = step(fwd, rows, v)
        it += 1


def iterate(net, cfg):
    """Run alternating leakage minimization on the InterferenceNetwork
    ``net`` from the seeded Haar draw of precoders, under the
    IterativeConfig ``cfg``, as a batch of one; returns a LeakageTrace.
    ConfigMismatch if ``cfg.d`` is not one stream for each user."""
    if cfg.d != (1,) * net.dims.k:
        raise ConfigMismatch(f"the probe needs one stream for each of the"
                             f" {net.dims.k} users, got d={cfg.d}")
    pre = _random_precoders(net.dims.n_t, [net.dims.k], [cfg.seed])
    return _run_batch([net.h], pre, cfg.max_iters, cfg.leakage_tol)[0]


@dataclass
class WarmStartReport:
    """Leakage behavior when a closed-form solution seeds the iteration."""

    initial_leakage: float
    max_leakage: float
    passed: bool
    trace: np.ndarray = field(repr=False)


def warm_start_check(net, sol):
    """Confirm an aligned solution is a fixed point of the iteration.

    Feeds ``sol``'s precoders, each scaled to a unit vector (a zero one
    stays zero), as warm start, runs :data:`WARM_ITERATIONS` full
    iterations with no early stopping, and reports whether the leakage
    starts below :data:`WARM_INITIAL_TOL` and stays below
    :data:`WARM_DRIFT_TOL`. ValueError on a precoder entry that is not a
    finite number.
    """
    if not isinstance(sol, AlignmentSolution):
        raise ValueError(f"sol must be an AlignmentSolution, got"
                         f" {type(sol).__name__}")
    pre = _numeric("solution precoders", sol.precoders)
    if pre.shape != (net.dims.k, net.dims.n_t):
        raise ConfigMismatch(
            f"solution precoders have shape {pre.shape}, expected"
            f" {(net.dims.k, net.dims.n_t)}")
    if not np.isfinite(pre).all():
        raise ValueError("solution precoders must be finite")
    pre = _power_scaled(pre, axes=(1,))[0]   # no norm over- or underflows
    norm = np.linalg.norm(pre, axis=1, keepdims=True)
    pre = pre / np.where(norm > 0, norm, 1.0)
    # no leakage falls below -inf, so the run makes all WARM_ITERATIONS
    trace = _run_batch([net.h], [pre[..., None]], WARM_ITERATIONS, -np.inf)[0]
    initial, peak = float(trace.leakage[0]), float(trace.leakage.max())
    return WarmStartReport(
        initial_leakage=initial, max_leakage=peak,
        passed=initial < WARM_INITIAL_TOL and peak < WARM_DRIFT_TOL,
        trace=trace.leakage)
