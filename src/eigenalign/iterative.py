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
``SeedSequence(seed, spawn_key=(i,))``, one one-word key per user, which
``channel._streams`` derives from numpy's ``SeedSequence(seed)`` pool.

One engine runs S independent runs of one (K, n_t, n_r) setting at once.
Channels carry a leading run axis, ``(S, K, K, n_r, n_t)``, and so do the
filters, ``(S, K, n, 1)``. A run keeps only its cross links, scaled by the
exact power of two that brings their largest entry into [1/2, 1), so any
scale runs the same bits. With two antennas on each side a filter travels
as its projector ``x x^H``, four real Pauli coordinates: a half-iteration
is one real matrix-vector product per run, through a map built once from
the links, and the closed-form projector onto each weakest eigenvector. A
run's last covariances give its unit filters when it ends, through
``_weakest_2x2`` (``eigh``'s vector to rounding, up to its sign). Other
shapes take one batched matmul and one batched eigen-solve a half: the
closed form of ``_weakest_3x3`` for n = 3 (to rounding, up to phase) on
covariance entries formed from the link products, else ``eigh``. After
every iteration a per-run convergence mask takes the runs whose leakage
reached the tolerance out of the batch, so each run stops where it would
alone. Every operation acts on each run's matrices separately and the
solver depends on the shape only, never on the batch size, so a run's
trace and filters are bitwise the same in any batch.
``iterate`` and ``warm_start_check`` are batches of one; ``iterate_batch``
(used by the feasibility sweep) runs many networks or seeds together.
"""

from array import array
from dataclasses import dataclass, field

import numpy as np

from .channel import _count, _positive, _streams
from .errors import ConfigMismatch

#: Leakage below this counts as converged by default.
DEFAULT_LEAKAGE_TOL = 1e-6

#: Default iteration cap.
DEFAULT_MAX_ITERS = 5000

#: A warm start holds if its first leakage is below WARM_INITIAL_TOL and no
#: later one reaches WARM_DRIFT_TOL.
WARM_INITIAL_TOL = 1e-12
WARM_DRIFT_TOL = 1e-10


@dataclass(frozen=True)
class IterativeConfig:
    """Stream counts (ints >= 1), stopping rule and seed (an int >= 0)."""

    d: tuple
    max_iters: int = DEFAULT_MAX_ITERS
    leakage_tol: float = DEFAULT_LEAKAGE_TOL
    seed: int = 0

    def __post_init__(self):
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


def _random_precoders(dims, seed):
    """Seeded Haar precoders, ``(K, n_t, 1)``, from one batched QR."""
    x = np.stack([rng.standard_normal((2, dims.n_t, 1)) for rng in
                  _streams(seed, np.arange(dims.k)[:, None])])
    q, r = np.linalg.qr((x[:, 0] + 1j * x[:, 1]) * np.sqrt(0.5))
    return q * (r / np.abs(r))


@np.errstate(all="ignore")
def _weakest_2x2(a, c, b):
    """Weakest eigenvector of each Hermitian PSD 2x2 ``[[a, b*], [b, c]]``
    (real ``a``, ``c`` and complex ``b`` of one shape, at least 1-D), equal
    to ``np.linalg.eigh``'s (``zheevd``, lower triangle) to rounding, but
    for its sign at ``a = c`` with complex ``b``, which follows ``zheevd``'s
    roundings (about 9% flip; no leakage depends on it).

    ``zheevd`` turns ``b`` into the real ``beta = -|b| sign(Re b)`` (``b``
    itself when real). With ``h = (a - c) / 2`` and the cancellation-free
    ``t = |h| + hypot(h, |b|)``, its vector is ``(-t, b)`` for ``a <= c``,
    else ``(beta, -t b / beta)``, normalized; ``e1``, or ``e2 b / beta`` for
    ``a > c``, where it neglects ``b``. Power-of-two scaling, + - * /, sqrt
    and hypot act on each matrix alone, so no result depends on the batch.
    Returns unit eigenvectors ``(..., 2, 1)``.
    """
    exp = np.frexp(np.maximum(a, c))[1]
    a, c, x, y = np.ldexp((a, c, b.real, b.imag), -exp)   # x + iy = b, scaled
    vec = np.empty(exp.shape + (2, 1), dtype=np.complex128)
    low = vec[..., 1, 0]
    abs_b = np.hypot(x, y)
    h = 0.5 * (a - c)
    r = np.hypot(h, abs_b)
    nt = -r - np.abs(h)                   # -t
    norm = np.hypot(nt, abs_b)
    beta = np.copysign(abs_b, np.where(y, -x, x))
    up = h > 0
    vec[..., 0, 0] = np.where(up, beta, nt) / norm
    ratio = np.where(up, nt / beta, 1.0) / norm
    low.real, low.imag = ratio * x, ratio * y
    split = abs_b * abs_b <= 2.0 ** -106 * a * c   # unit roundoff squared
    if np.count_nonzero(split):  # zheevd's negligible b; replaces 0/0 lanes
        vec[split] = ((1.0,), (0.0,))
        vec[split & up] = ((0.0,), (1.0,))
        e2 = split & up & (abs_b > 0)
        low[e2] = (x[e2] + 1j * y[e2]) / beta[e2]
    return vec


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
    mant, exp = np.frexp(cov.reshape(9, -1)[0::4].real.sum(axis=0))
    m = np.ldexp(cov.view(np.float64).reshape(9, -1, 2),
                 -exp[:, None]).view(np.complex128)[..., 0]
    q = mant / 3.0
    m[0::4].real -= q                                        # B
    prod = np.take(m, _COFACTOR_ROWS, axis=0)
    prod = prod[:18] * prod[18:]
    adj = prod[:9] - prod[9:]
    p2 = adj[0::4].real.sum(axis=0) / -3.0
    det = (m[:3] * adj[:3]).sum(axis=0).real   # row 0 of B, column 0 of adj
    h = -2.0 * np.sqrt(p2)      # lambda - q = -2p cos(arccos(-r) / 3)
    mu = h * np.cos(np.arccos(det / (h * p2)) / 3.0)
    adj += mu * m.conj()       # adj(B - mu I) = adj B + mu B^T + mu^2 I
    adj[0::4].real += mu * mu
    n = adj.shape[1]
    vec = adj.reshape(3, 3, n)[np.argmax(adj[0::4].real, axis=0), :,
                               np.arange(n)]
    norm = np.sqrt(np.square(vec.view(np.float64)).sum(axis=1, keepdims=True))
    vec /= norm
    vals = np.ldexp(q + mu, exp)[:, None] if values else None
    if np.count_nonzero(kept := norm[:, 0] >= 2.0 ** -7) < n:
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
    projectors ``P_j`` of all transmitters (column ``K y + j``) to those of
    the covariances ``sum_j H_ij P_j H_ij^H`` of all receivers (row ``K x +
    i``), for 2x2 channels ``h`` ``(S, K, K, 2, 2)``. Its transpose is the
    map of the reverse half, ``Q_i -> sum_i H_ij^H Q_i H_ij``."""
    s, k = h.shape[:2]
    # tr(B_x H B_y H^H) / 2 weighs H_qa conj(H_pb) by (B_x / 2)_pq (B_y)_ab;
    # the table is built per call: at import it cost every process ~0.3 MB
    kron = h[..., None, :, :, None] * h.conj()[..., :, None, None, :]
    pairs = np.multiply.outer(_PAULI / 2, _PAULI).transpose(1, 2, 4, 5, 0, 3)
    m = (kron.reshape(s, k * k, 16) @ pairs.reshape(16, 16)).real
    return np.ascontiguousarray(m.reshape(s, k, k, 4, 4).transpose(
        0, 3, 1, 4, 2)).reshape(s, 4 * k, 4 * k)


def _projector_half(maps, state, values=True):
    """The half-iteration of n = 2 filters carried as projectors ``x x^H``.

    ``maps``, a direction's :func:`_real_map`, takes the Pauli coordinates
    in ``state[:, :4]`` to those of the covariances, ``(m, h, Re b, Im b)``.
    The projector onto the weakest eigenvector is ``(1, -h / r, -Re b / r,
    -Im b / r) / 2``, or ``diag(1, 0)`` (``eigh``'s ``e1``) at ``r = 0``.
    Returns the eigenvalues ``m - r`` ``(S, K, 1)``, None unless ``values``,
    and the new state ``(S, 8, K)``: the projectors over the covariances.
    """
    s = len(maps)
    new = np.empty((s, 8, maps.shape[1] // 4))
    q = new[:, 4:]
    np.matmul(maps, state[:, :4].reshape(s, -1, 1), out=q.reshape(s, -1, 1))
    r = np.hypot(q[:, 1], np.hypot(q[:, 2], q[:, 3]))
    flat = r == 0
    np.multiply(q[:, 1:], -0.5 / np.where(flat, 1.0, r)[:, None],
                out=new[:, 1:4])
    new[:, 0] = 0.5
    np.copyto(new[:, 1], 0.5, where=flat)
    return (q[:, 0] - r)[..., None] if values else None, new


def _half_iteration(links, filters, values=True):
    """One half-iteration for every run and every receiver at once.

    ``links[s, j]`` stacks transmitter ``j``'s channels ``H_ij`` to all
    receivers ``i`` (zero for ``i = j``); ``filters`` is ``(S, K, n, 1)``.
    Receiver ``i``'s covariance sums ``g_ij g_ij^H`` over ``j``, ``g_ij`` the
    blocks of ``links @ filters``. Returns its weakest eigenvalue ``(S, K,
    1)`` (for n = 3 only if ``values``) and eigenvector, the new filters.
    """
    s, k = filters.shape[:2]
    n_out = links.shape[2] // k
    g = (links @ filters).reshape(s, k, k, n_out)   # g_ij at [s, j, i]
    if n_out == 3:
        # entry (p, q) sums g_ij[p] conj(g_ij[q]) over the leading j
        g = np.ascontiguousarray(g.transpose(1, 3, 0, 2))   # [j, :, s, i]
        return _weakest_3x3((g[:, :, None] * g[:, None].conj()).sum(axis=0),
                            values)
    w = np.ascontiguousarray(g.transpose(0, 2, 3, 1))   # [s, i, :, j]
    vals, vecs = np.linalg.eigh(w @ w.conj().swapaxes(-1, -2))
    return vals[..., :1], vecs[..., :1]


def _run_batch(h, max_iters, tol, v):
    """The iteration engine: ``S`` independent runs of one setting.

    ``h`` stacks the runs' channels, ``(S, K, K, n_r, n_t)``, and ``v``
    their initial precoders, ``(S, K, n_t, 1)``. Returns one
    ``LeakageTrace`` per run, in input order.
    """
    s, k, _, n_r, n_t = h.shape
    # the cross links only, scaled per run by a power of two to [1/2, 1)
    h = h * (1.0 - np.eye(k))[:, :, None, None]
    exp = np.frexp(np.abs(h).max(axis=(1, 2, 3, 4), keepdims=True))[1]
    h = np.ldexp(h.view(np.float64), -exp).view(np.complex128)
    energy = (np.linalg.norm(h, axis=(3, 4)) ** 2).sum(axis=(1, 2))
    denom = np.where(energy > 0, energy, 1.0)
    init = v
    if n_t == n_r == 2:   # filters as projectors, vectors when a run ends
        step, forward = _projector_half, _real_map(h)
        reverse = np.ascontiguousarray(forward.swapaxes(1, 2))
        vectors = lambda st: _weakest_2x2(st[:, 4] + st[:, 5], st[:, 4]
                                          - st[:, 5], st[:, 6] + 1j * st[:, 7])
        x = init[:, :, None]           # Pauli coordinates tr(B_x x x^H) / 2
        v = np.zeros((s, 8, k))
        v[:, :4] = (x.conj() * _PAULI / 2 * x.swapaxes(-1, -2)).real.sum(
            axis=(3, 4)).swapaxes(1, 2)
    else:   # forward[s, j] stacks H_ij over i, reverse[s, i] H_ij^H over j
        step, vectors = _half_iteration, lambda filters: filters
        forward = h.transpose(0, 2, 1, 3, 4).reshape(s, k, k * n_r, n_t)
        reverse = np.conjugate(h.swapaxes(3, 4)).reshape(s, k, k * n_t, n_r)

    runs = list(range(s))                 # input index of each active run
    leakages = [array("d") for _ in runs]
    traces = [None] * len(runs)
    vals, u = step(forward, v)
    it = 0
    while True:
        leakage = np.maximum(vals.sum(axis=(1, 2)), 0.0) / denom
        for r, value in zip(runs, leakage.tolist()):
            leakages[r].append(value)
        # the convergence mask: a run leaves the batch once its leakage
        # reaches ``tol`` (or is NaN), and every run leaves at the cap
        active = (leakage > tol) & (it < max_iters)
        if not active.all():
            done = np.flatnonzero(~active)   # a run that ends at 0 keeps v
            pre = init[done] if it == 0 else vectors(v[done])
            for pos, x, y in zip(done, pre, vectors(u[done])):
                r = runs[pos]
                traces[r] = LeakageTrace(
                    np.array(leakages[r]), x[..., 0].copy(), y[..., 0].copy(),
                    converged=leakages[r][-1] <= tol, iterations=it)
            if not active.any():
                return traces
            forward, reverse, v, u, denom = (
                a[active] for a in (forward, reverse, v, u, denom))
            runs = [r for r, kept in zip(runs, active) if kept]
        _, v = step(reverse, u, values=False)
        vals, u = step(forward, v)
        it += 1


def iterate(net, cfg):
    """Run alternating leakage minimization on ``net`` from the seeded
    Haar draw of precoders, as a batch of one (:func:`iterate_batch`).

    Parameters
    ----------
    net : InterferenceNetwork
    cfg : IterativeConfig

    Returns
    -------
    LeakageTrace

    Raises
    ------
    ConfigMismatch
        If ``cfg.d`` is not one stream for each user of ``net``.
    """
    return iterate_batch([net], [cfg])[0]


def iterate_batch(nets, cfgs):
    """Run ``iterate(nets[s], cfgs[s])`` for every ``s`` as one batch.

    The networks must share their dimensions, and the configs everything
    but the seed. Each trace is bitwise equal to the one its pair gives
    alone.

    Raises
    ------
    ValueError
        If the batch is empty or the two lists differ in length.
    ConfigMismatch
        If the networks or the configs differ in more than channels and
        seed, or the config does not fit the networks.
    """
    if not nets or len(nets) != len(cfgs):
        raise ValueError(f"a batch needs one config per network, got"
                         f" {len(nets)} networks and {len(cfgs)} configs")
    if (len({net.dims for net in nets}) != 1
            or len({(c.d, c.max_iters, c.leakage_tol) for c in cfgs}) != 1):
        raise ConfigMismatch("a batch needs one network size and one"
                             " stream count and stopping rule")
    cfg, k = cfgs[0], nets[0].dims.k
    if cfg.d != (1,) * k:
        raise ConfigMismatch(f"the probe needs one stream for each of the"
                             f" {k} users, got d={cfg.d}")
    v = np.stack([_random_precoders(nets[0].dims, c.seed) for c in cfgs])
    return _run_batch(np.stack([net.h for net in nets]), cfg.max_iters,
                      cfg.leakage_tol, v)


@dataclass
class WarmStartReport:
    """Leakage behavior when a closed-form solution seeds the iteration."""

    initial_leakage: float
    max_leakage: float
    iterations: int
    passed: bool
    trace: np.ndarray = field(repr=False)


def warm_start_check(net, sol, iterations=100):
    """Confirm an aligned solution is a fixed point of the iteration.

    Feeds ``sol``'s precoders, one unit vector per user, as warm start,
    runs ``iterations`` full iterations with no early stopping, and reports
    whether the leakage starts below :data:`WARM_INITIAL_TOL` and stays
    below :data:`WARM_DRIFT_TOL`. ``iterations`` must be an integer >= 1.
    """
    iterations = _count("iterations", iterations)
    if sol.precoders.shape != (net.dims.k, net.dims.n_t):
        raise ConfigMismatch(
            f"solution precoders have shape {sol.precoders.shape}, expected"
            f" {(net.dims.k, net.dims.n_t)}")
    # no leakage falls below -inf, so every run makes all ``iterations``
    init = np.array(sol.precoders, dtype=np.complex128)[None, :, :, None]
    trace = _run_batch(net.h[None], iterations, -np.inf, init)[0]
    initial, peak = float(trace.leakage[0]), float(trace.leakage.max())
    return WarmStartReport(
        initial_leakage=initial, max_leakage=peak, iterations=trace.iterations,
        passed=initial < WARM_INITIAL_TOL and peak < WARM_DRIFT_TOL,
        trace=trace.leakage)
