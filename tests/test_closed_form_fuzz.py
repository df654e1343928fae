"""Drawn networks against the closed-form entry points.

``solve_eigen_method`` (K = N + 1), ``solve_loop_method`` and
``cube_relation_check`` (K = 3) run on Gaussian networks scaled by powers
of 2 and 10 up to 1e+-300 or by 1e-310, on small-integer channels, on
networks whose cross channels all repeat one matrix, and on networks with
one rank-one or zero link. Any of them may also spread its scales within
each receiver: every cross channel but the one the routes invert there
times a second such factor, up to the float limit. Each call returns a
solution that ``verify`` passes (a finite report, for the cube check) or
raises an ``EigenalignError``; no ``LinAlgError`` and no
``RuntimeWarning`` escapes. The examples are derandomized, so every run
tries the same networks. The four-user demonstrator meets the same rule
on spread networks, and every route on two pinned networks scaled until
their largest real or imaginary part is 1.7e308.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eigenalign import analysis, closed_form
from eigenalign.channel import InterferenceNetwork, NetworkDims, generate
from eigenalign.errors import EigenalignError

SCALES = st.one_of(
    st.integers(-996, 996).map(lambda e: 2.0 ** e),
    st.integers(-300, 300).map(lambda e: 10.0 ** e),
    st.just(1e-310), st.just(1.0))


@st.composite
def networks(draw):
    """A network of K = N + 1 or K = 3 users, N = 2 or 3, times a scale."""
    n = draw(st.integers(2, 3))
    dims = NetworkDims(draw(st.sampled_from([3, n + 1])), n, n)
    h = generate(dims, draw(st.integers(0, 2 ** 16))).h.copy()
    kind = draw(st.sampled_from(["gaussian", "integer", "repeated", "link"]))
    if kind == "integer":
        parts = draw(st.lists(st.integers(-2, 2), min_size=2 * h.size,
                              max_size=2 * h.size))
        h = np.reshape(parts[::2], h.shape) + 1j * np.reshape(parts[1::2],
                                                               h.shape)
    elif kind == "repeated":
        cross = ~np.eye(dims.k, dtype=bool)
        h[cross] = h[draw(st.sampled_from(list(zip(*np.nonzero(cross)))))]
    elif kind == "link":
        i, j = draw(st.integers(0, dims.k - 1)), draw(st.integers(0, dims.k - 1))
        h[i, j] = 0.0 if draw(st.booleans()) else np.outer(h[i, j, :, 0],
                                                           h[i, j, 0])
    h = spread(h, draw(st.one_of(st.just(1.0), SCALES)), inverted(dims.k))
    with np.errstate(over="ignore"):
        h = h * draw(SCALES)
    assume(np.isfinite(h).all())   # past the float range is no network
    return InterferenceNetwork(dims, h)


def inverted(k):
    """The cross channel each receiver inverts on the K = N + 1 and K = 3
    routes: ``(l, l + 1)``."""
    return [{(l + 1) % k} for l in range(k)]


def spread(h, factor, kept):
    """``h`` with every cross channel ``(l, c)``, ``c`` not in ``kept[l]``,
    times ``factor``."""
    h = h.copy()
    for l, keep in enumerate(kept):
        for c in set(range(len(h))) - keep - {l}:
            h[l, c] *= factor
    return h


def routes(net):
    k, n = net.dims.k, net.dims.n_t
    if k == n + 1:
        yield closed_form.solve_eigen_method
    if k == 3:
        yield from (closed_form.solve_loop_method,
                    closed_form.cube_relation_check)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(networks())
def test_closed_form_routes_solve_or_refuse_typed(net):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in routes(net):
            try:
                out = route(net)
            except EigenalignError:
                continue
            if isinstance(out, closed_form.CubeRelationReport):
                assert np.isfinite(out.worst_mismatch)
                assert np.isfinite(np.array([m[:3] for m in out.matches],
                                            dtype=complex)).all()
            else:
                assert closed_form.verify(net, out).passed
                assert np.isfinite(out.eigenvalue)


@pytest.mark.parametrize("factor", [1e300, 1e-200])
@pytest.mark.parametrize("route", [
    closed_form.solve_eigen_method, closed_form.solve_loop_method,
    closed_form.cube_relation_check, analysis.infeasibility_demo])
def test_spread_within_each_receiver(route, factor):
    # the entries of the compensated matrix lie near the factor (and the
    # loop's near its cube): a solution that verifies, a passed report or
    # a typed error, with no overflow and no false singular channel
    if route is analysis.infeasibility_demo:   # receiver 3 inverts two
        net = generate(NetworkDims(4, 2, 2), 1)
        kept = [{1}, {0}, {3}, {1, 2}]
    else:
        net = generate(NetworkDims(3, 2, 2), 1)
        kept = inverted(3)
    net = InterferenceNetwork(net.dims, spread(net.h, factor, kept))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = route(net)
        except EigenalignError:
            assert factor > 1 and route in (closed_form.solve_loop_method,
                                            closed_form.cube_relation_check)
            return
    if isinstance(out, closed_form.AlignmentSolution):
        assert closed_form.verify(net, out).passed
        assert np.isfinite(out.eigenvalue)
    elif isinstance(out, closed_form.CubeRelationReport):
        assert out.passed
        assert np.isfinite(np.array([m[:3] for m in out.matches])).all()
    else:
        assert out.incompatible and np.isfinite(out.joint_residual)


def at_float_limit(dims):
    """The seed-1 network of ``dims`` times the factor that makes its
    largest real or imaginary part 1.7e308: every entry is finite, but the
    Frobenius norms and the raw gains lie past the float range."""
    h = generate(dims, 1).h
    return InterferenceNetwork(dims,
                               h * (1.7e308 / np.abs(h.view(float)).max()))


@pytest.mark.parametrize("route", [
    closed_form.solve_eigen_method, closed_form.solve_loop_method,
    closed_form.cube_relation_check, analysis.infeasibility_demo])
def test_at_the_float_limit(route):
    # each route solves in per-channel scaled units and verify reads its
    # verdict there: the relative gains and the demo's verdict of the
    # unscaled network, and the channel scale, past the float range, as inf
    dims = NetworkDims(4 if route is analysis.infeasibility_demo else 3, 2, 2)
    net, big = generate(dims, 1), at_float_limit(dims)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = route(big)
        if isinstance(out, closed_form.AlignmentSolution):
            reports = [closed_form.verify(big, sol)
                       for sol in (out, route(net))]
            with pytest.raises(ValueError, match="no finite received power"):
                analysis.sum_rate_curve(big, out, [0.0])
    if isinstance(out, closed_form.AlignmentSolution):
        base = closed_form.verify(net, route(net))
        for got in reports:
            assert got.passed and got.channel_scale == np.inf
            assert np.abs(got.relative_gains
                          - base.relative_gains).max() <= 1e-12
            assert got.alignment_residual <= 1e-12
    elif isinstance(out, closed_form.CubeRelationReport):
        assert out.passed
        assert np.isfinite(np.array([m[:3] for m in out.matches])).all()
    else:
        base = route(net)
        assert out.incompatible and out.closest_pair == base.closest_pair
        assert out.joint_residual == pytest.approx(base.joint_residual,
                                                   rel=1e-9)
