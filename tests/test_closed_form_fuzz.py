"""Drawn networks against the closed-form entry points.

``solve_eigen_method`` (K = N + 1), ``solve_loop_method`` and
``cube_relation_check`` (K = 3) run on Gaussian networks scaled by powers
of 2 and 10 up to 1e+-300 or by 1e-310, on small-integer channels, on
networks whose cross channels all repeat one matrix, and on networks with
one rank-one or zero link. Each call returns a solution that ``verify``
passes (a report, for the cube check) or raises an ``EigenalignError``;
no ``LinAlgError`` and no ``RuntimeWarning`` escapes. The examples are
derandomized, so every run tries the same networks.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenalign import closed_form
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
    h = generate(dims, draw(st.integers(0, 2 ** 16))).h
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
    return InterferenceNetwork(dims, h * draw(SCALES))


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
            else:
                assert closed_form.verify(net, out).passed
