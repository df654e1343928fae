"""Wrong kinds of argument against every public callable.

Every parameter of every public callable (``tests/test_api.py`` checks
that :data:`CALLS` names them all) is handed a wrong kind of value while
the other arguments stay valid: None, bools, text, bytes, complex numbers,
NaN and infinities, an integer past the float range, numpy scalars, 0-d
and object arrays, wrong shapes, generators, dicts and a range longer than
a list can index. Each call returns or raises ``ValueError`` (numpy's
``LinAlgError`` is one) or an ``EigenalignError``; no ``TypeError``,
``AttributeError`` or ``OverflowError`` and no ``RuntimeWarning`` escapes.
No value is a size the host could allocate. Every wrong kind is tried at
every parameter, then a derandomized draw tries more values, so every run
makes the same calls.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eigenalign as ea
from eigenalign.errors import EigenalignError

NET = ea.generate(ea.NetworkDims(3, 2, 2), 42)
SOL = ea.solve_eigen_method(NET)
RESULT = ea.feasibility_sweep([2], [3], 1, max_iters=5)
CFG = ea.IterativeConfig((1, 1, 1), 20)


def _sweep(**changed):
    return ea.feasibility_sweep(**{"n_values": [2], "k_values": [3],
                                   "seeds": 1, "max_iters": 5, **changed})


def _config(**changed):
    # a config is checked where it is built and run where it is used
    cfg = {"d": (1, 1, 1), "max_iters": 20, **changed}
    return ea.iterate(NET, ea.IterativeConfig(**cfg))


def _solution(**changed):
    # a solution is checked by the entry points that read it: the writer
    # reads its filters through verify and its eigenvalue as well
    fields = {"precoders": SOL.precoders, "combiners": SOL.combiners,
              "eigenvalue": SOL.eigenvalue, **changed}
    return ea.solution_to_document(NET, ea.AlignmentSolution(**fields), "eigen")


#: One call a (public callable, parameter) pair, the value at that
#: parameter and valid values at the others.
CALLS = {
    "AlignmentSolution.precoders": lambda x: _solution(precoders=x),
    "AlignmentSolution.combiners": lambda x: _solution(combiners=x),
    "AlignmentSolution.eigenvalue": lambda x: _solution(eigenvalue=x),
    "InterferenceNetwork.dims": lambda x: ea.InterferenceNetwork(x, NET.h),
    "InterferenceNetwork.h": lambda x: ea.InterferenceNetwork(NET.dims, x),
    "InterferenceNetwork.seed": lambda x: ea.InterferenceNetwork(
        NET.dims, NET.h, x),
    "IterativeConfig.d": lambda x: _config(d=x),
    "IterativeConfig.max_iters": lambda x: _config(max_iters=x),
    "IterativeConfig.leakage_tol": lambda x: _config(leakage_tol=x),
    "IterativeConfig.seed": lambda x: _config(seed=x),
    "NetworkDims.k": lambda x: ea.NetworkDims(x, 2, 2),
    "NetworkDims.n_t": lambda x: ea.NetworkDims(3, x, 2),
    "NetworkDims.n_r": lambda x: ea.NetworkDims(3, 2, x),
    "build_stacked.net": ea.build_stacked,
    "cube_relation_check.net": ea.cube_relation_check,
    "deserialize.data": ea.deserialize,
    "eig_general.a": ea.eig_general,
    "feasibility_sweep.n_values": lambda x: _sweep(n_values=x),
    "feasibility_sweep.k_values": lambda x: _sweep(k_values=x),
    "feasibility_sweep.seeds": lambda x: _sweep(seeds=x),
    "feasibility_sweep.max_iters": lambda x: _sweep(max_iters=x),
    "feasibility_sweep.feasible_tol": lambda x: _sweep(feasible_tol=x),
    "feasibility_sweep.infeasible_tol": lambda x: _sweep(infeasible_tol=x),
    "feasibility_sweep.keep_traces": lambda x: _sweep(keep_traces=x),
    "feasibility_sweep.progress": lambda x: _sweep(progress=x),
    "generate.dims": lambda x: ea.generate(x, 0),
    "generate.seed": lambda x: ea.generate(NET.dims, x),
    "infeasibility_demo.net": ea.infeasibility_demo,
    "iterate.net": lambda x: ea.iterate(x, CFG),
    "iterate.cfg": lambda x: ea.iterate(NET, x),
    "loop_matrix.net": ea.loop_matrix,
    "predicted_feasible.n_r": lambda x: ea.predicted_feasible(x, 2, 3),
    "predicted_feasible.n_t": lambda x: ea.predicted_feasible(2, x, 3),
    "predicted_feasible.k": lambda x: ea.predicted_feasible(2, 2, x),
    "records_table.records": ea.records_table,
    "render_feasibility_table.result": lambda x:
        ea.render_feasibility_table(x, [2], [3]),
    "render_feasibility_table.n_values": lambda x:
        ea.render_feasibility_table(RESULT, x, [3]),
    "render_feasibility_table.k_values": lambda x:
        ea.render_feasibility_table(RESULT, [2], x),
    "serialize.net": ea.serialize,
    "solution_from_document.data": ea.solution_from_document,
    "solution_to_document.net": lambda x: ea.solution_to_document(
        x, SOL, "eigen"),
    "solution_to_document.sol": lambda x: ea.solution_to_document(
        NET, x, "eigen"),
    "solution_to_document.method": lambda x: ea.solution_to_document(
        NET, SOL, x),
    "solve_eigen_method.net": ea.solve_eigen_method,
    "solve_loop_method.net": ea.solve_loop_method,
    "sum_rate_curve.net": lambda x: ea.sum_rate_curve(x, SOL, [10.0]),
    "sum_rate_curve.sol": lambda x: ea.sum_rate_curve(NET, x, [10.0]),
    "sum_rate_curve.snr_db_list": lambda x: ea.sum_rate_curve(NET, SOL, x),
    "verify.net": lambda x: ea.verify(x, SOL),
    "verify.sol": lambda x: ea.verify(NET, x),
    "warm_start_check.net": lambda x: ea.warm_start_check(x, SOL),
    "warm_start_check.sol": lambda x: ea.warm_start_check(NET, x),
}


def wrong_kinds():
    """Every wrong kind, built afresh: a call uses a generator up."""
    return [None, True, False, "3", "", b"\x00", 1 + 2j, math.nan, math.inf,
            -math.inf, 10 ** 400, -1, np.int64(2), np.float64(2.0),
            np.bool_(True), np.complex128(1j), np.array(3),
            np.array([1, None], dtype=object), np.array(object()),
            [[2, 3]], np.zeros((2, 2)), (n for n in (2, 3)), {"a": 1},
            range(2 ** 70), object()]


def escape(pair, value):
    """What ``pair``'s call with ``value`` lets escape that is neither a
    ValueError nor an EigenalignError, as text, or None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            CALLS[pair](value)
    except (ValueError, EigenalignError):
        return None
    except Exception as exc:   # RuntimeWarning included
        return f"{pair}({value!r}): {type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("pair", sorted(CALLS))
def test_every_wrong_kind_refused_typed(pair):
    escaped = [escape(pair, value) for value in wrong_kinds()]
    assert [e for e in escaped if e is not None] == []


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 63, 5e-324, -0.0]),
    st.floats(), st.complex_numbers(), st.text(max_size=3),
    st.binary(max_size=3))
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=3),
    st.lists(st.lists(SCALARS, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
    st.lists(SCALARS, max_size=3).map(lambda xs: (x for x in xs)),
    st.lists(SCALARS, max_size=3).map(lambda xs: np.array(xs, dtype=object)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(CALLS)), VALUES)
def test_drawn_values_refused_typed(pair, value):
    assert escape(pair, value) is None
