import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import pytest

import eigenalign

#: The public names. Adding or removing one needs a deliberate edit here.
PUBLIC = {
    "AlignmentSolution", "ConfigMismatch", "CubeRelationReport",
    "DimensionMismatch", "EigenalignError", "EmptyNullSpace",
    "FeasibilityRecord", "InfeasibilityReport", "InterferenceNetwork",
    "IterativeConfig", "LeakageTrace", "MalformedDocument", "NetworkDims",
    "NoUsableEigenpair", "RankDeficientSolution", "RatePoint",
    "ShapeMismatch", "SingularChannel", "SweepResult", "UnverifiedSolution",
    "VerificationReport", "WarmStartReport", "build_stacked",
    "cube_relation_check", "deserialize", "eig_general",
    "feasibility_sweep", "generate", "infeasibility_demo", "iterate",
    "loop_matrix", "predicted_feasible", "records_table",
    "render_feasibility_table", "serialize", "solution_from_document",
    "solution_to_document", "solve_eigen_method", "solve_loop_method",
    "sum_rate_curve", "verify", "warm_start_check",
}

#: The fields of the solution and of its one report, in order.
FIELDS = {
    "AlignmentSolution": ["precoders", "combiners", "eigenvalue"],
    "VerificationReport": ["residuals", "rank_metrics", "passed",
                           "channel_scale", "relative_gains",
                           "alignment_residual"],
}

#: Every optional parameter of the public API with its default. Error
#: classes are left out: their optional arguments carry context, not knobs.
OPTIONAL = {
    "InterferenceNetwork.seed": None,
    "IterativeConfig.max_iters": 5000,
    "IterativeConfig.leakage_tol": 1e-6,
    "IterativeConfig.seed": 0,
    "feasibility_sweep.max_iters": 5000,
    "feasibility_sweep.feasible_tol": 1e-6,
    "feasibility_sweep.infeasible_tol": 1e-3,
    "feasibility_sweep.keep_traces": False,
    "feasibility_sweep.progress": None,
}


def test_optional_parameters_pinned():
    # a new knob, or a new default, needs a deliberate edit here
    found = {}
    for name in eigenalign.__all__:
        obj = getattr(eigenalign, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        for p in inspect.signature(obj).parameters.values():
            if p.default is not inspect.Parameter.empty:
                found[f"{name}.{p.name}"] = p.default
    assert found == OPTIONAL


def test_public_names_pinned():
    assert sorted(eigenalign.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(eigenalign, name)


def test_solution_and_report_fields_pinned():
    for name, fields in FIELDS.items():
        cls = getattr(eigenalign, name)
        assert [f.name for f in dataclasses.fields(cls)] == fields


#: A call of an entry point with one wrong argument, by that argument (then
#: "/" and the entry point, where two entry points share the name).
WRONG_ARGUMENT = {
    "snr_db_list": lambda net, sol: eigenalign.sum_rate_curve(net, sol, 10.0),
    "n_values": lambda net, sol: eigenalign.feasibility_sweep(None, [3], 2),
    "k_values": lambda net, sol: eigenalign.feasibility_sweep([2], 3, 2),
    "seeds": lambda net, sol: eigenalign.feasibility_sweep([2], [3], None),
    "progress": lambda net, sol: eigenalign.feasibility_sweep(
        [2], [3], 2, progress=1.5),
    "result": lambda net, sol: eigenalign.render_feasibility_table(
        None, [2], [3]),
    "seed": lambda net, sol: eigenalign.generate(net.dims, 1.5),
    "seed/IterativeConfig": lambda net, sol: eigenalign.IterativeConfig(
        d=(1, 1, 1), seed=None),
    "k": lambda net, sol: eigenalign.NetworkDims(1, 2, 2),
    "n_t": lambda net, sol: eigenalign.NetworkDims(3, 0, 2),
    "sol": lambda net, sol: eigenalign.verify(net, None),
    "sol/warm_start_check": lambda net, sol: eigenalign.warm_start_check(
        net, None),
    "d": lambda net, sol: eigenalign.IterativeConfig(d=3),
    "net": lambda net, sol: eigenalign.verify(None, sol),
    "net/sum_rate_curve": lambda net, sol: eigenalign.sum_rate_curve(
        None, sol, [10.0]),
    "net/warm_start_check": lambda net, sol: eigenalign.warm_start_check(
        None, sol),
    "net/solution_to_document": lambda net, sol:
        eigenalign.solution_to_document(None, sol, "eigen"),
    "net/build_stacked": lambda net, sol: eigenalign.build_stacked(None),
    "net/solve_eigen_method": lambda net, sol:
        eigenalign.solve_eigen_method(None),
    "net/solve_loop_method": lambda net, sol:
        eigenalign.solve_loop_method(None),
    "net/loop_matrix": lambda net, sol: eigenalign.loop_matrix(None),
    "net/cube_relation_check": lambda net, sol:
        eigenalign.cube_relation_check(None),
    "net/infeasibility_demo": lambda net, sol:
        eigenalign.infeasibility_demo(None),
    "net/serialize": lambda net, sol: eigenalign.serialize(None),
    "net/iterate": lambda net, sol: eigenalign.iterate(
        None, eigenalign.IterativeConfig(d=(1, 1, 1))),
    "cfg": lambda net, sol: eigenalign.iterate(net, {"d": (1, 1, 1)}),
    "dims": lambda net, sol: eigenalign.generate((3, 2, 2), 1),
    "dims/InterferenceNetwork": lambda net, sol:
        eigenalign.InterferenceNetwork((3, 2, 2), net.h),
    "data": lambda net, sol: eigenalign.deserialize(None),
    "data/solution_from_document": lambda net, sol:
        eigenalign.solution_from_document(None),
    "records": lambda net, sol: eigenalign.records_table([1]),
    "n_r": lambda net, sol: eigenalign.predicted_feasible(None, 2, 3),
    "n_t/predicted_feasible": lambda net, sol:
        eigenalign.predicted_feasible(2, 2.5, 3),
    "k/predicted_feasible": lambda net, sol:
        eigenalign.predicted_feasible(2, 2, True),
    "keep_traces": lambda net, sol: eigenalign.feasibility_sweep(
        [2], [3], 2, keep_traces="no"),
    "a": lambda net, sol: eigenalign.eig_general(object()),
    "n_values/render_feasibility_table": lambda net, sol:
        eigenalign.render_feasibility_table(
            eigenalign.SweepResult([], {}, None), None, [3]),
    "k_values/render_feasibility_table": lambda net, sol:
        eigenalign.render_feasibility_table(
            eigenalign.SweepResult([], {}, None), [2], (k for k in [1])),
}


@pytest.mark.parametrize("name", WRONG_ARGUMENT)
def test_entry_points_name_a_wrong_argument(name):
    # a ValueError naming the argument (the id up to any "/"), not a
    # TypeError or AttributeError
    net = eigenalign.generate(eigenalign.NetworkDims(3, 2, 2), 42)
    sol = eigenalign.solve_eigen_method(net)
    with pytest.raises(ValueError, match=f"^{name.split('/')[0]} must be "):
        WRONG_ARGUMENT[name](net, sol)


#: The result dataclasses the package builds itself: a caller reads them
#: and may hand them back, but builds none, so their fields meet no gate.
BUILT = {"CubeRelationReport", "FeasibilityRecord", "InfeasibilityReport",
         "LeakageTrace", "RatePoint", "SweepResult", "VerificationReport",
         "WarmStartReport"}


def test_every_parameter_fuzzed():
    # every (public callable, parameter) pair has a call in the API fuzz,
    # so a new parameter cannot skip the gates; errors are left out as in
    # test_optional_parameters_pinned
    from test_api_fuzz import CALLS

    pairs = set()
    for name in set(eigenalign.__all__) - BUILT:
        obj = getattr(eigenalign, name)
        if not (inspect.isclass(obj) and issubclass(obj, Exception)):
            pairs |= {f"{name}.{p}" for p in inspect.signature(obj).parameters}
    assert sorted(pairs - set(CALLS)) == []   # a pair with no call
    assert sorted(set(CALLS) - pairs) == []   # a call of no pair
    assert BUILT <= set(eigenalign.__all__)


def _reads(node):
    """How often each name is read in ``node``, as a name or an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def test_every_definition_is_read_or_public():
    # each module-level function, class and constant of the package is
    # read in the package beyond its own definition, or is public: nothing
    # is built that only the tests read, and a helper whose last caller
    # goes goes with it
    trees = {path.name: ast.parse(path.read_text()) for path in
             sorted(Path(eigenalign.__file__).parent.glob("*.py"))}
    total = sum(map(_reads, trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            own = _reads(node)
            unread += [f"{module}: {name}" for name in names
                       if not name.startswith("__")
                       and name not in eigenalign.__all__
                       and total[name] == own[name]]
    assert unread == []
