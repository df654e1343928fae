import dataclasses
import inspect

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
    "sol": lambda net, sol: eigenalign.verify(net, None),
    "sol/warm_start_check": lambda net, sol: eigenalign.warm_start_check(
        net, None),
    "d": lambda net, sol: eigenalign.IterativeConfig(d=3),
}


@pytest.mark.parametrize("name", WRONG_ARGUMENT)
def test_entry_points_name_a_wrong_argument(name):
    # a ValueError naming the argument (the id up to any "/"), not a
    # TypeError or AttributeError
    net = eigenalign.generate(eigenalign.NetworkDims(3, 2, 2), 42)
    sol = eigenalign.solve_eigen_method(net)
    with pytest.raises(ValueError, match=f"^{name.split('/')[0]} must be "):
        WRONG_ARGUMENT[name](net, sol)
