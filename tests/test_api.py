import inspect

import eigenalign

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
    "warm_start_check.iterations": 100,
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
