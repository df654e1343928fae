#!/usr/bin/env python3
"""Write ``probe_reference.json``: the verdict of every (n, k, seed) run the
``probe_sweep`` workload can draw, from one sweep over the whole seed pool.

    python3 perfbench/make_reference.py

Regenerate it only when the workload's grid, cap or thresholds change; a
change to the library must reproduce the stored verdicts, not replace them.
"""

import json
import sys

import run

if __name__ == "__main__":
    ea = run.load_package()
    from workloads import ProbeSweep

    params = ProbeSweep.reference_params()
    result = ea.analysis.feasibility_sweep(
        params["n_values"], params["k_values"], params["seed_pool"],
        max_iters=params["max_iters"], feasible_tol=params["feasible_tol"],
        infeasible_tol=params["infeasible_tol"])
    rows = [json.dumps({"n": r.n_t, "k": r.k, "seed": r.seed,
                        "iterations": r.iterations, "verdict": r.verdict})
            for r in result.records]
    ProbeSweep.REFERENCE.write_text(
        '{"params": ' + json.dumps(params) + ',\n "records": [\n  '
        + ",\n  ".join(rows) + "\n]}\n")
    sys.stdout.write(ea.analysis.render_feasibility_table(
        result, params["n_values"], params["k_values"]))
