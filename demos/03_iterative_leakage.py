#!/usr/bin/env python3
"""Alternating leakage minimization as a feasibility probe.

On a feasible network the leakage collapses to numerical zero; on an
infeasible one it plateaus. A closed-form solution fed as warm start is a
fixed point: the iteration cannot improve on exact alignment.
"""

import eigenalign as ea

print("== feasible: 3 users, 2x2 ==")
net = ea.generate(ea.NetworkDims(3, 2, 2), seed=42)
cfg = ea.IterativeConfig(d=(1, 1, 1), max_iters=5000, leakage_tol=1e-6, seed=42)
trace = ea.iterate(net, cfg)
for t in (0, 1, 5, 20, trace.iterations):
    print(f"  iteration {t:>4}: leakage {trace.leakage[min(t, trace.iterations)]:.3e}")
print(f"  converged={trace.converged} after {trace.iterations} iterations")

print("\n== infeasible: 4 users, 2x2 ==")
net4 = ea.generate(ea.NetworkDims(4, 2, 2), seed=42)
cfg4 = ea.IterativeConfig(d=(1,) * 4, max_iters=5000, leakage_tol=1e-6, seed=42)
trace4 = ea.iterate(net4, cfg4)
for t in (0, 10, 100, 1000, trace4.iterations):
    print(f"  iteration {t:>4}: leakage {trace4.leakage[min(t, trace4.iterations)]:.3e}")
print(f"  converged={trace4.converged}: the leakage stalls well above zero")

print("\n== warm start from the closed form ==")
sol = ea.solve_eigen_method(net)
report = ea.warm_start_check(net, sol)
print(f"  initial leakage {report.initial_leakage:.3e}, max over 100"
      f" iterations {report.max_leakage:.3e} -> fixed point"
      f" {'held' if report.passed else 'broken'}")
