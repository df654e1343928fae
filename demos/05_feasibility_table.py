#!/usr/bin/env python3
"""Sweep the (N, K) grid with the iterative probe.

Reduced to 5 seeds and 3000 iterations per cell so it finishes in a few
seconds; the acceptance suite runs the full 20 x 5000 version. Cells with
K <= 2N - 1 converge; the clearly over-packed cells stall above the
infeasibility threshold, and the marginal cells (K = 2N for N >= 3)
plateau in between, which the table reports as inconclusive.
"""

import eigenalign as ea

N_VALUES = [2, 3, 4]
K_VALUES = [3, 4, 5, 6, 7, 8]

result = ea.feasibility_sweep(N_VALUES, K_VALUES, seeds=5, max_iters=3000,
                              progress=lambda r: print(
                                  f"  N={r.n_t} K={r.k} seed={r.seed}:"
                                  f" {r.verdict} (leakage"
                                  f" {r.final_leakage:.2e} after"
                                  f" {r.iterations} iterations)"))

print()
print(ea.render_feasibility_table(result, N_VALUES, K_VALUES))
