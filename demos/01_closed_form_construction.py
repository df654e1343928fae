#!/usr/bin/env python3
"""Walk through the stacked eigenvalue construction on a 3-user 2x2 network.

Draws a random network with K = N + 1 = 3 users, assembles the stacked
system, solves for aligned precoders, and checks the zero-forcing
conditions directly.
"""

import numpy as np

import eigenalign as ea

net = ea.generate(ea.NetworkDims(3, 2, 2), seed=42)
print(f"network: K={net.dims.k} users, {net.dims.n_r}x{net.dims.n_t} channels,"
      f" seed={net.seed}")

compensated = ea.build_stacked(net)
print(f"\nstacked system is {compensated.shape[0]}x"
      f"{compensated.shape[1]}; zero blocks sit on the diagonal and"
      " one shifted column per block row:")
n = net.dims.n_t
for r in range(3):
    marks = []
    for c in range(3):
        block = compensated[r * n:(r + 1) * n, c * n:(c + 1) * n]
        marks.append("O" if np.abs(block).max() == 0 else "#")
    print("   " + " ".join(marks))

sol = ea.solve_eigen_method(net)
print(f"\nselected eigenvalue: {sol.eigenvalue:.6f}")
print("per-user unit-norm precoders (rows):")
print(np.round(sol.precoders, 4))
print("zero-forcing combiners (rows):")
print(np.round(sol.combiners, 4))

print("\ncross-link leak-through |u_i^H H_ij v_j| (should all be ~0):")
for i in range(3):
    row = []
    for j in range(3):
        if i == j:
            row.append("   direct   ")
        else:
            leak = abs(sol.combiners[i].conj() @ net.h[i, j] @ sol.precoders[j])
            row.append(f"{leak:.3e}")
    print("   " + "  ".join(row))

report = ea.verify(net, sol)
print(f"\nverify: {'PASS' if report.passed else 'FAIL'}"
      f" (max residual {report.residuals.max():.3e},"
      f" min direct gain {report.rank_metrics.min():.3f})")
