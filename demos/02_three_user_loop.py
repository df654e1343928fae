#!/usr/bin/env python3
"""The 3-user shortcut: one N x N eigenproblem instead of a 3N x 3N one.

Composing the pairwise alignment constraints around the user cycle gives
the loop matrix; its eigenvectors are valid first precoders and the rest
follow by back-substitution. Works for odd N directly (here N = 3), and
every nonzero eigenvalue of the big stacked matrix, cubed, lands on the
loop spectrum.
"""

import numpy as np

import eigenalign as ea

for n in (2, 3):
    net = ea.generate(ea.NetworkDims(3, n, n), seed=11)
    print(f"== {n}x{n} channels ==")
    mat = ea.loop_matrix(net)
    values = ea.eig_general(mat)[0]
    print("loop matrix eigenvalues:", np.round(values, 4))

    sol = ea.solve_loop_method(net)
    report = ea.verify(net, sol)
    print(f"loop method: verify {'PASS' if report.passed else 'FAIL'},"
          f" max residual {report.residuals.max():.3e}")

    check = ea.cube_relation_check(net)
    print(f"cube relation: {len(check.matches)} stacked eigenvalues matched,"
          f" worst relative mismatch {check.worst_mismatch:.3e}\n")
