"""Interference alignment for constant K-user MIMO interference channels.

Construct aligned precoders in closed form through a stacked eigenvalue
problem (square N x N channels, K = N + 1 users, one stream each), use the
3-user loop shortcut, probe general dimensions with alternating leakage
minimization, demonstrate the 4-user 2x2 impossibility, and sweep the
(N, K) grid against the dimension-count feasibility rule.
"""

from .analysis import (FeasibilityRecord, InfeasibilityReport, RatePoint,
                       SweepResult, feasibility_sweep, infeasibility_demo,
                       predicted_feasible, records_table,
                       render_feasibility_table, sum_rate_curve)
from .channel import (InterferenceNetwork, NetworkDims, deserialize,
                      generate, serialize)
from .closed_form import (AlignmentSolution, CubeRelationReport,
                          VerificationReport, build_stacked,
                          cube_relation_check, loop_matrix,
                          solution_from_document, solution_to_document,
                          solve_eigen_method, solve_loop_method, verify)
from .errors import (ConfigMismatch, DimensionMismatch, EigenalignError,
                     EmptyNullSpace, MalformedDocument, NoUsableEigenpair,
                     RankDeficientSolution, ShapeMismatch, SingularChannel,
                     UnverifiedSolution)
from .iterative import (IterativeConfig, LeakageTrace, WarmStartReport,
                        iterate, warm_start_check)
from .linalg import eig_general

__version__ = "0.1.0"

__all__ = [
    "AlignmentSolution", "ConfigMismatch", "CubeRelationReport",
    "DimensionMismatch", "EigenalignError", "EmptyNullSpace",
    "FeasibilityRecord", "InfeasibilityReport", "InterferenceNetwork",
    "IterativeConfig", "LeakageTrace", "MalformedDocument", "NetworkDims",
    "NoUsableEigenpair", "RankDeficientSolution", "RatePoint", "ShapeMismatch",
    "SingularChannel", "SweepResult", "UnverifiedSolution",
    "VerificationReport", "WarmStartReport",
    "build_stacked", "cube_relation_check", "deserialize", "eig_general",
    "feasibility_sweep", "generate", "infeasibility_demo", "iterate",
    "loop_matrix", "predicted_feasible", "records_table",
    "render_feasibility_table", "serialize", "solution_from_document",
    "solution_to_document", "solve_eigen_method", "solve_loop_method",
    "sum_rate_curve", "verify", "warm_start_check",
]
