"""Finite-difference laboratory for the heat equation with Neumann boundary
conditions: explicit Euler schemes on grids of any number of axes, closed-form
spectral analysis of the discrete Laplacian, steady-state solvers for the
singular pure-Neumann problem, and a convergence-order harness."""

from .errors import (CflViolationError, GridMismatchError,
                     IncompatibleProblemError, InstabilityError,
                     SeriesTruncationError)
from .grid import (Field, Field1D, Field2D, Grid, Grid1D, grid_for, inner, mean,
                   mean2d, norm2d, norm_l2, ones, project, project2d)
from .spectral import (NeumannLaplacian1D, amplification_bound_check, cfl_ok,
                       eigenvalue, eigenvalues, eigenvector, eta,
                       eta_geometric_sum, heat_kernel_spectrum_sum,
                       resolvent_power_sum)
from .exact import (CosineSeries, GaussianProblem, SteadyState1D,
                    companion_w, cosine_mode, gaussian_2d, hat_function,
                    poly_bump, steady_1d, trig_poly)
from .consistency import l1, l2, l_delta, split_defect
from .scheme1d import (Checkpoint, DiscreteRHS, ForcedProblem, NonhomogProblem,
                       RunState, build_rhs, check_compatibility, new_run, propagate,
                       run_to, solve_steady_iterative, solve_steady_laplace)
from .scheme2d import Problem2D, build_rhs2d, run2d_to, solve_steady_2d
from .harness import (ErrorRecord, ExperimentConfig, SlopeFit, bound_sweep,
                      default_config, emit_csv, epsilon_diagnostics,
                      estimate_slope, quadrature_inequality_check, run_convergence)

__version__ = "0.1.0"
