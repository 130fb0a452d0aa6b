"""Mild-solution solver for neutral delay evolution equations.

The state lives in the eigenbasis of a diagonal generator with strictly
positive decay rates; the delayed nonlinearities come from a small
declarative registry.  Solutions are advanced window-by-window by fixed-point
iteration of the mild integral operator and continued until the trajectory
reaches the boundary of its admissible domain (or the horizon).
"""

from .continuation import TerminationEvent, Trajectory, continue_solution, refine_boundary_time
from .errors import (
    DomainViolation,
    HypothesisViolation,
    InsufficientSamples,
    InvalidInitialData,
    NumericalBlowup,
    OracleUnavailable,
    SchemaError,
    StitchingError,
)
from .history import (
    Segment,
    SegmentStack,
    SolutionPath,
    extend,
    integral_norm_functional,
    max_norm_functional,
    segment_at,
    sup_norm,
)
from .oracle import ManufacturedCase, compare, dense_reference_solve, make_manufactured
from .problem import (
    DomainSpec,
    FunctionalAffineTerm,
    Membership,
    NeutralProblem,
    PointDelayTerm,
    TimeFn,
    TimeForcingTerm,
    WindowFns,
    ZeroTerm,
    check_neutral_smallness,
    current_value_window,
    estimate_lipschitz_mg,
    full_history_window,
    sine_profile_coeffs,
)
from .solver import (
    RunFrame,
    SolverConfig,
    WindowFrame,
    WindowResult,
    cell_weights,
    evaluate_window_operator,
    exp_convolution,
    generator_convolution,
    heuristic_window,
    sample_neutral_contraction,
    semigroup_convolution,
    solve_window,
)
from .spectral import (
    AbstractBasis,
    DirichletSineBasis,
    SpectralOperator,
    make_dirichlet_laplacian,
    semigroup_bound_constant,
)

__version__ = "0.1.0"
