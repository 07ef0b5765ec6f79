"""Stochastic Schrodinger and master equations driven by OU colored noise.

The package splits into a small stack: ``linalg`` (dense operator
helpers), ``noise`` (time grids, seeding, Wiener/OU sampling),
``model`` (operator polynomials, and the per-power coefficients the
steppers run, cached once per model),
``dynamics`` (the one Euler-Maruyama step kernel per mode, batched over
columns, and the single-trajectory surface on top of it: ``step(mode,
...)`` and ``propagate(mode, ...)``),
``ensemble`` (deterministic Monte Carlo averages, and the check
battery of ``ousse verify``: its suites, pass rule and report rule),
``oracle`` (independent closed-form references), ``parallel`` (chunk
maps over worker processes) and ``cli``/``config`` (the command-line
surface).
"""

from .errors import ConfigError, DivergenceError, OusseError, ValidationError
from .linalg import (
    PSD_TOL,
    TRACE_TOL,
    anticommutator,
    check_density_matrix,
    commutator,
    dagger,
    expectation,
    hermitian_residual,
    hermitian_tolerance,
    matrix_exp,
    outer,
    sigma_minus,
    sigma_plus,
    sigma_x,
    sigma_y,
    sigma_z,
)
from .noise import (
    SeedPolicy,
    TimeGrid,
    gaussians,
    ou_covariance,
    ou_path,
    refine_increments,
    sample_ou_values,
    sample_wiener,
)
from .model import (
    MAX_DEGREE,
    ModelSpec,
    OperatorPolynomial,
    girsanov_drift,
    make_measurement_model,
    make_random_hamiltonian,
)
from .dynamics import (
    MAX_STEPS,
    MODES,
    DensityTrajectory,
    Trajectory,
    exact_commuting_solution,
    lindblad_apply,
    propagate,
    step,
)
from .ensemble import (
    CheckEntry,
    CheckReport,
    EnsembleEstimate,
    girsanov_crosscheck,
    martingale_check,
    mean_equation_residual,
    observable_series,
    ou_covariance_check,
    run_ensemble,
)
from .oracle import (
    Liouvillian,
    build_liouvillian,
    dephasing_coherence,
    hvec,
    propagate_lindblad,
    unhvec,
    unvec,
    vec,
)
from .config import CheckConfig, ExperimentConfig, parse_config

__version__ = "0.1.0"
