"""Sparse regularization with convexity-preserving non-convex penalties.

Scalar and multivariate Huber/MC penalty families, firm thresholding, a
matrix-free forward-backward saddle-point solver, and reproducible
frame-denoising experiments.
"""

from .exceptions import ConvergenceError
from .experiments import (
    DenoiseResult,
    ExperimentSpec,
    Signal,
    StftDemoReport,
    StftDemoSpec,
    SweepAggregate,
    SweepRecord,
    SweepResult,
    add_awgn,
    aggregate,
    coefficient_clusters,
    denoise_frame,
    gaussian_draws,
    make_chirp,
    make_two_sine,
    nonzero_count,
    read_records_csv,
    rmse,
    run_stft_demo,
    run_sweep,
    write_aggregates_csv,
    write_records_csv,
)
from .operators import (
    DenseOperator,
    DftFrameOperator,
    LinearOperator,
    ScaledOperator,
    StftFrameOperator,
    estimate_gram_norm,
)
from .penalties import (
    GmcPenalty,
    InnerSolution,
    build_b_from_a,
    eval_generalized_huber,
    eval_generalized_huber_many,
    eval_gmc,
    eval_gmc_many,
    grad_generalized_huber,
    in_quadratic_region,
)
from .scalar import (
    FirmParams,
    ScalarPenaltyParams,
    firm,
    huber,
    huber_via_min3,
    scalar_convexity_holds,
    scalar_minimize,
    scaled_huber,
    scaled_mc,
    soft,
)
from .solvers import (
    SaddleState,
    SolveConfig,
    SolveReport,
    cost_value,
    cost_value_many,
    debias_on_support,
    diagonal_solve,
    gmc_solve,
    ista_solve,
    solve_many,
)

__version__ = "0.1.0"
