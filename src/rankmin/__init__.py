"""Solvers and experiment tooling for rank-constrained matrix estimation:
minimize a smooth f(X) over matrices of fixed rank r, with projected
gradient descent, a perturbed variant that escapes saddle points through
tangent-space steps, factored baselines, and a matrix-sensing harness."""

from .geometry import (
    FactoredMatrix,
    RankProjectionError,
    RetractionUndefinedError,
    TangentVector,
    project_psd_rank_r,
    project_rank_r,
    project_tangent,
    pullback_hessian,
    pullback_hessian_min_eig,
    pullback_value_grad,
    retract,
    tangent_dim,
)
from .objectives import (
    Objective,
    QuadraticObjective,
    SensingObjective,
    SensingProblem,
    generate_sensing,
    haar_frame,
    make_rng,
    quadratic_objective,
    random_ground_truth,
    sensing_objective,
    spectral_init,
)
from .solvers import (
    ALGORITHMS,
    PprojgdParams,
    SolverConfig,
    SolverTrace,
    TraceRecord,
    fgd_step,
    pprojgd,
    projgd_step,
    run_solver,
    scaledgd_step,
    tangent_space_steps,
)
from .diagnostics import (
    BudgetExceededError,
    DescentReport,
    ProjectionReport,
    SecondOrderCertificate,
    StationaryPoint,
    certify_second_order,
    check_descent_lemma,
    check_projection_lemma,
    estimate_linear_rate,
    landscape_probe,
    swapped_direction_saddle,
)
from .harness import (
    ExperimentSpec,
    PACKAGE_VERSION as __version__,
    PRESETS,
    SpecFileError,
    parse_spec_file,
    parse_spec_text,
    read_trace_csv,
    render_dir,
    run_experiment,
    spec_to_text,
)
from .verify import CriterionResult, verify_suite
