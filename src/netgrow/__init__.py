"""netgrow: widen feedforward networks without changing what they compute.

The package provides the widening maps (inert, constant, split), machine
checks of their risk- and stationarity-preservation guarantees, an
incremental training loop that exploits the one map that does NOT preserve
stationarity, and a benchmark harness with performance profiles.
"""

from .autodiff import (
    grad_norm_inf,
    gradient_finite_diff,
    gradient_forward,
    risk_and_gradient,
    risk_objective,
)
from .bench import (
    BenchResult,
    IncrementalSolver,
    ProfileCurve,
    RatioMatrix,
    ResultsTable,
    StandardSolver,
    cell_seed,
    load_results_tsv,
    performance_profile,
    performance_ratio,
    run_benchmark,
    save_profile_tsv,
    save_results_tsv,
    save_stats_tsv,
    summary_stats,
)
from .data import Dataset, ParseError, load_delimited, make_synthetic, save_delimited, standardize
from .growth import (
    ConstantGrowth,
    GrowthPlan,
    GrowthSpec,
    GrowthStep,
    InertGrowth,
    SplitGrowth,
    added_param_count,
    apply_growth,
    apply_plan,
    grow_constant,
    grow_inert,
    grow_split,
    random_growth,
)
from .incremental import (
    GrowthEscapeError,
    ItaConfig,
    StageRecord,
    TrainRun,
    ita_train,
    standard_train,
)
from .model_io import load_model, load_model_text, save_model, save_model_text
from .net_core import (
    IDENTITY,
    MSE,
    TANH,
    ActivationFunction,
    ActivationRecord,
    LossFunction,
    ParamVector,
    Topology,
    build_topology,
    empirical_risk,
    forward,
    forward_batch,
    param_count,
)
from .optimizer import (
    LbfgsConfig,
    LineSearchError,
    NumericalError,
    OptimResult,
    lbfgs_minimize,
    line_search_strong_wolfe,
)
from .stationarity import (
    NonConvergenceError,
    StationarityReport,
    count_manifold_families,
    escape_rate,
    find_stationary_point,
    risk_gap_report,
    transfer_safe_spec,
    verify_loss_invariance,
    verify_stationarity_transfer,
)

__version__ = "0.1.0"
