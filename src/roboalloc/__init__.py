"""Regularized mean-variance allocation engine for automated rebalancing."""

from .admm import (
    AdmmParams,
    solve_cardinality,
    solve_mixed_lp,
)
from .calibration import (
    RidgeRegressionData,
    ScoreSet,
    gcv,
    kfold_cv,
    make_grid,
    max_te_from_vol,
    press,
    te_level_rule,
)
from .market_data import (
    MomentEstimates,
    ReturnPanel,
    WeightScheme,
    condition_number,
    eigen_decompose,
    estimate_moments,
    read_panel_csv,
)
from .mvo import (
    ConstraintSet,
    MvoInputs,
    StevensReport,
    calibrate_gamma,
    constant_correlation_r2,
    implied_returns,
    jagannathan_ma_shrinkage,
    max_sharpe_bound,
    sharpe_ratio,
    solve_gamma_problem,
    stevens_decomposition,
    te_transform,
)
from .pipeline import (
    PathTable,
    RoboConfig,
    rebalance,
    regularization_path,
    te_target_to_gamma,
    tracking_error,
)
from .prox import (
    AffineSet,
    Box,
    Halfspace,
    Hyperplane,
    Intersection,
    L1Ball,
    L2Ball,
    LinfBall,
    Simplex,
    project,
    project_cardinality,
    project_hyperplane_intersection,
    project_intersection,
    prox_l1,
    prox_lp,
    prox_norm_moreau,
)
from .qp import QpProblem, augment_l1, solve_qp
from .regularizers import (
    FilterSpec,
    PenaltySpec,
    filtered_normal_solve,
    ledoit_wolf_to_tikhonov,
    ridge_mvo,
    shrunk_correlation,
    spectral_filter,
    tikhonov_solve,
)
from .report import SolveReport
from .views import ViewSet, bl_conditional, grades_to_expected_returns

__version__ = "0.1.0"
