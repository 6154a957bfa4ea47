"""causalkit: causal-effect estimators with a numerical influence-function engine.

The package has two halves that check each other.  The estimation half
implements the standard ATE estimator family (naive difference in means,
IPW, g-formula, propensity matching, and cross-fitted doubly robust AIPW)
plus quasi-experimental designs (DID, regression discontinuity, IV, fixed
effects), all driven by synthetic data generators with analytically known
ground truth.  The calculus half differentiates statistical functionals
numerically over finite discrete measures, recovering influence functions
by Gateaux derivative and verifying the closed forms, the central identity,
one-step correction, and the second-order remainder bound that underwrites
double robustness.
"""

from .ate_estimators import (
    MatchSpec,
    aipw,
    eif_se,
    g_formula,
    ipw,
    naive_dim,
    psm_att,
)
from .data_model import (
    Estimate,
    GroundTruth,
    IvDataset,
    ObservationalDataset,
    PanelDataset,
    format_number,
    load_csv,
    load_iv_csv,
    load_panel_csv,
    normal_ci,
    write_csv,
    write_ground_truth_csv,
    write_iv_csv,
    write_panel_csv,
)
from .dgp import (
    IvDgpConfig,
    ObsDgpConfig,
    PanelDgpConfig,
    RdDgpConfig,
    generate_iv,
    generate_observational,
    generate_panel,
    generate_rd,
)
from .eif_engine import (
    Ate,
    CondMean,
    CounterfactualMean,
    DiscreteMeasure,
    Functional,
    Mean,
    central_identity_check,
    closed_form_eif,
    eif_table,
    factorize_score,
    gateaux_if,
    make_functional,
    mix,
    one_step,
    pathwise_derivative,
    random_score,
    score_of_path,
    second_order_remainder,
    step_schedule,
)
from .errors import CausalKitError, EstimationError, InputError
from .montecarlo import (
    ErrorDecomposition,
    EstimatorSummary,
    McConfig,
    McReport,
    dr_suite,
    error_decomposition,
    run_mc,
    scenario_feature_maps,
    summarize_estimator,
    weak_iv_study,
)
from .nuisance import (
    FoldAssignment,
    NuisanceFit,
    apply_feature_map,
    cross_fit,
    fit_linear,
    fit_logistic,
    make_folds,
)
from .quasi_experimental import (
    RdSpec,
    did,
    did_placebo,
    fe_within,
    iv_wald,
    rd_local_linear,
    tsls,
)
from .rng import child_seed, stream

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data model
    "ObservationalDataset",
    "GroundTruth",
    "Estimate",
    "PanelDataset",
    "IvDataset",
    "load_csv",
    "load_iv_csv",
    "load_panel_csv",
    "write_csv",
    "write_iv_csv",
    "write_panel_csv",
    "write_ground_truth_csv",
    "format_number",
    "normal_ci",
    # dgp
    "ObsDgpConfig",
    "IvDgpConfig",
    "PanelDgpConfig",
    "RdDgpConfig",
    "generate_observational",
    "generate_iv",
    "generate_panel",
    "generate_rd",
    # nuisance
    "fit_logistic",
    "fit_linear",
    "make_folds",
    "cross_fit",
    "apply_feature_map",
    "FoldAssignment",
    "NuisanceFit",
    # ate estimators
    "naive_dim",
    "ipw",
    "g_formula",
    "psm_att",
    "aipw",
    "eif_se",
    "MatchSpec",
    # quasi-experimental
    "did",
    "did_placebo",
    "rd_local_linear",
    "iv_wald",
    "tsls",
    "fe_within",
    "RdSpec",
    # eif engine
    "DiscreteMeasure",
    "Functional",
    "Mean",
    "CondMean",
    "CounterfactualMean",
    "Ate",
    "make_functional",
    "mix",
    "score_of_path",
    "random_score",
    "factorize_score",
    "gateaux_if",
    "eif_table",
    "closed_form_eif",
    "pathwise_derivative",
    "central_identity_check",
    "one_step",
    "second_order_remainder",
    "step_schedule",
    # monte carlo
    "McConfig",
    "McReport",
    "run_mc",
    "dr_suite",
    "error_decomposition",
    "scenario_feature_maps",
    "summarize_estimator",
    "weak_iv_study",
    "ErrorDecomposition",
    "EstimatorSummary",
    # infrastructure
    "stream",
    "child_seed",
    "CausalKitError",
    "InputError",
    "EstimationError",
]
