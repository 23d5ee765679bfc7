"""Robust confidence distributions and curves from proper scoring rules."""

from .confidence import (
    ConfidenceInterval,
    ConfidenceObject,
    ProfileTrace,
    build_cd,
    ci,
    constrained_fit,
    evidence,
    p_value,
    pivot_root,
    pivot_wald,
    profile,
)
from .errors import DomainError, NumericsError
from .expfam import (
    BoundednessReport,
    ExpFamilyModel,
    expfam_beta,
    expfam_exponential,
    expfam_gamma,
    expfam_normal,
    expfam_robustness_check,
)
from .models import (
    ExponentialAUC,
    LinearRegression,
    ModelSpec,
    NormalAUC,
    TwoSampleNormal,
    auc_from_normal,
    auc_from_rates,
    get_model,
    tsallis_integral_exponential,
    tsallis_integral_normal,
)
from .robustness import (
    TAIFProfile,
    calibrate_gamma,
    efficiency_ratio,
    influence_function,
    taif,
    taif_contamination_oracle,
)
from .scoring import (
    Fit,
    PartitionedInfo,
    ScoreRule,
    eigenvalues_JKinv,
    estimate_KJ,
    fit,
    interest_information,
    partitioned_info,
    per_obs_gradient,
    score_gradient,
    total_score,
)
from .simulate import (
    Contamination,
    H0Spec,
    MethodSpec,
    SimDesign,
    SimReport,
    contaminate,
    pvalue_uniformity,
    run_study,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
