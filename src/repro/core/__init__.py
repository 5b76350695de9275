"""GEF — GAM-based Explanation of Forests (the paper's contribution)."""

from .comparison import ConsistencyReport, compare_with_shap
from .config import (
    INTERACTION_STRATEGY_NAMES,
    KERNEL_VERSION,
    SAMPLING_STRATEGY_NAMES,
    GEFConfig,
    explain_config_hash,
)
from .dataset import ExplanationDataset, generate_dataset, sample_instances
from .errors import (
    FitDivergenceError,
    ForestValidationError,
    ReproError,
    SamplingError,
    SelectionError,
    StageFailureError,
    StageTimeoutError,
)
from .explainer import GEF
from .explanation_io import (
    canonical_json,
    explanation_digest,
    explanation_from_dict,
    explanation_to_dict,
    load_explanation,
    save_explanation,
    strip_stage_timings,
)
from .explanation import (
    ComponentCurve,
    GEFExplanation,
    LocalContribution,
    LocalExplanation,
)
from .feature_selection import (
    feature_thresholds,
    forest_feature_gains,
    forest_split_counts,
    select_univariate,
)
from .gam_builder import (
    DEGRADATION_LADDER,
    build_gam,
    build_terms,
    is_categorical,
)
from .report import explanation_report
from .robustness import (
    FeatureSensitivity,
    MinimalShift,
    minimal_shift,
    sensitivity_profile,
)
from .stability import StabilityReport, stability_analysis
from .tuning import ComponentSweep, suggest_components
from .interactions import (
    candidate_pairs,
    count_path_scores,
    gain_path_scores,
    h_stat_scores,
    pair_gain_scores,
    rank_interactions,
    select_interactions,
)
from .sampling import (
    all_thresholds_domain,
    build_domain,
    build_sampling_domains,
    equi_size_domain,
    equi_width_domain,
    k_means_domain,
    k_quantile_domain,
)
from .stages import (
    StageAttempt,
    StageRecord,
    StageReport,
    clear_stage_hooks,
    get_stage_hook,
    set_stage_hook,
)
from .validate import ForestValidationReport, validate_domains, validate_forest

__all__ = [
    "ComponentCurve",
    "ComponentSweep",
    "ConsistencyReport",
    "DEGRADATION_LADDER",
    "FeatureSensitivity",
    "FitDivergenceError",
    "ForestValidationError",
    "ForestValidationReport",
    "MinimalShift",
    "ReproError",
    "SamplingError",
    "SelectionError",
    "StabilityReport",
    "StageAttempt",
    "StageFailureError",
    "StageRecord",
    "StageReport",
    "StageTimeoutError",
    "minimal_shift",
    "sensitivity_profile",
    "stability_analysis",
    "suggest_components",
    "ExplanationDataset",
    "compare_with_shap",
    "explanation_report",
    "GEF",
    "GEFConfig",
    "GEFExplanation",
    "INTERACTION_STRATEGY_NAMES",
    "KERNEL_VERSION",
    "LocalContribution",
    "LocalExplanation",
    "SAMPLING_STRATEGY_NAMES",
    "all_thresholds_domain",
    "build_domain",
    "build_gam",
    "build_sampling_domains",
    "build_terms",
    "candidate_pairs",
    "clear_stage_hooks",
    "count_path_scores",
    "equi_size_domain",
    "equi_width_domain",
    "canonical_json",
    "explain_config_hash",
    "explanation_digest",
    "explanation_from_dict",
    "explanation_to_dict",
    "load_explanation",
    "save_explanation",
    "strip_stage_timings",
    "feature_thresholds",
    "forest_feature_gains",
    "forest_split_counts",
    "gain_path_scores",
    "generate_dataset",
    "get_stage_hook",
    "h_stat_scores",
    "set_stage_hook",
    "is_categorical",
    "k_means_domain",
    "k_quantile_domain",
    "pair_gain_scores",
    "rank_interactions",
    "sample_instances",
    "select_interactions",
    "select_univariate",
    "validate_domains",
    "validate_forest",
]
