"""Matched differences-in-differences analysis with sensitivity bounds.

The package covers the full pipeline: three-stage optimal matching into
quadruples (a pre-period pair joined to a post-period pair), randomization
inference on the quadruple contrasts, worst-case sensitivity analysis in
one or two bias parameters with an amplification map between them, a
binary-outcome route through McNemar-style machinery, and Monte Carlo
generators for validating all of it.
"""

from .binary import (
    EligibilityReport,
    binary_two_param_bounds,
    eligibility_report,
    eligible_quadruples,
    mcnemar_sensitivity_pvalue,
)
from .core import (
    MatchedPair,
    QuadrupleSet,
    UnitRecord,
    validate_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateDataError,
    DidsensError,
    InfeasibleMatchError,
    StructuralError,
)
from .inference import (
    ScoreFunction,
    TestResult,
    hodges_lehmann,
    invert_ci,
    randomization_pvalue,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .matching import (
    BalanceReport,
    BalanceRow,
    BalanceSpec,
    CrossMatchDetails,
    NominalRule,
    balance_report,
    cross_balance_report,
    cross_period_match,
    pair_summaries,
    pooled_sd,
    within_period_match,
)
from .sensitivity import (
    SignProbabilityBounds,
    amplify_did,
    amplify_paired,
    changepoint_gamma,
    did_gamma_from,
    estimate_bounds,
    one_param_bounds,
    paired_gamma_from,
    sate_pvalue,
    two_param_bounds,
    upper_pvalues,
    worst_case_pvalue,
)
from .simulate import (
    AnalysisPlan,
    BinaryDesign,
    ContinuousDesign,
    StudyResult,
    generate_binary,
    generate_continuous,
    level_power_study,
    quadruples_from_records,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisPlan",
    "BalanceReport",
    "BalanceRow",
    "BalanceSpec",
    "BinaryDesign",
    "ConfigError",
    "ContinuousDesign",
    "CrossMatchDetails",
    "DataError",
    "DegenerateDataError",
    "DidsensError",
    "EligibilityReport",
    "InfeasibleMatchError",
    "KERNEL_BACKEND",
    "MatchedPair",
    "NominalRule",
    "QuadrupleSet",
    "ScoreFunction",
    "SignProbabilityBounds",
    "StructuralError",
    "StudyResult",
    "TestResult",
    "UnitRecord",
    "amplify_did",
    "amplify_paired",
    "balance_report",
    "binary_two_param_bounds",
    "changepoint_gamma",
    "cross_balance_report",
    "cross_period_match",
    "did_gamma_from",
    "eligibility_report",
    "eligible_quadruples",
    "estimate_bounds",
    "generate_binary",
    "generate_continuous",
    "hodges_lehmann",
    "invert_ci",
    "level_power_study",
    "mcnemar_sensitivity_pvalue",
    "one_param_bounds",
    "paired_gamma_from",
    "pair_summaries",
    "pooled_sd",
    "quadruples_from_records",
    "randomization_pvalue",
    "sate_pvalue",
    "two_param_bounds",
    "upper_pvalues",
    "validate_dataset",
    "within_period_match",
    "worst_case_pvalue",
]
