"""Identified sets for Kendall's tau under missing data of unknown form.

With incomplete bivariate data and no assumption on why cells are missing,
tau is only partially identified. This package computes the worst-case
interval (which provably always brackets zero, so it can never certify
dependence), the tighter interval available when the joint probability of
both variables falling below their medians is known, and the marginal-CDF
envelopes used when even the margins are unknown. A simulation engine for
logit-driven missingness and a command-line interface are included.
"""

__version__ = "0.1.0"

from .bounds import (
    Decision,
    DistSummary,
    StepFunction,
    SteppedCdfBounds,
    TauInterval,
    ThetaSummary,
    clip,
    decide,
    envelope_summary,
    marginal_cdf_bounds,
    refined,
    worst_case,
)
from .concordance import HAVE_COMPILED_KERNEL, kendall_tau
from .copulas import (
    CopulaSpec,
    constrained_lower,
    constrained_upper,
    sample_copula,
)
from .data import Dataset, read_csv, write_csv
from .errors import (
    CsvFormatError,
    DomainError,
    EmptyDataError,
    InvalidSummaryError,
    MarginTableError,
    TauBoundsError,
    TieError,
    TiedDataWarning,
    UnsupportedAnalysisError,
)
from .estimator import AnalysisReport, CdfTable, MarginKind, MarginMode, analyze, summarize
from .mgp import (
    SCENARIOS,
    CovariateScale,
    MgpConfig,
    PopulationBounds,
    Scenario,
    ThetaMismatchWarning,
    median_joint_prob,
    population_bounds,
    population_bounds_quadrature,
    population_bounds_sweep,
    propensity,
    scenario_manifest,
    simulate_dataset,
    true_tau,
)

__all__ = [
    "__version__",
    "Decision", "DistSummary", "StepFunction", "SteppedCdfBounds",
    "TauInterval", "ThetaSummary", "clip", "decide", "envelope_summary",
    "marginal_cdf_bounds", "refined", "worst_case",
    "HAVE_COMPILED_KERNEL", "kendall_tau",
    "CopulaSpec", "constrained_lower", "constrained_upper", "sample_copula",
    "Dataset", "read_csv", "write_csv",
    "CsvFormatError", "DomainError", "EmptyDataError", "InvalidSummaryError",
    "MarginTableError", "TauBoundsError", "TieError",
    "TiedDataWarning", "UnsupportedAnalysisError",
    "AnalysisReport", "CdfTable", "MarginKind", "MarginMode", "analyze", "summarize",
    "SCENARIOS", "CovariateScale", "MgpConfig", "PopulationBounds", "Scenario",
    "ThetaMismatchWarning", "median_joint_prob", "population_bounds",
    "population_bounds_quadrature", "population_bounds_sweep", "propensity",
    "scenario_manifest", "simulate_dataset", "true_tau",
]
