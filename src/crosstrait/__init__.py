"""Cross-trait polygenic score simulation and bias-corrected genetic
correlation estimation.

The package simulates GWAS cohorts under a sparse polygenic model, computes
marginal summary statistics, builds (optionally screened) polygenic risk
scores, estimates genetic correlation with cosine-type raw estimators, and
applies closed-form corrections for the attenuation those estimators suffer
in high dimensions - including screened-SNP and overlapping-sample designs.
Closed-form moment oracles and a replicable Monte-Carlo experiment runner
validate every correction.
"""

__version__ = "0.1.0"

from .errors import (
    CorrectionUnavailableError,
    CrosstraitError,
    DataFormatError,
    DegenerateRegimeRefusal,
    DegenerateScoreError,
    ExperimentError,
    GenerationError,
    ParameterError,
)
from .estimators import (
    CorrelationEstimate,
    DesignMeta,
    R2Correction,
    ScreenCounts,
    bias_factor,
    bias_factor_ab,
    bias_factor_ae,
    bias_factor_summary_ab,
    correct,
    correct_partial_r2,
    overlap_factor_case_i,
    overlap_factor_case_ii,
    raw_cosine,
    regime_flag,
    screened_factor_ab,
    screened_factor_ae,
)
from .experiments import ExperimentConfig, ExperimentResult, aggregate, run
from .gwas import ScreenMetrics, Selection, SummaryStats, marginal_gwas, screen_metrics, threshold_select
from .moments import MomentCheckReport, MomentPrediction, monte_carlo_check_many, predict
from .prs import PrsVector, ScreenRule, score
from .rng import substream
from .synth import (
    CohortBundle,
    CohortSizes,
    EffectVector,
    GenotypeMatrix,
    OverlapDesign,
    Phenotype,
    TraitArchitecture,
    gen_effects,
    gen_genotypes,
    gen_independent_cohorts,
    gen_overlapping_cohorts,
    gen_phenotype,
)
