"""Corpus-scale structural analysis of Java source trees.

Extracts an entity/relation fact model from source, computes per-project
OO metrics, fits log-power scaling models with diagnostics and robust
variants, runs binned Welch analyses, and produces size-independent
normalized metrics.
"""

from .extractor import extract_corpus, extract_project
from .facts import EntityKind, FactRelation, ProjectFacts, RelationKind, SourceEntity
from .javalex import count_sloc
from .metrics import (
    DEFAULT_JDK_PREFIXES,
    METRIC_COLUMNS,
    ProjectMetrics,
    compute_metrics,
    measure,
)
from .normalize import beta_normalize, decorrelation_report, wmc_summary
from .regression import (
    Diagnostics,
    FitResult,
    ModelEval,
    diagnostics,
    evaluate_nrmse,
    filter_by_size,
    fit_log_power,
    fit_robust_log_power,
    nrmse,
    pearson,
    predict,
    spearman,
)
from .stats import (
    BinSummary,
    WelchResult,
    bin_by,
    inverse_normal_cdf,
    log_ratio_summary,
    student_t_cdf,
    welch_t_test,
)
from .store import (
    FactsArchive,
    export_metrics_table,
    read_facts,
    read_metrics_table,
    write_facts,
)
from .synth import SplitMix64, SynthSpec, generate, generate_metrics

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_JDK_PREFIXES",
    "METRIC_COLUMNS",
    "BinSummary",
    "Diagnostics",
    "EntityKind",
    "FactRelation",
    "FactsArchive",
    "FitResult",
    "ModelEval",
    "ProjectFacts",
    "ProjectMetrics",
    "RelationKind",
    "SourceEntity",
    "SplitMix64",
    "SynthSpec",
    "WelchResult",
    "beta_normalize",
    "bin_by",
    "compute_metrics",
    "count_sloc",
    "decorrelation_report",
    "diagnostics",
    "evaluate_nrmse",
    "export_metrics_table",
    "extract_corpus",
    "extract_project",
    "filter_by_size",
    "fit_log_power",
    "fit_robust_log_power",
    "generate",
    "generate_metrics",
    "inverse_normal_cdf",
    "log_ratio_summary",
    "measure",
    "nrmse",
    "pearson",
    "predict",
    "read_facts",
    "read_metrics_table",
    "spearman",
    "student_t_cdf",
    "welch_t_test",
    "wmc_summary",
    "write_facts",
]
