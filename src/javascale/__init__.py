"""Corpus-scale structural analysis of Java source trees.

Extracts an entity/relation fact model from source, computes per-project
OO metrics, fits log-power scaling models with diagnostics and robust
variants, runs binned Welch analyses, and produces size-independent
normalized metrics.

The package root exports what callers import from it; everything else is
imported from its module.
"""

from .extractor import extract_corpus, extract_project
from .metrics import ProjectMetrics, compute_metrics
from .normalize import decorrelation_report
from .regression import diagnostics, fit_log_power, predict
from .store import FactsArchive, export_metrics_table, read_metrics_table, write_facts
