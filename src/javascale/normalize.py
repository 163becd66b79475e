"""Size-independent metric normalization.

Dividing a count by ``size**beta`` (with beta taken from the fitted
scaling model rather than assumed to be 1) yields a per-project value that
carries no information about project size; ``decorrelation_report``
verifies that on a corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InsufficientDataError, OutOfRangeError
from .metrics import ProjectMetrics, metric_getter
from .regression import mean_ss, pearson, spearman

DECORRELATION_THRESHOLD = 0.05


@dataclass(frozen=True)
class NormalizedMetric:
    project_id: str
    numerator_metric: str
    denominator_metric: str
    beta: float
    raw_ratio: float
    value: float  # numerator / denominator**beta


@dataclass(frozen=True)
class DecorrelationReport:
    numerator_metric: str
    denominator_metric: str
    beta: float
    n: int
    pearson_log: float
    spearman: float

    @property
    def decorrelated(self) -> bool:
        return abs(self.pearson_log) < DECORRELATION_THRESHOLD


@dataclass(frozen=True)
class WmcSummary:
    n: int
    mean_linear: float
    mean_log: float
    sd_log: float
    linear_of_mean_log: float
    one_sd_interval: tuple[float, float]
    excluded: int


def beta_normalize(numerator: float, denominator: float, beta: float) -> float:
    """Size-adjusted ratio: numerator / denominator**beta."""
    if denominator < 1:
        raise ValueError("denominator must be at least 1")
    if not math.isfinite(beta):
        raise OutOfRangeError(f"beta must be finite, got {beta!r}")
    return numerator / denominator**beta


def normalize_corpus(
    corpus: list[ProjectMetrics],
    numerator_metric: str,
    denominator_metric: str,
    beta: float,
) -> list[NormalizedMetric]:
    """Normalized values for every project with a positive denominator."""
    denominator, numerator = metric_getter(denominator_metric), metric_getter(numerator_metric)
    out: list[NormalizedMetric] = []
    for pm in corpus:
        den = denominator(pm)
        if den < 1:
            continue
        num = numerator(pm)
        out.append(
            NormalizedMetric(
                project_id=pm.project_id,
                numerator_metric=numerator_metric,
                denominator_metric=denominator_metric,
                beta=beta,
                raw_ratio=num / den,
                value=beta_normalize(num, den, beta),
            )
        )
    return out


def decorrelation_report(
    corpus: list[ProjectMetrics],
    numerator_metric: str,
    denominator_metric: str,
    beta: float,
) -> DecorrelationReport:
    """Correlation of the normalized value against size, in log space.

    When beta matches the corpus scaling law, both coefficients should be
    indistinguishable from zero.
    """
    denominator, numerator = metric_getter(denominator_metric), metric_getter(numerator_metric)
    pairs: list[tuple[float, float]] = []
    for pm in corpus:
        den, num = denominator(pm), numerator(pm)
        if den < 1 or num <= 0:
            continue
        pairs.append((math.log(beta_normalize(num, den, beta)), math.log(den)))
    if len(pairs) < 10:
        raise InsufficientDataError(
            f"decorrelation check needs >= 10 usable projects, have {len(pairs)}"
        )
    values = [v for v, _ in pairs]
    sizes = [s for _, s in pairs]
    return DecorrelationReport(
        numerator_metric=numerator_metric,
        denominator_metric=denominator_metric,
        beta=beta,
        n=len(pairs),
        pearson_log=pearson(values, sizes),
        spearman=spearman(values, sizes),
    )


def wmc_summary(corpus: list[ProjectMetrics]) -> WmcSummary:
    """Methods-per-class summary in linear and log space.

    The linear mean always sits at or above exp(mean of logs); on the
    right-skewed distributions these corpora produce, strictly above.
    Projects without classes or methods have no defined log value and are
    excluded (counted).
    """
    values: list[float] = []
    excluded = 0
    for pm in corpus:
        if pm.classes < 1 or pm.methods < 1:
            excluded += 1
            continue
        values.append(pm.methods / pm.classes)
    if not values:
        raise InsufficientDataError("no projects with classes and methods")
    n = len(values)
    mean_linear = math.fsum(values) / n
    mean_log, ss_log = mean_ss([math.log(v) for v in values])
    sd_log = math.sqrt(ss_log / (n - 1)) if n > 1 else 0.0
    return WmcSummary(
        n=n,
        mean_linear=mean_linear,
        mean_log=mean_log,
        sd_log=sd_log,
        linear_of_mean_log=math.exp(mean_log),
        one_sd_interval=(math.exp(mean_log - sd_log), math.exp(mean_log + sd_log)),
        excluded=excluded,
    )
