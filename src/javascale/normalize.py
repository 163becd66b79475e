"""Size-independent metric normalization.

Dividing a count by ``size**beta`` (with beta taken from the fitted
scaling model rather than assumed to be 1) yields a per-project value that
carries no information about project size; ``decorrelation_report``
verifies that on a corpus.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import truediv
from typing import NamedTuple

from .errors import InsufficientDataError, OutOfRangeError
from .metrics import MetricColumns
from .regression import mean_ss, pearson, spearman

DECORRELATION_THRESHOLD = 0.05


class NormalizedColumns(NamedTuple):
    """The normalized table: one list per column, a row per project."""

    numerator_metric: str
    denominator_metric: str
    beta: float
    project_id: list[str]
    raw_ratio: list[float]
    value: list[float]  # numerator / denominator**beta


class DecorrelationReport(NamedTuple):
    numerator_metric: str
    denominator_metric: str
    beta: float
    n: int
    pearson_log: float
    spearman: float

    @property
    def decorrelated(self) -> bool:
        return abs(self.pearson_log) < DECORRELATION_THRESHOLD


class WmcSummary(NamedTuple):
    n: int
    mean_linear: float
    mean_log: float
    sd_log: float
    linear_of_mean_log: float
    one_sd_interval: tuple[float, float]
    excluded: int


def _normalized(nums: list[int], dens: list[int], beta: float) -> list[float]:
    """``num / den**beta`` of each pair, denominators at least 1, beta checked
    once, with no pairs too.  A power that overflows or underflows to 0, or
    a value that overflows, is an ``OutOfRangeError`` naming beta."""
    if not math.isfinite(beta):
        raise OutOfRangeError(f"beta must be finite, got {beta!r}")
    try:
        values = list(map(truediv, nums, map(pow, dens, repeat(beta))))
    except (OverflowError, ZeroDivisionError):
        values = [math.inf]
    if math.inf in values:
        raise OutOfRangeError(
            f"beta {beta!r} is out of range: size**beta or a normalized value"
            " leaves the float range"
        )
    return values


def normalize_corpus(
    corpus: MetricColumns,
    numerator_metric: str,
    denominator_metric: str,
    beta: float,
) -> NormalizedColumns:
    """Normalized values for every project with a positive denominator."""
    dens, nums = corpus.column(denominator_metric), corpus.column(numerator_metric)
    keep = [den >= 1 for den in dens]
    dens, nums = list(compress(dens, keep)), list(compress(nums, keep))
    return NormalizedColumns(
        numerator_metric=numerator_metric,
        denominator_metric=denominator_metric,
        beta=beta,
        project_id=list(compress(corpus.project_id, keep)),
        raw_ratio=list(map(truediv, nums, dens)),
        value=_normalized(nums, dens, beta),
    )


def decorrelation_report(
    corpus: MetricColumns,
    numerator_metric: str,
    denominator_metric: str,
    beta: float,
) -> DecorrelationReport:
    """Correlation of the normalized value against size, in log space.

    When beta matches the corpus scaling law, both coefficients should be
    indistinguishable from zero.
    """
    dens, nums = corpus.column(denominator_metric), corpus.column(numerator_metric)
    keep = [den >= 1 and num > 0 for den, num in zip(dens, nums)]
    dens, nums = list(compress(dens, keep)), list(compress(nums, keep))
    values = list(map(math.log, _normalized(nums, dens, beta)))
    if len(values) < 10:
        raise InsufficientDataError(
            f"decorrelation check needs >= 10 usable projects, have {len(values)}"
        )
    sizes = list(map(math.log, dens))
    return DecorrelationReport(
        numerator_metric=numerator_metric,
        denominator_metric=denominator_metric,
        beta=beta,
        n=len(values),
        pearson_log=pearson(values, sizes),
        spearman=spearman(values, sizes),
    )


def wmc_summary(corpus: MetricColumns) -> WmcSummary:
    """Methods-per-class summary in linear and log space.

    The linear mean always sits at or above exp(mean of logs); on the
    right-skewed distributions these corpora produce, strictly above.
    Projects without classes or methods have no defined log value and are
    excluded (counted).
    """
    keep = [c >= 1 and m >= 1 for c, m in zip(corpus.classes, corpus.methods)]
    values = list(map(truediv, compress(corpus.methods, keep), compress(corpus.classes, keep)))
    excluded = len(keep) - len(values)
    if not values:
        raise InsufficientDataError("no projects with classes and methods")
    n = len(values)
    mean_linear = math.fsum(values) / n
    mean_log, ss_log = mean_ss(list(map(math.log, values)))
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
