"""Binned ratio analysis, the Welch two-sample t-test, and the
distribution functions they need.

``analyze_bins`` is the one path from a metrics table to per-bin
summaries of the log ratio and the Welch p-values between bins.

The Student-t CDF goes through the regularized incomplete beta function
(continued fraction, Lentz's method); the inverse normal CDF is
``statistics.NormalDist.inv_cdf`` (Wichura's AS241), which stays within
1e-15 * max(1, |z|) of ``scipy.special.ndtri`` across (0, 1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache, partial
from itertools import compress
from operator import truediv
from typing import NamedTuple

from .errors import InsufficientDataError, OutOfRangeError
from .metrics import MetricColumns
from .regression import mean_ss

# ---------------------------------------------------------------------------
# Distribution functions
# ---------------------------------------------------------------------------


@cache
def _standard_normal():
    from statistics import NormalDist  # on first use: most commands draw no quantile

    return NormalDist()


def inverse_normal_cdf(p: float) -> float:
    """Quantile function of the standard normal distribution."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return _standard_normal().inv_cdf(p)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


# ---------------------------------------------------------------------------
# Welch two-sample t-test
# ---------------------------------------------------------------------------


class WelchResult(NamedTuple):
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    significant_at_95: bool


def _moments(sample: list[float]) -> tuple[int, float, float]:
    """Size, mean and sample variance of ``sample``; the variance of one
    value is 0.0."""
    mean, ss = mean_ss(sample)
    n = len(sample)
    return n, mean, ss / (n - 1) if n > 1 else 0.0


def welch_t_test(sample_a, sample_b) -> WelchResult:
    """Two-sided mean-difference test without the equal-variance assumption.

    Degenerate conventions: two zero-variance samples give p=1 when the
    means agree and p=0 when they differ.
    """
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    if len(a) < 2 or len(b) < 2:
        raise InsufficientDataError("each sample needs at least 2 values")
    return _welch(_moments(a), _moments(b))


def _welch(a: tuple[int, float, float], b: tuple[int, float, float]) -> WelchResult:
    """``welch_t_test`` from each sample's ``_moments``."""
    (n_a, mean_a, var_a), (n_b, mean_b, var_b) = a, b
    if var_a == 0.0 and var_b == 0.0:
        if mean_a == mean_b:
            return WelchResult(0.0, float(n_a + n_b - 2), 1.0, False)
        t = math.inf if mean_a > mean_b else -math.inf
        return WelchResult(t, float(n_a + n_b - 2), 0.0, True)
    se_a = var_a / n_a
    se_b = var_b / n_b
    se = se_a + se_b
    t = (mean_a - mean_b) / math.sqrt(se)
    df_denom = se_a**2 / (n_a - 1) + se_b**2 / (n_b - 1)
    if df_denom > 0.0 and math.isfinite(df_denom):
        df = se**2 / df_denom
    else:
        df = float(n_a + n_b - 2)  # squared errors underflowed
    if not math.isfinite(df) or df <= 0.0:
        df = float(n_a + n_b - 2)
    p = 2.0 * (1.0 - student_t_cdf(abs(t), df))
    return WelchResult(t, df, p, p < 0.05)


# ---------------------------------------------------------------------------
# Binned ratio analysis
# ---------------------------------------------------------------------------


class Bin(NamedTuple):
    label: str
    low: float  # -inf for the open left extreme
    high: float  # +inf for the open right extreme
    corpus: MetricColumns
    members: list[bool]  # per row of ``corpus``: in this bin

    def __repr__(self) -> str:  # without the whole table
        return f"Bin(label={self.label!r}, low={self.low!r}, high={self.high!r})"

    def column(self, name: str) -> list[int]:
        """Metric ``name`` of the bin's projects, in table order."""
        return list(compress(self.corpus.column(name), self.members))


def range_text(low: float, high: float) -> str:
    """A bin's range as shown in reports: ``< hi``, ``lo -- hi`` or ``>= lo``."""
    if math.isinf(low):
        return f"< {high:g}"
    if math.isinf(high):
        return f">= {low:g}"
    return f"{low:g} -- {high:g}"


class BinSummary(NamedTuple):
    label: str
    low: float
    high: float
    project_count: int  # projects that entered the ratio statistics
    mean_log: float
    sd_log: float
    mean_linear_pct: float
    excluded_zero_ratio_count: int


def bin_by(corpus: MetricColumns, metric_name: str, edges) -> list[Bin]:
    """Partition a corpus by a metric into left-inclusive bins.

    ``edges=(e1, .., ek)`` produces k+1 bins: ``< e1``, ``[e1, e2)``, ..,
    ``>= ek``.  Every project lands in exactly one bin.
    """
    edges = [float(e) for e in edges]
    if not all(a < b for a, b in zip([-math.inf, *edges], [*edges, math.inf])):
        raise OutOfRangeError(f"bin edges must be finite and strictly ascending, got {edges}")
    if not edges:
        raise OutOfRangeError("at least one bin edge is required")
    bounds = [(-math.inf, edges[0])]
    bounds += list(zip(edges, edges[1:]))
    bounds.append((edges[-1], math.inf))
    # the edges at or below v count the bins left of v's bin
    where = list(map(partial(bisect_right, edges), corpus.column(metric_name)))
    return [
        Bin(f"b{idx + 1}", lo, hi, corpus, list(map(idx.__eq__, where)))
        for idx, (lo, hi) in enumerate(bounds)
    ]


def bin_ratios(
    bin_: Bin, numerator_metric: str, denominator_metric: str
) -> tuple[list[float], int]:
    """Per-project num/den for a bin, plus the excluded-project count.

    Projects with a zero numerator or denominator have no defined log
    ratio and are excluded (counted).
    """
    nums, dens = bin_.column(numerator_metric), bin_.column(denominator_metric)
    usable = [num > 0 and den > 0 for num, den in zip(nums, dens)]
    values = list(map(truediv, compress(nums, usable), compress(dens, usable)))
    return values, len(usable) - len(values)


def analyze_bins(
    corpus: MetricColumns,
    bin_metric: str,
    edges,
    numerator: str,
    denominator: str,
    log: bool = True,
) -> tuple[list[BinSummary], dict[tuple[str, str], float]]:
    """Bin the corpus by ``bin_metric`` and summarise the log ratio of each
    bin with a usable ratio; a bin with none is left out.  Welch tests
    compare the ratios (log ones unless ``log`` is false) of every pair of
    bins holding two or more.

    Each bin's ratios, and the size, mean and variance of the tested ones,
    are computed once.
    """
    summaries = []
    tested = {}  # bin label -> _moments of the values its Welch tests compare
    for b in bin_by(corpus, bin_metric, edges):
        ratios, excluded = bin_ratios(b, numerator, denominator)
        if ratios:
            logs = n, mean, var = _moments(list(map(math.log, ratios)))
            linear_pct = math.exp(mean) * 100.0
            summaries.append(
                BinSummary(b.label, b.low, b.high, n, mean, math.sqrt(var), linear_pct, excluded)
            )
            tested[b.label] = logs if log else _moments(ratios)
    labels = [label for label, (n, _, _) in tested.items() if n >= 2]
    p_values = {}
    for idx, a in enumerate(labels):
        for b_label in labels[idx + 1 :]:
            p_values[(a, b_label)] = _welch(tested[a], tested[b_label]).p_value
    return summaries, p_values
