"""Binned ratio analysis, the Welch two-sample t-test, and the
distribution functions they need.

The Student-t CDF goes through the regularized incomplete beta function
(continued fraction, Lentz's method); the inverse normal CDF is
``statistics.NormalDist.inv_cdf`` (Wichura's AS241), which stays within
1e-15 * max(1, |z|) of ``scipy.special.ndtri`` across (0, 1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from statistics import NormalDist

from .errors import EmptyBinError, InsufficientDataError, OutOfRangeError
from .metrics import ProjectMetrics, metric_getter
from .regression import mean_ss

# ---------------------------------------------------------------------------
# Distribution functions
# ---------------------------------------------------------------------------


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


_STANDARD_NORMAL = NormalDist()


def inverse_normal_cdf(p: float) -> float:
    """Quantile function of the standard normal distribution."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


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


@dataclass(frozen=True)
class WelchResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    significant_at_95: bool


def _mean_var(sample: list[float]) -> tuple[float, float]:
    mean, ss = mean_ss(sample)
    return mean, ss / (len(sample) - 1)


def welch_t_test(sample_a, sample_b) -> WelchResult:
    """Two-sided mean-difference test without the equal-variance assumption.

    Degenerate conventions: two zero-variance samples give p=1 when the
    means agree and p=0 when they differ.
    """
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    if len(a) < 2 or len(b) < 2:
        raise InsufficientDataError("each sample needs at least 2 values")
    mean_a, var_a = _mean_var(a)
    mean_b, var_b = _mean_var(b)
    if var_a == 0.0 and var_b == 0.0:
        if mean_a == mean_b:
            return WelchResult(0.0, float(len(a) + len(b) - 2), 1.0, False)
        t = math.inf if mean_a > mean_b else -math.inf
        return WelchResult(t, float(len(a) + len(b) - 2), 0.0, True)
    se_a = var_a / len(a)
    se_b = var_b / len(b)
    se = se_a + se_b
    t = (mean_a - mean_b) / math.sqrt(se)
    df_denom = se_a**2 / (len(a) - 1) + se_b**2 / (len(b) - 1)
    if df_denom > 0.0 and math.isfinite(df_denom):
        df = se**2 / df_denom
    else:
        df = float(len(a) + len(b) - 2)  # squared errors underflowed
    if not math.isfinite(df) or df <= 0.0:
        df = float(len(a) + len(b) - 2)
    p = 2.0 * (1.0 - student_t_cdf(abs(t), df))
    return WelchResult(t, df, p, p < 0.05)


# ---------------------------------------------------------------------------
# Binned ratio analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bin:
    label: str
    low: float  # -inf for the open left extreme
    high: float  # +inf for the open right extreme
    projects: list[ProjectMetrics]


def range_text(low: float, high: float) -> str:
    """A bin's range as shown in reports: ``< hi``, ``lo -- hi`` or ``>= lo``."""
    if math.isinf(low):
        return f"< {high:g}"
    if math.isinf(high):
        return f">= {low:g}"
    return f"{low:g} -- {high:g}"


@dataclass(frozen=True)
class BinSummary:
    label: str
    low: float
    high: float
    project_count: int  # projects that entered the ratio statistics
    mean_log: float
    sd_log: float
    mean_linear_pct: float
    excluded_zero_ratio_count: int


def bin_by(corpus: list[ProjectMetrics], metric_name: str, edges) -> list[Bin]:
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
    bins = [
        Bin(label=f"b{idx + 1}", low=lo, high=hi, projects=[])
        for idx, (lo, hi) in enumerate(bounds)
    ]
    value = metric_getter(metric_name)
    for pm in corpus:
        # the edges at or below v count the bins left of v's bin
        bins[bisect_right(edges, value(pm))].projects.append(pm)
    return bins


def log_ratios(
    bin_: Bin, numerator_metric: str, denominator_metric: str, log: bool = True
) -> tuple[list[float], int]:
    """Per-project log(num/den) for a bin, or the raw num/den when ``log``
    is false, plus the excluded-project count.

    Projects with a zero numerator or denominator have no defined log
    ratio and are excluded (counted) either way.
    """
    numerator, denominator = metric_getter(numerator_metric), metric_getter(denominator_metric)
    values: list[float] = []
    excluded = 0
    for pm in bin_.projects:
        num, den = numerator(pm), denominator(pm)
        if num <= 0 or den <= 0:
            excluded += 1
            continue
        values.append(math.log(num / den) if log else num / den)
    return values, excluded


def log_ratio_summary(
    bin_: Bin, numerator_metric: str, denominator_metric: str
) -> BinSummary:
    """Mean and SD of the log ratio over a bin's usable projects."""
    values, excluded = log_ratios(bin_, numerator_metric, denominator_metric)
    if not values:
        raise EmptyBinError(
            f"bin {bin_.label}: no projects with usable "
            f"{numerator_metric}/{denominator_metric} ratio"
        )
    mean, ss = mean_ss(values)
    sd = math.sqrt(ss / (len(values) - 1)) if len(values) > 1 else 0.0
    return BinSummary(
        label=bin_.label,
        low=bin_.low,
        high=bin_.high,
        project_count=len(values),
        mean_log=mean,
        sd_log=sd,
        mean_linear_pct=math.exp(mean) * 100.0,
        excluded_zero_ratio_count=excluded,
    )
