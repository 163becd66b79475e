"""Log-power regression models, diagnostics, and prediction-error metrics.

The model family is ``log(y) = alpha + beta * (log x)^k`` fitted by
ordinary least squares in the transformed space (closed-form normal
equations) or by a Huber M-estimate for outlier resistance.  ``k=1`` is
the plain power law ``y = e^alpha * x^beta``; ``k>1`` bends the relation
and makes the implied ratio y/x non-monotonic in x.

Numerical policy: double precision, and every reduction is an exactly
rounded ``math.fsum``, so a fit or a correlation does not depend on the
order of the input pairs: a permutation gives the same bits.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import compress

from .errors import (
    DegeneratePredictorError,
    InsufficientDataError,
    OutOfRangeError,
    UndefinedCorrelationError,
    UndefinedNormalizationError,
)
from .metrics import MetricColumns

HUBER_C = 1.345
MAD_TO_SIGMA = 0.6745
MAX_IRLS_ITERATIONS = 50
IRLS_TOLERANCE = 1e-8


def mean_ss(values: list[float]) -> tuple[float, float]:
    """Mean and sum of squared deviations from it, each summed by ``math.fsum``."""
    mean = math.fsum(values) / len(values)
    return mean, math.fsum((v - mean) ** 2 for v in values)


@dataclass(frozen=True)
class FitResult:
    alpha: float
    beta: float
    k: float
    r: float
    r_squared: float | None  # None for robust fits
    n: int
    robust: bool = False
    excluded_zero_pairs: int = 0
    converged: bool = True
    zero_offset: bool = False

    @property
    def space(self) -> str:
        return "log-log" if self.k == 1 else f"log-log^{self.k:g}"


@dataclass(frozen=True)
class Diagnostics:
    fitted: list[float]
    residuals: list[float]
    standardized_residuals: list[float]
    qq_pairs: list[tuple[float, float]]
    scale_location: list[float]
    leverage: list[float]
    cooks_distance: list[float]


@dataclass(frozen=True)
class ModelEval:
    model_id: str
    subset_rule: str
    nrmse_per_testset: dict[str, float]


def _transform(
    xs, ys, k: float, zero_offset: bool
) -> tuple[list[float], list[float], int]:
    """Map (x, y) pairs into ((log x)^k, log y) space.

    Pairs where a logarithm is undefined are excluded and counted: x<=0 or
    y<=0 always; additionally x<1 when k is fractional, since a negative
    log cannot be raised to a fractional power.  Counts are integers, so
    the extra rule changes nothing on real metric data.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if not 1 <= k < math.inf:
        raise OutOfRangeError(f"transform exponent k must be finite and >= 1, got {k!r}")
    frac = k != int(k) if isinstance(k, float) else False
    if zero_offset:
        xs = [x + 1.0 for x in xs]
        ys = [y + 1.0 for y in ys]
    excluded = [x <= 0 or y <= 0 or (frac and x < 1) for x, y in zip(xs, ys)]
    if any(excluded):
        keep = [not e for e in excluded]
        xs, ys = list(compress(xs, keep)), list(compress(ys, keep))
    ts = list(map(math.log, xs))
    if k != 1:
        # fractional k excluded x < 1 above, integral k handles log x < 0
        ts = [lx**k for lx in ts]
    return ts, list(map(math.log, ys)), len(excluded) - len(ts)


def _usable(
    xs, ys, k: float, zero_offset: bool
) -> tuple[list[float], list[float], int]:
    """``_transform`` for a fit, which needs at least 3 usable pairs."""
    ts, zs, excluded = _transform(xs, ys, k, zero_offset)
    if len(ts) < 3:
        raise InsufficientDataError(
            f"need at least 3 usable pairs, have {len(ts)} ({excluded} excluded)"
        )
    return ts, zs, excluded


def _ols(ts: list[float], zs: list[float]) -> tuple[float, float, float, float]:
    """Closed-form simple OLS: returns (alpha, beta, r, r_squared)."""
    t_bar, s_tt = mean_ss(ts)
    z_bar, s_zz = mean_ss(zs)
    s_tz = math.fsum((t - t_bar) * (z - z_bar) for t, z in zip(ts, zs))
    if s_tt <= 0.0:
        raise DegeneratePredictorError("zero variance in transformed predictor")
    beta = s_tz / s_tt
    alpha = z_bar - beta * t_bar
    r = s_tz / math.sqrt(s_tt * s_zz) if s_zz > 0.0 else 0.0
    sse = math.fsum((z - alpha - beta * t) ** 2 for t, z in zip(ts, zs))
    r_squared = 1.0 - sse / s_zz if s_zz > 0.0 else 1.0
    return alpha, beta, r, r_squared


def fit_log_power(
    xs, ys, k: float = 1.0, *, zero_offset: bool = False
) -> FitResult:
    """OLS fit of log(y) on (log x)^k over the usable pairs."""
    ts, zs, excluded = _usable(xs, ys, k, zero_offset)
    alpha, beta, r, r_squared = _ols(ts, zs)
    return FitResult(
        alpha=alpha,
        beta=beta,
        k=k,
        r=r,
        r_squared=r_squared,
        n=len(ts),
        excluded_zero_pairs=excluded,
        zero_offset=zero_offset,
    )


def _weighted_ols(
    ts: list[float], zs: list[float], ws: list[float]
) -> tuple[float, float]:
    sw = math.fsum(ws)
    t_bar = math.fsum(w * t for w, t in zip(ws, ts)) / sw
    z_bar = math.fsum(w * z for w, z in zip(ws, zs)) / sw
    s_tt = math.fsum(w * (t - t_bar) ** 2 for w, t in zip(ws, ts))
    s_tz = math.fsum(w * (t - t_bar) * (z - z_bar) for w, t, z in zip(ws, ts, zs))
    if s_tt <= 0.0:
        raise DegeneratePredictorError("zero variance in transformed predictor")
    beta = s_tz / s_tt
    alpha = z_bar - beta * t_bar
    return alpha, beta


def fit_robust_log_power(
    xs, ys, k: float = 1.0, *, zero_offset: bool = False
) -> FitResult:
    """Huber M-estimate via iteratively reweighted least squares.

    Tuning constant 1.345 with MAD/0.6745 residual scale.  No goodness of
    fit is reported for robust fits; ``converged`` is False if the
    parameter change never fell below tolerance within the iteration cap.
    """
    ts, zs, excluded = _usable(xs, ys, k, zero_offset)
    alpha, beta, r, _ = _ols(ts, zs)
    converged = True
    for _iteration in range(MAX_IRLS_ITERATIONS):
        resid = [z - alpha - beta * t for t, z in zip(ts, zs)]
        med = statistics.median(resid)
        scale = statistics.median([abs(e - med) for e in resid]) / MAD_TO_SIGMA
        if scale <= 0.0:
            break  # residuals (essentially) identical: OLS answer stands
        cutoff = HUBER_C * scale
        ws = [1.0 if abs(e) <= cutoff else cutoff / abs(e) for e in resid]
        new_alpha, new_beta = _weighted_ols(ts, zs, ws)
        delta = max(abs(new_alpha - alpha), abs(new_beta - beta))
        alpha, beta = new_alpha, new_beta
        if delta < IRLS_TOLERANCE:
            break
    else:
        converged = False
    return FitResult(
        alpha=alpha,
        beta=beta,
        k=k,
        r=r,
        r_squared=None,
        n=len(ts),
        robust=True,
        excluded_zero_pairs=excluded,
        converged=converged,
        zero_offset=zero_offset,
    )


def predict(fit: FitResult, x: float) -> float:
    """Model prediction in the original (linear) space.

    Raises ValueError for an ``x`` the fit's transform excludes.
    """
    ts, _, _ = _transform([x], [1.0], fit.k, fit.zero_offset)
    if not ts:
        raise ValueError(f"x={x!r} is outside the k={fit.k:g} transform domain")
    y = math.exp(fit.alpha + fit.beta * ts[0])
    return y - 1.0 if fit.zero_offset else y


def diagnostics(fit: FitResult, xs, ys) -> Diagnostics:
    """Residual diagnostics in the transformed space.

    Leverage is the hat-matrix diagonal for the single-predictor design;
    Cook's distance uses p=2 model parameters.  QQ pairs match sorted
    standardized residuals to inverse-normal quantiles at (i-0.5)/n.
    """
    from .stats import inverse_normal_cdf

    ts, zs, _ = _transform(xs, ys, fit.k, fit.zero_offset)
    n = len(ts)
    if n != fit.n:
        raise ValueError("diagnostics require the series the fit was made from")
    fitted = [fit.alpha + fit.beta * t for t in ts]
    residuals = [z - f for z, f in zip(zs, fitted)]
    t_bar, s_tt = mean_ss(ts)
    leverage = [1.0 / n + (t - t_bar) ** 2 / s_tt for t in ts]
    sse = math.fsum(e * e for e in residuals)
    p = 2
    sigma = math.sqrt(sse / (n - p)) if n > p else 0.0
    # a numerically perfect fit has no meaningful standardized residuals
    z_scale = max(1.0, max(abs(z) for z in zs))
    if sigma < 1e-12 * z_scale:
        sigma = 0.0
    standardized: list[float] = []
    cooks: list[float] = []
    for e, h in zip(residuals, leverage):
        denom = sigma * math.sqrt(max(1.0 - h, 0.0))
        if denom < 1e-300:
            standardized.append(0.0)
            cooks.append(0.0)
            continue
        std = e / denom
        standardized.append(std)
        cooks.append(std * std * h / (p * (1.0 - h)))
    order = sorted(range(n), key=lambda i: standardized[i])
    qq_pairs = [
        (inverse_normal_cdf((rank + 0.5) / n), standardized[idx])
        for rank, idx in enumerate(order)
    ]
    scale_location = [math.sqrt(abs(s)) for s in standardized]
    return Diagnostics(
        fitted=fitted,
        residuals=residuals,
        standardized_residuals=standardized,
        qq_pairs=qq_pairs,
        scale_location=scale_location,
        leverage=leverage,
        cooks_distance=cooks,
    )


def nrmse(predictions, actuals) -> float:
    """Root-mean-square error normalized by the range of the actuals."""
    predictions = list(predictions)
    actuals = list(actuals)
    if len(predictions) != len(actuals):
        raise ValueError("prediction and actual series must have equal length")
    if len(actuals) < 2:
        raise InsufficientDataError("NRMSE needs at least 2 points")
    y_max = max(actuals)
    y_min = min(actuals)
    if y_max == y_min:
        raise UndefinedNormalizationError("y_max equals y_min; range is zero")
    rmse = math.sqrt(
        math.fsum((p - a) ** 2 for p, a in zip(predictions, actuals)) / len(actuals)
    )
    return rmse / (y_max - y_min)


def evaluate_nrmse(fit: FitResult, test_xs, test_ys, *, space: str = "log") -> float:
    """NRMSE of a fitted model on a test set.

    ``space="log"`` (default) evaluates in the transformed space the model
    was fitted in; ``space="linear"`` compares raw predictions against raw
    values.
    """
    if space == "log":
        ts, zs, _ = _transform(test_xs, test_ys, fit.k, fit.zero_offset)
        return transformed_nrmse(fit, ts, zs)
    if space == "linear":
        pairs = [(x, y) for x, y in zip(test_xs, test_ys) if x > 0]
        if len(pairs) < 2:
            raise InsufficientDataError("NRMSE needs at least 2 usable points")
        preds = [predict(fit, x) for x, _ in pairs]
        return nrmse(preds, [y for _, y in pairs])
    raise ValueError(f"unknown NRMSE space {space!r}")


def transformed_nrmse(fit: FitResult, ts: list[float], zs: list[float]) -> float:
    """NRMSE of a fitted model on a test set already mapped by ``_transform``
    with the fit's ``k`` and ``zero_offset``."""
    if len(ts) < 2:
        raise InsufficientDataError("NRMSE needs at least 2 usable points")
    return nrmse([fit.alpha + fit.beta * t for t in ts], zs)


def filter_by_size(
    corpus: MetricColumns, size_metric_name: str, low: float, high: float
) -> list[bool]:
    """Which projects have ``low <= metric < high``: one flag per row, for
    ``itertools.compress`` over any column of the table."""
    size = corpus.column(size_metric_name)
    if not low < high:
        raise OutOfRangeError(f"empty range [{low}, {high})")
    return [low <= v < high for v in size]


def pearson(xs, ys) -> float:
    """Product-moment correlation coefficient."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys):
        raise ValueError("series must have equal length")
    if len(xs) < 3:
        raise InsufficientDataError("correlation needs at least 3 points")
    x_bar, s_xx = mean_ss(xs)
    y_bar, s_yy = mean_ss(ys)
    if s_xx <= 0.0 or s_yy <= 0.0:
        raise UndefinedCorrelationError("a series has zero variance")
    s_xy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    return s_xy / math.sqrt(s_xx * s_yy)


def _average_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0  # 1-based, ties share the mean rank
        for idx in order[i : j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Rank correlation: Pearson on average ranks, ties averaged; ``pearson``
    checks the lengths."""
    return pearson(
        _average_ranks([float(v) for v in xs]), _average_ranks([float(v) for v in ys])
    )
