import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javascale.errors import (
    DataError,
    DegeneratePredictorError,
    InsufficientDataError,
    UndefinedCorrelationError,
    UndefinedNormalizationError,
    UnknownMetricError,
)
from javascale import regression
from javascale.metrics import ProjectMetrics, metric_columns
from javascale.regression import (
    FitResult,
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
from javascale.stats import welch_t_test
from javascale.synth import SynthSpec, generate

E = math.e


def numpy_ols(xs, ys, k=1.0):
    """Independent closed-form oracle via numpy least squares."""
    t = np.log(np.asarray(xs, dtype=float)) ** k
    z = np.log(np.asarray(ys, dtype=float))
    design = np.column_stack([np.ones_like(t), t])
    coef, _, _, _ = np.linalg.lstsq(design, z, rcond=None)
    alpha, beta = coef
    fitted = design @ coef
    sse = float(np.sum((z - fitted) ** 2))
    sst = float(np.sum((z - z.mean()) ** 2))
    return float(alpha), float(beta), 1.0 - sse / sst


class TestFitLogPower:
    def test_exact_line(self):
        xs = [1.0, 10.0, 100.0, 1000.0]
        ys = [math.exp(2.0) * x for x in xs]
        fit = fit_log_power(xs, ys)
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)
        assert fit.beta == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_three_point_hand_fit(self):
        fit = fit_log_power([E, E**2, E**3], [E, E**3, E**4])
        assert fit.beta == pytest.approx(1.5, abs=1e-12)
        assert fit.alpha == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_matches_numpy_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            xs = np.exp(rng.uniform(0.1, 8, n))
            ys = np.exp(rng.uniform(0.1, 8, n))
            fit = fit_log_power(xs, ys)
            alpha, beta, r2 = numpy_ols(xs, ys)
            assert fit.alpha == pytest.approx(alpha, rel=1e-9, abs=1e-9)
            assert fit.beta == pytest.approx(beta, rel=1e-9, abs=1e-9)
            assert fit.r_squared == pytest.approx(r2, rel=1e-9, abs=1e-9)

    def test_zero_pairs_excluded_and_counted(self):
        fit = fit_log_power([0, 1, 2, 3, 4], [5, 5, 0, 7, 9])
        assert fit.excluded_zero_pairs == 2
        assert fit.n == 3

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_log_power([1, 2], [1, 2])
        with pytest.raises(InsufficientDataError):
            fit_log_power([0, 0, 0, 1, 2], [1, 1, 1, 1, 1])

    def test_degenerate_predictor(self):
        with pytest.raises(DegeneratePredictorError):
            fit_log_power([5, 5, 5], [1, 2, 3])

    def test_zero_offset_mode_keeps_zero_pairs(self):
        fit = fit_log_power([0, 1, 2, 3], [0, 2, 3, 4], zero_offset=True)
        assert fit.excluded_zero_pairs == 0
        assert fit.n == 4

    def test_fractional_k_excludes_sub_one_x(self):
        fit = fit_log_power([0.5, 2, 3, 4], [1, 2, 3, 4], k=1.2)
        assert fit.excluded_zero_pairs == 1

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, c, seed):
        spec = SynthSpec(
            n_projects=40,
            x_range=(2, 500),
            true_alpha=0.8,
            true_beta=1.1,
            noise_sigma=0.4,
            seed=seed,
        )
        pairs = [(x, y) for x, y in generate(spec) if y > 0]
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        base = fit_log_power(xs, ys)
        scaled = fit_log_power(xs, [c * y for y in ys])
        assert scaled.beta == pytest.approx(base.beta, abs=1e-9)
        assert scaled.alpha == pytest.approx(base.alpha + math.log(c), abs=1e-9)

    def test_space_labels(self):
        xs, ys = [1, 2, 4, 8], [2, 4, 8, 16]
        assert fit_log_power(xs, ys, 1).space == "log-log"
        assert fit_log_power(xs, ys, 1.2).space == "log-log^1.2"
        assert fit_log_power(xs, ys, 2).space == "log-log^2"


class TestPredict:
    def test_training_x_reproduces_fitted_values(self):
        xs = [2, 5, 11, 23]
        ys = [3, 9, 20, 51]
        fit = fit_log_power(xs, ys)
        diag = diagnostics(fit, xs, ys)
        for x, fitted in zip(xs, diag.fitted):
            assert predict(fit, x) == math.exp(fitted)

    def test_reference_model_predictions(self):
        sloc_model = FitResult(3.5549, 1.0939, 1, 0.93, 0.87, 100)
        assert predict(sloc_model, 10) == pytest.approx(434, rel=0.005)
        assert predict(sloc_model, 100) == pytest.approx(5391, rel=0.005)
        methods_model = FitResult(1.0949, 1.1055, 1, 0.94, 0.89, 100)
        assert predict(methods_model, 100) == pytest.approx(486, rel=0.005)
        ifaces_model = FitResult(0.14, 0.083, 2, 0.72, 0.52, 100)
        assert predict(ifaces_model, 1000) == pytest.approx(60.4, rel=0.02)

    def test_requires_positive_x(self):
        fit = FitResult(1.0, 1.0, 1, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            predict(fit, 0)


class TestRobustFit:
    def test_exact_line_equals_ols(self):
        xs = [1.0, 10.0, 100.0, 1000.0]
        ys = [math.exp(2.0) * x**1.3 for x in xs]
        ols = fit_log_power(xs, ys)
        rob = fit_robust_log_power(xs, ys)
        assert rob.alpha == pytest.approx(ols.alpha, abs=1e-6)
        assert rob.beta == pytest.approx(ols.beta, abs=1e-6)
        assert rob.converged
        assert rob.r_squared is None

    def test_outliers_hurt_robust_less(self):
        spec = SynthSpec(
            n_projects=2000,
            x_range=(10, 10000),
            true_alpha=1.1,
            true_beta=1.1,
            noise_sigma=0.5,
            seed=11,
        )
        pairs = generate(spec)
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        order = sorted(range(len(xs)), key=lambda i: xs[i], reverse=True)
        bad = set(order[: len(xs) // 20])
        ys_out = [y * 100 if i in bad else y for i, y in enumerate(ys)]
        ols = fit_log_power(xs, ys_out)
        rob = fit_robust_log_power(xs, ys_out)
        assert abs(rob.beta - 1.1) < abs(ols.beta - 1.1)

    def test_keeps_pearson_of_data(self):
        xs, ys = [1, 2, 4, 8, 16], [2, 5, 7, 18, 31]
        assert fit_robust_log_power(xs, ys).r == fit_log_power(xs, ys).r

    @pytest.mark.parametrize("n", [41, 42])
    def test_medians_match_statistics_median(self, n, monkeypatch):
        """The fit's two medians per iteration, taken from sorted lists, give
        the fit ``statistics.median`` gives, bit for bit, at odd and even n;
        four copies of one pair tie their residuals and deviations."""
        spec = SynthSpec(
            n_projects=n - 4, x_range=(2, 5000), true_alpha=1.0, true_beta=1.1,
            noise_sigma=0.4, seed=n,
        )
        pairs = generate(spec) + [(50, 90)] * 4
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        fit = fit_robust_log_power(xs, ys)
        monkeypatch.setattr(regression, "_median", statistics.median)
        reference = fit_robust_log_power(xs, ys)
        assert fit.n == n and fit.converged
        assert repr(fit) == repr(reference)
        for values in ([3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [0.5, 0.5, -1.0, 0.5]):
            assert repr(regression._median(values)) == repr(statistics.median(values))


class TestDiagnostics:
    def test_perfect_fit_all_zero(self):
        xs = [1, 2, 4, 8]
        ys = [math.exp(1.0) * x for x in xs]
        fit = fit_log_power(xs, ys)
        diag = diagnostics(fit, xs, ys)
        assert all(abs(e) < 1e-12 for e in diag.residuals)
        assert all(d == 0.0 for d in diag.cooks_distance)

    def test_residuals_sum_to_zero(self):
        spec = SynthSpec(
            n_projects=500, x_range=(2, 5000), true_alpha=1.0, true_beta=1.05,
            noise_sigma=0.6, seed=3,
        )
        pairs = [(x, y) for x, y in generate(spec) if y > 0]
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        fit = fit_log_power(xs, ys)
        diag = diagnostics(fit, xs, ys)
        assert abs(sum(diag.residuals)) < 1e-9 * fit.n

    def test_three_point_hand_values(self):
        xs = [E, E**2, E**3]
        ys = [E, E**3, E**4]
        fit = fit_log_power(xs, ys)
        diag = diagnostics(fit, xs, ys)
        assert diag.residuals == pytest.approx([-1 / 6, 1 / 3, -1 / 6], abs=1e-12)
        assert diag.leverage == pytest.approx([5 / 6, 1 / 3, 5 / 6], abs=1e-12)
        assert diag.standardized_residuals == pytest.approx([-1, 1, -1], abs=1e-9)
        assert diag.cooks_distance == pytest.approx([2.5, 0.25, 2.5], abs=1e-9)
        # qq theoretical quantiles at (i - 0.5)/3
        from javascale.stats import inverse_normal_cdf

        theo = [q for q, _ in diag.qq_pairs]
        assert theo == pytest.approx(
            [inverse_normal_cdf(1 / 6), 0.0, inverse_normal_cdf(5 / 6)], abs=1e-9
        )
        assert [s for _, s in diag.qq_pairs] == sorted(diag.standardized_residuals)

    def test_series_lengths_and_leverage_bounds(self):
        xs = [2, 3, 5, 9, 17, 33]
        ys = [5, 7, 10, 22, 40, 77]
        fit = fit_log_power(xs, ys)
        diag = diagnostics(fit, xs, ys)
        for series in (
            diag.fitted, diag.residuals, diag.standardized_residuals,
            diag.qq_pairs, diag.scale_location, diag.leverage, diag.cooks_distance,
        ):
            assert len(series) == fit.n
        assert all(0 < h <= 1 for h in diag.leverage)


class TestNrmse:
    def test_perfect_predictions(self):
        assert nrmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_case(self):
        assert nrmse([1, 2, 3], [1, 2, 4]) == pytest.approx(0.19245008973, abs=1e-9)
        # RMSE component alone
        assert nrmse([1, 2, 3], [1, 2, 4]) * 3 == pytest.approx(0.57735026919, abs=1e-9)

    def test_zero_range_rejected(self):
        with pytest.raises(UndefinedNormalizationError):
            nrmse([1, 2], [5, 5])

    def test_evaluate_log_space_perfect(self):
        xs = [1, 2, 4, 8]
        ys = [math.exp(0.5) * x for x in xs]
        fit = fit_log_power(xs, ys)
        assert evaluate_nrmse(fit, xs, ys) == pytest.approx(0.0, abs=1e-12)

    def test_evaluate_linear_space(self):
        xs = [1, 2, 4, 8]
        ys = [math.exp(0.5) * x for x in xs]
        fit = fit_log_power(xs, ys)
        assert evaluate_nrmse(fit, xs, ys, space="linear") == pytest.approx(0.0, abs=1e-9)

    def test_unknown_space(self):
        fit = FitResult(1, 1, 1, 1, 1, 10)
        with pytest.raises(ValueError):
            evaluate_nrmse(fit, [1, 2], [1, 2], space="cubits")


class TestFilterBySize:
    CORPUS = metric_columns(
        [
            ProjectMetrics(project_id="a", classes=5, modules=5),
            ProjectMetrics(project_id="b", classes=50, modules=50),
            ProjectMetrics(project_id="c", classes=500, modules=500),
        ]
    )

    def test_unbounded_range_keeps_all(self):
        assert filter_by_size(self.CORPUS, "classes", 0, math.inf) == [True] * 3

    def test_left_inclusive_right_exclusive(self):
        assert filter_by_size(self.CORPUS, "classes", 10, 100) == [False, True, False]
        assert filter_by_size(self.CORPUS, "classes", 50, 500) == [False, True, False]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            filter_by_size(self.CORPUS, "classes", 50, 50)

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetricError):
            filter_by_size(self.CORPUS, "℘", 0, 1)


class TestCorrelation:
    def test_linear_relation(self):
        xs = [1, 2, 3, 4, 5]
        assert pearson(xs, [2 * x for x in xs]) == pytest.approx(1.0)
        assert spearman(xs, [2 * x for x in xs]) == pytest.approx(1.0)

    def test_monotone_nonlinear(self):
        xs = [1, 2, 3, 4, 5]
        ys = [100, 50, 20, 5, 1]
        assert spearman(xs, ys) == pytest.approx(-1.0)
        assert pearson(xs, ys) > -1.0

    def test_tie_case_matches_rank_oracle(self):
        xs = [1, 2, 2, 3, 4]
        ys = [5, 3, 4, 2, 1]
        from scipy.stats import spearmanr

        assert spearman(xs, ys) == pytest.approx(spearmanr(xs, ys).statistic, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("correlation", [pearson, spearman])
    def test_series_checks(self, correlation):
        with pytest.raises(ValueError, match="^series must have equal length$"):
            correlation([1, 2, 3], [1, 2, 3, 4])
        with pytest.raises(InsufficientDataError, match="^correlation needs at least 3 points$"):
            correlation([1, 2], [2, 1])

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=40)
        ys = rng.normal(size=40) + 0.5 * xs
        assert pearson(xs, ys) == pytest.approx(
            float(np.corrcoef(xs, ys)[0, 1]), abs=1e-12
        )


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except DataError as exc:
        return type(exc)


# every reduction is exactly rounded, so the order of the rows cannot move a
# single bit of a fit, a correlation or a test
@given(
    st.lists(
        st.tuples(st.floats(0.5, 1e6), st.floats(0.5, 1e6)), min_size=3, max_size=60
    ),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_results_do_not_depend_on_row_order(pairs, data):
    shuffled = data.draw(st.permutations(pairs))
    for fn, kwargs in [
        (fit_log_power, {}),
        (fit_log_power, {"k": 2.0, "zero_offset": True}),
        (fit_robust_log_power, {}),
        (pearson, {}),
        (spearman, {}),
        (welch_t_test, {}),
    ]:
        before = _outcome(fn, *zip(*pairs), **kwargs)
        after = _outcome(fn, *zip(*shuffled), **kwargs)
        assert after == before, fn.__name__
