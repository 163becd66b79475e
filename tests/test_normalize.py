import math

import pytest

from javascale.errors import (
    InsufficientDataError,
    OutOfRangeError,
    UndefinedCorrelationError,
)
from javascale.metrics import ProjectMetrics, metric_columns
from javascale.normalize import (
    decorrelation_report,
    normalize_corpus,
    wmc_summary,
)
from javascale.synth import SynthSpec, generate_metrics


def pm(pid, classes, methods):
    return ProjectMetrics(
        project_id=pid, classes=classes, modules=classes, methods=methods
    )


def normalized(beta, *sizes):
    """``normalize_corpus`` of methods by classes**beta over one project of
    each (methods, classes) pair, in order."""
    corpus = [pm(f"p{i}", classes, methods) for i, (methods, classes) in enumerate(sizes)]
    return normalize_corpus(metric_columns(corpus), "methods", "classes", beta)


class TestNormalizeCorpus:
    def test_beta_one_is_plain_ratio(self):
        assert normalized(1.0, (486, 100)).value == [pytest.approx(4.86)]

    def test_reference_beta_collapses_sizes_to_one_constant(self):
        # with the fitted exponent, both project sizes give e^alpha
        big, small = normalized(1.1055, (486, 100), (38, 10)).value
        assert big == pytest.approx(math.exp(1.0949), rel=0.005)
        assert small == pytest.approx(math.exp(1.0949), rel=0.005)
        assert big == pytest.approx(small, rel=0.01)

    def test_exact_model_data_gives_exact_constant(self):
        # methods = 3 * classes**1.5, in whole counts
        table = normalized(1.5, (3, 1), (24, 4), (3000, 100), (375000, 2500))
        assert table.value == [pytest.approx(3.0, rel=1e-12)] * 4

    def test_a_zero_denominator_leaves_the_row_out(self):
        table = normalized(1.1, (5, 0), (40, 10))
        assert table.project_id == ["p1"]
        assert normalized(1.1, (5, 0)).value == []

    def test_rejects_non_finite_beta(self):
        with pytest.raises(OutOfRangeError, match="^beta must be finite, got inf$"):
            normalized(math.inf, (5, 5))

    # 5000**1000 overflows, 5000**-1000 underflows to 0, and 5000 / 5000**-84
    # overflows
    @pytest.mark.parametrize("num, beta", [(1, 1000.0), (1, -1000.0), (5000, -84.0)])
    def test_rejects_beta_out_of_float_range(self, num, beta):
        with pytest.raises(OutOfRangeError, match=f"^beta {beta!r} is out of range"):
            normalized(beta, (num, 5000))

    def test_rows_and_skipping(self):
        corpus = [pm("a", 10, 40), pm("b", 0, 5), pm("c", 100, 480)]
        table = normalize_corpus(metric_columns(corpus), "methods", "classes", 1.0)
        assert table.project_id == ["a", "c"]
        assert table.raw_ratio[0] == pytest.approx(4.0)
        assert table.value[0] == pytest.approx(4.0)


class TestDecorrelation:
    SPEC = SynthSpec(
        n_projects=3000,
        x_range=(10, 10000),
        true_alpha=1.095,
        true_beta=1.1055,
        noise_sigma=0.5,
        seed=42,
    )

    def test_true_beta_decorrelates(self):
        corpus = generate_metrics(self.SPEC)
        report = decorrelation_report(metric_columns(corpus), "methods", "classes", 1.1055)
        assert abs(report.pearson_log) < 0.05
        assert abs(report.spearman) < 0.05
        assert report.decorrelated

    def test_naive_ratio_stays_correlated(self):
        corpus = generate_metrics(self.SPEC)
        report = decorrelation_report(metric_columns(corpus), "methods", "classes", 1.0)
        assert report.pearson_log > 0.25
        assert not report.decorrelated

    def test_exact_law_has_undefined_correlation(self):
        # methods exactly 2 * classes: the normalized value is constant
        corpus = [
            pm(f"p{i}", den, 2 * den)
            for i, den in enumerate((1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
        ]
        with pytest.raises(UndefinedCorrelationError):
            decorrelation_report(metric_columns(corpus), "methods", "classes", 1.0)

    def test_small_corpus_rejected(self):
        corpus = [pm(f"p{i}", 10, 40) for i in range(5)]
        with pytest.raises(InsufficientDataError):
            decorrelation_report(metric_columns(corpus), "methods", "classes", 1.0)


class TestWmcSummary:
    def test_constant_corpus(self):
        corpus = [pm(f"p{i}", 100, 428) for i in range(5)]
        summary = wmc_summary(metric_columns(corpus))
        assert summary.mean_linear == pytest.approx(4.28)
        assert summary.sd_log == 0.0
        assert summary.linear_of_mean_log == pytest.approx(4.28)

    def test_two_project_hand_case(self):
        corpus = [pm("a", 10, 20), pm("b", 10, 80)]
        summary = wmc_summary(metric_columns(corpus))
        assert summary.mean_log == pytest.approx(math.log(4.0), abs=1e-12)
        assert summary.linear_of_mean_log == pytest.approx(4.0, abs=1e-12)
        assert summary.mean_linear == pytest.approx(5.0, abs=1e-12)
        assert summary.mean_linear > summary.linear_of_mean_log

    def test_linear_mean_dominates_geometric(self):
        spec = SynthSpec(
            n_projects=400, x_range=(5, 2000), true_alpha=1.4, true_beta=1.0,
            noise_sigma=0.6, seed=9,
        )
        corpus = generate_metrics(spec)
        summary = wmc_summary(metric_columns(corpus))
        assert summary.mean_linear >= summary.linear_of_mean_log
        lo, hi = summary.one_sd_interval
        assert lo == pytest.approx(math.exp(summary.mean_log - summary.sd_log))
        assert hi == pytest.approx(math.exp(summary.mean_log + summary.sd_log))

    def test_all_projects_unusable(self):
        with pytest.raises(InsufficientDataError):
            wmc_summary(metric_columns([pm("a", 0, 0)]))
