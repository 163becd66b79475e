import math
import statistics

import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from javascale import pipeline, stats
from javascale.errors import EmptyBinError, InsufficientDataError
from javascale.metrics import ProjectMetrics, metric_columns
from javascale.regression import diagnostics, fit_log_power, mean_ss
from javascale.stats import (
    analyze_bins,
    bin_by,
    inverse_normal_cdf,
    log_ratio_summary,
    log_ratios,
    normal_cdf,
    range_text,
    regularized_incomplete_beta,
    student_t_cdf,
    welch_t_test,
)


def pm(pid, classes=0, interfaces=0, **kw):
    return ProjectMetrics(
        project_id=pid,
        classes=classes,
        interfaces=interfaces,
        modules=classes + interfaces,
        **kw,
    )


class TestInverseNormal:
    def test_median(self):
        assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_97_5_percent(self):
        assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_round_trip(self):
        for p in (0.001, 0.123, 0.5, 0.777, 0.999):
            assert normal_cdf(inverse_normal_cdf(p)) == pytest.approx(p, abs=1e-12)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.4):
            assert inverse_normal_cdf(p) == pytest.approx(
                -inverse_normal_cdf(1 - p), abs=1e-10
            )

    def test_one_normal_dist_made_on_first_use(self, monkeypatch):
        """``diagnostics`` draws one quantile per point; the ``NormalDist``
        behind them is made once, on first use."""
        made = []

        class Counted(statistics.NormalDist):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(statistics, "NormalDist", Counted)
        stats._standard_normal.cache_clear()
        try:
            xs = [1, 2, 3, 5, 8, 13, 21]
            ys = [3, 4, 9, 11, 20, 35, 50]
            diag = diagnostics(fit_log_power(xs, ys), xs, ys)
            assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)
        finally:
            stats._standard_normal.cache_clear()
        assert len(diag.qq_pairs) == 7
        assert made == [()]

    def test_against_scipy(self):
        for i in range(1, 100):
            p = i / 100
            assert inverse_normal_cdf(p) == pytest.approx(
                float(scipy.stats.norm.ppf(p)), abs=1e-9
            )

    def test_within_1e_14_of_ndtri(self):
        grid = [(i + 0.5) / 4096 for i in range(4096)]
        low = [m * 10.0**-e for e in range(1, 301) for m in (1.0, 2.5, 5.0)]
        high = [1.0 - m * 10.0**-e for e in range(1, 16) for m in (1.0, 2.5, 5.0)]
        for p in grid + low + high:
            z = float(scipy.special.ndtri(p))
            assert abs(inverse_normal_cdf(p) - z) <= 1e-14 * max(1.0, abs(z)), p

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                inverse_normal_cdf(bad)


class TestStudentT:
    def test_symmetry_at_zero(self):
        for df in (1, 2.5, 8, 100):
            assert student_t_cdf(0.0, df) == 0.5

    def test_antisymmetry(self):
        assert student_t_cdf(-1.3, 7) == pytest.approx(
            1 - student_t_cdf(1.3, 7), abs=1e-12
        )

    def test_against_scipy_grid(self):
        for df in (1, 2, 5, 8, 30, 200):
            for t in (-4.0, -1.5, -0.3, 0.7, 2.2, 6.0):
                assert student_t_cdf(t, df) == pytest.approx(
                    float(scipy.stats.t.cdf(t, df)), abs=1e-10
                )

    def test_limits_to_normal(self):
        for t in (-2.0, -0.5, 0.5, 2.0):
            assert student_t_cdf(t, 1e6) == pytest.approx(normal_cdf(t), abs=1e-6)

    def test_df_must_be_positive(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)

    def test_incomplete_beta_against_scipy(self):
        for a, b in ((0.5, 0.5), (2, 3), (4.0, 0.5), (10, 10)):
            for x in (0.01, 0.2, 0.5, 0.8, 0.99):
                assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                    float(scipy.special.betainc(a, b, x)), abs=1e-12
                )


class TestWelch:
    def test_textbook_example(self):
        res = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert res.t_statistic == pytest.approx(-1.0, abs=1e-12)
        assert res.degrees_of_freedom == pytest.approx(8.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.3466, abs=1e-4)
        assert not res.significant_at_95

    def test_identical_samples(self):
        res = welch_t_test([3, 4, 5], [3, 4, 5])
        assert res.t_statistic == 0.0
        assert res.p_value == 1.0

    def test_degenerate_conventions(self):
        same = welch_t_test([2, 2, 2], [2, 2])
        assert same.p_value == 1.0
        differ = welch_t_test([2, 2, 2], [3, 3])
        assert differ.p_value == 0.0
        assert differ.significant_at_95

    def test_against_scipy(self):
        a = [1.2, 3.4, 2.2, 5.1, 4.4, 2.0]
        b = [2.2, 2.9, 6.1, 5.5, 7.2]
        res = welch_t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert res.t_statistic == pytest.approx(float(ref.statistic), abs=1e-12)
        assert res.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_sample_size_minimum(self):
        with pytest.raises(InsufficientDataError):
            welch_t_test([1], [2, 3])

    # grid-valued floats keep tiny differences from being absorbed by shifts
    grid = st.integers(-2000, 2000).map(lambda n: n / 100.0)

    @given(
        st.lists(grid, min_size=2, max_size=12),
        st.lists(grid, min_size=2, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry_property(self, a, b):
        fwd = welch_t_test(a, b)
        rev = welch_t_test(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-9, rel=1e-9)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    @given(
        st.lists(grid, min_size=3, max_size=10),
        st.lists(grid, min_size=3, max_size=10),
        st.integers(-100, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, a, b, shift):
        base = welch_t_test(a, b)
        moved = welch_t_test([v + shift for v in a], [v + shift for v in b])
        assert moved.t_statistic == pytest.approx(base.t_statistic, abs=1e-6, rel=1e-6)
        assert moved.p_value == pytest.approx(base.p_value, abs=1e-6)


class TestBinBy:
    EDGES = (20, 100, 1000, 5000)

    def corpus(self, sizes):
        return metric_columns([pm(f"p{i}", classes=s) for i, s in enumerate(sizes)])

    def test_five_bins_from_four_edges(self):
        bins = bin_by(self.corpus([5, 50, 500, 2000, 9000]), "classes", self.EDGES)
        assert len(bins) == 5
        assert [b.column("classes") for b in bins] == [[5], [50], [500], [2000], [9000]]
        assert range_text(bins[0].low, bins[0].high) == "< 20"
        assert range_text(bins[-1].low, bins[-1].high) == ">= 5000"

    def test_left_inclusive_boundary(self):
        bins = bin_by(self.corpus([20]), "classes", self.EDGES)
        assert bins[1].column("classes") == [20]  # 20 belongs to [20, 100)

    def test_single_project(self):
        bins = bin_by(self.corpus([42]), "classes", self.EDGES)
        assert sum(len(b.column("classes")) for b in bins) == 1

    def test_empty_corpus_gives_empty_bins(self):
        bins = bin_by(metric_columns([]), "classes", self.EDGES)
        assert all(not b.column("classes") for b in bins)

    def test_edges_must_ascend(self):
        with pytest.raises(ValueError):
            bin_by(metric_columns([]), "classes", (10, 10))

    # each edge and the size just below it, where an off-by-one bin lookup slips
    AT_EDGES = [e + d for e in EDGES for d in (-1, 0)]

    @given(
        st.lists(
            st.one_of(st.sampled_from(AT_EDGES), st.integers(0, 10000)),
            min_size=0,
            max_size=60,
        )
    )
    @example(sizes=AT_EDGES)
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, sizes):
        corpus = self.corpus(sizes)
        bins = bin_by(corpus, "classes", self.EDGES)
        assert sorted(v for b in bins for v in b.column("classes")) == sorted(sizes)
        for b in bins:
            assert all(b.low <= v < b.high for v in b.column("classes")), b.label


class TestLogRatioSummary:
    def test_constant_ratio_matches_reference_row(self):
        # every project at ratio e^-1.68 -> mean_log -1.68, linear 18.6%
        projects = [
            pm(f"p{i}", classes=1000, interfaces=round(1000 * math.exp(-1.68)))
            for i in range(4)
        ]
        bins = bin_by(metric_columns(projects), "classes", (20,))
        summary = log_ratio_summary(bins[1], "interfaces", "classes")
        assert summary.mean_log == pytest.approx(-1.68, abs=0.01)
        assert summary.mean_linear_pct == pytest.approx(18.6, abs=0.2)

    def test_equal_ratios_zero_sd(self):
        projects = [pm(f"p{i}", classes=10, interfaces=5) for i in range(3)]
        bins = bin_by(metric_columns(projects), "classes", (5,))
        summary = log_ratio_summary(bins[1], "interfaces", "classes")
        assert summary.sd_log == 0.0

    def test_two_project_hand_case(self):
        # log ratios -1 and -3 -> mean -2, sd sqrt(2)
        n1 = round(1000 * math.exp(-1))
        n3 = round(100000 * math.exp(-3))
        projects = [
            pm("a", classes=1000, interfaces=n1),
            pm("b", classes=100000, interfaces=n3),
        ]
        bins = bin_by(metric_columns(projects), "classes", (5,))
        summary = log_ratio_summary(bins[1], "interfaces", "classes")
        assert summary.mean_log == pytest.approx(-2.0, abs=0.01)
        assert summary.sd_log == pytest.approx(math.sqrt(2.0), abs=0.01)

    def test_zero_numerators_excluded_and_counted(self):
        projects = [
            pm("a", classes=10, interfaces=0),
            pm("b", classes=10, interfaces=5),
        ]
        bins = bin_by(metric_columns(projects), "classes", (5,))
        summary = log_ratio_summary(bins[1], "interfaces", "classes")
        assert summary.excluded_zero_ratio_count == 1
        assert summary.project_count == 1

    def test_all_excluded_is_error(self):
        projects = [pm("a", classes=10, interfaces=0)]
        bins = bin_by(metric_columns(projects), "classes", (5,))
        with pytest.raises(EmptyBinError):
            log_ratio_summary(bins[1], "interfaces", "classes")


class TestAnalyzeBins:
    EDGES = (20, 100, 1000, 5000)

    @staticmethod
    def corpus():
        # sizes across the first four bins, some zero numerators, and one
        # project alone in the last bin, which enters no Welch test
        rows = [
            pm(f"p{i}", classes=c, interfaces=(i * 7919) % (c // 3 + 2))
            for i, c in enumerate(round(1.2**k) for k in range(1, 47))
        ]
        return metric_columns([*rows, pm("big", classes=6000, interfaces=400)])

    @pytest.mark.parametrize("log", [True, False])
    def test_same_as_the_public_functions_on_each_bin(self, log):
        corpus = self.corpus()
        summaries, p_values = analyze_bins(corpus, "classes", self.EDGES, "interfaces", "classes", log)
        bins = bin_by(corpus, "classes", self.EDGES)
        series = {b.label: log_ratios(b, "interfaces", "classes", log)[0] for b in bins}
        assert summaries == [
            log_ratio_summary(b, "interfaces", "classes") for b in bins if series[b.label]
        ]
        tested = [label for label, values in series.items() if len(values) >= 2]
        assert tested == ["b1", "b2", "b3", "b4"]
        assert p_values == {
            (a, b): welch_t_test(series[a], series[b]).p_value
            for i, a in enumerate(tested)
            for b in tested[i + 1 :]
        }

    @pytest.mark.parametrize("log, passes", [(True, 5), (False, 10)])
    def test_each_bin_is_summed_once(self, monkeypatch, log, passes):
        calls = []

        def counted(values):
            calls.append(len(values))
            return mean_ss(values)

        monkeypatch.setattr(stats, "mean_ss", counted)
        pipeline.analyze_bins(self.corpus(), "classes", self.EDGES, "interfaces", "classes", log)
        # one pass over each bin's log ratios, and over its raw ratios when
        # those are tested; not two per Welch test
        assert len(calls) == passes
