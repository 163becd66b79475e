import math

from javascale.regression import (
    FitResult,
    ModelEval,
    diagnostics,
    fit_log_power,
    fit_robust_log_power,
)
from javascale.report import (
    bins_csv,
    diagnostics_csv,
    fits_csv,
    nrmse_csv,
    render_bin_report,
    render_fit_table,
    render_nrmse_table,
    render_welch_matrix,
    sha256_file,
    welch_csv,
    write_manifest,
)
from javascale.stats import BinSummary


class TestFitTable:
    def test_reference_row_formatting(self):
        fit = FitResult(3.5549, 1.0939, 1, 0.93, 0.87, 30914)
        table = render_fit_table([("SLOC vs. Modules", fit)])
        assert (
            "SLOC vs. Modules | 3.5549 | 1.0939 | 0.93 | 0.87 | log-log"
            in table.splitlines()
        )

    def test_robust_row_shows_na(self):
        fit = FitResult(-1.454, 1.059, 1, 0.89, None, 100, robust=True)
        table = render_fit_table([("Exter. vs. Total", fit)])
        row = table.splitlines()[1]
        assert "| NA |" in row
        assert row.endswith("log-log (RLM)")

    def test_empty_list_is_header_only(self):
        assert render_fit_table([]) == "analysis | alpha | beta | r | R2 | space\n"

    def test_transformed_space_label(self):
        fit = FitResult(2.335, 0.4863, 1.2, 0.93, 0.87, 100)
        assert "log-log^1.2" in render_fit_table([("Used vs. Declared", fit)])

    def test_csv_round_trip_precision(self):
        fit = fit_log_power([2, 3, 5, 9], [3, 4, 8, 17])
        text = fits_csv([("m", fit)])
        row = text.splitlines()[1].split(",")
        assert float(row[1]) == fit.alpha
        assert float(row[2]) == fit.beta


class TestOtherRenderers:
    SUMMARY = BinSummary(
        label="b1",
        low=-math.inf,
        high=20.0,
        project_count=11557,
        mean_log=-1.68,
        sd_log=0.78,
        mean_linear_pct=18.6,
        excluded_zero_ratio_count=12,
    )

    def test_bin_report(self):
        text = render_bin_report([self.SUMMARY], "interfaces", "classes")
        assert "b1 | < 20 | 11557 | -1.68 (18.6) | 0.78 | 12" in text

    def test_bins_csv(self):
        text = bins_csv([self.SUMMARY])
        assert text.splitlines()[0].startswith("bin,low,high")
        assert "11557" in text

    def test_welch_matrix(self):
        text = render_welch_matrix(["a", "b"], {("a", "b"): 0.034})
        lines = text.splitlines()
        assert lines[1] == "bin | a | b"
        assert "0.034" in lines[2] or "0.034" in lines[3]
        assert welch_csv({("a", "b"): 0.034}).splitlines()[1].startswith("a,b,")

    def test_nrmse_table(self):
        ev = ModelEval("m5", "[50,1000)", {"vsmall": 0.13078, "vlarge": 0.1204})
        text = render_nrmse_table([ev], ["vsmall", "vlarge"])
        assert "m5 | [50,1000) | 0.13078 | 0.12040" in text
        csv_text = nrmse_csv([ev], ["vsmall", "vlarge"])
        assert csv_text.splitlines()[1].startswith("m5,[50,1000),")

    def test_diagnostics_csv_columns(self):
        xs, ys = [2, 3, 5, 9], [3, 4, 8, 17]
        diag = diagnostics(fit_log_power(xs, ys), xs, ys)
        lines = diagnostics_csv(diag).splitlines()
        assert lines[0] == "fitted,residual,std_resid,leverage,cooks_d,qq_theoretical,qq_sample"
        assert len(lines) == 1 + len(xs)
        assert all(len(ln.split(",")) == 7 for ln in lines[1:])


class TestManifest:
    def test_hashes_every_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.txt").write_text("beta")
        manifest = write_manifest(tmp_path)
        lines = manifest.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("a.txt")
        assert lines[1].endswith("sub/b.txt")
        assert lines[0].split()[0] == sha256_file(tmp_path / "a.txt")

    def test_manifest_excludes_itself_and_is_stable(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha")
        first = write_manifest(tmp_path).read_text()
        second = write_manifest(tmp_path).read_text()
        assert first == second


def test_robust_fit_renders_na_end_to_end():
    xs, ys = [2, 3, 5, 9, 20], [3, 4, 8, 17, 44]
    fit = fit_robust_log_power(xs, ys)
    assert "NA" in render_fit_table([("robust", fit)])
