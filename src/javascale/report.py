"""Plain-text and delimited-file rendering of analysis results.

Everything written here is a pure function of its inputs: no timestamps,
no environment lookups, stable float formatting.  Data files keep full
precision (shortest round-trip repr); display tables round.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path

from .normalize import NormalizedColumns
from .regression import Diagnostics, FitResult, ModelEval
from .stats import BinSummary, range_text


def _fmt(value: float | None) -> str:
    """A data cell: the shortest round-trip repr, or empty for a missing value."""
    return "" if value is None else repr(float(value))


def _delimited(header: str, rows) -> str:
    """A delimited data file: ``header``, then each row's cells joined by
    commas, every line ending in a newline."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def render_fit_table(rows: list[tuple[str, FitResult]]) -> str:
    """Table of fits: analysis | alpha | beta | r | R2 | space.

    Robust rows show NA for the goodness of fit and are marked (RLM).
    """
    lines = ["analysis | alpha | beta | r | R2 | space"]
    for label, fit in rows:
        r2 = "NA" if fit.r_squared is None else f"{fit.r_squared:.2f}"
        space = fit.space + (" (RLM)" if fit.robust else "")
        lines.append(
            f"{label} | {fit.alpha:.4f} | {fit.beta:.4f} | {fit.r:.2f} | {r2} | {space}"
        )
    return "\n".join(lines) + "\n"


def fits_csv(rows: list[tuple[str, FitResult]]) -> str:
    return _delimited(
        "analysis,alpha,beta,k,r,r_squared,n,robust,converged,excluded_zero_pairs,space",
        (
            [
                label,
                _fmt(fit.alpha),
                _fmt(fit.beta),
                _fmt(fit.k),
                _fmt(fit.r),
                _fmt(fit.r_squared),
                str(fit.n),
                str(int(fit.robust)),
                str(int(fit.converged)),
                str(fit.excluded_zero_pairs),
                fit.space,
            ]
            for label, fit in rows
        ),
    )


def render_bin_report(
    summaries: list[BinSummary], numerator: str, denominator: str
) -> str:
    lines = [
        f"ratio {numerator}/{denominator} (mean and SD in log scale)",
        "bin | range | projects | mean_log (linear%) | sd_log | excluded",
    ]
    for s in summaries:
        rng = range_text(s.low, s.high)
        lines.append(
            f"{s.label} | {rng} | {s.project_count} | "
            f"{s.mean_log:.2f} ({s.mean_linear_pct:.1f}) | {s.sd_log:.2f} | "
            f"{s.excluded_zero_ratio_count}"
        )
    return "\n".join(lines) + "\n"


def bins_csv(summaries: list[BinSummary]) -> str:
    return _delimited(
        "bin,low,high,projects,mean_log,sd_log,mean_linear_pct,excluded",
        (
            [
                s.label,
                _fmt(s.low),
                _fmt(s.high),
                str(s.project_count),
                _fmt(s.mean_log),
                _fmt(s.sd_log),
                _fmt(s.mean_linear_pct),
                str(s.excluded_zero_ratio_count),
            ]
            for s in summaries
        ),
    )


def render_welch_matrix(labels: list[str], p_values: dict[tuple[str, str], float]) -> str:
    """Pairwise two-sided p-values between bins, lower triangle."""
    lines = ["welch p-value matrix (two-sided)"]
    lines.append("bin | " + " | ".join(labels))
    for row in labels:
        cells = []
        for col in labels:
            if row == col:
                cells.append("-")
            else:
                key = (row, col) if (row, col) in p_values else (col, row)
                p = p_values.get(key)
                cells.append("" if p is None else f"{p:.4g}")
        lines.append(f"{row} | " + " | ".join(cells))
    return "\n".join(lines) + "\n"


def welch_csv(p_values: dict[tuple[str, str], float]) -> str:
    return _delimited(
        "bin_a,bin_b,p_value", ([a, b, _fmt(p)] for (a, b), p in sorted(p_values.items()))
    )


def render_nrmse_table(evals: list[ModelEval], testset_names: list[str]) -> str:
    lines = ["model | subset | " + " | ".join(testset_names)]
    for ev in evals:
        cells = []
        for name in testset_names:
            v = ev.nrmse_per_testset.get(name)
            cells.append("" if v is None else f"{v:.5f}")
        lines.append(f"{ev.model_id} | {ev.subset_rule} | " + " | ".join(cells))
    return "\n".join(lines) + "\n"


def nrmse_csv(evals: list[ModelEval], testset_names: list[str]) -> str:
    return _delimited(
        ",".join(["model", "subset", *testset_names]),
        (
            [ev.model_id, ev.subset_rule]
            + [_fmt(ev.nrmse_per_testset.get(name)) for name in testset_names]
            for ev in evals
        ),
    )


def diagnostics_csv(diag: Diagnostics) -> str:
    """One row per point; the qq columns carry the i-th sorted pair."""
    return _delimited(
        "fitted,residual,std_resid,leverage,cooks_d,qq_theoretical,qq_sample",
        (
            map(_fmt, (*point, *qq))
            for *point, qq in zip(
                diag.fitted,
                diag.residuals,
                diag.standardized_residuals,
                diag.leverage,
                diag.cooks_distance,
                diag.qq_pairs,
            )
        ),
    )


def normalized_csv(table: NormalizedColumns) -> str:
    # the columns hold floats, so repr is _fmt; beta is formatted once
    return _delimited(
        "project_id,raw_ratio,beta,normalized_value",
        zip(
            table.project_id,
            map(repr, table.raw_ratio),
            repeat(_fmt(table.beta)),
            map(repr, table.value),
        ),
    )


def sha256_file(path: Path) -> str:
    import hashlib  # on first use: a command that writes no manifest does not load it

    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: str | Path, manifest_name: str = "MANIFEST") -> Path:
    """Hash every file under the output directory into a manifest."""
    out = Path(out_dir)
    entries = []
    for path in sorted(out.rglob("*")):
        if not path.is_file() or path.name == manifest_name:
            continue
        rel = path.relative_to(out).as_posix()
        entries.append(f"{sha256_file(path)}  {rel}")
    target = out / manifest_name
    target.write_text("\n".join(entries) + "\n", encoding="utf-8")
    return target
