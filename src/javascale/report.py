"""Plain-text and delimited-file rendering of analysis results.

Everything written here is a pure function of its inputs: no timestamps,
no environment lookups, stable float formatting.  Data files keep full
precision (shortest round-trip repr); display tables round.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .regression import Diagnostics, FitResult, ModelEval
from .stats import BinSummary, range_text


def _fmt(value: float) -> str:
    return repr(float(value))


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
    header = "analysis,alpha,beta,k,r,r_squared,n,robust,converged,excluded_zero_pairs,space"
    lines = [header]
    for label, fit in rows:
        r2 = "" if fit.r_squared is None else _fmt(fit.r_squared)
        lines.append(
            ",".join(
                [
                    label,
                    _fmt(fit.alpha),
                    _fmt(fit.beta),
                    _fmt(fit.k),
                    _fmt(fit.r),
                    r2,
                    str(fit.n),
                    str(int(fit.robust)),
                    str(int(fit.converged)),
                    str(fit.excluded_zero_pairs),
                    fit.space,
                ]
            )
        )
    return "\n".join(lines) + "\n"


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
    header = "bin,low,high,projects,mean_log,sd_log,mean_linear_pct,excluded"
    lines = [header]
    for s in summaries:
        lines.append(
            ",".join(
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
            )
        )
    return "\n".join(lines) + "\n"


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


def welch_csv(labels: list[str], p_values: dict[tuple[str, str], float]) -> str:
    lines = ["bin_a,bin_b,p_value"]
    for (a, b), p in sorted(p_values.items()):
        lines.append(f"{a},{b},{_fmt(p)}")
    return "\n".join(lines) + "\n"


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
    lines = ["model,subset," + ",".join(testset_names)]
    for ev in evals:
        cells = [
            "" if ev.nrmse_per_testset.get(n) is None else _fmt(ev.nrmse_per_testset[n])
            for n in testset_names
        ]
        lines.append(f"{ev.model_id},{ev.subset_rule}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def diagnostics_csv(diag: Diagnostics) -> str:
    """One row per point; the qq columns carry the i-th sorted pair."""
    header = "fitted,residual,std_resid,leverage,cooks_d,qq_theoretical,qq_sample"
    lines = [header]
    for i in range(len(diag.fitted)):
        qq_t, qq_s = diag.qq_pairs[i]
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    diag.fitted[i],
                    diag.residuals[i],
                    diag.standardized_residuals[i],
                    diag.leverage[i],
                    diag.cooks_distance[i],
                    qq_t,
                    qq_s,
                )
            )
        )
    return "\n".join(lines) + "\n"


def normalized_csv(rows) -> str:
    lines = ["project_id,raw_ratio,beta,normalized_value"]
    for nm in rows:
        lines.append(
            f"{nm.project_id},{_fmt(nm.raw_ratio)},{_fmt(nm.beta)},{_fmt(nm.value)}"
        )
    return "\n".join(lines) + "\n"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


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
