"""Command-line driver.

Exit codes: 0 success, 1 usage problem, 2 data error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import DataError, EmptyCorpusError, UsageError
from .metrics import DEFAULT_JDK_PREFIXES, metric_columns
from .pipeline import (
    GridCell,
    bin_stage,
    check_grid,
    extract_facts,
    fit_stage,
    load_config,
    load_json,
    measure_archive,
    normalize_stage,
    parse_grid,
    render_run_report,
    run_pipeline,
    settings_errors,
    validate_stage,
)
from .store import export_metrics_table, read_metrics_table
from .synth import SynthSpec, generate_metrics


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":", 1)
        lo = float(lo_text) if lo_text else 0.0
        hi = float(hi_text) if hi_text else math.inf
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected LO:HI") from exc
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="javascale", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract facts for a corpus manifest")
    p.add_argument("manifest")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("metrics", help="compute the per-project metrics table")
    p.add_argument("facts")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("fit", help="fit one scaling model")
    p.add_argument("metrics")
    p.add_argument("--y", required=True, dest="y_metric")
    p.add_argument("--x", required=True, dest="x_metric")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--subset", type=_parse_range, default=None, metavar="LO:HI")
    p.add_argument("--robust", action="store_true")
    p.add_argument("--zero-offset", action="store_true",
                   help="fit log(v+1) so zero counts stay in the sample")

    p = sub.add_parser("bins", help="binned ratio analysis with Welch tests")
    p.add_argument("metrics")
    p.add_argument("--ratio", required=True, metavar="NUM/DEN")
    p.add_argument("--edges", required=True, help="comma-separated thresholds")
    p.add_argument("--bin-metric", default=None, help="defaults to the denominator")
    p.add_argument("--linear-ratios", action="store_true",
                   help="run the Welch tests on raw ratios instead of log ratios")

    p = sub.add_parser("validate", help="NRMSE evaluation over a model grid")
    p.add_argument("metrics")
    p.add_argument("--grid", required=True, help="JSON grid configuration")

    p = sub.add_parser("normalize", help="size-normalized metric table")
    p.add_argument("metrics")
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.add_argument("--beta", required=True, help="exponent or 'auto'")
    p.add_argument("--subset", type=_parse_range, default=(50, 1000), metavar="LO:HI",
                   help="subset fitted when --beta auto (default 50:1000)")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("synth", help="generate a synthetic metrics table")
    p.add_argument("--spec", required=True, help="JSON generator spec")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("pipeline", help="run the full pipeline from a config")
    p.add_argument("config")

    p = sub.add_parser("report", help="render the report for a finished run")
    p.add_argument("run_dir")

    return parser


def cmd_extract(args) -> int:
    corpus, warnings = extract_facts(args.manifest, DEFAULT_JDK_PREFIXES, args.output)
    print(f"extracted {len(corpus)} project(s) -> {args.output}"
          f" ({warnings} parse warning(s))")
    return 0


def cmd_metrics(args) -> int:
    measured = measure_archive(args.facts, DEFAULT_JDK_PREFIXES)
    corpus = [row for row, _ in measured]
    if not corpus:
        raise EmptyCorpusError(f"{args.facts}: archive holds no projects")
    export_metrics_table(corpus, args.output)
    unresolved = sum(missing for _, missing in measured)
    resolved = sum(pm.used_total for pm in corpus)
    total_names = resolved + unresolved
    fraction = unresolved / total_names if total_names else 0.0
    print(f"wrote metrics for {len(corpus)} project(s) -> {args.output}")
    print(
        f"unresolved used-module names: {unresolved} of {total_names} "
        f"({fraction:.1%}); excluded from the provenance split"
    )
    return 0


def cmd_fit(args) -> int:
    label = f"{args.y_metric} vs. {args.x_metric}"
    cell = GridCell(label, args.y_metric, args.x_metric, args.k, args.subset, args.robust,
                    args.zero_offset)
    check_grid([cell], [], "log")
    files, [(_, fit, _)] = fit_stage(read_metrics_table(args.metrics), [cell])
    if args.subset is not None:
        print(f"subset projects: {fit.n + fit.excluded_zero_pairs}")
    print(files["fit_table.txt"], end="")
    print(f"n={fit.n} excluded_zero_pairs={fit.excluded_zero_pairs}")
    return 0


def cmd_bins(args) -> int:
    try:
        num, den = args.ratio.split("/", 1)
    except ValueError as exc:
        raise UsageError("--ratio must look like interfaces/classes") from exc
    try:
        edges = [float(e) for e in args.edges.split(",") if e.strip()]
    except ValueError as exc:
        raise UsageError(f"--edges must be comma-separated numbers: {exc}") from exc
    settings = args.bin_metric or den, edges, num, den, not args.linear_ratios
    bin_stage(metric_columns([]), *settings)
    files = bin_stage(read_metrics_table(args.metrics), *settings)
    print(files["bin_report.txt"] + files["welch_matrix.txt"], end="")
    return 0


def cmd_validate(args) -> int:
    grid_data = load_json(args.grid, "grid config")
    cells, testsets = parse_grid(grid_data, None, [])
    space = grid_data.get("space", "log")
    check_grid(cells, testsets, space)
    corpus = read_metrics_table(args.metrics)
    files, fitted = fit_stage(corpus, cells)
    if testsets:
        files.update(validate_stage(corpus, fitted, testsets, space))
    print(files["fit_table.txt"] + files.get("nrmse_table.txt", ""), end="")
    return 0


def cmd_normalize(args) -> int:
    auto = [GridCell("auto", args.num, args.den, subset=args.subset)] if args.beta == "auto" else []
    try:
        beta = 1.0 if auto else float(args.beta)  # 1.0 stands in for the fitted beta
    except ValueError as exc:
        raise UsageError("--beta must be a number or 'auto'") from exc
    check_grid(auto, [], "log")
    normalize_stage(metric_columns([]), args.num, args.den, beta)
    corpus = read_metrics_table(args.metrics)
    if auto:
        _, [(_, fit, _)] = fit_stage(corpus, auto)
        beta = fit.beta
        print(f"auto beta from subset {args.subset[0]:g}:{args.subset[1]:g} -> {beta!r}")
    files = normalize_stage(corpus, args.num, args.den, beta)
    text = files["normalized.csv"]
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        rows = text.count("\n") - 1  # less the header
        print(f"wrote {rows} normalized row(s) -> {args.output}")
    else:
        print(text, end="")
    print(files["decorrelation.txt"], end="")
    return 0


def cmd_synth(args) -> int:
    data = load_json(args.spec, "synth spec")
    with settings_errors("synth spec"):
        spec = SynthSpec(
            n_projects=int(data["n_projects"]),
            x_range=(float(data["x_range"][0]), float(data["x_range"][1])),
            true_alpha=float(data["alpha"]),
            true_beta=float(data["beta"]),
            true_k=float(data.get("k", 1)),
            noise_sigma=float(data.get("sigma", 0)),
            seed=int(data.get("seed", 0)),
            x_metric=data.get("x_metric", "classes"),
            y_metric=data.get("y_metric", "methods"),
        )
    for name in (spec.x_metric, spec.y_metric):
        metric_columns([]).column(name)  # an unknown metric is a usage error
    corpus = generate_metrics(spec)
    export_metrics_table(corpus, args.output)
    print(f"wrote {len(corpus)} synthetic project(s) -> {args.output}")
    return 0


def cmd_pipeline(args) -> int:
    config = load_config(args.config)
    result = run_pipeline(config)
    print(f"pipeline complete -> {result.out_dir} ({len(result.stages)} stages)")
    return 0


def cmd_report(args) -> int:
    print(render_run_report(args.run_dir), end="")
    return 0


_COMMANDS = {
    "extract": cmd_extract,
    "metrics": cmd_metrics,
    "fit": cmd_fit,
    "bins": cmd_bins,
    "validate": cmd_validate,
    "normalize": cmd_normalize,
    "synth": cmd_synth,
    "pipeline": cmd_pipeline,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
