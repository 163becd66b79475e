"""Command-line driver.

Exit codes: 0 success, 1 usage problem, 2 data error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import DataError, EmptyCorpusError, UsageError
from .metrics import DEFAULT_JDK_PREFIXES
from .normalize import decorrelation_report, normalize_corpus
from .pipeline import (
    GridCell,
    _series,
    analyze_bins,
    evaluate_grid,
    extract_facts,
    fit_grid,
    load_config,
    load_json,
    measure_archive,
    parse_grid,
    render_run_report,
    run_pipeline,
)
from .regression import fit_log_power, fit_robust_log_power
from .report import (
    normalized_csv,
    render_bin_report,
    render_fit_table,
    render_nrmse_table,
    render_welch_matrix,
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
    corpus = read_metrics_table(args.metrics)
    label = f"{args.y_metric} vs. {args.x_metric}"
    xs, ys = _series(corpus, GridCell(label, args.y_metric, args.x_metric, subset=args.subset))
    if args.subset is not None:
        print(f"subset projects: {len(xs)}")
    fitter = fit_robust_log_power if args.robust else fit_log_power
    fit = fitter(xs, ys, args.k, zero_offset=args.zero_offset)
    print(render_fit_table([(label, fit)]), end="")
    print(f"n={fit.n} excluded_zero_pairs={fit.excluded_zero_pairs}")
    return 0


def cmd_bins(args) -> int:
    corpus = read_metrics_table(args.metrics)
    try:
        num, den = args.ratio.split("/", 1)
    except ValueError as exc:
        raise UsageError("--ratio must look like interfaces/classes") from exc
    try:
        edges = [float(e) for e in args.edges.split(",") if e.strip()]
    except ValueError as exc:
        raise UsageError(f"--edges must be comma-separated numbers: {exc}") from exc
    summaries, p_values = analyze_bins(
        corpus,
        args.bin_metric or den,
        edges,
        num,
        den,
        log=not args.linear_ratios,
    )
    print(render_bin_report(summaries, num, den), end="")
    print(render_welch_matrix([s.label for s in summaries], p_values), end="")
    return 0


def cmd_validate(args) -> int:
    corpus = read_metrics_table(args.metrics)
    grid_data = load_json(args.grid, "grid config")
    cells, testsets = parse_grid(grid_data, None, [])
    space = grid_data.get("space", "log")
    fitted = fit_grid(corpus, cells)
    print(render_fit_table([(mid, fit) for mid, fit, _ in fitted]), end="")
    if testsets:
        evals = evaluate_grid(corpus, fitted, testsets, space)
        print(render_nrmse_table(evals, [t.name for t in testsets]), end="")
    return 0


def cmd_normalize(args) -> int:
    corpus = read_metrics_table(args.metrics)
    if args.beta == "auto":
        cell = GridCell("auto", args.num, args.den, subset=args.subset)
        [(_, fit, _)] = fit_grid(corpus, [cell])
        beta = fit.beta
        print(f"auto beta from subset {args.subset[0]:g}:{args.subset[1]:g} -> {beta!r}")
    else:
        try:
            beta = float(args.beta)
        except ValueError as exc:
            raise UsageError("--beta must be a number or 'auto'") from exc
    rows = normalize_corpus(corpus, args.num, args.den, beta)
    text = normalized_csv(rows)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(rows)} normalized row(s) -> {args.output}")
    else:
        print(text, end="")
    try:
        deco = decorrelation_report(corpus, args.num, args.den, beta)
        print(
            f"pearson_log={deco.pearson_log:.4f} spearman={deco.spearman:.4f} "
            f"decorrelated={deco.decorrelated}"
        )
    except DataError as exc:
        print(f"decorrelation unavailable: {exc}")
    return 0


def cmd_synth(args) -> int:
    data = load_json(args.spec, "synth spec")
    try:
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
    except KeyError as exc:
        raise UsageError(f"synth spec lacks key {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"bad synth spec value: {exc}") from exc
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
