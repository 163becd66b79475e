"""End-to-end analysis pipeline: extract, measure, fit, bin, validate,
normalize, and write a reproducible report bundle.

The bundle is a pure function of (config, corpus): rerunning produces
byte-identical files, verified by the sha256 manifest the run emits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError, UsageError
from .extractor import extract_corpus
from .metrics import (
    DEFAULT_JDK_PREFIXES,
    METRIC_NAMES,
    ProjectMetrics,
    compute_metrics,
    metric_value,
    used_modules_by_provenance,
)
from .normalize import decorrelation_report, normalize_corpus
from .regression import (
    FitResult,
    ModelEval,
    diagnostics,
    evaluate_nrmse,
    filter_by_size,
    fit_log_power,
    fit_robust_log_power,
)
from .report import (
    bins_csv,
    diagnostics_csv,
    fits_csv,
    nrmse_csv,
    normalized_csv,
    render_bin_report,
    render_fit_table,
    render_nrmse_table,
    render_welch_matrix,
    welch_csv,
    write_manifest,
)
from .stats import BinSummary, bin_by, log_ratio_summary, log_ratios, welch_t_test
from .store import (
    FactsArchive,
    export_metrics_table,
    read_metrics_table,
    write_facts,
)


@dataclass(frozen=True)
class GridCell:
    model_id: str
    y_metric: str
    x_metric: str
    k: float = 1.0
    subset: tuple[float, float] | None = None  # range on x_metric
    robust: bool = False

    @property
    def subset_rule(self) -> str:
        if self.subset is None:
            return "all"
        lo, hi = self.subset
        hi_text = "inf" if math.isinf(hi) else f"{hi:g}"
        return f"[{lo:g},{hi_text})"


@dataclass(frozen=True)
class EvalSet:
    name: str
    metric: str
    low: float
    high: float


DEFAULT_GRID = [
    GridCell("m1", "methods", "classes"),
    GridCell("m2", "methods", "classes", subset=(10, 3000)),
    GridCell("m3", "methods", "classes", subset=(20, 3000)),
    GridCell("m4", "methods", "classes", subset=(30, 3000)),
    GridCell("m5", "methods", "classes", subset=(50, 1000)),
    GridCell("m6", "methods", "classes", subset=(100, 500)),
    GridCell("m7", "methods", "classes", subset=(10, 100)),
    GridCell("m8", "methods", "classes", subset=(1000, 3000)),
]

DEFAULT_TESTSETS = [
    EvalSet("vsmall", "classes", 0, 10),
    EvalSet("vlarge", "classes", 3000, math.inf),
    EvalSet("all", "classes", 0, math.inf),
]


@dataclass
class RunConfig:
    manifest: str
    out_dir: str
    jdk_prefixes: tuple[str, ...] = DEFAULT_JDK_PREFIXES
    bin_edges: tuple[float, ...] = (20, 100, 1000, 5000)
    bin_numerator: str = "interfaces"
    bin_denominator: str = "classes"
    bin_metric: str = "classes"
    model_grid: list[GridCell] = field(default_factory=lambda: list(DEFAULT_GRID))
    testsets: list[EvalSet] = field(default_factory=lambda: list(DEFAULT_TESTSETS))
    normalize_numerator: str = "methods"
    normalize_denominator: str = "classes"
    normalize_beta: float | str = "auto"  # "auto" reads the chosen model's fit
    normalize_model: str = "m5"
    nrmse_space: str = "log"

    def validate(self) -> None:
        names = [
            self.bin_numerator,
            self.bin_denominator,
            self.bin_metric,
            self.normalize_numerator,
            self.normalize_denominator,
        ]
        for cell in self.model_grid:
            names += [cell.y_metric, cell.x_metric]
        for ts in self.testsets:
            names.append(ts.metric)
        unknown = sorted(set(n for n in names if n not in METRIC_NAMES))
        if unknown:
            raise UsageError(f"config references unknown metrics: {unknown}")
        ids = [c.model_id for c in self.model_grid]
        if len(ids) != len(set(ids)):
            raise UsageError("model grid ids must be unique")


def _range(value) -> tuple[float, float]:
    lo, hi = value
    return (float(lo), math.inf if hi is None else float(hi))


def parse_grid(
    data: dict, models: list[GridCell] | None, testsets: list[EvalSet]
) -> tuple[list[GridCell], list[EvalSet]]:
    """The model grid and test sets of a JSON config object.

    Absent keys keep the given ``models`` and ``testsets``; ``models=None``
    makes the ``models`` key required.  Missing keys and non-numeric
    values are usage errors.
    """
    try:
        if models is None or "models" in data:
            models = [
                GridCell(
                    model_id=m["id"],
                    y_metric=m["y"],
                    x_metric=m["x"],
                    k=float(m.get("k", 1)),
                    subset=None if m.get("subset") is None else _range(m["subset"]),
                    robust=bool(m.get("robust", False)),
                )
                for m in data["models"]
            ]
        if "testsets" in data:
            testsets = [
                EvalSet(t["name"], t["metric"], *_range(t["range"]))
                for t in data["testsets"]
            ]
    except KeyError as exc:
        raise UsageError(f"grid config lacks key {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"bad grid config value: {exc}") from exc
    return models, testsets


def load_config(path: str | Path) -> RunConfig:
    """Read a pipeline config from JSON; paths resolve against its parent."""
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    base = p.parent

    def _path(value: str) -> str:
        q = Path(value)
        return str(q if q.is_absolute() else base / q)

    try:
        cfg = RunConfig(
            manifest=_path(data["manifest"]),
            out_dir=_path(data["out_dir"]),
        )
        if "jdk_prefixes" in data:
            cfg.jdk_prefixes = tuple(data["jdk_prefixes"])
        if "bin_edges" in data:
            cfg.bin_edges = tuple(float(e) for e in data["bin_edges"])
        if "bin_ratio" in data:
            cfg.bin_numerator, cfg.bin_denominator = data["bin_ratio"]
            cfg.bin_metric = cfg.bin_denominator
        if "bin_metric" in data:
            cfg.bin_metric = data["bin_metric"]
        cfg.model_grid, cfg.testsets = parse_grid(data, cfg.model_grid, cfg.testsets)
        if "normalize" in data:
            norm = data["normalize"]
            cfg.normalize_numerator = norm.get("num", cfg.normalize_numerator)
            cfg.normalize_denominator = norm.get("den", cfg.normalize_denominator)
            cfg.normalize_beta = norm.get("beta", cfg.normalize_beta)
            cfg.normalize_model = norm.get("model", cfg.normalize_model)
        if "nrmse_space" in data:
            cfg.nrmse_space = data["nrmse_space"]
    except KeyError as exc:
        raise UsageError(f"config lacks key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError(f"bad config value: {exc}") from exc
    cfg.validate()
    return cfg


@dataclass
class RunResult:
    out_dir: Path
    stages: list[str]
    fit_rows: list[tuple[str, FitResult]]


def _series(corpus: list[ProjectMetrics], cell: GridCell) -> tuple[list[int], list[int]]:
    rows = corpus
    if cell.subset is not None:
        rows = filter_by_size(corpus, cell.x_metric, cell.subset[0], cell.subset[1])
    xs = [metric_value(pm, cell.x_metric) for pm in rows]
    ys = [metric_value(pm, cell.y_metric) for pm in rows]
    return xs, ys


def fit_grid(
    corpus: list[ProjectMetrics], grid: list[GridCell]
) -> list[tuple[str, FitResult, GridCell]]:
    out = []
    for cell in grid:
        xs, ys = _series(corpus, cell)
        fitter = fit_robust_log_power if cell.robust else fit_log_power
        out.append((cell.model_id, fitter(xs, ys, cell.k), cell))
    return out


def evaluate_grid(
    corpus: list[ProjectMetrics],
    fitted: list[tuple[str, FitResult, GridCell]],
    testsets: list[EvalSet],
    space: str = "log",
) -> list[ModelEval]:
    if space not in ("log", "linear"):
        raise UsageError(f"unknown NRMSE space {space!r}")
    evals = []
    for model_id, fit, cell in fitted:
        per_testset: dict[str, float] = {}
        for ts in testsets:
            rows = filter_by_size(corpus, ts.metric, ts.low, ts.high)
            xs = [metric_value(pm, cell.x_metric) for pm in rows]
            ys = [metric_value(pm, cell.y_metric) for pm in rows]
            try:
                per_testset[ts.name] = evaluate_nrmse(fit, xs, ys, space=space)
            except DataError:
                continue  # test set too small for this corpus; leave blank
        evals.append(
            ModelEval(
                model_id=model_id,
                subset_rule=cell.subset_rule,
                nrmse_per_testset=per_testset,
            )
        )
    return evals


def analyze_bins(
    corpus: list[ProjectMetrics],
    bin_metric: str,
    edges,
    numerator: str,
    denominator: str,
    log: bool = True,
) -> tuple[list[BinSummary], dict[tuple[str, str], float]]:
    """Bin the corpus by ``bin_metric`` and summarise the log ratio of each
    bin with a usable ratio.  Welch tests compare the ratios (log ones
    unless ``log`` is false) of every pair of bins holding two or more.
    """
    summaries = []
    series = {}
    for b in bin_by(corpus, bin_metric, edges):
        values, _excluded = log_ratios(b, numerator, denominator, log)
        if values:
            series[b.label] = values
            summaries.append(log_ratio_summary(b, numerator, denominator))
    labels = list(series)
    p_values = {}
    for idx, a in enumerate(labels):
        for b_label in labels[idx + 1 :]:
            if len(series[a]) >= 2 and len(series[b_label]) >= 2:
                p_values[(a, b_label)] = welch_t_test(series[a], series[b_label]).p_value
    return summaries, p_values


def run_pipeline(config: RunConfig) -> RunResult:
    """Execute every stage and write the report bundle."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    status_path = out / "STATUS"
    stages: list[str] = []

    def mark(stage: str) -> None:
        stages.append(stage)
        status_path.write_text(
            "\n".join(stages) + "\n", encoding="utf-8"
        )

    try:
        projects = extract_corpus(config.manifest)
        archive = FactsArchive(projects=projects)
        write_facts(archive, out / "facts.bin")
        mark("extract")

        corpus = [
            compute_metrics(
                facts, used_modules_by_provenance(facts, config.jdk_prefixes)
            )
            for facts in projects
        ]
        export_metrics_table(corpus, out / "metrics.csv")
        mark("metrics")

        fitted = fit_grid(corpus, config.model_grid)
        fit_rows = [(model_id, fit) for model_id, fit, _ in fitted]
        (out / "fits.csv").write_text(fits_csv(fit_rows), encoding="utf-8")
        (out / "fit_table.txt").write_text(render_fit_table(fit_rows), encoding="utf-8")
        diag_dir = out / "diagnostics"
        diag_dir.mkdir(exist_ok=True)
        for model_id, fit, cell in fitted:
            if fit.robust:
                continue
            xs, ys = _series(corpus, cell)
            diag = diagnostics(fit, xs, ys)
            (diag_dir / f"{model_id}.csv").write_text(
                diagnostics_csv(diag), encoding="utf-8"
            )
        mark("fits")

        summaries, p_values = analyze_bins(
            corpus,
            config.bin_metric,
            config.bin_edges,
            config.bin_numerator,
            config.bin_denominator,
        )
        (out / "bins.csv").write_text(bins_csv(summaries), encoding="utf-8")
        (out / "bin_report.txt").write_text(
            render_bin_report(summaries, config.bin_numerator, config.bin_denominator),
            encoding="utf-8",
        )
        labels = [s.label for s in summaries]
        (out / "welch_matrix.csv").write_text(
            welch_csv(labels, p_values), encoding="utf-8"
        )
        (out / "welch_matrix.txt").write_text(
            render_welch_matrix(labels, p_values), encoding="utf-8"
        )
        mark("bins")

        evals = evaluate_grid(corpus, fitted, config.testsets, config.nrmse_space)
        testset_names = [ts.name for ts in config.testsets]
        (out / "nrmse.csv").write_text(
            nrmse_csv(evals, testset_names), encoding="utf-8"
        )
        (out / "nrmse_table.txt").write_text(
            render_nrmse_table(evals, testset_names), encoding="utf-8"
        )
        mark("validate")

        beta = config.normalize_beta
        if beta == "auto":
            by_id = {model_id: fit for model_id, fit, _ in fitted}
            if config.normalize_model not in by_id:
                raise UsageError(
                    f"normalize model {config.normalize_model!r} not in the grid"
                )
            beta = by_id[config.normalize_model].beta
        rows = normalize_corpus(
            corpus,
            config.normalize_numerator,
            config.normalize_denominator,
            float(beta),
        )
        (out / "normalized.csv").write_text(normalized_csv(rows), encoding="utf-8")
        try:
            deco = decorrelation_report(
                corpus,
                config.normalize_numerator,
                config.normalize_denominator,
                float(beta),
            )
            deco_text = (
                f"beta {deco.beta!r}\n"
                f"n {deco.n}\n"
                f"pearson_log {deco.pearson_log!r}\n"
                f"spearman {deco.spearman!r}\n"
                f"decorrelated {deco.decorrelated}\n"
            )
        except DataError as exc:
            deco_text = f"decorrelation unavailable: {exc}\n"
        (out / "decorrelation.txt").write_text(deco_text, encoding="utf-8")
        mark("normalize")

        write_manifest(out)
        mark("done")
    except Exception:
        if stages:
            status_path.write_text(
                "\n".join(stages) + "\nFAILED\n", encoding="utf-8"
            )
        else:
            status_path.write_text("FAILED\n", encoding="utf-8")
        raise
    return RunResult(out_dir=out, stages=stages, fit_rows=fit_rows)


def render_run_report(run_dir: str | Path) -> str:
    """Assemble the stored tables of a finished run into one text report.

    Reads only the emitted files; nothing is recomputed.
    """
    out = Path(run_dir)
    if not out.is_dir():
        raise DataError(f"run directory {run_dir} does not exist")
    sections = []
    for name, title in [
        ("fit_table.txt", "model fits"),
        ("bin_report.txt", "binned ratio analysis"),
        ("welch_matrix.txt", "welch tests"),
        ("nrmse_table.txt", "model accuracy (NRMSE)"),
        ("decorrelation.txt", "normalization decorrelation"),
    ]:
        path = out / name
        if path.exists():
            sections.append(f"== {title}\n{path.read_text(encoding='utf-8')}")
    metrics_path = out / "metrics.csv"
    if metrics_path.exists():
        corpus = read_metrics_table(metrics_path)
        sections.insert(0, f"== corpus\nprojects: {len(corpus)}\n")
    return "\n".join(sections)
