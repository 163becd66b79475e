"""End-to-end analysis pipeline: extract, measure, fit, bin, validate,
normalize, and write a reproducible report bundle.

The bundle is a pure function of (config, corpus): rerunning produces
byte-identical files, verified by the sha256 manifest the run emits.
"""

from __future__ import annotations

import gc
import json
import math
import os
import threading
from contextlib import closing, contextmanager
from itertools import compress
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import ArchiveError, DataError, UsageError
from .extractor import extract_project, java_files, read_manifest
from .metrics import (
    DEFAULT_JDK_PREFIXES,
    MetricColumns,
    ProjectMetrics,
    measure,
    metric_columns,
)
from .normalize import decorrelation_report, normalize_corpus
from .regression import (
    FitResult,
    ModelEval,
    _transform,
    check_nrmse_space,
    diagnostics,
    evaluate_nrmse,
    filter_by_size,
    fit_log_power,
    fit_robust_log_power,
    transformed_nrmse,
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
from .stats import analyze_bins
from .store import (
    decode_columns,
    encode_columns,
    export_metrics_table,
    read_metrics_table,
    scan_records,
    write_records,
)


class GridCell(NamedTuple):
    model_id: str
    y_metric: str
    x_metric: str
    k: float = 1.0
    subset: tuple[float, float] | None = None  # range on x_metric
    robust: bool = False
    zero_offset: bool = False  # fit log(v+1); set by the fit command only

    @property
    def subset_rule(self) -> str:
        if self.subset is None:
            return "all"
        lo, hi = self.subset
        hi_text = "inf" if math.isinf(hi) else f"{hi:g}"
        return f"[{lo:g},{hi_text})"


# each grid model's id, fit and cell, in grid order
Fitted = list[tuple[str, FitResult, GridCell]]


class EvalSet(NamedTuple):
    name: str
    metric: str
    low: float
    high: float


DEFAULT_GRID = (
    GridCell("m1", "methods", "classes"),
    GridCell("m2", "methods", "classes", subset=(10, 3000)),
    GridCell("m3", "methods", "classes", subset=(20, 3000)),
    GridCell("m4", "methods", "classes", subset=(30, 3000)),
    GridCell("m5", "methods", "classes", subset=(50, 1000)),
    GridCell("m6", "methods", "classes", subset=(100, 500)),
    GridCell("m7", "methods", "classes", subset=(10, 100)),
    GridCell("m8", "methods", "classes", subset=(1000, 3000)),
)

DEFAULT_TESTSETS = (
    EvalSet("vsmall", "classes", 0, 10),
    EvalSet("vlarge", "classes", 3000, math.inf),
    EvalSet("all", "classes", 0, math.inf),
)


class RunConfig(NamedTuple):
    manifest: str
    out_dir: str
    jdk_prefixes: tuple[str, ...] = DEFAULT_JDK_PREFIXES
    bin_edges: tuple[float, ...] = (20, 100, 1000, 5000)
    bin_numerator: str = "interfaces"
    bin_denominator: str = "classes"
    bin_metric: str = "classes"
    model_grid: Sequence[GridCell] = DEFAULT_GRID
    testsets: Sequence[EvalSet] = DEFAULT_TESTSETS
    normalize_numerator: str = "methods"
    normalize_denominator: str = "classes"
    normalize_beta: float | str = "auto"  # "auto" reads the chosen model's fit
    normalize_model: str = "m5"
    nrmse_space: str = "log"

    def validate(self) -> None:
        """Raise ``UsageError`` on a bad setting; each stage checks its own on the empty table."""
        prefixes = self.jdk_prefixes
        if not (isinstance(prefixes, tuple) and all(isinstance(p, str) for p in prefixes)):
            raise UsageError(f"jdk_prefixes must be a list of strings, not {prefixes!r}")
        check_grid(self.model_grid, self.testsets, self.nrmse_space)
        empty = metric_columns([])
        bin_stage(empty, self.bin_metric, self.bin_edges, self.bin_numerator, self.bin_denominator)
        num, den, beta = self.normalize_numerator, self.normalize_denominator, self.normalize_beta
        normalize_stage(empty, num, den, 1.0 if beta == "auto" else beta)
        if beta == "auto":
            cell = {c.model_id: c for c in self.model_grid}.get(self.normalize_model)
            if cell is None:
                raise UsageError(f"normalize model {self.normalize_model!r} not in the grid")
            # num / den**beta removes the size dependence of num ~ den with k = 1 only
            if (cell.y_metric, cell.x_metric, cell.k) != (num, den, 1):
                raise UsageError(
                    f"normalize model {cell.model_id!r} fits {cell.y_metric} ~ "
                    f"{cell.x_metric} with k={cell.k:g}, not {num} ~ {den} with k=1"
                )


def check_grid(models: Sequence[GridCell], testsets: Sequence[EvalSet], space: str) -> None:
    """Raise ``UsageError`` unless the model grid and test sets are sound:
    known metrics, unique model ids, each model's k and subset, each test
    set's range and the NRMSE ``space``.  Each stage's own argument rules
    run on empty input, so a bad value fails before any stage runs."""
    ids = [cell.model_id for cell in models]
    if len(ids) != len(set(ids)):
        raise UsageError("model grid ids must be unique")
    empty = metric_columns([])
    for cell in models:
        _transform([], [], cell.k, False)
        _series(empty, cell)
    evaluate_grid(empty, [], testsets, space)


def _model_id(value) -> str:
    if not isinstance(value, str):  # a JSON list would fail check_grid's set()
        raise TypeError(f"model id {value!r} is not a string")
    return value


def json_list(value, key: str) -> list:
    """``value``, the setting ``key``, which must be a JSON list: a string or
    an object would be read one item at a time."""
    if type(value) is not list:
        raise UsageError(f"{key} must be a list, not {value!r}")
    return value


def _range(value, key: str) -> tuple[float, float]:
    lo, hi = json_list(value, key)
    return (float(lo), math.inf if hi is None else float(hi))


@contextmanager
def settings_errors(what: str):
    """Report a missing key or a bad value in settings file ``what`` as a usage error."""
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"{what} lacks key {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {what} value: {exc}") from exc


def parse_grid(
    data: dict, models: Sequence[GridCell] | None, testsets: Sequence[EvalSet]
) -> tuple[Sequence[GridCell], Sequence[EvalSet]]:
    """The model grid and test sets of a JSON config object.

    Absent keys keep the given ``models`` and ``testsets``; ``models=None``
    makes the ``models`` key required.  Missing keys, model ids that are
    not strings and non-numeric values are usage errors.
    """
    with settings_errors("grid config"):
        if models is None or "models" in data:
            models = [
                GridCell(
                    model_id=_model_id(m["id"]),
                    y_metric=m["y"],
                    x_metric=m["x"],
                    k=float(m.get("k", 1)),
                    subset=None if m.get("subset") is None else _range(m["subset"], "subset"),
                    robust=bool(m.get("robust", False)),
                )
                for m in data["models"]
            ]
        if "testsets" in data:
            testsets = [
                EvalSet(t["name"], t["metric"], *_range(t["range"], "range"))
                for t in data["testsets"]
            ]
    return models, testsets


def load_json(path: str | Path, what: str):
    """A JSON file's value; unreadable, non-UTF-8 or malformed is a usage error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Read a pipeline config from JSON; paths resolve against its parent."""
    data = load_json(path, "config")
    base = Path(path).parent

    def _path(value: str) -> str:
        q = Path(value)
        return str(q if q.is_absolute() else base / q)

    with settings_errors("config"):
        cfg = dict(RunConfig._field_defaults, manifest=_path(data["manifest"]))
        cfg["out_dir"] = _path(data["out_dir"])
        if "jdk_prefixes" in data:
            prefixes = data["jdk_prefixes"]  # a string must not become a tuple of letters
            cfg["jdk_prefixes"] = tuple(prefixes) if isinstance(prefixes, list) else prefixes
        if "bin_edges" in data:
            cfg["bin_edges"] = tuple(float(e) for e in json_list(data["bin_edges"], "bin_edges"))
        if "bin_ratio" in data:
            ratio = json_list(data["bin_ratio"], "bin_ratio")
            cfg["bin_numerator"], cfg["bin_denominator"] = ratio
            cfg["bin_metric"] = cfg["bin_denominator"]
        if "bin_metric" in data:
            cfg["bin_metric"] = data["bin_metric"]
        cfg["model_grid"], cfg["testsets"] = parse_grid(data, cfg["model_grid"], cfg["testsets"])
        if "normalize" in data:
            norm = data["normalize"]
            cfg["normalize_numerator"] = norm.get("num", cfg["normalize_numerator"])
            cfg["normalize_denominator"] = norm.get("den", cfg["normalize_denominator"])
            beta = norm.get("beta", cfg["normalize_beta"])
            cfg["normalize_beta"] = beta if beta == "auto" else float(beta)
            cfg["normalize_model"] = norm.get("model", cfg["normalize_model"])
        if "nrmse_space" in data:
            cfg["nrmse_space"] = data["nrmse_space"]
    config = RunConfig(**cfg)
    config.validate()
    return config


class RunResult(NamedTuple):
    out_dir: Path
    stages: list[str]
    fit_rows: list[tuple[str, FitResult]]


def _series(corpus: MetricColumns, cell: GridCell) -> tuple[list[int], list[int]]:
    """The cell's x and y columns, over its subset's rows."""
    if cell.subset is None:
        return corpus.column(cell.x_metric), corpus.column(cell.y_metric)
    keep = filter_by_size(corpus, cell.x_metric, cell.subset[0], cell.subset[1])
    xs, ys = corpus.column(cell.x_metric), corpus.column(cell.y_metric)
    return list(compress(xs, keep)), list(compress(ys, keep))


def fit_grid(corpus: MetricColumns, grid: Sequence[GridCell]) -> Fitted:
    out = []
    for cell in grid:
        xs, ys = _series(corpus, cell)
        fitter = fit_robust_log_power if cell.robust else fit_log_power
        try:
            fit = fitter(xs, ys, cell.k, zero_offset=cell.zero_offset)
        except DataError as exc:
            where = f"{cell.y_metric} ~ {cell.x_metric} on {cell.subset_rule}"
            raise type(exc)(f"model {cell.model_id} ({where}): {exc}") from exc
        out.append((cell.model_id, fit, cell))
    return out


def evaluate_grid(
    corpus: MetricColumns, fitted: Fitted, testsets: Sequence[EvalSet], space: str = "log"
) -> list[ModelEval]:
    check_nrmse_space(space)
    kept = [(ts.name, filter_by_size(corpus, ts.metric, ts.low, ts.high)) for ts in testsets]
    # models with the same metrics, k and zero offset share a test set's
    # points, mapped by _transform once for the log space
    points: dict[tuple, tuple[list, list]] = {}
    evals = []
    for model_id, fit, cell in fitted:
        x, y = corpus.column(cell.x_metric), corpus.column(cell.y_metric)
        per_testset: dict[str, float] = {}
        for name, keep in kept:
            key = (cell.x_metric, cell.y_metric, fit.k, fit.zero_offset, name)
            if key not in points:
                xs, ys = list(compress(x, keep)), list(compress(y, keep))
                if space == "log":
                    xs, ys, _ = _transform(xs, ys, fit.k, fit.zero_offset)
                points[key] = xs, ys
            try:
                if space == "log":
                    per_testset[name] = transformed_nrmse(fit, *points[key])
                else:
                    per_testset[name] = evaluate_nrmse(fit, *points[key], space=space)
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


def fit_stage(table: MetricColumns, grid: Sequence[GridCell]) -> tuple[dict[str, str], Fitted]:
    """The ``fits`` stage's tables, and each model's fit."""
    fitted = fit_grid(table, grid)
    rows = [(model_id, fit) for model_id, fit, _ in fitted]
    return {"fits.csv": fits_csv(rows), "fit_table.txt": render_fit_table(rows)}, fitted


def bin_stage(
    table: MetricColumns, bin_metric: str, edges, num: str, den: str, log: bool = True
) -> dict[str, str]:
    """The ``bins`` stage's files: each bin's ``num/den`` ratio and the Welch
    tests between bins, on log ratios unless ``log`` is false."""
    summaries, p_values = analyze_bins(table, bin_metric, edges, num, den, log=log)
    return {
        "bins.csv": bins_csv(summaries),
        "bin_report.txt": render_bin_report(summaries, num, den),
        "welch_matrix.csv": welch_csv(p_values),
        "welch_matrix.txt": render_welch_matrix([s.label for s in summaries], p_values),
    }


def validate_stage(
    table: MetricColumns, fitted: Fitted, testsets: Sequence[EvalSet], space: str
) -> dict[str, str]:
    """The ``validate`` stage's files: each fitted model's NRMSE per test set."""
    evals = evaluate_grid(table, fitted, testsets, space)
    names = [ts.name for ts in testsets]
    return {
        "nrmse.csv": nrmse_csv(evals, names),
        "nrmse_table.txt": render_nrmse_table(evals, names),
    }


def normalize_stage(table: MetricColumns, num: str, den: str, beta: float) -> dict[str, str]:
    """The ``normalize`` stage's files: ``num / den**beta`` per project, and
    the decorrelation check on one line."""
    normalized = normalized_csv(normalize_corpus(table, num, den, beta))
    try:
        deco = decorrelation_report(table, num, den, beta)
        deco_text = (
            f"beta={deco.beta!r} n={deco.n} pearson_log={deco.pearson_log!r} "
            f"spearman={deco.spearman!r} decorrelated={deco.decorrelated}\n"
        )
    except DataError as exc:
        deco_text = f"decorrelation unavailable: {exc}\n"
    return {"normalized.csv": normalized, "decorrelation.txt": deco_text}


def _measure_project(
    project_id: str, root: Path, jdk_prefixes: tuple[str, ...]
) -> tuple[bytes, ProjectMetrics, int]:
    """One project's record, metrics row and parse-warning count; its facts stay here."""
    facts = extract_project(root, project_id)
    metrics, _ = measure(facts, jdk_prefixes)
    return encode_columns(facts), metrics, facts.parse_warning_count


def _java_bytes(root: Path) -> int:
    return sum(os.path.getsize(os.path.join(root, rel)) for rel in java_files(root))


def job_shares(weights: list[int], workers: int) -> list[list[int]]:
    """Job indexes in ``workers`` shares: heaviest first, each job to the
    first share of least load and then fewest jobs, so the last share's
    heaviest job is the W-th heaviest and no share's load exceeds
    total / W plus the heaviest weight."""
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [(0, 0)] * workers  # (weight, jobs) per share
    for i in sorted(range(len(weights)), key=weights.__getitem__, reverse=True):
        s = loads.index(min(loads))
        shares[s].append(i)
        loads[s] = (loads[s][0] + weights[i], loads[s][1] + 1)
    return shares


@contextmanager
def _collector_paused():
    """The cycle collector off, then as the caller had it: a share's jobs
    make no reference cycles for it to free."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _in_workers(fn, jobs: list[tuple], weight):
    """Yield ``fn(*job)`` for each job, in job order.

    With W = min(CPUs this process may run on, jobs) of two or more,
    ``os.fork`` at hand and no other thread running, the jobs are split by
    ``weight`` into W shares with ``job_shares`` before any fork: W - 1
    forked children each run one share and pipe its results back, and this
    process runs the last.  Otherwise the jobs run here: a child forked
    while another thread holds a lock would wait on it forever.  A failed
    job raises at its place in job order.  Each share runs with the cycle
    collector paused.
    """
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    workers = min(len(affinity(0)) if affinity else os.cpu_count() or 1, len(jobs))
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        with _collector_paused():
            for job in jobs:
                yield fn(*job)
        return
    import pickle
    import signal

    *theirs, mine = job_shares([weight(job) for job in jobs], workers)

    def run(share: list[int]) -> list[tuple]:
        done = []
        with _collector_paused():
            for i in share:
                try:
                    done.append((i, True, fn(*jobs[i])))
                except Exception as exc:  # raised in job order, by this process
                    done.append((i, False, exc))
        return done

    pipes, sent, failed = {}, {}, []  # by child pid: its pipe, what it sent
    try:
        for share in theirs:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with open(w, "wb") as out:
                        pickle.dump(run(share), out, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:  # reached on an error only
                    os._exit(1)
            os.close(w)
            pipes[pid] = open(r, "rb")
        results = run(mine)
        sent = {pid: pipe.read() for pid, pipe in pipes.items()}
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            if pid not in sent:  # this process raised
                os.kill(pid, signal.SIGKILL)
            if status := os.waitpid(pid, 0)[1]:
                failed.append(f"{pid} exited with {os.waitstatus_to_exitcode(status)}")
    if failed:
        raise RuntimeError(f"worker process {failed[0]} and sent no results")
    for data in sent.values():
        results += pickle.loads(data)
    for _, ok, value in sorted(results, key=lambda result: result[0]):
        if not ok:
            raise value
        yield value


def extract_facts(
    manifest: str | Path, jdk_prefixes: tuple[str, ...], path: str | Path
) -> tuple[list[ProjectMetrics], int]:
    """Write the facts archive of a manifest's projects to ``path``, a record
    at a time in project-id order; return their metrics rows and their
    parse-warning total.  On more than one CPU, the projects are shared out
    by ``.java`` bytes before forking, and this process extracts the share
    whose largest project is the W-th largest; the records are written once
    the last child is done."""
    jobs = [(pid, root, jdk_prefixes) for pid, root in read_manifest(manifest)]
    rows: list[list] = []  # [metrics row, parse warnings] per project

    def payloads(results):
        for payload, *row in results:
            rows.append(row)
            yield payload

    with closing(_in_workers(_measure_project, jobs, lambda job: _java_bytes(job[1]))) as results:
        write_records(payloads(results), len(jobs), path)
    return [metrics for metrics, _ in rows], sum(warned for _, warned in rows)


def _measure_record(path, offset, size, lineno, jdk_prefixes) -> tuple[ProjectMetrics, int]:
    with open(path, "rb") as fh:
        fh.seek(offset)
        payload = fh.read(size)
    return measure(decode_columns(payload, path, lineno), jdk_prefixes)


def measure_archive(
    path: str | Path, jdk_prefixes: tuple[str, ...]
) -> list[tuple[ProjectMetrics, int]]:
    """Each archived project's metrics row and unresolved-name count.  On
    more than one CPU, the records are shared out by length, as projects
    are by ``extract_facts``; the error raised is the archive's first fault
    in file order."""
    jobs, fault = [], None
    try:
        for offset, payload, lineno in scan_records(path):
            jobs.append((path, offset, len(payload), lineno, jdk_prefixes))
    except ArchiveError as exc:  # raised once the records before it are measured
        fault = exc
    measured = list(_in_workers(_measure_record, jobs, lambda job: job[2]))
    if fault is not None:
        raise fault
    return measured


def run_pipeline(config: RunConfig) -> RunResult:
    """Execute every stage and write the report bundle.

    Projects are extracted and measured by this process and one forked
    child for each further CPU it may run on, each with a share of them
    fixed by their sizes; the bundle is the same for any count.
    ``STATUS`` lists the finished stages, one a line, then ``FAILED`` if a
    stage raised.
    """
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stages: list[str] = []

    def done(stage: str, files: dict[str, str]) -> None:
        """End a stage: write its files under ``out``, then ``STATUS``."""
        for name, text in files.items():
            (out / name).parent.mkdir(exist_ok=True)
            (out / name).write_text(text, encoding="utf-8")
        stages.append(stage)
        (out / "STATUS").write_text("".join(f"{s}\n" for s in stages), encoding="utf-8")

    try:
        corpus, _ = extract_facts(config.manifest, config.jdk_prefixes, out / "facts.bin")
        done("extract", {})

        export_metrics_table(corpus, out / "metrics.csv")
        table = metric_columns(corpus)
        done("metrics", {})

        files, fitted = fit_stage(table, config.model_grid)
        for model_id, fit, cell in fitted:
            if not fit.robust:
                diag = diagnostics(fit, *_series(table, cell))
                files[f"diagnostics/{model_id}.csv"] = diagnostics_csv(diag)
        done("fits", files)

        bins = config.bin_metric, config.bin_edges, config.bin_numerator, config.bin_denominator
        done("bins", bin_stage(table, *bins))
        done("validate", validate_stage(table, fitted, config.testsets, config.nrmse_space))

        fit_rows = [(model_id, fit) for model_id, fit, _ in fitted]
        beta = config.normalize_beta
        if beta == "auto":
            beta = dict(fit_rows)[config.normalize_model].beta
        num, den = config.normalize_numerator, config.normalize_denominator
        done("normalize", normalize_stage(table, num, den, beta))

        write_manifest(out)
        done("done", {})
    except Exception:
        done("FAILED", {})
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
        table = read_metrics_table(metrics_path)
        sections.insert(0, f"== corpus\nprojects: {len(table.project_id)}\n")
    return "\n".join(sections)
