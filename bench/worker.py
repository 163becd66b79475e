"""Run one benchmark workload in a fresh interpreter and print its figures.

    python3 bench/worker.py WORKLOAD WORKDIR SECONDS TRACE [--setup-only]

``run.py`` prepares WORKDIR and starts this script with PYTHONPATH=src and
a fixed PYTHONHASHSEED.  The script times program set-up, then repeats
whole rounds of the workload until SECONDS of timed rounds have passed.
After each round it checks every output against the oracle written by
``gen.py`` or against its own stdlib computation.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import gen

# |fitted beta - planted beta| allowed on the generated corpus: 14 projects,
# sigma 0.15, and rounding of the 7-20 methods of the smallest projects.
# Over seeds 1..3000 the largest error was 0.048.
CORPUS_BETA_BOUND = 0.1
# The same for the 30,911-row table; the planted law is recovered far more
# tightly there, rounding of small counts being the main bias.
TABLE_BETA_BOUND = 0.02
TABLE_K2_BETA_BOUND = 0.01
# |r| of log normalized value against log classes.  The beta fitted on the
# 50:1000 subset carries sampling error, which leaves |r| up to 0.062 over
# seeds 101..120 (the program's own 0.05 threshold fails on some seeds);
# the raw ratio (beta 1) gives r = 0.50.
DECORRELATION_BOUND = 0.15

# Machine-speed reference.  The speed of a shared virtual machine can drift
# by up to 2x within seconds.  A small fixed loop, timed from a SIGALRM
# handler every SAMPLE_INTERVAL seconds while a round runs, slows down with
# the workload, so each round's time (less the sampling) is scaled by
# REFERENCE_S over the loop's mean time during that round.  The loop makes
# no object the garbage collector tracks, and the collector is off while it
# runs, so a collection over the program's heap never lands in a sample.
# A sample taken while the program runs a second thread or a child process
# is dropped: those compete with the loop for the two CPUs, and keeping
# such samples overstated a two-process extraction's gain by a tenth.
REFERENCE_S = 0.0008
SAMPLE_INTERVAL = 0.05
_REFERENCE_WORDS = [f"Tok{i % 97}_{i}" for i in range(1500)]
_REFERENCE_COUNTS: dict[str, int] = {}


def _reference_work() -> int:
    counts = _REFERENCE_COUNTS
    counts.clear()
    for word in _REFERENCE_WORDS:
        key = word[: word.index("_")]
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def _concurrent() -> bool:
    """Whether this process now runs another thread or has a child."""
    tasks = os.listdir("/proc/self/task")
    if len(tasks) > 1:
        return True
    try:
        with open(f"/proc/self/task/{tasks[0]}/children", encoding="ascii") as fh:
            return bool(fh.read().strip())
    except OSError:  # a kernel without the children file
        return False


class SpeedSampler:
    """Times the reference loop every ``interval`` seconds while active,
    and once on entry and once on exit (those two outside the timed span)."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, force: bool = False) -> float:
        """Time one loop; returns the time spent, sample or not."""
        start = time.perf_counter()
        if not force and _concurrent():
            return time.perf_counter() - start
        collecting = gc.isenabled()
        gc.disable()
        loop = time.perf_counter()
        _reference_work()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(end - loop)
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self.spent += self._sample()

    def __enter__(self) -> "SpeedSampler":
        self.samples, self.spent = [], 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # a program that keeps a thread or a child alive throughout still
        # gets one sample per round
        self._sample(force=not self.samples)

    @property
    def factor(self) -> float:
        """Reference speed over the speed measured while active."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def scaled(self, elapsed: float) -> float:
        """``elapsed`` without the sampling, at the reference speed."""
        return (elapsed - self.spent) * self.factor


ARCHIVE_REPEATS = 3  # metrics commands per archive_metrics round


def _argv(workload: str, work: Path) -> list[list[str]]:
    if workload == "archive_metrics":
        return [
            ["metrics", str(work / "facts.bin"), "-o", str(work / f"metrics{i}.csv")]
            for i in range(ARCHIVE_REPEATS)
        ]
    table = str(work / "table.csv")
    return [
        ["validate", table, "--grid", str(work / "grid.json")],
        ["bins", table, "--ratio", "interfaces/classes",
         "--edges", ",".join(map(str, gen.BIN_EDGES))],
        ["normalize", table, "--num", "methods", "--den", "classes",
         "--beta", "auto", "-o", str(work / "normalized.csv")],
    ]


def setup(workload: str, work: Path):
    """Program set-up: import, then config/manifest or argument parsing.

    Returns the set-up time at the reference speed and the loaded config.
    """
    with SpeedSampler(SAMPLE_INTERVAL / 5) as sampler:
        start = time.perf_counter()
        import javascale  # noqa: F401
        from javascale import cli, pipeline
        from javascale.extractor import read_manifest

        state = None
        if workload == "corpus_pipeline":
            state = pipeline.load_config(work / "config.json")
            read_manifest(state.manifest)
        else:
            parser = cli.build_parser()
            for argv in _argv(workload, work):
                parser.parse_args(argv)
        elapsed = time.perf_counter() - start
    return sampler.scaled(elapsed), state


# ---------------------------------------------------------------------------
# Independent computations used by the checks
# ---------------------------------------------------------------------------


def read_rows(path: Path, key: str) -> dict[str, dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {row[key]: row for row in csv.DictReader(fh)}


def mismatched(path: Path, expected: dict) -> set[str]:
    """Projects whose metrics row differs from the planted counts."""
    rows = read_rows(path, "project_id")
    return {
        pid
        for pid, exp in expected.items()
        if pid not in rows or any(int(rows[pid][f]) != exp[f] for f in gen.ORACLE_FIELDS)
    }


def warned(archive) -> set[str]:
    """Projects of an archive read by ``store.read_facts`` that were
    extracted with parse warnings."""
    return {p.project_id for p in archive.projects if p.parse_warning_count}


def read_columns(path: Path, names: tuple[str, ...]) -> dict[str, list[int]]:
    """Integer columns of a CSV file, read row by row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        index = [header.index(name) for name in names]
        cols: dict[str, list[int]] = {name: [] for name in names}
        for row in reader:
            for name, i in zip(names, index):
                cols[name].append(int(row[i]))
    return cols


def ols(xs, ys, k: float = 1, lo: float = -math.inf, hi: float = math.inf):
    """Least squares of log y on (log x)^k over pairs with lo <= x < hi."""
    pts = [
        (math.log(x) ** k, math.log(y))
        for x, y in zip(xs, ys)
        if lo <= x < hi and x > 0 and y > 0
    ]
    n = len(pts)
    mt = math.fsum(t for t, _ in pts) / n
    mz = math.fsum(z for _, z in pts) / n
    stt = math.fsum((t - mt) ** 2 for t, _ in pts)
    stz = math.fsum((t - mt) * (z - mz) for t, z in pts)
    beta = stz / stt
    return mz - beta * mt, beta


def pearson(xs, ys) -> float:
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def table_cells(text: str, title: str) -> list[list[str]]:
    """Rows of a ``a | b | c`` table printed after a header starting ``title``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    width = len(lines[start].split(" | "))
    rows = []
    for line in lines[start + 1 :]:
        cells = [cell.strip() for cell in line.split(" | ")]
        if len(cells) != width:
            break
        rows.append(cells)
    return rows


def run_cli(cli, argv: list[str], tracer) -> tuple[int, str]:
    """One command through ``javascale.cli.main``: exit code and output."""
    main = cli.main if tracer is None else tracer.span(f"cli.{argv[0]}", cli.main)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        print(f"operation failed: javascale {' '.join(argv)} exited {code}", file=sys.stderr)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A round of operations; run_round() is timed, check_round() is not."""

    trace = None  # the Tracer in a traced run

    def prepare_round(self) -> None:
        pass

    def finish(self) -> tuple[int, list[str]]:
        """Checks made once, after peak memory has been read: further failed
        operations over all rounds, and problems."""
        return 0, []


class CorpusPipeline(Workload):
    def __init__(self, work: Path, config) -> None:
        from javascale import pipeline, store

        self.pipeline, self.store = pipeline, store
        self.work = work
        self.config = config
        self.out = Path(config.out_dir)
        self.expected = json.loads((work / "corpus" / "expected.json").read_text())
        self.projects = len(self.expected)
        self.sloc = sum(e["sloc"] for e in self.expected.values())
        self.manifest = None
        self.bytes_per_sloc = 0.0
        self.error = None
        self.failures: list[set[str]] = []  # mismatched projects per round
        self.planted_fit = ols(
            [e["classes"] for e in self.expected.values()],
            [e["methods"] for e in self.expected.values()],
        )

    def prepare_round(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run_round(self) -> None:
        try:
            self.pipeline.run_pipeline(self.config)
            self.error = None
        except Exception as exc:  # counted as failed operations below
            print(f"operation failed: run_pipeline raised {exc!r}", file=sys.stderr)
            self.error = exc

    def check_round(self, first: bool) -> tuple[int, int, list[str]]:
        if self.error is not None:
            self.failures.append(set(self.expected))
            return self.projects, self.projects, []
        problems = []
        status = (self.out / "STATUS").read_text().split()
        if status[-1:] != ["done"]:
            problems.append(f"STATUS ends in {status[-1:]}")
        manifest = (self.out / "MANIFEST").read_bytes()
        if self.manifest is None:
            self.manifest = manifest
        elif manifest != self.manifest:
            problems.append("MANIFEST differs from the first round")
        self.failures.append(mismatched(self.out / "metrics.csv", self.expected))
        beta = float(read_rows(self.out / "fits.csv", "analysis")["m1"]["beta"])
        if abs(beta - self.planted_fit[1]) > 1e-9:
            problems.append(f"m1 beta {beta} != stdlib fit {self.planted_fit[1]}")
        if abs(beta - gen.CORPUS_BETA) > CORPUS_BETA_BOUND:
            problems.append(f"m1 beta {beta} misses planted {gen.CORPUS_BETA}")
        if first:
            # kept for finish(), so that reading it back does not count in
            # the workload's peak memory
            facts = (self.out / "facts.bin").rename(self.work / "first_facts.bin")
            self.bytes_per_sloc = facts.stat().st_size / self.sloc
        return self.projects, len(self.failures[-1]), problems

    def finish(self) -> tuple[int, list[str]]:
        """Parse warnings, read from the first round's archive by the
        program's own reader (MANIFEST shows the later archives equal it),
        fail their projects in every round; then the round trip."""
        facts = self.work / "first_facts.bin"
        if not facts.exists():  # the first round failed and was counted
            return 0, []
        archive = self.store.read_facts(facts)
        bad = warned(archive)
        failed = sum(len(bad - failures) for failures in self.failures)
        copy = self.work / "roundtrip.bin"
        self.store.write_facts(archive, copy)
        if copy.read_bytes() != facts.read_bytes():
            return failed, ["facts.bin changed in a read_facts/write_facts round trip"]
        return failed, []


class ArchiveMetrics(Workload):
    def __init__(self, work: Path, _state) -> None:
        from javascale import cli, store

        self.cli = cli
        self.argvs = _argv("archive_metrics", work)
        self.expected = json.loads((work / "corpus" / "expected.json").read_text())
        sloc = sum(e["sloc"] for e in self.expected.values())
        self.projects = len(self.expected) * ARCHIVE_REPEATS
        self.sloc = sloc * ARCHIVE_REPEATS
        self.bytes_per_sloc = (work / "facts.bin").stat().st_size / sloc
        # read by the program's own reader, before the first round; the
        # metrics command reads the same archive, so this adds no peak memory
        self.warned = warned(store.read_facts(work / "facts.bin"))
        self.results: list[tuple[int, str]] = []

    def prepare_round(self) -> None:
        for argv in self.argvs:
            Path(argv[-1]).unlink(missing_ok=True)

    def run_round(self) -> None:
        self.results = [run_cli(self.cli, argv, self.trace) for argv in self.argvs]

    def check_round(self, first: bool) -> tuple[int, int, list[str]]:
        failed = 0
        problems = []
        for argv, (code, text) in zip(self.argvs, self.results):
            if code != 0:
                failed += len(self.expected)
                continue
            failed += len(mismatched(Path(argv[-1]), self.expected) | self.warned)
            if f"wrote metrics for {len(self.expected)} project(s)" not in text:
                problems.append("metrics did not report every project")
        return self.projects, failed, problems


class StatsGrid(Workload):
    def __init__(self, work: Path, _state) -> None:
        from javascale import cli

        self.cli = cli
        self.work = work
        self.argvs = _argv("stats_grid", work)
        col = read_columns(
            work / "expected_table.csv", ("classes", "methods", "interfaces", "sloc")
        )
        self.projects = len(col["classes"])
        self.classes = col["classes"]
        self.sloc = sum(col["sloc"])
        # the table as the program's export_metrics_table wrote it
        self.bytes_per_sloc = (work / "table.csv").stat().st_size / self.sloc
        self.fits = {}
        for model in gen.STATS_GRID["models"]:
            lo, hi = model["subset"] or (-math.inf, math.inf)
            self.fits[model["id"]] = ols(
                col[model["x"]], col[model["y"]], model["k"], lo, hi
            )
        self.auto_beta = ols(col["classes"], col["methods"], 1, *gen.NORMALIZE_SUBSET)[1]
        logs = [
            (math.log(m / c**self.auto_beta), math.log(c))
            for c, m in zip(col["classes"], col["methods"])
            if c >= 1 and m > 0
        ]
        self.normalized_r = pearson([v for v, _ in logs], [c for _, c in logs])
        bounds = [-math.inf, *gen.BIN_EDGES, math.inf]
        self.bin_counts = [
            sum(
                1
                for c, i in zip(col["classes"], col["interfaces"])
                if lo <= c < hi and c > 0 and i > 0
            )
            for lo, hi in zip(bounds, bounds[1:])
        ]
        self.results: list[tuple[int, str]] = []

    def prepare_round(self) -> None:
        (self.work / "normalized.csv").unlink(missing_ok=True)

    def run_round(self) -> None:
        self.results = [run_cli(self.cli, argv, self.trace) for argv in self.argvs]

    def check_round(self, first: bool) -> tuple[int, int, list[str]]:
        failed = sum(1 for code, _ in self.results if code != 0)
        if failed:
            return len(self.argvs), failed, []
        problems: list[str] = []
        (_, validate), (_, bins), (_, normalize) = self.results
        self._check_validate(validate, problems)
        self._check_bins(bins, problems)
        self._check_normalize(normalize, problems)
        return len(self.argvs), 0, problems

    def _check_validate(self, text: str, problems: list[str]) -> None:
        printed = {r[0]: (float(r[1]), float(r[2])) for r in table_cells(text, "analysis |")}
        for model in gen.STATS_GRID["models"]:
            mid = model["id"]
            alpha, beta = printed[mid]
            if not model.get("robust"):
                own_alpha, own_beta = self.fits[mid]
                if abs(alpha - own_alpha) > 6e-5 or abs(beta - own_beta) > 6e-5:
                    problems.append(f"{mid}: printed {alpha}, {beta}; stdlib {own_alpha}, {own_beta}")
        for mid, planted, bound in (
            ("m1", gen.TABLE_METHODS[1], TABLE_BETA_BOUND),
            ("r1", gen.TABLE_METHODS[1], TABLE_BETA_BOUND),
            ("i2", gen.TABLE_INTERFACES[1], TABLE_K2_BETA_BOUND),
        ):
            if abs(printed[mid][1] - planted) > bound:
                problems.append(f"{mid}: beta {printed[mid][1]} misses planted {planted}")
        nrmse = table_cells(text, "model | subset |")
        cells = [float(c) for row in nrmse for c in row[2:]]
        if len(nrmse) != len(gen.STATS_GRID["models"]) or len(cells) != len(nrmse) * 3:
            problems.append("NRMSE table is missing cells")
        if not all(math.isfinite(v) and v >= 0 for v in cells):
            problems.append("NRMSE value out of range")

    def _check_bins(self, text: str, problems: list[str]) -> None:
        counts = [int(r[2]) for r in table_cells(text, "bin | range |")]
        if counts != self.bin_counts:
            problems.append(f"bin counts {counts} != stdlib {self.bin_counts}")
        matrix = table_cells(text, "bin | b1")
        p_values = [float(c) for row in matrix for c in row[1:] if c != "-"]
        n = len(self.bin_counts)
        if len(p_values) != n * (n - 1):
            problems.append(f"{len(p_values)} Welch p-values for {n} bins")
        if not all(0.0 <= p <= 1.0 for p in p_values):
            problems.append("Welch p-value outside [0, 1]")

    def _check_normalize(self, text: str, problems: list[str]) -> None:
        beta = float(text.split("->", 1)[1].split()[0])
        if abs(beta - self.auto_beta) > 1e-9:
            problems.append(f"auto beta {beta} != stdlib {self.auto_beta}")
        values, sizes = [], []
        rows = 0
        with open(self.work / "normalized.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for pid, _ratio, _beta, value in reader:
                rows += 1
                if float(value) > 0:
                    values.append(math.log(float(value)))
                    sizes.append(math.log(self.classes[int(pid[1:])]))
        if rows != sum(1 for c in self.classes if c >= 1):
            problems.append("normalized.csv lost rows")
        r = pearson(values, sizes)
        printed = float(text.split("pearson_log=", 1)[1].split()[0])
        if abs(r - self.normalized_r) > 1e-9 or abs(printed - r) > 6e-5:
            problems.append(f"normalized r {r}, printed {printed}; stdlib {self.normalized_r}")
        if abs(r) >= DECORRELATION_BOUND:
            problems.append(f"normalized metric still correlates with classes (r={r})")


WORKLOADS = {
    "corpus_pipeline": CorpusPipeline,
    "archive_metrics": ArchiveMetrics,
    "stats_grid": StatsGrid,
}


# ---------------------------------------------------------------------------
# Per-layer figures (traced run only)
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "javalex.tokenize_s": "s",
    "javalex.count_sloc_s": "s",
    "javalex.tokens": "count",
    "javalex.source_bytes": "B",
    "extractor.read_s": "s",
    "extractor.parse_s": "s",
    "extractor.relation_pass_s": "s",
    "extractor.files": "count",
    "extractor.entities": "count",
    "extractor.relations": "count",
    "extractor.parse_warnings": "count",
    "metrics.compute_s": "s",
    "metrics.provenance_s": "s",
    "metrics.provenance_calls": "count",
    "store.write_facts_s": "s",
    "store.read_facts_s": "s",
    "store.archive_bytes": "B",
    "store.export_metrics_s": "s",
    "store.read_metrics_s": "s",
    "store.read_metrics_calls": "count",
    "regression.fit_s": "s",
    "regression.robust_fit_s": "s",
    "regression.fits": "count",
    "regression.nrmse_s": "s",
    "regression.diagnostics_s": "s",
    "regression.filter_by_size_calls": "count",
    "stats.bin_s": "s",
    "stats.welch_s": "s",
    "stats.welch_tests": "count",
    "normalize.corpus_s": "s",
    "normalize.decorrelation_s": "s",
    "report.render_s": "s",
    "report.manifest_s": "s",
    "report.bytes_written": "B",
    "pipeline.stage.extract_s": "s",
    "pipeline.stage.metrics_s": "s",
    "pipeline.stage.fits_s": "s",
    "pipeline.stage.bins_s": "s",
    "pipeline.stage.validate_s": "s",
    "pipeline.stage.normalize_s": "s",
    "pipeline.stage.manifest_s": "s",
    "cli.metrics_s": "s",
    "cli.validate_s": "s",
    "cli.bins_s": "s",
    "cli.normalize_s": "s",
    "trace.round_s": "s",
    "trace.wall_round_s": "s",
    "trace.speed_factor": "ratio",
}

def install_tracer():
    """Wrap the public functions of every layer; returns the tracer."""
    from spans import Tracer

    from javascale import extractor, metrics, normalize, regression, report, stats, store

    def tokens(c, args, toks):
        c["javalex.tokens"] += len(toks)
        c["javalex.source_bytes"] += len(args[0].encode("utf-8"))

    def files(c, args, syntax):
        c["extractor.files"] += 1

    def facts(c, args, project):
        c["extractor.entities"] += len(project.entities)
        c["extractor.relations"] += len(project.relations)
        c["extractor.parse_warnings"] += project.parse_warning_count

    def archive(c, args, result):  # write_facts(archive, path) or read_facts(path)
        c["store.archive_bytes"] += os.path.getsize(args[-1])

    def rendered(c, args, text):
        c["report.bytes_written"] += len(text.encode("utf-8"))

    def manifest(c, args, path):
        c["report.bytes_written"] += path.stat().st_size

    tracer = Tracer()
    for fn, name, count in [
        (extractor.tokenize, "javalex.tokenize", tokens),
        (extractor.count_sloc, "javalex.count_sloc", None),
        (extractor.parse_java_file, "extractor.parse", files),
        (extractor.extract_project, "extractor.extract_project", facts),
        (metrics.compute_metrics, "metrics.compute", None),
        (metrics.used_modules_by_provenance, "metrics.provenance", None),
        (store.write_facts, "store.write_facts", archive),
        (store.read_facts, "store.read_facts", archive),
        (store.export_metrics_table, "store.export_metrics", None),
        (store.read_metrics_table, "store.read_metrics", None),
        (regression.fit_log_power, "regression.fit", None),
        (regression.fit_robust_log_power, "regression.robust_fit", None),
        (regression.evaluate_nrmse, "regression.nrmse", None),
        (regression.diagnostics, "regression.diagnostics", None),
        (regression.filter_by_size, "regression.filter_by_size", None),
        (stats.bin_by, "stats.bin", None),
        (stats.welch_t_test, "stats.welch", None),
        (normalize.normalize_corpus, "normalize.corpus", None),
        (normalize.decorrelation_report, "normalize.decorrelation", None),
        (report.write_manifest, "report.manifest", manifest),
    ]:
        tracer.wrap_everywhere(fn, name, count)
    for name in dir(report):
        if name.startswith("render_") or name.endswith("_csv"):
            tracer.wrap_everywhere(getattr(report, name), "report.render", rendered)
    tracer.wrap_method(Path, "read_bytes", "read_bytes")
    tracer.mark_status_writes()
    return tracer


def layer_figures(tracer, factor: float, round_s: float, wall_s: float) -> dict[str, float]:
    """One round's per-layer figures; times are scaled to the reference
    speed by ``factor``, like the end-to-end rates.  The round's wall time
    and the factor itself are reported as measured."""
    inc, own, calls, counts = tracer.inclusive, tracer.self_time, tracer.calls, tracer.counts
    fig = {
        "javalex.tokenize_s": inc["javalex.tokenize"],
        "javalex.count_sloc_s": inc["javalex.count_sloc"],
        "extractor.parse_s": own["extractor.parse"],
        "extractor.relation_pass_s": own["extractor.extract_project"],
        "metrics.compute_s": inc["metrics.compute"],
        "metrics.provenance_s": inc["metrics.provenance"],
        "metrics.provenance_calls": calls["metrics.provenance"],
        "store.write_facts_s": inc["store.write_facts"],
        "store.read_facts_s": inc["store.read_facts"],
        "store.export_metrics_s": inc["store.export_metrics"],
        "store.read_metrics_s": inc["store.read_metrics"],
        "store.read_metrics_calls": calls["store.read_metrics"],
        "regression.fit_s": inc["regression.fit"],
        "regression.robust_fit_s": inc["regression.robust_fit"],
        "regression.fits": calls["regression.fit"] + calls["regression.robust_fit"],
        "regression.nrmse_s": inc["regression.nrmse"],
        "regression.diagnostics_s": inc["regression.diagnostics"],
        "regression.filter_by_size_calls": calls["regression.filter_by_size"],
        "stats.bin_s": inc["stats.bin"],
        "stats.welch_s": inc["stats.welch"],
        "stats.welch_tests": calls["stats.welch"],
        "normalize.corpus_s": inc["normalize.corpus"],
        "normalize.decorrelation_s": inc["normalize.decorrelation"],
        "report.render_s": inc["report.render"],
        "report.manifest_s": inc["report.manifest"],
        "cli.metrics_s": inc["cli.metrics"],
        "cli.validate_s": inc["cli.validate"],
        "cli.bins_s": inc["cli.bins"],
        "cli.normalize_s": inc["cli.normalize"],
        "trace.round_s": round_s,
        "trace.wall_round_s": wall_s,
        "trace.speed_factor": factor,
    }
    # file reads made by extract_project are children of its span
    fig["extractor.read_s"] = (
        inc["extractor.extract_project"]
        - own["extractor.extract_project"]
        - inc["javalex.count_sloc"]
        - inc["extractor.parse"]
    )
    # a pipeline stage ends when its name is written to STATUS
    for (_, before), (line, at) in zip(tracer.marks, tracer.marks[1:]):
        stage = "manifest" if line == "done" else line
        fig[f"pipeline.stage.{stage}_s"] = at - before
    for name, unit in LAYER_UNITS.items():
        fig.setdefault(name, counts[name])  # the counters, and layers not run
        if unit == "s" and not name.startswith("trace."):
            fig[name] *= factor
    return fig


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    workload, work, seconds, trace = argv[1], Path(argv[2]), float(argv[3]), argv[4] == "1"
    setup_s, state = setup(workload, work)
    if argv[5:] == ["--setup-only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    wl = WORKLOADS[workload](work, state)
    tracer = install_tracer() if trace else None
    wl.trace = tracer
    times: list[float] = []
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    problems: list[str] = []
    scaled: list[float] = []
    sampler = SpeedSampler(SAMPLE_INTERVAL)
    wall_end = time.monotonic() + 3 * seconds + 30
    while sum(times) < seconds and time.monotonic() < wall_end:
        wl.prepare_round()
        gc.collect()
        if tracer is not None:
            tracer.reset()
        with sampler:
            start = time.perf_counter()
            wl.run_round()
            times.append(time.perf_counter() - start)
        scaled.append(sampler.scaled(times[-1]))
        if tracer is not None:
            layers.append(layer_figures(tracer, sampler.factor, scaled[-1], times[-1]))
        n, bad, found = wl.check_round(first=len(times) == 1)
        attempted += n
        failed += bad
        problems += found
    if tracer is not None:
        tracer.undo()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    more_failed, found = wl.finish()
    failed += more_failed
    problems += found
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer is None:
        round_s = statistics.median(scaled)
        metrics = {
            "projects_per_s": (wl.projects / round_s, "projects/s"),
            "sloc_per_s": (wl.sloc / round_s, "SLOC/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "archive_bytes_per_sloc": (wl.bytes_per_sloc, "B/SLOC"),
        }
    else:
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            value = statistics.median(r[name] for r in layers)
            metrics[name] = (round(value) if unit in ("count", "B") else value, unit)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "rounds": times,
                "scaled": scaled,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
