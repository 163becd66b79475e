import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import javascale
from javascale import cli, pipeline, regression
from javascale.cli import main
from javascale.errors import (
    ArchiveIntegrityError,
    DegeneratePredictorError,
    EmptyCorpusError,
    InsufficientDataError,
    UsageError,
)
from javascale.extractor import extract_corpus, read_manifest
from javascale.metrics import DEFAULT_JDK_PREFIXES, MetricColumns, ProjectMetrics, metric_columns
from javascale.pipeline import job_order, load_config, render_run_report, run_pipeline
from javascale.regression import evaluate_nrmse
from javascale.store import (
    FactsArchive,
    export_metrics_table,
    read_facts,
    scan_records,
    write_facts,
)

from conftest import CORPUS_DIR, FIXTURES, archive_digest

EXPECTED_OUTPUTS = [
    "facts.bin",
    "metrics.csv",
    "fits.csv",
    "fit_table.txt",
    "bins.csv",
    "bin_report.txt",
    "welch_matrix.csv",
    "welch_matrix.txt",
    "nrmse.csv",
    "nrmse_table.txt",
    "normalized.csv",
    "decorrelation.txt",
    "MANIFEST",
    "STATUS",
]

STAGES = ["extract", "metrics", "fits", "bins", "validate", "normalize", "done"]

# every file the fixture run hashes, in MANIFEST order; diagnostics are
# written for the non-robust models only (m1 and small, not m1r)
MANIFEST_FILES = [
    "STATUS",
    "bin_report.txt",
    "bins.csv",
    "decorrelation.txt",
    "diagnostics/m1.csv",
    "diagnostics/small.csv",
    "facts.bin",
    "fit_table.txt",
    "fits.csv",
    "metrics.csv",
    "normalized.csv",
    "nrmse.csv",
    "nrmse_table.txt",
    "welch_matrix.csv",
    "welch_matrix.txt",
]

# sha256 of the fixture run's integer-and-string outputs; unlike the
# fitted-float files they do not depend on the platform's libm.  That of
# facts.bin is over its decompressed record payloads (archive_digest), so
# it does not depend on the zlib build either
GOLDEN_SHA256 = {
    "facts.bin": "a6d7cde6011b203448612860425ba2afb39ca69f2e7f9d3e237d71b976c2e052",
    "metrics.csv": "389c299e41c57335f474a5eeb0facb85e4e9a5af66157028b830a8ce1e991263",
}

# sha256 of the statistics commands' stdout and of normalized.csv, run in
# the table's directory on a seeded synth table of 3,000 rows (the CI's
# spec); the fitted floats pass through the platform's libm
STATS_SPEC = {
    "n_projects": 3000, "x_range": [1, 5000], "alpha": 1.1, "beta": 1.1, "sigma": 0.5, "seed": 1
}
STATS_GRID = {
    "models": [
        {"id": "m1", "y": "methods", "x": "classes"},
        {"id": "r1", "y": "methods", "x": "classes", "robust": True},
        {"id": "s1", "y": "methods", "x": "classes", "subset": [10, 1000]},
        {"id": "k2", "y": "methods", "x": "classes", "k": 2},
    ],
    "testsets": [
        {"name": "small", "metric": "classes", "range": [0, 100]},
        {"name": "all", "metric": "classes", "range": [0, None]},
    ],
}
_STATS_FIT = ["fit", "synth.csv", "--y", "methods", "--x", "classes"]
STATS_COMMANDS = {
    "fit": _STATS_FIT,
    "fit subset robust": _STATS_FIT + ["--subset", "10:1000", "--robust"],
    "fit zero-offset k2": _STATS_FIT + ["--zero-offset", "--k", "2"],
    "validate": ["validate", "synth.csv", "--grid", "grid.json"],
    "bins": ["bins", "synth.csv", "--ratio", "methods/classes", "--edges", "20,100,1000"],
    "normalize": ["normalize", "synth.csv", "--num", "methods", "--den", "classes",
                  "--beta", "auto", "-o", "normalized.csv"],
}
STATS_SHA256 = {
    "fit": "e6221c06f6f89d9e5f4c048850051fe27dc474b87e6b4aa8d4598b357bbf974d",
    "fit subset robust": "ce491540699441224057160a64246a735ca3cc648c7da8a11f7a56dc20451095",
    "fit zero-offset k2": "055715212ed60a8b5be5aff476cf0d91703f034e74533106f406dc7e4b28fa1d",
    "validate": "1a069c3bd5fe4346880dfb6494d938eefde6c594724b708ac3ac580eb152bde0",
    "bins": "4ad05d3394d0f65c5e26d60e572421097f331f42f2b8e23ed94263d4d6bce84d",
    "normalize": "032da628e31d816eab1838718e90feb266f4f367a0e6d36bc51484a93929d74b",
    "normalized.csv": "6457bbb537ee210cfb4965153b44829bbf78d1aaaf657e77276eb729f9720059",
}

MALFORMED_GRIDS = [
    {"models": [{"y": "methods", "x": "classes"}]},
    {"models": [{"id": "m1", "y": "methods", "x": "classes", "k": "two"}]},
    {"models": [{"id": "m1", "y": "methods", "x": "classes", "subset": [10]}]},
    {"models": [{"id": "m1", "y": "methods", "x": "classes"}],
     "testsets": [{"name": "all", "metric": "classes", "range": ["lo", None]}]},
    {"models": [{"id": "m1", "y": "methods", "x": "classes"}],
     "testsets": [{"name": "all", "metric": "classes", "range": [0, None]}],
     "space": "cubic", "nrmse_space": "cubic"},
    # checked before the fit table is printed, and without test sets
    {"models": [{"id": "m1", "y": "methods", "x": "classes"}],
     "space": "bogus", "nrmse_space": "bogus"},
    {"models": [{"id": "m1", "y": "methods", "x": "classes"},
                {"id": "m1", "y": "methods", "x": "classes", "k": 2}]},
    {"models": [{"id": "m1", "y": "methods", "x": "classes"}],
     "testsets": [{"name": "all", "metric": "classes", "range": [5, 1]}]},
    {"models": [{"id": "m1", "y": "bogus", "x": "classes"}]},
    {"models": [{"id": "m1", "y": ["methods"], "x": "classes"}]},
    {"models": [{"id": ["m1"], "y": "methods", "x": "classes"}]},
    {"models": [{"id": 1, "y": "methods", "x": "classes"}]},
]

_SPEC = {"n_projects": 5, "x_range": [1, 100], "alpha": 1.0, "beta": 1.0}
MALFORMED_CONFIGS = [
    ("pipeline", {"out_dir": "out"}),
    ("pipeline", {"manifest": "m.txt"}),
    ("pipeline", {"manifest": "m.txt", "out_dir": "out", "bin_edges": [20, "many"]}),
    ("pipeline", {"manifest": "m.txt", "out_dir": "out", "normalize": ["methods"]}),
] + [("synth", {k: v for k, v in _SPEC.items() if k != key}) for key in _SPEC] + [
    ("synth", {**_SPEC, "x_metric": "bogus"}),
    ("synth", {**_SPEC, "x_metric": "classes", "y_metric": "classes"}),
    ("synth", {**_SPEC, "n_projects": 0}),
]

# arguments outside a library rule's range; TABLE stands for a metrics table
_FIT = ["fit", "TABLE", "--y", "methods", "--x", "classes"]
_NORMALIZE = ["normalize", "TABLE", "--num", "methods", "--den", "classes"]
OUT_OF_RANGE_ARGS = [
    ["bins", "TABLE", "--ratio", "interfaces/classes", "--edges", "x,1"],
    ["bins", "TABLE", "--ratio", "interfaces/classes", "--edges", "5,1"],
    ["bins", "TABLE", "--ratio", "interfaces/classes", "--edges", ","],
    ["bins", "TABLE", "--ratio", "interfaces/classes", "--edges", "1,nan"],
    _FIT + ["--k", "0.5"],
    _FIT + ["--k", "inf"],
    _FIT + ["--k", "nan"],
    _FIT + ["--subset", "5:1"],
    _NORMALIZE + ["--beta", "auto", "--subset", "5:1"],
    _NORMALIZE + ["--beta", "inf"],
]
# a metric the schema lacks, in each place a statistics command names one;
# GRID stands for a grid whose model fits it
UNKNOWN_METRIC_ARGS = [
    ["fit", "TABLE", "--y", "bogus", "--x", "classes"],
    ["bins", "TABLE", "--ratio", "bogus/classes", "--edges", "20"],
    ["bins", "TABLE", "--ratio", "interfaces/classes", "--edges", "20", "--bin-metric", "bogus"],
    ["normalize", "TABLE", "--num", "bogus", "--den", "classes", "--beta", "auto"],
    ["normalize", "TABLE", "--num", "bogus", "--den", "classes", "--beta", "1.5"],
    ["validate", "TABLE", "--grid", "GRID"],
]
_MODEL = {"id": "m1", "y": "methods", "x": "classes"}
# config keys outside a library rule's range, merged into the fixture config
OUT_OF_RANGE_CONFIGS = [
    {"bin_edges": [5, 1]},
    {"models": [{**_MODEL, "k": 0.5}]},
    {"models": [{**_MODEL, "subset": [5, 1]}]},
    {"testsets": [{"name": "all", "metric": "classes", "range": [5, 1]}]},
    {"normalize": {"num": "methods", "den": "classes", "beta": "inf"}},
    {"jdk_prefixes": "java."},
    {"jdk_prefixes": [1]},
]


def fixture_config(tmp_path, out_name="run"):
    """Copy the fixture pipeline config with a writable out_dir."""
    data = json.loads((FIXTURES / "pipeline_config.json").read_text())
    data["manifest"] = str(CORPUS_DIR / "manifest.txt")
    data["out_dir"] = str(tmp_path / out_name)
    cfg_path = tmp_path / f"{out_name}.json"
    cfg_path.write_text(json.dumps(data))
    return cfg_path


@pytest.fixture
def fixture_table(tmp_path, fixture_corpus):
    path = tmp_path / "metrics.csv"
    export_metrics_table(fixture_corpus, path)
    return path


def write_java_corpus(root: Path, n: int) -> Path:
    """A manifest of ``n`` one-package projects: project i declares i + 1
    classes, each with one to four methods, so methods do not scale
    exactly with classes."""
    for i in range(n):
        src = root / f"q{i:02d}" / "src" / "q"
        src.mkdir(parents=True)
        for c in range(i + 1):
            body = "".join(f"int m{j}() {{ return {j}; }}\n" for j in range(1 + (7 * i + c) % 4))
            (src / f"C{c}.java").write_text(f"package q;\nclass C{c} {{\n{body}}}\n")
    manifest = root / "manifest.txt"
    manifest.write_text("".join(f"q{i:02d}\n" for i in range(n)))
    return manifest


def java_corpus_config(tmp_path: Path, out_name: str = "run") -> Path:
    """A one-model config over a 12-project ``write_java_corpus`` corpus."""
    corpus = tmp_path / "corpus"
    manifest = corpus / "manifest.txt"
    if not manifest.exists():
        write_java_corpus(corpus, 12)
    data = {
        "manifest": str(manifest),
        "out_dir": str(tmp_path / out_name),
        "bin_edges": [4, 8],
        "models": [{"id": "m1", "y": "methods", "x": "classes"}],
        "testsets": [{"name": "all", "metric": "classes", "range": [0, None]}],
        "normalize": {"num": "methods", "den": "classes", "beta": "auto", "model": "m1"},
    }
    cfg = tmp_path / f"{out_name}.json"
    cfg.write_text(json.dumps(data))
    return cfg


class ExtractionCrash(RuntimeError):
    """Raised by a patched pipeline function, in a forked worker or here."""


FAILING_IDS = ["here", "child", "both"]


def failing_cases(weights: list[int]) -> list[tuple[set[str], str, str]]:
    """The projects that raise, the one that surfaces (the first in job
    order) and where it ran, for a fault in this process's share, in the
    child's, and in both, when two CPUs share the fixture corpus's jobs of
    these weights: the child first takes the head of ``job_order``, this
    process its tail."""
    project_ids = [pid for pid, _ in read_manifest(CORPUS_DIR / "manifest.txt")]
    order = job_order(weights, 2)
    here, child = project_ids[order[-1]], project_ids[order[0]]
    return [
        ({here}, here, "this process"),
        ({child}, child, "a child"),
        ({here, child}, min(here, child), "this process"),
    ]


def test_job_order_reverses_the_lightest_share():
    # heaviest first; past the heaviest half of the weight (10 of 20), lightest first
    assert job_order([1, 2, 3, 4, 10], 2) == [4, 0, 1, 2, 3]
    assert job_order([1, 2, 3, 4, 10], 4) == [4, 3, 0, 1, 2]
    assert job_order([5], 2) == [0]


def crash_on(failing):
    """A check to call with each project id as its job runs: it raises
    ``ExtractionCrash`` on the projects in ``failing``, naming the process
    that ran the job.  Jobs run here first wait 10 ms, so that the child
    starts before this process reaches the heaviest."""
    parent = os.getpid()

    def check(project_id):
        here = os.getpid() == parent
        if here:
            time.sleep(0.01)
        if project_id in failing:
            raise ExtractionCrash(f"{project_id} in {'this process' if here else 'a child'}")

    return check


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def bundle_bytes(out_dir: Path) -> dict[str, bytes]:
    return {
        p.relative_to(out_dir).as_posix(): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


class TestRunPipeline:
    def test_produces_all_outputs(self, tmp_path):
        config = load_config(fixture_config(tmp_path))
        result = run_pipeline(config)
        for name in EXPECTED_OUTPUTS:
            assert (result.out_dir / name).exists(), name
        assert (result.out_dir / "STATUS").read_text() == "".join(f"{s}\n" for s in STAGES)
        assert result.stages == STAGES
        manifest = (result.out_dir / "MANIFEST").read_text().splitlines()
        assert [line.split("  ", 1)[1] for line in manifest] == MANIFEST_FILES
        assert len(result.fit_rows) == 3

    def test_byte_identical_across_runs(self, tmp_path):
        first = run_pipeline(load_config(fixture_config(tmp_path, "one")))
        second = run_pipeline(load_config(fixture_config(tmp_path, "two")))
        a = bundle_bytes(first.out_dir)
        b = bundle_bytes(second.out_dir)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], name

    def test_facts_and_metrics_match_golden_hashes(self, tmp_path):
        out = run_pipeline(load_config(fixture_config(tmp_path))).out_dir
        assert archive_digest(out / "facts.bin") == GOLDEN_SHA256["facts.bin"]
        metrics = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
        assert metrics == GOLDEN_SHA256["metrics.csv"]

    def test_empty_manifest_is_explicit_error(self, tmp_path):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"manifest": str(manifest), "out_dir": str(tmp_path / "out")})
        )
        with pytest.raises(EmptyCorpusError):
            run_pipeline(load_config(cfg))

    def test_failure_labels_partial_outputs(self, tmp_path):
        data = json.loads(fixture_config(tmp_path).read_text())
        # a grid subset too narrow for the fixture corpus cannot be fitted
        data["models"] = [
            {"id": "bad", "y": "methods", "x": "classes", "k": 1, "subset": [100, 200]}
        ]
        data["normalize"] = {"num": "methods", "den": "classes", "beta": 1.0}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        with pytest.raises(Exception):
            run_pipeline(load_config(cfg))
        out = Path(data["out_dir"])
        # the stages before fits completed; fits wrote nothing
        assert (out / "STATUS").read_text() == "extract\nmetrics\nFAILED\n"
        assert (out / "metrics.csv").exists()
        assert not (out / "fits.csv").exists()

    def test_test_set_too_small_leaves_its_cells_blank(self, tmp_path):
        data = json.loads(fixture_config(tmp_path).read_text())
        # one fixture project has 2 classes: an NRMSE needs 2 points
        data["testsets"].append({"name": "one", "metric": "classes", "range": [2, 3]})
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps(data))
        out = run_pipeline(load_config(cfg)).out_dir
        csv_lines = (out / "nrmse.csv").read_text().splitlines()
        assert csv_lines[0] == "model,subset,all,big,one"
        assert [line.rsplit(",", 1)[1] for line in csv_lines[1:]] == ["", "", ""]
        table_lines = (out / "nrmse_table.txt").read_text().splitlines()
        assert table_lines[0] == "model | subset | all | big | one"
        assert [line.rsplit(" | ", 1)[1] for line in table_lines[1:]] == ["", "", ""]

    def test_bin_metric_key_bins_by_that_metric(self, tmp_path, capsys):
        data = json.loads(fixture_config(tmp_path).read_text())
        data.update(bin_metric="sloc", bin_edges=[15, 25])
        cfg = tmp_path / "sloc.json"
        cfg.write_text(json.dumps(data))
        out = run_pipeline(load_config(cfg)).out_dir
        argv = ["--ratio", "methods/classes", "--edges", "15,25", "--bin-metric", "sloc"]
        assert main(["bins", str(out / "metrics.csv"), *argv]) == 0
        report = (out / "bin_report.txt").read_text() + (out / "welch_matrix.txt").read_text()
        assert capsys.readouterr().out == report
        assert main(["bins", str(out / "metrics.csv"), *argv[:-2]]) == 0  # by classes
        assert capsys.readouterr().out != report

    @pytest.mark.parametrize("make_config", [fixture_config, java_corpus_config])
    def test_byte_identical_for_any_worker_count(self, tmp_path, make_config, monkeypatch):
        def bundle(workers, name):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
            config = load_config(make_config(tmp_path, name))
            return bundle_bytes(run_pipeline(config).out_dir)

        first = bundle(1, "w1")
        for workers in (2, 4):
            assert bundle(workers, f"w{workers}") == first, workers
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")  # as on Windows: two CPUs, one process
        assert bundle(2, "no-fork") == first

    def test_worker_failure_fails_the_run(self, tmp_path, monkeypatch):
        real = pipeline.extract_project
        manifest = read_manifest(CORPUS_DIR / "manifest.txt")
        project_ids = [pid for pid, _ in manifest]
        weights = [pipeline._java_bytes(root) for _, root in manifest]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for case, (failing, first, where) in zip(FAILING_IDS, failing_cases(weights)):
            crash = crash_on(failing)

            def extract_project(root, project_id, crash=crash):
                crash(project_id)
                return real(root, project_id)

            # patched before the children are forked, so they inherit it
            monkeypatch.setattr(pipeline, "extract_project", extract_project)
            config = load_config(fixture_config(tmp_path, case))
            with pytest.raises(ExtractionCrash, match=f"^{first} in {where}$"):
                run_pipeline(config)
            assert_no_child_left()
            out = Path(config.out_dir)
            assert (out / "STATUS").read_text() == "FAILED\n"
            # the records before the failed one are not a shorter corpus
            record = project_ids.index(first) + 1
            with pytest.raises(ArchiveIntegrityError, match=f"truncated at record {record}$"):
                read_facts(out / "facts.bin")

    def test_decorrelation_report_format(self, tmp_path):
        out = run_pipeline(load_config(java_corpus_config(tmp_path))).out_dir
        fits = (out / "fits.csv").read_text().splitlines()
        beta_text = dict(zip(fits[0].split(","), fits[1].split(",")))["beta"]
        [deco] = (out / "decorrelation.txt").read_text().splitlines()
        keys, values = zip(*(field.split("=") for field in deco.split(" ")))
        assert keys == ("beta", "n", "pearson_log", "spearman", "decorrelated")
        assert values[:2] == (beta_text, "12")
        assert all(-1.0 <= float(v) <= 1.0 for v in values[2:4])
        assert values[4] in ("True", "False")

    def test_statistics_commands_print_the_stage_files(self, tmp_path, capsys):
        """Each statistics command prints the files its pipeline stage
        writes, so each text has one renderer."""
        path = java_corpus_config(tmp_path)
        cfg = {**json.loads(path.read_text()), "bin_ratio": ["methods", "classes"]}
        path.write_text(json.dumps(cfg))
        out = run_pipeline(load_config(path)).out_dir
        fits = (out / "fits.csv").read_text().splitlines()
        beta_text = dict(zip(fits[0].split(","), fits[1].split(",")))["beta"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"models": cfg["models"], "testsets": cfg["testsets"]}))
        table = str(out / "metrics.csv")
        normalize = ["normalize", table, "--num", "methods", "--den", "classes",
                     "--beta", beta_text]
        edges = ",".join(map(str, cfg["bin_edges"]))
        for argv, files in [
            (["validate", table, "--grid", str(grid)], ["fit_table.txt", "nrmse_table.txt"]),
            (["bins", table, "--ratio", "methods/classes", "--edges", edges],
             ["bin_report.txt", "welch_matrix.txt"]),
            (normalize, ["normalized.csv", "decorrelation.txt"]),
        ]:
            capsys.readouterr()
            assert main(argv) == 0, argv[0]
            expected = "".join((out / name).read_text() for name in files)
            assert capsys.readouterr().out == expected, argv[0]
        written = tmp_path / "normalized.csv"
        assert main(normalize + ["-o", str(written)]) == 0
        assert written.read_bytes() == (out / "normalized.csv").read_bytes()
        assert "decorrelation unavailable" not in (out / "decorrelation.txt").read_text()

    def test_report_renders_from_stored_tables(self, tmp_path):
        result = run_pipeline(load_config(fixture_config(tmp_path)))
        text = render_run_report(result.out_dir)
        assert "model fits" in text
        assert "projects: 10" in text


def test_statistics_commands_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(STATS_SPEC))
    Path("grid.json").write_text(json.dumps(STATS_GRID))
    assert main(["synth", "--spec", "spec.json", "-o", "synth.csv"]) == 0
    capsys.readouterr()
    digests = {}
    for name, argv in STATS_COMMANDS.items():
        assert main(argv) == 0, name
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    digests["normalized.csv"] = hashlib.sha256(Path("normalized.csv").read_bytes()).hexdigest()
    assert digests == STATS_SHA256


def test_import_leaves_process_pools_unloaded(tmp_path):
    """The pool modules load neither when ``javascale`` or any of its
    modules is imported nor when a command runs in forked workers."""
    facts = tmp_path / "facts.bin"
    assert main(["extract", str(CORPUS_DIR / "manifest.txt"), "-o", str(facts)]) == 0
    src = Path(javascale.__file__).resolve().parents[1]
    pools = "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    code = (
        "import os, pkgutil, sys, javascale\n"
        "for m in pkgutil.iter_modules(javascale.__path__):\n"
        "    __import__(f'javascale.{m.name}')\n"
        f"{pools}\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from javascale.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        f"{pools}\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["metrics", str(facts), "-o", str(tmp_path / "m.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")
    assert (tmp_path / "m.csv").exists()


def test_workers_run_each_job_once_and_leave_no_child(monkeypatch):
    """Seven children and this process on 50,000 tiny jobs: a lost update
    of the window they share would run a job twice or skip one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    jobs = [(k, 2) for k in range(50_000)]
    assert list(pipeline._in_workers(pow, jobs, lambda job: job[0] % 7)) == [
        k * k for k in range(50_000)
    ]
    assert_no_child_left()
    results = pipeline._in_workers(pow, jobs, lambda job: 0)
    assert next(results) == 0
    results.close()
    assert_no_child_left()


def _raise_here_sleep_in_a_child(parent: int, weight: int) -> None:
    if os.getpid() == parent:
        raise KeyboardInterrupt
    time.sleep(20)


def test_workers_are_stopped_when_this_process_raises(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    jobs = [(os.getpid(), k) for k in range(4)]
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        list(pipeline._in_workers(_raise_here_sleep_in_a_child, jobs, lambda job: job[1]))
    assert time.monotonic() - start < 10  # the child was not waited for
    assert_no_child_left()


def test_workers_do_not_fork_while_another_thread_runs(tmp_path, monkeypatch):
    """With another thread running, the jobs run here, and give the same
    bytes as in forked workers."""
    manifest, prefixes = CORPUS_DIR / "manifest.txt", DEFAULT_JDK_PREFIXES
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        return real_fork()

    def run(name: str) -> tuple:
        forks.clear()
        archive = tmp_path / f"{name}.bin"
        rows, warnings = pipeline.extract_facts(manifest, prefixes, archive)
        measured = pipeline.measure_archive(archive, prefixes)
        return rows, warnings, measured, archive.read_bytes(), len(forks)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = run("forked")
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        here = run("here")
    finally:
        parked.set()
        thread.join()
    assert (forked[-1], here[-1]) == (2, 0)
    assert here[:-1] == forked[:-1]
    assert_no_child_left()


# run in a process group of its own, so that a command waiting on a dead
# worker fails the test on a timeout, its workers and all, instead of
# stalling the suite
@pytest.mark.parametrize("command", ["extract", "metrics"])
def test_dead_worker_is_an_error(tmp_path, command):
    facts = tmp_path / "facts.bin"
    assert main(["extract", str(CORPUS_DIR / "manifest.txt"), "-o", str(facts)]) == 0
    # a child dies on its first job; the jobs run here wait, so that it takes one
    code = (
        "import os, sys, time\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from javascale import pipeline\n"
        "from javascale.cli import main\n"
        "parent, real = os.getpid(), pipeline.measure\n"
        "def measure(*args):\n"
        "    if os.getpid() != parent:\n"
        "        os._exit(1)\n"
        "    time.sleep(0.01)\n"
        "    return real(*args)\n"
        "pipeline.measure = measure\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
    )
    argv = {
        "extract": ["extract", str(CORPUS_DIR / "manifest.txt"), "-o", str(tmp_path / "f.bin")],
        "metrics": ["metrics", str(facts), "-o", str(tmp_path / "m.csv")],
    }[command]
    src = Path(javascale.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the {command} command ran for 60 s with a dead worker")
    assert (proc.returncode, err) == (0, "")
    assert re.fullmatch(r"worker process \d+ exited with 1 and sent no results\nno child left\n", out)
    assert not (tmp_path / "m.csv").exists()


class TestEvaluateGrid:
    # m1, m5 and r1 share their metrics, k and zero offset; i2 does not
    CELLS = [
        pipeline.GridCell("m1", "methods", "classes"),
        pipeline.GridCell("m5", "methods", "classes", subset=(50, 1000)),
        pipeline.GridCell("r1", "methods", "classes", robust=True),
        pipeline.GridCell("i2", "interfaces", "classes", k=2.0),
    ]
    TESTSETS = [
        pipeline.EvalSet("vsmall", "classes", 0, 10),
        pipeline.EvalSet("vlarge", "classes", 3000, math.inf),
        pipeline.EvalSet("all", "classes", 0, math.inf),
    ]

    @staticmethod
    def corpus() -> MetricColumns:
        rows = []
        for i in range(60):
            classes = round(2 * 1.15**i)
            interfaces = classes // 7 + i % 3
            rows.append(
                ProjectMetrics(
                    project_id=f"p{i:02d}",
                    classes=classes,
                    interfaces=interfaces,
                    modules=classes + interfaces,
                    methods=round(3 * classes**1.1) + i % 5,
                )
            )
        return metric_columns(rows)

    @pytest.mark.parametrize("space", ["log", "linear"])
    def test_same_as_one_evaluation_per_model_and_test_set(self, space):
        corpus = self.corpus()
        fitted = pipeline.fit_grid(corpus, self.CELLS)
        expected = []
        for model_id, fit, cell in fitted:
            per_testset = {}
            for ts in self.TESTSETS:
                keep = pipeline.filter_by_size(corpus, ts.metric, ts.low, ts.high)
                xs = [x for x, kept in zip(corpus.column(cell.x_metric), keep) if kept]
                ys = [y for y, kept in zip(corpus.column(cell.y_metric), keep) if kept]
                per_testset[ts.name] = evaluate_nrmse(fit, xs, ys, space=space)
            expected.append((model_id, per_testset))
        evals = pipeline.evaluate_grid(corpus, fitted, self.TESTSETS, space)
        assert [(e.model_id, e.nrmse_per_testset) for e in evals] == expected

    def test_transforms_each_test_set_once_per_series(self, monkeypatch):
        corpus = self.corpus()
        fitted = pipeline.fit_grid(corpus, self.CELLS)
        calls = []

        def counted(xs, ys, k, zero_offset):
            calls.append(k)
            return transform(xs, ys, k, zero_offset)

        transform = regression._transform
        monkeypatch.setattr(regression, "_transform", counted)
        monkeypatch.setattr(pipeline, "_transform", counted)
        pipeline.evaluate_grid(corpus, fitted, self.TESTSETS)
        assert sorted(calls) == [1.0] * 3 + [2.0] * 3


class TestConfig:
    def test_defaults_applied(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"manifest": "m.txt", "out_dir": "out"}))
        config = load_config(cfg)
        assert len(config.model_grid) == 8
        assert config.bin_edges == (20, 100, 1000, 5000)
        assert config.normalize_model == "m5"
        assert config.jdk_prefixes == ("java.", "javax.")

    def test_unknown_metric_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "manifest": "m.txt",
                    "out_dir": "out",
                    "models": [{"id": "x", "y": "wat", "x": "classes"}],
                }
            )
        )
        with pytest.raises(UsageError, match=r"^unknown metric 'wat'$"):
            load_config(cfg)


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_extract_metrics_fit_chain(self, tmp_path, capsys):
        facts = tmp_path / "facts.bin"
        table = tmp_path / "metrics.csv"
        assert self.run("extract", str(CORPUS_DIR / "manifest.txt"), "-o", str(facts)) == 0
        assert self.run("metrics", str(facts), "-o", str(table)) == 0
        assert self.run("fit", str(table), "--y", "methods", "--x", "classes") == 0
        out = capsys.readouterr().out
        assert "methods vs. classes" in out
        assert "log-log" in out

    def test_fit_with_subset_and_robust(self, tmp_path, capsys):
        table = tmp_path / "metrics.csv"
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n_projects": 500,
                    "x_range": [1, 1000],
                    "alpha": 1.1,
                    "beta": 1.1,
                    "sigma": 0.4,
                    "seed": 5,
                }
            )
        )
        assert self.run("synth", "--spec", str(spec), "-o", str(table)) == 0
        assert (
            self.run(
                "fit", str(table), "--y", "methods", "--x", "classes",
                "--subset", "10:500", "--robust",
            )
            == 0
        )
        assert "(RLM)" in capsys.readouterr().out

    def test_bins_command(self, tmp_path, capsys):
        table = tmp_path / "metrics.csv"
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n_projects": 400,
                    "x_range": [1, 5000],
                    "alpha": -1.2,
                    "beta": 0.7,
                    "sigma": 0.8,
                    "seed": 6,
                    "x_metric": "classes",
                    "y_metric": "interfaces",
                }
            )
        )
        assert self.run("synth", "--spec", str(spec), "-o", str(table)) == 0
        assert (
            self.run(
                "bins", str(table), "--ratio", "interfaces/classes",
                "--edges", "20,100,1000",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "welch p-value matrix" in out

    def test_validate_command(self, tmp_path, capsys):
        table = tmp_path / "metrics.csv"
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n_projects": 1500,
                    "x_range": [1, 10000],
                    "alpha": 1.095,
                    "beta": 1.1055,
                    "sigma": 0.5,
                    "seed": 7,
                }
            )
        )
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "models": [
                        {"id": "m1", "y": "methods", "x": "classes", "k": 1},
                        {"id": "m5", "y": "methods", "x": "classes", "k": 1,
                         "subset": [50, 1000]},
                    ],
                    "testsets": [
                        {"name": "vsmall", "metric": "classes", "range": [0, 10]},
                        {"name": "all", "metric": "classes", "range": [0, None]},
                    ],
                }
            )
        )
        assert self.run("synth", "--spec", str(spec), "-o", str(table)) == 0
        assert self.run("validate", str(table), "--grid", str(grid)) == 0
        out = capsys.readouterr().out
        assert "m1" in out and "m5" in out and "vsmall" in out

    def test_normalize_command(self, tmp_path, capsys):
        table = tmp_path / "metrics.csv"
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n_projects": 800,
                    "x_range": [1, 5000],
                    "alpha": 1.095,
                    "beta": 1.1055,
                    "sigma": 0.5,
                    "seed": 8,
                }
            )
        )
        out_csv = tmp_path / "norm.csv"
        assert self.run("synth", "--spec", str(spec), "-o", str(table)) == 0
        assert (
            self.run(
                "normalize", str(table), "--num", "methods", "--den", "classes",
                "--beta", "auto", "-o", str(out_csv),
            )
            == 0
        )
        assert out_csv.read_text().startswith("project_id,raw_ratio,beta,normalized_value")
        assert "auto beta" in capsys.readouterr().out

    def test_pipeline_and_report_commands(self, tmp_path, capsys):
        cfg = fixture_config(tmp_path)
        assert self.run("pipeline", str(cfg)) == 0
        out_dir = json.loads(cfg.read_text())["out_dir"]
        assert self.run("report", out_dir) == 0
        assert "model fits" in capsys.readouterr().out

    def test_fit_zero_offset_flag(self, tmp_path, capsys):
        facts = tmp_path / "facts.bin"
        table = tmp_path / "metrics.csv"
        assert self.run("extract", str(CORPUS_DIR / "manifest.txt"), "-o", str(facts)) == 0
        assert self.run("metrics", str(facts), "-o", str(table)) == 0
        capsys.readouterr()
        assert (
            self.run(
                "fit", str(table), "--y", "methods", "--x", "classes", "--zero-offset"
            )
            == 0
        )
        assert "excluded_zero_pairs=0" in capsys.readouterr().out

    def test_bins_linear_ratio_flag(self, tmp_path, capsys):
        table = tmp_path / "metrics.csv"
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n_projects": 200,
                    "x_range": [1, 2000],
                    "alpha": -1.2,
                    "beta": 0.7,
                    "sigma": 0.8,
                    "seed": 16,
                    "x_metric": "classes",
                    "y_metric": "interfaces",
                }
            )
        )
        assert self.run("synth", "--spec", str(spec), "-o", str(table)) == 0
        assert (
            self.run(
                "bins", str(table), "--ratio", "interfaces/classes",
                "--edges", "20,100", "--linear-ratios",
            )
            == 0
        )
        assert "welch p-value matrix" in capsys.readouterr().out

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_extract_and_metrics_give_the_pipeline_bytes(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        facts = tmp_path / "facts.bin"
        table = tmp_path / "metrics.csv"
        assert self.run("extract", str(CORPUS_DIR / "manifest.txt"), "-o", str(facts)) == 0
        assert self.run("metrics", str(facts), "-o", str(table)) == 0
        out = run_pipeline(load_config(fixture_config(tmp_path))).out_dir
        assert facts.read_bytes() == (out / "facts.bin").read_bytes()
        assert table.read_bytes() == (out / "metrics.csv").read_bytes()
        # how the benchmark writes the archive it measures
        library = tmp_path / "library.bin"
        write_facts(FactsArchive(projects=extract_corpus(CORPUS_DIR / "manifest.txt")), library)
        assert facts.read_bytes() == library.read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_extract_reports_parse_warnings(self, tmp_path, capsys, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        manifest = write_java_corpus(tmp_path, 3)
        for project in ("q01", "q02"):
            (tmp_path / project / "src" / "q" / "Bad.java").write_text(
                "package q; class Bad { ??? x(; }\n"
            )
        assert [p.parse_warning_count for p in extract_corpus(manifest)] == [0, 1, 1]
        assert self.run("extract", str(manifest), "-o", str(tmp_path / "facts.bin")) == 0
        assert capsys.readouterr().out.endswith(" (2 parse warning(s))\n")

    @pytest.mark.parametrize(
        "make_manifest",
        [lambda tmp: CORPUS_DIR / "manifest.txt", lambda tmp: write_java_corpus(tmp, 12)],
        ids=["fixture", "java_corpus"],
    )
    def test_metrics_byte_identical_for_any_worker_count(
        self, tmp_path, capsys, monkeypatch, make_manifest
    ):
        facts = tmp_path / "facts.bin"
        table = tmp_path / "metrics.csv"
        assert self.run("extract", str(make_manifest(tmp_path)), "-o", str(facts)) == 0
        capsys.readouterr()
        real_fork, children = os.fork, []  # children forked per run

        def fork():
            pid = real_fork()
            children[-1] += pid != 0
            return pid

        monkeypatch.setattr(os, "fork", fork)
        outputs = []
        for cpus in (1, 2, 4, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            if len(outputs) == 3:
                monkeypatch.delattr(os, "fork")  # as on Windows: in-process
            table.unlink(missing_ok=True)
            children.append(0)
            assert self.run("metrics", str(facts), "-o", str(table)) == 0
            outputs.append((table.read_bytes(), capsys.readouterr().out))
        assert outputs == [outputs[0]] * 4
        # this process takes jobs too; on one CPU it takes them all
        assert children == [0, 1, 3, 0]
        assert_no_child_left()

    @pytest.mark.parametrize("case", FAILING_IDS)
    def test_worker_failure_fails_metrics(self, tmp_path, monkeypatch, case):
        facts, table = tmp_path / "facts.bin", tmp_path / "m.csv"
        assert self.run("extract", str(CORPUS_DIR / "manifest.txt"), "-o", str(facts)) == 0
        weights = [len(payload) for _, payload, _ in scan_records(facts)]
        failing, first, where = failing_cases(weights)[FAILING_IDS.index(case)]
        real, crash = pipeline.measure, crash_on(failing)

        def measure(columns, jdk_prefixes):
            row, unresolved = real(columns, jdk_prefixes)
            crash(row.project_id)
            return row, unresolved

        monkeypatch.setattr(pipeline, "measure", measure)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ExtractionCrash, match=f"^{first} in {where}$"):
            self.run("metrics", str(facts), "-o", str(table))
        assert_no_child_left()
        assert not table.exists()

    @pytest.mark.parametrize(
        "command, code",
        [("extract", 2), ("pipeline", 1), ("validate", 1), ("synth", 1), ("file-name", 2)],
    )
    def test_non_utf8_input_names_its_path(
        self, tmp_path, fixture_table, capsys, monkeypatch, command, code
    ):
        path = tmp_path / "input"
        path.write_bytes(b"p\xff\n" if command == "extract" else b'{"x": "\xff"}')
        if command == "file-name":  # project b holds a file whose name is not UTF-8
            for project, name in [("a", b"A.java"), ("b", b"\xffB.java")]:
                (tmp_path / project).mkdir()
                (tmp_path / project / os.fsdecode(name)).write_text("class X {}\n")
            path.write_text("a\nb\n")
        argv = {
            "extract": ["extract", str(path), "-o", str(tmp_path / "f.bin")],
            "pipeline": ["pipeline", str(path)],
            "validate": ["validate", str(fixture_table), "--grid", str(path)],
            "synth": ["synth", "--spec", str(path), "-o", str(tmp_path / "t.csv")],
            "file-name": ["extract", str(path), "-o", str(tmp_path / "f.bin")],
        }[command]
        for cpus in (1, 2):  # in-process and in a forked worker
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            assert self.run(*argv) == code
            err = capsys.readouterr().err
            assert err.startswith("data error: " if code == 2 else "usage error: ")
            if command != "file-name":
                assert f" {path}" in err
                continue
            assert err == "data error: project b: file name b'\\xffB.java' is not UTF-8\n"
            with pytest.raises(ArchiveIntegrityError, match="truncated at record 2$"):
                read_facts(tmp_path / "f.bin")

    def test_empty_archive_is_data_error(self, tmp_path, capsys):
        facts = tmp_path / "facts.bin"
        write_facts(FactsArchive(), facts)
        assert self.run("metrics", str(facts), "-o", str(tmp_path / "m.csv")) == 2
        assert capsys.readouterr().err == f"data error: {facts}: archive holds no projects\n"
        assert not (tmp_path / "m.csv").exists()

    def test_metrics_reports_unresolved_fraction(self, tmp_path, capsys):
        facts = tmp_path / "facts.bin"
        table = tmp_path / "metrics.csv"
        assert self.run("extract", str(CORPUS_DIR / "manifest.txt"), "-o", str(facts)) == 0
        assert self.run("metrics", str(facts), "-o", str(table)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "unresolved used-module names: 1 of 50 (2.0%); excluded from the provenance split"
        )

    def test_normalize_reports_missing_decorrelation(self, fixture_table, capsys):
        assert (
            self.run(
                "normalize", str(fixture_table), "--num", "methods", "--den", "classes",
                "--beta", "1.0",
            )
            == 0
        )
        assert capsys.readouterr().out.splitlines()[-1] == (
            "decorrelation unavailable: "
            "decorrelation check needs >= 10 usable projects, have 9"
        )

    # on the CI synth table, whose classes reach 5,000: 5000**1000 overflows,
    # 5000**-88 and 5000**-1000 underflow to 0, and 5000**-84 is so small
    # that some normalized values overflow
    @pytest.mark.parametrize("beta", ["1000", "-88", "-1000", "-84"])
    def test_normalize_beta_out_of_float_range_is_usage_error(self, tmp_path, capsys, beta):
        spec, table, out_csv = tmp_path / "spec.json", tmp_path / "t.csv", tmp_path / "n.csv"
        spec.write_text(json.dumps(STATS_SPEC))
        assert self.run("synth", "--spec", str(spec), "-o", str(table)) == 0
        capsys.readouterr()
        argv = [str(table) if a == "TABLE" else a for a in _NORMALIZE]
        assert self.run(*argv, f"--beta={beta}", "-o", str(out_csv)) == 1
        assert capsys.readouterr() == ("", (
            f"usage error: beta {float(beta)!r} is out of range: "
            "size**beta or a normalized value leaves the float range\n"
        ))
        assert not out_csv.exists()

    # the fixture projects have up to 3 classes: 3**1000 overflows and
    # 3**-1000 underflows to 0
    @pytest.mark.parametrize("beta", [1000, -1000])
    def test_pipeline_beta_out_of_float_range_fails_the_run(self, tmp_path, capsys, beta):
        cfg = fixture_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["normalize"] = {"num": "methods", "den": "classes", "beta": beta}
        cfg.write_text(json.dumps(data))
        assert self.run("pipeline", str(cfg)) == 1
        assert capsys.readouterr().err.startswith(f"usage error: beta {float(beta)!r} ")
        out = Path(data["out_dir"])
        assert (out / "STATUS").read_text() == "".join(f"{s}\n" for s in STAGES[:5]) + "FAILED\n"
        assert not (out / "normalized.csv").exists()

    @pytest.mark.parametrize("grid", MALFORMED_GRIDS)
    def test_malformed_grid_is_usage_error(self, tmp_path, fixture_table, capsys, grid):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        assert self.run("validate", str(fixture_table), "--grid", str(grid_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")
        cfg = fixture_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **grid}))
        assert self.run("pipeline", str(cfg)) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_wrongly_typed_settings_are_usage_errors(self, tmp_path, fixture_table, capsys):
        # a list as a model id used to end in a TypeError traceback, and a
        # synth spec with one metric for x and y wrote y into that column
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"models": [{"id": ["m1"], "y": "methods", "x": "classes"}]}))
        assert self.run("validate", str(fixture_table), "--grid", str(grid)) == 1
        message = "usage error: bad grid config value: model id ['m1'] is not a string\n"
        assert capsys.readouterr().err == message
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**_SPEC, "x_metric": "classes", "y_metric": "classes"}))
        assert self.run("synth", "--spec", str(spec), "-o", str(tmp_path / "t.csv")) == 1
        message = "usage error: bad synth spec value: x_metric and y_metric are both 'classes'\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command, data", MALFORMED_CONFIGS)
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, command, data):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        if command == "pipeline":
            argv = ["pipeline", str(path)]
        else:
            argv = ["synth", "--spec", str(path), "-o", str(tmp_path / "t.csv")]
        assert self.run(*argv) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "t.csv").exists()

    def test_synth_pair_the_row_rules_would_change_is_refused(self, tmp_path, capsys):
        spec, table = tmp_path / "spec.json", tmp_path / "t.csv"
        # modules is classes + interfaces: planting both moves modules
        spec.write_text(json.dumps({**_SPEC, "x_metric": "modules", "y_metric": "interfaces"}))
        assert self.run("synth", "--spec", str(spec), "-o", str(table)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "usage error: x_metric 'modules' and y_metric 'interfaces' cannot both be planted: "
        )
        assert not table.exists()

    def test_project_id_the_table_cannot_hold_is_a_data_error(self, tmp_path, capsys):
        for name in ("a,b", "c"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "A.java").write_text("class A {}\n")
        manifest, facts, table = tmp_path / "manifest.txt", tmp_path / "f.bin", tmp_path / "m.csv"
        manifest.write_text("a,b\nc\n")
        assert self.run("extract", str(manifest), "-o", str(facts)) == 0
        capsys.readouterr()
        message = "data error: project ids with a comma or a line break: ['a,b']\n"
        assert self.run("metrics", str(facts), "-o", str(table)) == 2
        assert capsys.readouterr() == ("", message)
        assert not table.exists()
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"manifest": str(manifest), "out_dir": str(tmp_path / "run")}))
        assert self.run("pipeline", str(config)) == 2
        assert capsys.readouterr() == ("", message)
        assert (tmp_path / "run" / "STATUS").read_text() == "extract\nFAILED\n"
        assert not (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (_FIT + ["--subset", "5"], "bad range '5', expected LO:HI"),
            (
                ["bins", "TABLE", "--ratio", "interfaces", "--edges", "1"],
                "--ratio must look like interfaces/classes",
            ),
            (_NORMALIZE + ["--beta", "steep"], "--beta must be a number or 'auto'"),
        ],
        ids=["range", "ratio", "beta"],
    )
    def test_malformed_argument_is_usage_error(self, fixture_table, capsys, argv, message):
        assert self.run(*[str(fixture_table) if a == "TABLE" else a for a in argv]) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")

    # the fixture projects have 0-3 classes, so these cells have no points
    UNFITTABLE_CELLS = [
        # the default grid's m2 subset, [10, 3000)
        ("pipeline", "model m2 (methods ~ classes on [10,3000))"),
        ("validate", "model big (methods ~ classes on [100,inf))"),
        ("normalize", "model auto (methods ~ classes on [50,1000))"),
    ]

    @pytest.mark.parametrize("command, cell", UNFITTABLE_CELLS, ids=lambda v: v.split()[0])
    def test_unfittable_cell_is_named(self, tmp_path, fixture_table, capsys, command, cell):
        path = tmp_path / "in.json"
        if command == "pipeline":
            run = tmp_path / "run"
            path.write_text(json.dumps({"manifest": str(CORPUS_DIR / "manifest.txt"),
                                        "out_dir": str(run)}))
            argv = ["pipeline", str(path)]
        elif command == "validate":
            path.write_text(json.dumps({"models": [
                {"id": "m1", "y": "methods", "x": "classes"},
                {"id": "big", "y": "methods", "x": "classes", "k": 2, "subset": [100, None],
                 "robust": True},
            ]}))
            argv = ["validate", str(fixture_table), "--grid", str(path)]
        else:
            argv = [str(fixture_table) if a == "TABLE" else a for a in _NORMALIZE]
            argv += ["--beta", "auto", "-o", str(tmp_path / "n.csv")]
        assert self.run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"data error: {cell}: need at least 3 usable pairs, have 0 (0 excluded)\n"
        )
        if command == "pipeline":
            assert (run / "STATUS").read_text() == "extract\nmetrics\nFAILED\n"
        else:
            assert captured.out == ""

    @pytest.mark.parametrize(
        "cell, error, message",
        [
            (pipeline.GridCell("one", "methods", "classes", subset=(1, 2)),
             DegeneratePredictorError,
             "model one (methods ~ classes on [1,2)): zero variance in transformed predictor"),
            (pipeline.GridCell("all", "interfaces", "classes", robust=True),
             InsufficientDataError,
             "model all (interfaces ~ classes on all): need at least 3 usable pairs, "
             "have 1 (9 excluded)"),
        ],
        ids=["degenerate", "insufficient"],
    )
    def test_fit_grid_keeps_the_error_type(self, fixture_corpus, cell, error, message):
        grid = [pipeline.GridCell("m1", "methods", "classes"), cell]
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            pipeline.fit_grid(metric_columns(fixture_corpus), grid)
        assert type(info.value) is error and type(info.value.__cause__) is error

    def test_normalize_model_outside_grid_is_usage_error(self, tmp_path, capsys):
        cfg = fixture_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["normalize"]["model"] = "m9"
        cfg.write_text(json.dumps(data))
        assert self.run("pipeline", str(cfg)) == 1
        assert capsys.readouterr().err == "usage error: normalize model 'm9' not in the grid\n"

    @pytest.mark.parametrize(
        "argv", OUT_OF_RANGE_ARGS, ids=lambda argv: " ".join([argv[0], *argv[2:]])
    )
    def test_out_of_range_argument_is_usage_error(self, fixture_table, capsys, argv):
        assert self.run(*[str(fixture_table) if a == "TABLE" else a for a in argv]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize(
        "argv",
        UNKNOWN_METRIC_ARGS + OUT_OF_RANGE_ARGS,
        ids=lambda argv: " ".join([argv[0], *argv[2:]]),
    )
    def test_settings_are_checked_before_the_table_is_read(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        def read_metrics_table(path):
            pytest.fail(f"{argv[0]} read {path} before checking its settings")

        monkeypatch.setattr(cli, "read_metrics_table", read_metrics_table)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"models": [{"id": "m1", "y": "bogus", "x": "classes"}]}))
        names = {"TABLE": str(tmp_path / "missing.csv"), "GRID": str(grid)}
        assert self.run(*[names.get(a, a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        if argv in UNKNOWN_METRIC_ARGS:
            assert err == "usage error: unknown metric 'bogus'\n"

    def test_normalize_subset_matters_for_auto_only(self, fixture_table, capsys):
        argv = [str(fixture_table) if a == "TABLE" else a for a in _NORMALIZE]
        assert self.run(*argv, "--beta", "1.5", "--subset", "5:1") == 0

    # num / den**beta removes the size dependence of num ~ den with k = 1 only
    @pytest.mark.parametrize(
        "num, den, k",
        [("interfaces", "classes", 1), ("classes", "methods", 1), ("methods", "classes", 2)],
    )
    def test_normalize_model_must_fit_the_normalized_law(self, tmp_path, capsys, num, den, k):
        cfg = fixture_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["normalize"] = {"num": num, "den": den, "beta": "auto", "model": "m1"}
        data["models"][0]["k"] = k
        cfg.write_text(json.dumps(data))
        assert self.run("pipeline", str(cfg)) == 1
        assert capsys.readouterr().err == (
            f"usage error: normalize model 'm1' fits methods ~ classes with k={k}, "
            f"not {num} ~ {den} with k=1\n"
        )
        assert not Path(data["out_dir"]).exists()

    @pytest.mark.parametrize("change", OUT_OF_RANGE_CONFIGS, ids=json.dumps)
    def test_out_of_range_config_fails_before_any_stage(self, tmp_path, capsys, change):
        cfg = fixture_config(tmp_path)
        data = {**json.loads(cfg.read_text()), **change}
        cfg.write_text(json.dumps(data))
        assert self.run("pipeline", str(cfg)) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not Path(data["out_dir"]).exists()

    def test_usage_error_exit_1(self, capsys):
        assert self.run("fit") == 1
        assert self.run("frobnicate") == 1

    def test_data_error_exit_2(self, tmp_path, capsys):
        empty_manifest = tmp_path / "m.txt"
        empty_manifest.write_text("")
        code = self.run("extract", str(empty_manifest), "-o", str(tmp_path / "f.bin"))
        assert code == 2
        missing = self.run("metrics", str(tmp_path / "nope.bin"), "-o", str(tmp_path / "x"))
        assert missing == 2

    def test_unknown_metric_is_usage_error(self, tmp_path):
        table = tmp_path / "metrics.csv"
        facts = tmp_path / "facts.bin"
        assert self.run("extract", str(CORPUS_DIR / "manifest.txt"), "-o", str(facts)) == 0
        assert self.run("metrics", str(facts), "-o", str(table)) == 0
        assert self.run("fit", str(table), "--y", "bogus", "--x", "classes") == 1
