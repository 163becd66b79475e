"""javascale benchmark: one workload, one seed, one JSON line of figures.

    python3 bench/run.py --workload corpus_pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Inputs are generated from the
seed under ``bench/work/`` (removed afterwards), the file cache is warmed,
program set-up is timed in several fresh interpreters, and the workload
itself runs in one more fresh interpreter (``worker.py``) with
PYTHONHASHSEED fixed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7
TIME_LIMIT = 170  # seconds for the whole run


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:1]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _warm(root: Path) -> None:
    for path in root.rglob("*"):
        if path.is_file():
            path.read_bytes()


def prepare(workload: str, seed: int, work: Path, deadline: float) -> None:
    if workload == "stats_grid":
        # the oracle's copy of the table, and the program's own export of it
        gen.write_table(gen.table_rows(seed), work / "expected_table.csv")
        (work / "grid.json").write_text(json.dumps(gen.STATS_GRID), encoding="utf-8")
        _program(
            "import csv, sys; from javascale import ProjectMetrics, export_metrics_table;"
            "rows = list(csv.DictReader(open(sys.argv[1], encoding='utf-8')));"
            "export_metrics_table([ProjectMetrics(**{k: v if k == 'project_id' else int(v)"
            " for k, v in r.items()}) for r in rows], sys.argv[2])",
            [work / "expected_table.csv", work / "table.csv"],
            deadline,
        )
        return
    gen.write_corpus(gen.generate_corpus(seed), work / "corpus")
    (work / "config.json").write_text(
        json.dumps(
            {"manifest": "corpus/manifest.txt", "out_dir": "out", "models": gen.PIPELINE_MODELS}
        ),
        encoding="utf-8",
    )
    if workload == "archive_metrics":
        # the archive is written by the program's own extract + write_facts
        _program(
            "import sys; from javascale import extract_corpus, write_facts, FactsArchive;"
            "write_facts(FactsArchive(projects=extract_corpus(sys.argv[1])), sys.argv[2])",
            [work / "corpus" / "manifest.txt", work / "facts.bin"],
            deadline,
        )


def _program(code: str, args: list[Path], deadline: float) -> None:
    """Run ``code`` against the program in its own interpreter."""
    subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        cwd=ROOT, env=_env(), check=True, timeout=deadline - time.monotonic(),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["corpus_pipeline", "archive_metrics", "stats_grid"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not (ROOT / "src" / "javascale" / "__init__.py").is_file():
        print(f"no javascale source tree under {ROOT}", file=sys.stderr)
        return 2
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepare(args.workload, args.seed, work, deadline)
        _warm(work)
        _warm(ROOT / "src")
        base = [args.workload, str(work), str(args.seconds), str(args.trace)]
        setup = []
        if not args.trace:
            # the first probe also compiles the byte code; it is not kept
            for _ in range(SETUP_SAMPLES + 1):
                s = _worker(base + ["--setup-only"], deadline - time.monotonic())
                setup.append(s["setup_s"])
            setup = setup[1:]
        result = _worker(base, deadline - time.monotonic())
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    # wall-clock and scaled round times and set-up samples, for the record
    print(f"{args.workload} seed {args.seed} rounds: "
          f"{json.dumps([result['rounds'], result['scaled'], setup])}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
