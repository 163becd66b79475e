"""Compare the facts two ``src/`` trees of javascale extract from the same projects.

    python tests/facts_diff.py OLD_SRC NEW_SRC

Writes the project sets below into a temporary directory, extracts and
archives every project under each tree in its own interpreter, decodes its
record with that tree's ``decode_columns``, and prints each project whose
decoded facts differ, then one count per set.  The facts are compared as
canonical JSON, so two trees that write different archive versions can be
compared.  Exit status 0 when no record differs, 1 otherwise.

The sets: the mutated projects of ``test_extractor.mutated_projects`` for
seeds 20260 (400 projects, the ones its digest test pins), 12345 and 777
(1,500 each); each of ``test_extractor._SOURCES`` as a one-file project;
the fixture corpus; and the benchmark's corpora for seeds 1, 7 and 11,
made by ``bench/gen.py``.  The projects are made once, from this
checkout's tests and generator, so both trees read the same files.

Not a test module: pytest collects ``test_*.py`` only.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
MUTATED_SEEDS = ((20260, 400), (12345, 1500), (777, 1500))
BENCH_SEEDS = (1, 7, 11)


def _manifest_projects(manifest: Path) -> list[tuple[str, str]]:
    return [
        (line.strip(), str(manifest.parent / line.strip()))
        for line in manifest.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def write_sets(root: Path) -> dict[str, list[tuple[str, str]]]:
    """Write every project set under ``root``; each set's (id, root) pairs."""
    sys.path[:0] = [str(TESTS), str(TESTS.parent / "bench"), str(TESTS.parent / "src")]
    import gen
    from test_extractor import _SOURCES, mutated_projects, write_project

    sets: dict[str, list[tuple[str, str]]] = {}
    for seed, count in MUTATED_SEEDS:
        name = f"mutated-{seed}"
        sets[name] = []
        for n, files in enumerate(mutated_projects(seed, count)):
            pid = f"m{n:04d}"
            write_project(root / name / pid, files)
            sets[name].append((pid, str(root / name / pid)))
    sets["sources"] = []
    for n, text in enumerate(_SOURCES):
        pid = f"s{n:02d}"
        write_project(root / "sources" / pid, {"F.java": text})
        sets["sources"].append((pid, str(root / "sources" / pid)))
    sets["fixtures"] = _manifest_projects(TESTS / "fixtures" / "corpus" / "manifest.txt")
    for seed in BENCH_SEEDS:
        gen.write_corpus(gen.generate_corpus(seed), root / f"bench-{seed}")
        sets[f"bench-{seed}"] = _manifest_projects(root / f"bench-{seed}" / "manifest.txt")
    return sets


def extract_digests(src: str, sets_json: str) -> None:
    """Print, as JSON, the sha256 of each project's facts as the javascale
    under ``src`` extracts, archives and decodes them: the canonical JSON
    of the ``FactColumns`` its ``decode_columns`` returns."""
    sys.path.insert(0, src)
    from javascale.extractor import extract_project
    from javascale.store import FactsArchive, decode_columns, scan_records, write_facts

    sets = json.loads(Path(sets_json).read_text(encoding="utf-8"))
    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "facts.bin"
        for name, projects in sets.items():
            digests[name] = {}
            for pid, root in projects:
                write_facts(FactsArchive(projects=[extract_project(root, pid)]), archive)
                ((_, payload, lineno),) = scan_records(archive)
                columns = decode_columns(payload, archive, lineno)
                text = json.dumps(columns._asdict(), sort_keys=True, separators=(",", ":"))
                digests[name][pid] = hashlib.sha256(text.encode()).hexdigest()
    print(json.dumps(digests))


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--extract":
        extract_digests(argv[1], argv[2])
        return 0
    if len(argv) != 2 or not all(Path(src, "javascale").is_dir() for src in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        sets_json = Path(tmp) / "sets.json"
        sets_json.write_text(json.dumps(write_sets(Path(tmp))), encoding="utf-8")
        procs = [
            subprocess.Popen(
                [sys.executable, __file__, "--extract", str(Path(src).resolve()), str(sets_json)],
                stdout=subprocess.PIPE,
            )
            for src in argv
        ]
        outputs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("extraction failed", file=sys.stderr)
        return 2
    old, new = (json.loads(out) for out in outputs)
    differing = 0
    for name, digests in old.items():
        diffs = [pid for pid, digest in digests.items() if new[name].get(pid) != digest]
        for pid in diffs:
            print(f"{name}/{pid}")
        print(f"{name}: {len(diffs)} of {len(digests)} record(s) differ")
        differing += len(diffs)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
