"""Compare the facts two ``src/`` trees of javascale extract from the same projects.

    python tests/facts_diff.py OLD_SRC NEW_SRC

Writes the project sets below into a temporary directory, extracts and
archives every project under each tree in its own interpreter, decodes its
record with that tree's ``decode_columns`` and measures the decoded
facts with that tree's ``measure``.  Prints each project whose decoded
facts or metrics row differ, then two counts per set, of records and of
rows.  The facts are compared as canonical JSON, so two trees that write
different archive versions can be compared; a row is compared with its
unresolved-name count.  Exit status 0 when no record and no row differs,
1 otherwise.

The sets: the mutated projects of ``test_extractor.mutated_projects`` for
seeds 20260 (400 projects, the ones its digest test pins), 12345 and 777
(1,500 each); each of ``test_extractor._SOURCES`` as a one-file project;
each of ``CONSTRUCTS``, the constructs no other set reaches, as one; the
fixture corpus; and the benchmark's corpora for seeds 1, 7 and 11, made by
``bench/gen.py``.  The projects are made once, from this
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
# one source per construct that the extractor handles but that no other
# set holds; not in test_extractor._SOURCES, which seeds the mutated sets
CONSTRUCTS = {
    "static-import": """package c;
import static java.lang.Math.max;
import static java.util.Collections.*;
class A { int f(int a, int b) { return max(a, b); } java.util.List<A> g() { return emptyList(); } }
""",
    "permits": """package c;
sealed interface Shape permits Circle, Square {}
final class Circle implements Shape {}
final class Square implements Shape {}
""",
    "compact-record-constructor": """package c;
record Range(int lo, int hi) {
    Range { if (lo > hi) throw new IllegalArgumentException("lo > hi"); }
}
""",
    "annotation-default": """package c;
@interface Tag { String value() default "x"; int[] ids() default {1, 2}; }
""",
    "non-sealed": """package c;
sealed class Base permits Open {}
non-sealed class Open extends Base {}
""",
    "annotated-implements-and-throws": """package c;
class Task implements @Deprecated Runnable, @SuppressWarnings("x") java.io.Serializable {
    public void run() {}
    void load() throws @Deprecated java.io.IOException, @Deprecated InterruptedException {}
}
""",
    "this-new": """package c;
import java.util.function.Supplier;
class Node { Supplier<Node> maker() { return this::new; } }
""",
}


def _manifest_projects(manifest: Path) -> list[tuple[str, str]]:
    return [
        (line.strip(), str(manifest.parent / line.strip()))
        for line in manifest.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def write_sets(root: Path) -> dict[str, list[tuple[str, str]]]:
    """Write every project set under ``root``; each set's (id, root) pairs."""
    # this checkout's javascale, which the tests and the generator import
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS), str(TESTS.parent / "bench")]
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
    sources = {f"s{n:02d}": text for n, text in enumerate(_SOURCES)}
    for name, texts in [("sources", sources), ("constructs", CONSTRUCTS)]:
        sets[name] = []
        for pid, text in texts.items():
            write_project(root / name / pid, {"F.java": text})
            sets[name].append((pid, str(root / name / pid)))
    sets["fixtures"] = _manifest_projects(TESTS / "fixtures" / "corpus" / "manifest.txt")
    for seed in BENCH_SEEDS:
        gen.write_corpus(gen.generate_corpus(seed), root / f"bench-{seed}")
        sets[f"bench-{seed}"] = _manifest_projects(root / f"bench-{seed}" / "manifest.txt")
    return sets


# a record's decoded fields, in the order both the facts' named tuple and
# the older FactColumns hold them, under the keys the golden digests were
# computed with
_FIELD_KEYS = ("project_id", "sloc", "parse_warning_count", "warnings", "entities", "relations")


def columns_json(facts) -> bytes:
    """The canonical JSON of a record's decoded facts, their six fields
    taken by position: it depends neither on the archive version that
    stored them nor on the names of the fields."""
    record = dict(zip(_FIELD_KEYS, facts, strict=True))
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def extract_digests(src: str, sets_json: str) -> None:
    """Print, as JSON, two sha256 digests of each project as the javascale
    under ``src`` extracts, archives and decodes it: of the canonical JSON
    of the facts its ``decode_columns`` returns, and of the
    metrics row and unresolved-name count its ``measure`` makes of them."""
    sys.path.insert(0, src)
    from javascale.extractor import extract_project
    from javascale.metrics import measure
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
                facts = decode_columns(payload, archive, lineno)
                row, unresolved = measure(facts)
                digests[name][pid] = [
                    _sha256(columns_json(facts)),
                    _sha256(json.dumps([*row, unresolved]).encode()),
                ]
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
        for n, what in enumerate(["record", "row"]):
            diffs = [pid for pid, pair in digests.items() if new[name][pid][n] != pair[n]]
            for pid in diffs:
                print(f"{name}/{pid} {what}")
            print(f"{name}: {len(diffs)} of {len(digests)} {what}(s) differ")
            differing += len(diffs)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
