import faulthandler
import hashlib
import os
import zlib

import pytest

from javascale.errors import ArchiveIntegrityError
from javascale.extractor import extract_corpus, extract_project
from javascale.facts import EntityKind, RelationKind
from javascale.metrics import DEFAULT_JDK_PREFIXES, compute_metrics, measure
from javascale.pipeline import _measure_record
from javascale.store import decode_columns, encode_columns, scan_records

from facts_diff import columns_json

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
MANIFEST = CORPUS_DIR / "manifest.txt"

FOONUMBER_ROOT = CORPUS_DIR / "p01_foonumber"
FOONUMBER_SOURCE = (FOONUMBER_ROOT / "src/foo/FooNumber.java").read_text()


def archive_digest(*archives: Path) -> str:
    """The sha256 of the archives' decompressed record payloads, in order:
    unlike the archive's bytes it does not depend on the zlib build."""
    digest = hashlib.sha256()
    for archive in archives:
        for _, payload, _ in scan_records(archive):
            digest.update(zlib.decompress(payload))
    return digest.hexdigest()


def columns_digest(*archives: Path) -> str:
    """The sha256 of the canonical JSON of each record's decoded columns, in
    order, as ``facts_diff`` computes it: unlike ``archive_digest`` it does
    not depend on the archive's format."""
    digest = hashlib.sha256()
    for archive in archives:
        for _, payload, lineno in scan_records(archive):
            digest.update(columns_json(decode_columns(payload, archive, lineno)))
    return digest.hexdigest()


def assert_in_extractions_form(facts) -> None:
    """``facts`` are in the form extraction makes: the archive's decoder
    gives back the columns its encoder was given, which holds only for ids
    1..n and sources and int targets that are entities, with every
    ``CONTAINS`` relation first, its targets increasing and each from an
    earlier entity; every entity but a package has a parent; and the sloc
    count is not negative."""
    assert facts.sloc >= 0, f"sloc must be non-negative, got {facts.sloc}"
    columns = facts.columns()
    decoded = decode_columns(encode_columns(columns), "facts", 3)
    assert columns_json(decoded) == columns_json(columns)
    ids, fqns, kinds = columns.entities[:3]
    contained = {t for k, t in zip(*columns.relations[1:]) if k == RelationKind.CONTAINS}
    for entity_id, fqn, kind in zip(ids, fqns, kinds):
        assert kind == EntityKind.PACKAGE or entity_id in contained, (
            f"{fqn} has no CONTAINS parent"
        )


def assert_measured_alike(archive: Path, projects) -> None:
    """Measuring each record of ``archive`` as the metrics command does gives
    what ``measure`` gives its project: the row and unresolved count, or the
    fault's message."""
    records = list(scan_records(archive))
    assert len(records) == len(projects)
    for (offset, payload, lineno), facts in zip(records, projects):
        try:
            expected = measure(facts)
        except (TypeError, ValueError) as exc:
            expected = f"{archive}: bad record at line {lineno}: {exc}"
        try:
            got = _measure_record(archive, offset, len(payload), lineno, DEFAULT_JDK_PREFIXES)
        except ArchiveIntegrityError as exc:
            got = str(exc)
        assert got == expected


# a test running this long has lost a loop bound; the slowest takes about 2.4 s
TEST_TIME_LIMIT_S = 120
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # the run's own stderr: while a test runs, descriptor 2 is pytest's
    # capture file, which is lost when the watchdog ends the process
    config.stash[_STDERR] = os.dup(2)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """End the run with every thread's traceback when one test's setup,
    call and teardown take longer than ``TEST_TIME_LIMIT_S``, rather than
    hang.  The watchdog is no ``threading`` thread, so it does not keep
    the pipeline's workers from forking."""
    stderr = item.config.stash[_STDERR]
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def pytest_collection_modifyitems(items):
    # A failing hypothesis test imports libcst to explain its example, and
    # libcst warns on import; under `-W error` that warning would replace
    # the failure report, falsifying example included, with an INTERNALERROR.
    # A command-line -W overrides ini filters but not this mark.
    mark = pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    )
    for item in items:
        item.add_marker(mark)


@pytest.fixture(scope="session")
def foonumber_facts():
    return extract_project(FOONUMBER_ROOT, "p01_foonumber")


@pytest.fixture(scope="session")
def fixture_projects():
    return extract_corpus(MANIFEST)


@pytest.fixture(scope="session")
def fixture_corpus(fixture_projects):
    return [compute_metrics(facts) for facts in fixture_projects]
