import hashlib
import zlib

import pytest

from javascale.errors import ArchiveIntegrityError
from javascale.extractor import extract_corpus, extract_project
from javascale.metrics import DEFAULT_JDK_PREFIXES, compute_metrics, measure
from javascale.pipeline import _measure_record
from javascale.store import scan_records

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
