import pytest

from javascale.extractor import extract_corpus, extract_project
from javascale.metrics import compute_metrics

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
MANIFEST = CORPUS_DIR / "manifest.txt"

FOONUMBER_ROOT = CORPUS_DIR / "p01_foonumber"
FOONUMBER_SOURCE = (FOONUMBER_ROOT / "src/foo/FooNumber.java").read_text()


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
