"""The benchmark's traced run wraps the program's public functions by the
names its modules bind them under (``bench/worker.py``, ``install_tracer``).
A name that goes missing must fail here, not only in a traced benchmark
run."""

from pathlib import Path

import pytest

from javascale import extractor, metrics

from conftest import FOONUMBER_ROOT

BENCH = Path(__file__).parents[1] / "bench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import worker

    return worker


def test_tracer_wraps_every_name_and_undoes(worker):
    originals = (extractor.tokenize, extractor.count_sloc, extractor.parse_java_file)
    tracer = worker.install_tracer()  # an AttributeError names a missing function
    try:
        assert extractor.count_sloc("int a;\n") == 1
        extractor.tokenize("int a;")
        extractor.parse_java_file("A.java", "class A {}")
        assert metrics.used_modules_by_provenance.__wrapped__ is not None
        assert dict(tracer.calls) == {
            "javalex.count_sloc": 1, "javalex.tokenize": 1, "extractor.parse": 1,
        }
        assert tracer.counts["javalex.tokens"] == 3
        assert tracer.counts["extractor.files"] == 1
    finally:
        tracer.undo()
    assert (extractor.tokenize, extractor.count_sloc, extractor.parse_java_file) == originals


def test_tracer_counts_a_projects_entities_and_relations(worker, foonumber_facts):
    # the counters read the row views, one row per entity and per relation
    tracer = worker.install_tracer()
    try:
        extractor.extract_project(FOONUMBER_ROOT, "p01_foonumber")
    finally:
        tracer.undo()
    ids, sources = foonumber_facts.entity_columns[0], foonumber_facts.relation_columns[0]
    assert tracer.calls["extractor.extract_project"] == 1
    assert tracer.counts["extractor.entities"] == len(ids) == 6
    assert tracer.counts["extractor.relations"] == len(sources) == 14
