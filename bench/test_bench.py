"""Tests of the benchmark's own generator and oracle.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import gen
from javascale import compute_metrics, extract_project


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_corpus_is_byte_identical_for_a_seed(tmp_path):
    gen.write_corpus(gen.generate_corpus(7), tmp_path / "a")
    gen.write_corpus(gen.generate_corpus(7), tmp_path / "b")
    gen.write_corpus(gen.generate_corpus(8), tmp_path / "c")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_table_is_byte_identical_for_a_seed(tmp_path):
    gen.write_table(gen.table_rows(7), tmp_path / "a.csv")
    gen.write_table(gen.table_rows(7), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_oracle_agrees_with_compute_metrics(tmp_path):
    corpus = gen.generate_corpus(3)
    gen.write_corpus(corpus, tmp_path)
    checked = 0
    for pid, expected in corpus.expected.items():
        if expected["classes"] >= 100:
            continue  # the small projects already hold every construct
        facts = extract_project(tmp_path / pid, pid)
        assert facts.parse_warning_count == 0, facts.warnings
        pm = compute_metrics(facts)
        assert {f: getattr(pm, f) for f in gen.ORACLE_FIELDS} == expected, pid
        checked += 1
    assert checked == 11
